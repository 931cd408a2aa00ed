//! The served kernel against the reference BFS over random directed and
//! undirected graphs with self-loops and isolated vertices: visited
//! counts from every root, early-exit reach against full membership,
//! one scratch reused across graph sizes, and cancellation. Graphs of
//! 50k vertices and more with scattered ids run the batched loop; the
//! same checks run there, and the batching switch is pinned per family.

use db_core::kernel::{search, Scratch};
use db_core::{CancelToken, ValidCsr};
use db_graph::builder::from_edge_list;
use db_graph::traversal::reachable_set;
use db_graph::CsrGraph;
use proptest::prelude::*;

/// A graph of `n` vertices whose edges touch only the first three
/// quarters of the ids, so the rest are isolated; vertex 0 always
/// carries a self-loop, and random draws add more.
fn graph(n: u32, m: usize, directed: bool) -> impl Strategy<Value = CsrGraph> {
    let live = (n * 3 / 4).max(1);
    proptest::collection::vec((0..live, 0..live), 0..m).prop_map(move |mut edges| {
        edges.push((0, 0));
        from_edge_list(n, &edges, directed)
    })
}

fn arb_graph(max_n: u32, max_m: usize) -> impl Strategy<Value = CsrGraph> {
    (2..max_n, any::<bool>()).prop_flat_map(move |(n, directed)| graph(n, max_m, directed))
}

fn reference_count(g: &CsrGraph, root: u32) -> u64 {
    reachable_set(g, root).iter().filter(|&&r| r).count() as u64
}

fn dfs(g: &CsrGraph, root: u32, scratch: &mut Scratch) -> u64 {
    let g = ValidCsr::new(g).unwrap();
    let found = search(g, root, None, &CancelToken::new(), scratch);
    assert!(found.completed && !found.claimed);
    found.visited
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn visited_count_matches_reference_from_every_root(g in arb_graph(80, 200)) {
        let mut scratch = Scratch::default();
        for root in 0..g.num_vertices() as u32 {
            prop_assert_eq!(dfs(&g, root, &mut scratch), reference_count(&g, root));
        }
    }

    #[test]
    fn early_exit_reach_matches_full_membership(g in arb_graph(60, 150), root in 0u32..60) {
        let root = root % g.num_vertices() as u32;
        let truth = reachable_set(&g, root);
        let proof = ValidCsr::new(&g).unwrap();
        let mut scratch = Scratch::default();
        for target in 0..g.num_vertices() as u32 {
            let found = search(proof, root, Some(target), &CancelToken::new(), &mut scratch);
            prop_assert!(found.completed);
            prop_assert_eq!(found.claimed, truth[target as usize], "target {}", target);
            prop_assert!(found.visited <= reference_count(&g, root));
        }
    }

    #[test]
    fn one_scratch_survives_shrinking_and_growing_graphs(
        big in graph(5000, 12_000, true),
        small in graph(50, 80, false),
        again in graph(5000, 12_000, false),
        root in 0u32..50,
    ) {
        let mut scratch = Scratch::default();
        for g in [&big, &small, &again] {
            // An early-exit reach first leaves bits set and the stack
            // nonempty; the searches after it must not see either.
            let proof = ValidCsr::new(g).unwrap();
            let far = g.num_vertices() as u32 / 2;
            search(proof, root, Some(far), &CancelToken::new(), &mut scratch);
            for r in [root, far, g.num_vertices() as u32 - 1] {
                prop_assert_eq!(dfs(g, r, &mut scratch), reference_count(g, r));
            }
        }
    }

    #[test]
    fn cancelled_token_stops_with_a_partial_count(g in arb_graph(2000, 6000), root in 0u32..2000) {
        let root = root % g.num_vertices() as u32;
        let token = CancelToken::new();
        token.cancel();
        let mut scratch = Scratch::default();
        let found = search(ValidCsr::new(&g).unwrap(), root, None, &token, &mut scratch);
        prop_assert!(!found.completed);
        prop_assert!(!found.claimed);
        prop_assert!(found.visited >= 1);
        prop_assert!(found.visited <= reference_count(&g, root));
    }
}

#[test]
fn stack_never_outgrows_the_vertex_count() {
    // A star: the hub pushes every leaf at once. Marking on push keeps
    // the stack at n - 1 entries, within the n reserved.
    let n = 10_000u32;
    let g = from_edge_list(n, &(1..n).map(|v| (0, v)).collect::<Vec<_>>(), false);
    let mut scratch = Scratch::default();
    assert_eq!(dfs(&g, 0, &mut scratch), u64::from(n));
    let held = scratch.bytes();
    assert!(held >= n as usize * 4, "stack room for n entries");
    assert_eq!(dfs(&g, 5, &mut scratch), u64::from(n));
    assert_eq!(scratch.bytes(), held, "a reused scratch does not grow");
}

#[test]
fn root_as_target_is_claimed_before_any_poll() {
    let g = from_edge_list(3, &[(0, 1)], true);
    let token = CancelToken::new();
    token.cancel();
    let found = search(
        ValidCsr::new(&g).unwrap(),
        2,
        Some(2),
        &token,
        &mut Scratch::default(),
    );
    assert!(found.claimed && found.completed);
    assert_eq!(found.visited, 1);
}

/// splitmix64 step: the edge stream of [`batched_graph`].
fn splitmix(s: &mut u64) -> u64 {
    *s = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *s;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A random graph scattered enough to run batched: 50k–60k vertices,
/// `2n` edges drawn uniformly among the first three quarters of the ids
/// (the rest are isolated), and a self-loop on vertex 0.
fn batched_graph() -> impl Strategy<Value = CsrGraph> {
    (50_000u32..60_000, any::<u64>(), any::<bool>()).prop_map(|(n, seed, directed)| {
        let live = u64::from(n * 3 / 4);
        let mut s = seed;
        let mut edges: Vec<(u32, u32)> = (0..2 * n)
            .map(|_| {
                let u = splitmix(&mut s) % live;
                (u as u32, (splitmix(&mut s) % live) as u32)
            })
            .collect();
        edges.push((0, 0));
        from_edge_list(n, &edges, directed)
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    #[test]
    fn batched_visited_count_matches_reference(g in batched_graph(), pick in any::<u64>()) {
        let proof = ValidCsr::new(&g).unwrap();
        prop_assert!(proof.batches(), "far share {}", proof.far_share());
        let n = g.num_vertices() as u32;
        let mut scratch = Scratch::default();
        for root in [0, (pick % u64::from(n)) as u32, n - 1] {
            prop_assert_eq!(dfs(&g, root, &mut scratch), reference_count(&g, root));
        }
    }

    #[test]
    fn batched_early_exit_reach_matches_full_membership(
        g in batched_graph(),
        pick in any::<u64>(),
    ) {
        let n = u64::from(g.num_vertices() as u32);
        // A root among the live ids, and targets spread over all of
        // them, the isolated tail and the root itself included.
        let root = (pick % (n * 3 / 4)) as u32;
        let truth = reachable_set(&g, root);
        let full = reference_count(&g, root);
        let proof = ValidCsr::new(&g).unwrap();
        let mut scratch = Scratch::default();
        let spread = (0..64u64).map(|i| ((pick >> 8).wrapping_add(i * 0x9e37_79b9) % n) as u32);
        for target in spread.chain([root, n as u32 - 1]) {
            let found = search(proof, root, Some(target), &CancelToken::new(), &mut scratch);
            prop_assert!(found.completed);
            prop_assert_eq!(found.claimed, truth[target as usize], "target {}", target);
            prop_assert!(found.visited <= full);
        }
    }

    #[test]
    fn batched_search_stops_at_a_cancelled_token(g in batched_graph(), root in 0u32..50_000) {
        let token = CancelToken::new();
        token.cancel();
        let proof = ValidCsr::new(&g).unwrap();
        prop_assert!(proof.batches());
        let found = search(proof, root, None, &token, &mut Scratch::default());
        prop_assert_eq!(found.visited, 1);
        prop_assert!(!found.completed && !found.claimed);
    }

    #[test]
    fn one_scratch_serves_batched_and_unbatched_graphs(
        big in batched_graph(),
        small in graph(3000, 8000, false),
        root in 0u32..2000,
    ) {
        let mut scratch = Scratch::default();
        for g in [&big, &small, &big] {
            // An early-exit reach first leaves bits set and the stack
            // nonempty; the searches after it must not see either.
            let proof = ValidCsr::new(g).unwrap();
            prop_assert_eq!(proof.batches(), g.num_vertices() > 4096);
            let far = g.num_vertices() as u32 / 2;
            search(proof, root, Some(far), &CancelToken::new(), &mut scratch);
            for r in [root, far, g.num_vertices() as u32 - 1] {
                prop_assert_eq!(dfs(g, r, &mut scratch), reference_count(g, r));
            }
        }
    }
}

#[test]
fn stack_stays_within_the_vertex_count_in_both_modes() {
    // Stars on each side of the switch: a hub with leaves up to 4096
    // ids away has no far arcs and runs one entry at a time; a bigger
    // star batches. The entries a batch pops are off the stack while
    // it expands them, so marking on push bounds it by n either way.
    for n in [4_000u32, 50_000] {
        let g = from_edge_list(n, &(1..n).map(|v| (0, v)).collect::<Vec<_>>(), false);
        assert_eq!(ValidCsr::new(&g).unwrap().batches(), n > 4_097, "n = {n}");
        let mut scratch = Scratch::default();
        assert_eq!(dfs(&g, 0, &mut scratch), u64::from(n));
        let held = scratch.bytes();
        assert!(held >= n as usize * 4, "stack room for n entries");
        assert_eq!(dfs(&g, 5, &mut scratch), u64::from(n));
        assert_eq!(scratch.bytes(), held, "a reused scratch does not grow");
    }
}

#[test]
fn scattered_graphs_batch_and_local_ones_do_not() {
    let batches = |g: &CsrGraph| ValidCsr::new(g).unwrap().batches();
    let suite = |name: &str| db_gen::Suite::by_name(name).unwrap().build();
    assert!(batches(&db_gen::social::social(200_000, 1)));
    assert!(batches(&suite("google")));
    // The serve corpus recipes: a lattice, a path, and a dag of
    // single and double hops, each far bigger than FAR_IDS.
    let (w, n) = (500u32, 250_000u32);
    let grid: Vec<(u32, u32)> = (0..n)
        .flat_map(|v| [(v, v + 1), (v, v + w)])
        .filter(|&(v, u)| u < n && (u == v + w || u % w != 0))
        .collect();
    assert!(!batches(&from_edge_list(n, &grid, false)));
    let path: Vec<(u32, u32)> = (1..n).map(|v| (v - 1, v)).collect();
    assert!(!batches(&from_edge_list(n, &path, false)));
    let dag: Vec<(u32, u32)> = (0..n)
        .flat_map(|v| [(v, v + 1), (v, v + 2)])
        .filter(|&(_, u)| u < n)
        .collect();
    assert!(!batches(&from_edge_list(n, &dag, true)));
    assert!(!batches(&suite("delaunay")));
}
