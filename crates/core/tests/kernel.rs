//! The served kernel against the reference BFS over random directed and
//! undirected graphs with self-loops and isolated vertices: visited
//! counts from every root, early-exit reach against full membership,
//! one scratch reused across graph sizes, and cancellation.

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
