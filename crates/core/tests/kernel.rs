//! The served kernel against the reference BFS over random directed and
//! undirected graphs with self-loops and isolated vertices: visited
//! counts from every root, early-exit reach against full membership,
//! one scratch reused across graph sizes, and cancellation. Graphs of
//! 50k vertices and more with scattered ids run the sweep loop; the
//! same checks run there, and the batching switch is pinned per family.
//! The team search runs the same checks with a parked helper thread
//! (`ParkedHelper`) that joins whenever the owner offers, plus a helper
//! that leaves mid-search, a join after the end, and, on random graphs
//! with hubs, a helper that joins at a random sweep and leaves at a
//! random chunk. Four small directed graphs pin the sweep's edge cases:
//! a reach below the root, a chain stepping down a chunk per hop, marks
//! ahead of the cursor, and a target first marked in a late sweep.

use db_core::kernel::{batches, search, team_search, Crew, ParkedHelper, Scratch, Search, Team};
use db_core::CancelToken;
use db_graph::builder::from_edge_list;
use db_graph::traversal::reachable_set;
use db_graph::CsrGraph;
use proptest::prelude::*;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{mpsc, Arc, Mutex};

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
        let mut scratch = Scratch::default();
        for target in 0..g.num_vertices() as u32 {
            let found = search(&g, root, Some(target), &CancelToken::new(), &mut scratch);
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
            let far = g.num_vertices() as u32 / 2;
            search(g, root, Some(far), &CancelToken::new(), &mut scratch);
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
        let found = search(&g, root, None, &token, &mut scratch);
        prop_assert!(!found.completed);
        prop_assert!(!found.claimed);
        prop_assert!(found.visited >= 1);
        prop_assert!(found.visited <= reference_count(&g, root));
    }
}

#[test]
fn stack_never_outgrows_the_vertex_count() {
    // A star: the hub pushes every leaf at once. Marking on push keeps
    // the stack at n - 1 entries, within the n reserved. Its leaves sit
    // within FAR_IDS of the hub, so it runs the stack loop.
    let n = 4_000u32;
    let g = from_edge_list(n, &(1..n).map(|v| (0, v)).collect::<Vec<_>>(), false);
    assert!(!batches(&g));
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
    let found = search(&g, 2, Some(2), &token, &mut Scratch::default());
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

/// A graph drawn like [`batched_graph`] plus eight hubs among the live
/// ids, each joined to `n / 20` uniform draws: rows far longer than the
/// rest, as the social graphs have.
fn hub_graph() -> impl Strategy<Value = CsrGraph> {
    (50_000u32..60_000, any::<u64>(), any::<bool>()).prop_map(|(n, seed, directed)| {
        let live = n * 3 / 4;
        let mut s = seed;
        let mut draw = move || (splitmix(&mut s) % u64::from(live)) as u32;
        let mut edges: Vec<(u32, u32)> = (0..2 * n).map(|_| (draw(), draw())).collect();
        for _ in 0..8 {
            let hub = draw();
            edges.extend((0..n / 20).map(|_| (hub, draw())));
        }
        edges.push((0, 0));
        from_edge_list(n, &edges, directed)
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    #[test]
    fn batched_visited_count_matches_reference(g in batched_graph(), pick in any::<u64>()) {
        prop_assert!(batches(&g), "far arcs {} of {}", g.far_arcs(), g.num_arcs());
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
        let mut scratch = Scratch::default();
        let spread = (0..64u64).map(|i| ((pick >> 8).wrapping_add(i * 0x9e37_79b9) % n) as u32);
        for target in spread.chain([root, n as u32 - 1]) {
            let found = search(&g, root, Some(target), &CancelToken::new(), &mut scratch);
            prop_assert!(found.completed);
            prop_assert_eq!(found.claimed, truth[target as usize], "target {}", target);
            prop_assert!(found.visited <= full);
        }
    }

    #[test]
    fn batched_search_stops_at_a_cancelled_token(g in batched_graph(), root in 0u32..50_000) {
        let token = CancelToken::new();
        token.cancel();
        prop_assert!(batches(&g));
        let found = search(&g, root, None, &token, &mut Scratch::default());
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
            prop_assert_eq!(batches(g), g.num_vertices() > 4096);
            let far = g.num_vertices() as u32 / 2;
            search(g, root, Some(far), &CancelToken::new(), &mut scratch);
            for r in [root, far, g.num_vertices() as u32 - 1] {
                prop_assert_eq!(dfs(g, r, &mut scratch), reference_count(g, r));
            }
        }
    }
}

#[test]
fn scratch_stays_within_the_vertex_count_on_both_loops() {
    // Stars on each side of the switch: a hub with leaves up to 4096
    // ids away has no far arcs and runs the stack loop, which reserves
    // room for n entries; a bigger star runs the sweep loop, which holds
    // three bitmaps of n bits and no stack.
    for n in [4_000u32, 50_000] {
        let g = from_edge_list(n, &(1..n).map(|v| (0, v)).collect::<Vec<_>>(), false);
        let by_sweeps = batches(&g);
        assert_eq!(by_sweeps, n > 4_097, "n = {n}");
        let mut scratch = Scratch::default();
        assert_eq!(dfs(&g, 0, &mut scratch), u64::from(n));
        let held = scratch.bytes();
        if by_sweeps {
            let n = n as usize;
            assert!(
                (3 * n / 8..n / 2).contains(&held),
                "{held} bytes of bitmaps"
            );
        } else {
            assert!(held >= n as usize * 4, "stack room for n entries");
        }
        assert_eq!(dfs(&g, 5, &mut scratch), u64::from(n));
        assert_eq!(scratch.bytes(), held, "a reused scratch does not grow");
    }
}

#[test]
fn scattered_graphs_batch_and_local_ones_do_not() {
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

/// `g` in the shared form a team search takes.
fn shared(g: &CsrGraph) -> Arc<CsrGraph> {
    Arc::new(g.clone())
}

/// A team dfs from `root`: completed, nothing claimed, and the count.
fn team_dfs(g: &Arc<CsrGraph>, root: u32, scratch: &mut Scratch, crew: &dyn Crew) -> u64 {
    let found = team_search(g, root, None, &CancelToken::new(), scratch, crew);
    assert!(found.completed && !found.claimed);
    found.visited
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn team_count_matches_reference_on_small_graphs(g in arb_graph(80, 200)) {
        // Too small to offer: the owner searches alone on its bitmaps.
        let helper = ParkedHelper::spawn();
        let proof = shared(&g);
        let mut scratch = Scratch::default();
        for root in 0..g.num_vertices() as u32 {
            prop_assert_eq!(
                team_dfs(&proof, root, &mut scratch, &helper),
                reference_count(&g, root)
            );
        }
        prop_assert_eq!(helper.joins(), 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    #[test]
    fn team_matches_reference_on_batched_graphs(g in batched_graph(), pick in any::<u64>()) {
        let helper = ParkedHelper::spawn();
        let proof = shared(&g);
        let n = g.num_vertices() as u32;
        let mut scratch = Scratch::default();
        for root in [0, (pick % u64::from(n)) as u32, n - 1] {
            prop_assert_eq!(
                team_dfs(&proof, root, &mut scratch, &helper),
                reference_count(&g, root)
            );
        }
        let root = (pick % u64::from(n * 3 / 4)) as u32;
        let truth = reachable_set(&g, root);
        let full = reference_count(&g, root);
        let spread = (0..32u64).map(|i| ((pick >> 8).wrapping_add(i * 0x9e37_79b9) % u64::from(n)) as u32);
        for target in spread.chain([root, n - 1]) {
            let found = team_search(&proof, root, Some(target), &CancelToken::new(), &mut scratch, &helper);
            prop_assert!(found.completed);
            prop_assert_eq!(found.claimed, truth[target as usize], "target {}", target);
            prop_assert!(found.visited <= full);
        }
    }
}

#[test]
fn the_parked_helper_joins_and_the_count_stays_exact() {
    // A graph big enough that a join is all but certain; a full count
    // with the helper in it must still be exact.
    let g = db_gen::social::social(200_000, 3);
    let proof = shared(&g);
    let want = reference_count(&g, 0);
    let helper = ParkedHelper::spawn();
    let mut scratch = Scratch::default();
    for _ in 0..20 {
        assert_eq!(team_dfs(&proof, 0, &mut scratch, &helper), want);
        if helper.joins() > 0 {
            return;
        }
    }
    panic!("the helper never joined in 20 searches");
}

#[test]
fn team_root_as_target_and_a_cancelled_token() {
    let g = from_edge_list(3, &[(0, 1), (1, 2)], true);
    let proof = shared(&g);
    let helper = ParkedHelper::spawn();
    let token = CancelToken::new();
    token.cancel();
    let mut scratch = Scratch::default();
    let claimed = team_search(&proof, 2, Some(2), &token, &mut scratch, &helper);
    assert_eq!(
        claimed,
        Search {
            visited: 1,
            claimed: true,
            completed: true
        }
    );
    // A pre-cancelled token stops before the first expansion.
    for target in [None, Some(2)] {
        let found = team_search(&proof, 0, target, &token, &mut scratch, &helper);
        assert_eq!(found.visited, 1);
        assert!(!found.completed && !found.claimed);
    }
}

/// A directed graph whose root's row, from vertex 0, walks every path
/// of the sweep loop's run expansion, and the two reach targets that
/// check it: one whose only in-arc is in a middle row of a run, and one
/// whose only in-arc is in the last range of a chunk's partial batch.
///
/// The root marks ids 64..128 (a full word: a run of 64 from bit 0,
/// with empty rows 70–72), 168..192 (a run from mid-word to the word's
/// last bit), 1000 alone, a bulk 10_000..14_200 (so the owner expands
/// more than `TEAM_GRAIN` vertices and offers the search), and
/// 19_990..20_000 (a run ending at id n − 1, whose range reads
/// `row_ptr[n]`, with empty row 19_995). Each of those rows has one arc
/// to ids 5_000..8_000, many of them far; 64 and 65 point back at the
/// root and at 66, which the chunk's next read must drop as done.
/// Vertices 4_500.. have one in-arc each: from 100 (a middle row), 127,
/// 191 and 19_999 (the last row of a run each). The last chunk (ids
/// 19_456..) holds one range, so its batch is partial.
fn runs_graph() -> (CsrGraph, [u32; 2]) {
    let n = 20_000u32;
    let level1: Vec<u32> = [64..128, 168..192, 1000..1001, 10_000..14_200, 19_990..n]
        .into_iter()
        .flatten()
        .collect();
    let mut edges: Vec<(u32, u32)> = level1.iter().map(|&v| (0, v)).collect();
    let empty = [70, 71, 72, 19_995];
    edges.extend(
        level1
            .iter()
            .filter(|v| !empty.contains(v))
            .map(|&v| (v, 5_000 + v * 7 % 3_000)),
    );
    edges.extend([(64, 0), (65, 66)]);
    let [middle, last] = [4_500, 4_503];
    edges.extend([(100, middle), (127, 4_501), (191, 4_502), (n - 1, last)]);
    (from_edge_list(n, &edges, true), [middle, last])
}

#[test]
fn runs_of_frontier_ids_expand_whole_and_find_their_targets() {
    let (g, targets) = runs_graph();
    assert!(batches(&g), "far arcs {} of {}", g.far_arcs(), g.num_arcs());
    let proof = shared(&g);
    let truth = reachable_set(&g, 0);
    let want = reference_count(&g, 0);
    let helper = ParkedHelper::spawn();
    let mut scratch = Scratch::default();
    // Repeated: the helper's join races the owner through the first
    // sweep, and the answers must hold whether it joins or not.
    for _ in 0..8 {
        assert_eq!(dfs(&g, 0, &mut scratch), want);
        assert_eq!(team_dfs(&proof, 0, &mut scratch, &helper), want);
        for target in targets {
            assert!(truth[target as usize]);
            let (token, goal) = (CancelToken::new(), Some(target));
            let lone = search(&g, 0, goal, &token, &mut scratch);
            let team = team_search(&proof, 0, goal, &token, &mut scratch, &helper);
            for found in [lone, team] {
                assert!(
                    found.completed && found.claimed,
                    "target {target}: {found:?}"
                );
                assert!(found.visited < want, "target {target}: {found:?}");
            }
        }
    }
}

/// Checks a search of `g` from `root`, lone and with a parked helper,
/// eight times over (the helper's join races the owner): the dfs count
/// against the reference BFS, and a reach to each of `targets` against
/// the reachable set.
fn check_sweeps(g: &CsrGraph, root: u32, targets: &[u32]) {
    assert!(batches(g), "far arcs {} of {}", g.far_arcs(), g.num_arcs());
    let proof = shared(g);
    let truth = reachable_set(g, root);
    let want = reference_count(g, root);
    let helper = ParkedHelper::spawn();
    let mut scratch = Scratch::default();
    for _ in 0..8 {
        assert_eq!(dfs(g, root, &mut scratch), want);
        assert_eq!(team_dfs(&proof, root, &mut scratch, &helper), want);
        for &target in targets {
            let (token, goal) = (CancelToken::new(), Some(target));
            let lone = search(g, root, goal, &token, &mut scratch);
            let team = team_search(&proof, root, goal, &token, &mut scratch, &helper);
            for found in [lone, team] {
                assert!(found.completed, "target {target}: {found:?}");
                assert_eq!(
                    found.claimed, truth[target as usize],
                    "target {target}: {found:?}"
                );
                assert!(found.visited <= want, "target {target}: {found:?}");
            }
        }
    }
}

/// Arcs from `u` to each of `bulk`: a row long enough that the owner
/// expands more than `TEAM_GRAIN` vertices and offers its search.
fn bulk(u: u32, ids: std::ops::Range<u32>) -> impl Iterator<Item = (u32, u32)> {
    ids.map(move |v| (u, v))
}

#[test]
fn a_root_above_part_of_its_reach_needs_a_second_sweep() {
    // The root, 12_000, marks a bulk above it, each row of which points
    // further up, and 2_000 below it, which waits for sweep 1. There
    // 2_000 marks 2_001..2_100 ahead of the cursor, and 2_100 marks
    // 1_000 behind it (sweep 2), which marks 19_500 ahead again, which
    // marks 500 behind (sweep 3). Ids 5_000..8_000 are unreachable.
    let n = 20_000;
    let mut edges: Vec<(u32, u32)> = bulk(12_000, 12_001..16_400).collect();
    edges.extend((12_001..16_400).map(|v| (v, 17_000 + v * 7 % 3_000)));
    edges.extend(bulk(2_000, 2_001..2_101));
    edges.extend([
        (12_000, 2_000),
        (2_100, 1_000),
        (1_000, 19_500),
        (19_500, 500),
    ]);
    let g = from_edge_list(n, &edges, true);
    check_sweeps(&g, 12_000, &[14_000, 2_050, 1_000, 19_500, 500, 7_000]);
}

#[test]
fn a_chain_stepping_down_takes_one_sweep_per_hop() {
    // The root, 95_000, marks a bulk above it and 90_000 below it; the
    // chain then steps down 5_000 ids a hop, far more than a chunk, so
    // each of its 19 vertices is marked behind the cursor and expanded
    // one sweep later, each sweep walking to the end of the map. 47_500
    // is unreachable.
    let n = 100_000;
    let mut edges: Vec<(u32, u32)> = bulk(95_000, 95_001..99_400).collect();
    edges.extend((0..19).map(|k| (95_000 - 5_000 * k, 90_000 - 5_000 * k)));
    let g = from_edge_list(n, &edges, true);
    check_sweeps(&g, 95_000, &[0, 45_000, 90_000, 47_500]);
}

#[test]
fn marks_ahead_of_the_cursor_expand_in_the_same_sweep() {
    // From the root, 0, in its first chunk: the root marks 700 ahead of
    // the cursor only when its batch is scanned, after the pass has read
    // 700's word, so the chunk's second read expands it. 700 marks 300,
    // behind it in the chunk, which a third read expands, and 300 marks
    // 900, ahead again, for a fourth. 700 also marks 6_000 in a later
    // chunk, which marks 6_500 ahead of it, whose row is a bulk that
    // points further up. 10_000 is unreachable.
    let n = 30_000;
    let mut edges = vec![
        (0, 700),
        (700, 300),
        (300, 900),
        (700, 6_000),
        (6_000, 6_500),
    ];
    edges.extend(bulk(6_500, 20_000..24_400));
    edges.extend((20_000..24_400).map(|v| (v, 29_000 + v % 900)));
    let g = from_edge_list(n, &edges, true);
    check_sweeps(
        &g,
        0,
        &[700, 300, 900, 6_000, 6_500, 22_222, 29_500, 10_000],
    );
}

#[test]
fn a_target_first_marked_in_a_late_sweep_is_claimed() {
    // The root, 40_000, marks a bulk above it and 30_000 below (sweep
    // 1), which marks 50_000 ahead of the cursor, which marks 20_000
    // behind (sweep 2). 20_000 marks 10_000, so 10_000 is first marked
    // in the third sweep; it marks 55_000 ahead, which marks 5_000 in
    // the fourth. 25_000 is unreachable.
    let n = 60_000;
    let mut edges: Vec<(u32, u32)> = bulk(40_000, 40_001..44_400).collect();
    edges.extend([
        (40_000, 30_000),
        (30_000, 50_000),
        (50_000, 20_000),
        (20_000, 10_000),
        (10_000, 55_000),
        (55_000, 5_000),
    ]);
    let g = from_edge_list(n, &edges, true);
    check_sweeps(&g, 40_000, &[10_000, 5_000, 55_000, 25_000]);
}

/// A crew that hands every offered team to the test through a channel
/// and never has a request queued.
struct Catch(Mutex<mpsc::Sender<Arc<Team>>>);

impl Crew for Catch {
    fn queued(&self) -> bool {
        false
    }

    fn offer(&self, team: &Arc<Team>) -> bool {
        self.0.lock().unwrap().send(Arc::clone(team)).is_ok()
    }

    fn withdraw(&self, _: &Arc<Team>) {}
}

/// A star whose hub pushes `n - 1` leaves at once: the owner offers at
/// its second poll.
fn star(n: u32) -> CsrGraph {
    from_edge_list(n, &(1..n).map(|v| (0, v)).collect::<Vec<_>>(), false)
}

#[test]
fn a_join_after_the_end_is_refused() {
    let g = star(20_000);
    let proof = shared(&g);
    let (tx, rx) = mpsc::channel();
    let crew = Catch(Mutex::new(tx));
    let mut scratch = Scratch::default();
    assert_eq!(team_dfs(&proof, 0, &mut scratch, &crew), 20_000);
    let team = rx.try_recv().expect("the owner offered its search");
    assert!(team.join().is_none(), "joined an ended search");
    // The bitmaps are free again: the next search resets them.
    assert_eq!(team_dfs(&proof, 7, &mut scratch, &crew), 20_000);
}

#[test]
fn a_helper_that_leaves_loses_no_vertex() {
    // The helper joins, claims chunks, and leaves at its third poll as
    // if a request had been queued, with nothing to hand back: the owner
    // reads the marks it wrote and finishes alone. The helper must have
    // expanded vertices, or there was nothing for the owner to pick up.
    let g = db_gen::social::social(100_000, 5);
    let proof = shared(&g);
    let want = reference_count(&g, 0);
    let (tx, rx) = mpsc::channel::<Arc<Team>>();
    let crew = Catch(Mutex::new(tx));
    let worker = std::thread::spawn(move || {
        let (mut left, mut expanded) = (0, 0);
        for team in rx {
            let polls = AtomicU32::new(0);
            if let Some(mut helper) = team.join() {
                let queued = || polls.fetch_add(1, Ordering::Relaxed) >= 3;
                let help = helper.run(&queued);
                left += u32::from(help.left_for_request);
                expanded += help.expanded;
            }
        }
        (left, expanded)
    });
    let mut scratch = Scratch::default();
    for _ in 0..5 {
        assert_eq!(team_dfs(&proof, 0, &mut scratch, &crew), want);
    }
    drop(crew);
    let (left, expanded) = worker.join().unwrap();
    assert!(left >= 1, "the helper never left early");
    assert!(expanded > 0, "the helper never expanded a vertex");
}

#[test]
fn one_set_of_bitmaps_serves_two_graph_sizes() {
    let big = star(60_000);
    let small = from_edge_list(50, &[(0, 1), (1, 2), (3, 4)], true);
    let helper = ParkedHelper::spawn();
    let mut scratch = Scratch::default();
    let mut held = None;
    for g in [&big, &small, &big] {
        let proof = shared(g);
        // An early-exit reach first leaves bits set; the searches after
        // it must not see them.
        let far = g.num_vertices() as u32 - 1;
        team_search(
            &proof,
            0,
            Some(far),
            &CancelToken::new(),
            &mut scratch,
            &helper,
        );
        for r in [0, far] {
            assert_eq!(
                team_dfs(&proof, r, &mut scratch, &helper),
                reference_count(g, r)
            );
        }
        if g.num_vertices() == 60_000 {
            // The second big search reuses the bitmaps.
            let now = scratch.bytes();
            assert!(now >= 3 * 60_000 / 8, "three bitmaps of n bits");
            assert!(held.is_none_or(|h| h == now), "{held:?} -> {now}");
            held = Some(now);
        }
    }
}

/// A crew that takes one offer in `every` and hands the team to a
/// helper thread, which joins it and leaves, as if a request had been
/// queued, at its `leave`-th poll: a join at a random sweep, a leave at
/// a random chunk.
struct Late {
    every: u32,
    tries: AtomicU32,
    tx: Mutex<mpsc::Sender<Arc<Team>>>,
}

impl Late {
    /// The crew and its helper thread, which returns how many teams it
    /// left for its "request".
    fn spawn(every: u32, leave: u32) -> (Late, std::thread::JoinHandle<u32>) {
        let (tx, rx) = mpsc::channel::<Arc<Team>>();
        let worker = std::thread::spawn(move || {
            let mut left = 0;
            for team in rx {
                let polls = AtomicU32::new(0);
                if let Some(mut helper) = team.join() {
                    let queued = || polls.fetch_add(1, Ordering::Relaxed) >= leave;
                    left += u32::from(helper.run(&queued).left_for_request);
                }
            }
            left
        });
        let crew = Late {
            every,
            tries: AtomicU32::new(0),
            tx: Mutex::new(tx),
        };
        (crew, worker)
    }
}

impl Crew for Late {
    fn queued(&self) -> bool {
        false
    }

    fn offer(&self, team: &Arc<Team>) -> bool {
        if !self
            .tries
            .fetch_add(1, Ordering::Relaxed)
            .is_multiple_of(self.every)
        {
            return false;
        }
        self.tx.lock().unwrap().send(Arc::clone(team)).is_ok()
    }

    fn withdraw(&self, _: &Arc<Team>) {}
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    #[test]
    fn frontier_matches_reference_lone_and_as_a_team(
        g in hub_graph(),
        pick in any::<u64>(),
        every in 1u32..64,
        leave in 0u32..64,
    ) {
        prop_assert!(batches(&g), "far arcs {} of {}", g.far_arcs(), g.num_arcs());
        let (crew, worker) = Late::spawn(every, leave);
        let proof = shared(&g);
        let n = g.num_vertices() as u32;
        let mut scratch = Scratch::default();
        for root in [0, (pick % u64::from(n)) as u32, n - 1] {
            let want = reference_count(&g, root);
            prop_assert_eq!(dfs(&g, root, &mut scratch), want);
            prop_assert_eq!(team_dfs(&proof, root, &mut scratch, &crew), want);
        }
        let root = (pick % u64::from(n * 3 / 4)) as u32;
        let truth = reachable_set(&g, root);
        let full = reference_count(&g, root);
        let spread = (0..32u64).map(|i| ((pick >> 8).wrapping_add(i * 0x9e37_79b9) % u64::from(n)) as u32);
        let (token, cancelled) = (CancelToken::new(), CancelToken::new());
        cancelled.cancel();
        for target in spread.chain([root, n - 1]) {
            let lone = search(&g, root, Some(target), &token, &mut scratch);
            let team = team_search(&proof, root, Some(target), &token, &mut scratch, &crew);
            for found in [lone, team] {
                prop_assert!(found.completed);
                prop_assert_eq!(found.claimed, truth[target as usize], "target {}", target);
                prop_assert!(found.visited <= full);
            }
            // An already-cancelled token answers the root alone, unless
            // the root is the target.
            let lone = search(&g, root, Some(target), &cancelled, &mut scratch);
            let team = team_search(&proof, root, Some(target), &cancelled, &mut scratch, &crew);
            for found in [lone, team] {
                let at_root = target == root;
                prop_assert_eq!(found, Search { visited: 1, claimed: at_root, completed: at_root });
            }
        }
        for found in [
            search(&g, root, None, &cancelled, &mut scratch),
            team_search(&proof, root, None, &cancelled, &mut scratch, &crew),
        ] {
            prop_assert_eq!(found, Search { visited: 1, claimed: false, completed: false });
        }
        drop(crew);
        worker.join().unwrap();
    }
}
