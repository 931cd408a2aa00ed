//! The served kernel against the reference BFS over random directed and
//! undirected graphs with self-loops and isolated vertices: visited
//! counts from every root, early-exit reach against full membership,
//! one scratch reused across graph sizes, and cancellation. Graphs of
//! 50k vertices and more with scattered ids run the batched loop; the
//! same checks run there, and the batching switch is pinned per family.
//! The team search runs the same checks with a parked helper thread
//! (`ParkedHelper`) that joins whenever the owner offers, plus a helper
//! that leaves mid-search and a join after the end.

use db_core::kernel::{batches, search, team_search, Crew, ParkedHelper, Scratch, Search, Team};
use db_core::CancelToken;
use db_graph::builder::from_edge_list;
use db_graph::traversal::reachable_set;
use db_graph::{CsrGraph, GraphStore};
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
fn stack_stays_within_the_vertex_count_in_both_modes() {
    // Stars on each side of the switch: a hub with leaves up to 4096
    // ids away has no far arcs and runs one entry at a time; a bigger
    // star batches. The entries a batch pops are off the stack while
    // it expands them, so marking on push bounds it by n either way.
    for n in [4_000u32, 50_000] {
        let g = from_edge_list(n, &(1..n).map(|v| (0, v)).collect::<Vec<_>>(), false);
        assert_eq!(batches(&g), n > 4_097, "n = {n}");
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
fn shared(g: &CsrGraph) -> Arc<dyn GraphStore> {
    Arc::new(g.clone())
}

/// A team dfs from `root`: completed, nothing claimed, and the count.
fn team_dfs(g: &Arc<dyn GraphStore>, root: u32, scratch: &mut Scratch, crew: &dyn Crew) -> u64 {
    let found = team_search(g, root, None, &CancelToken::new(), scratch, crew);
    assert!(found.completed && !found.claimed);
    found.visited
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn team_count_matches_reference_on_small_graphs(g in arb_graph(80, 200)) {
        // Too small to offer: the owner searches alone on byte marks.
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
    // The marks are free again: the next search resets them.
    assert_eq!(team_dfs(&proof, 7, &mut scratch, &crew), 20_000);
}

#[test]
fn a_helper_that_leaves_hands_its_entries_back() {
    // The helper joins, takes hand-offs, and leaves at its third poll
    // as if a request had been queued; the owner finishes alone.
    let g = db_gen::social::social(100_000, 5);
    let proof = shared(&g);
    let want = reference_count(&g, 0);
    let (tx, rx) = mpsc::channel::<Arc<Team>>();
    let crew = Catch(Mutex::new(tx));
    let worker = std::thread::spawn(move || {
        let mut scratch = Scratch::default();
        let mut left = 0;
        for team in rx {
            let polls = AtomicU32::new(0);
            if let Some(mut helper) = team.join() {
                let queued = || polls.fetch_add(1, Ordering::Relaxed) >= 3;
                left += u32::from(helper.run(&mut scratch, &queued).left_for_request);
            }
        }
        left
    });
    let mut scratch = Scratch::default();
    for _ in 0..5 {
        assert_eq!(team_dfs(&proof, 0, &mut scratch, &crew), want);
    }
    drop(crew);
    assert!(worker.join().unwrap() >= 1, "the helper never left early");
}

#[test]
fn one_set_of_marks_serves_two_graph_sizes() {
    let big = star(60_000);
    let small = from_edge_list(50, &[(0, 1), (1, 2), (3, 4)], true);
    let helper = ParkedHelper::spawn();
    let mut scratch = Scratch::default();
    let mut held = None;
    for g in [&big, &small, &big] {
        let proof = shared(g);
        // An early-exit reach first leaves marks set; the searches after
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
            // The second big search reuses the marks and the stack.
            let now = scratch.bytes();
            assert!(now >= 60_000 * 5, "marks and stack for n vertices");
            assert!(held.is_none_or(|h| h == now), "{held:?} -> {now}");
            held = Some(now);
        }
    }
}
