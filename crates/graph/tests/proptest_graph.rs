//! Property tests for the graph substrate: CSR construction invariants,
//! the far-arc count the CSR check takes, Matrix Market round-trips,
//! and the DFS-tree validator's soundness on arbitrary graphs.

use db_graph::builder::from_edge_list;
use db_graph::csr::FAR_IDS;
use db_graph::mm::{read_matrix_market, write_matrix_market};
use db_graph::traversal::{bfs_levels, connected_components, serial_dfs};
use db_graph::validate::{check_dfs_tree_property, check_reachability, check_spanning_tree};
use db_graph::{CsrGraph, NO_PARENT};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn arb_edges(max_n: u32, max_m: usize) -> impl Strategy<Value = (u32, Vec<(u32, u32)>)> {
    (2..max_n).prop_flat_map(move |n| {
        proptest::collection::vec((0..n, 0..n), 0..max_m).prop_map(move |e| (n, e))
    })
}

fn arb_graph(max_n: u32, max_m: usize) -> impl Strategy<Value = CsrGraph> {
    arb_edges(max_n, max_m).prop_map(|(n, e)| from_edge_list(n, &e, false))
}

/// Edges among more than [`FAR_IDS`] vertices, two in three of them
/// `FAR_IDS - 4` to `FAR_IDS + 4` ids apart (up or down), so their
/// endpoint distances straddle the far-arc boundary; the rest uniform.
fn straddling_edges() -> impl Strategy<Value = (u32, Vec<(u32, u32)>)> {
    (FAR_IDS + 1..3 * FAR_IDS).prop_flat_map(|n| {
        let pick = (0..n, 0..n, 0..9u32, 0..3u8);
        proptest::collection::vec(pick, 0..400).prop_map(move |picks| {
            let edges = picks.into_iter().map(|(u, w, d, kind)| match kind {
                0 => (u, w),
                1 => (u, (u + FAR_IDS - 4 + d).min(n - 1)),
                _ => (u, u.saturating_sub(FAR_IDS - 4 + d)),
            });
            (n, edges.collect())
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    #[test]
    fn csr_invariants((n, edges) in arb_edges(80, 200)) {
        let g = from_edge_list(n, &edges, false);
        // Row pointers partition col_idx.
        prop_assert_eq!(g.row_ptr().len(), g.num_vertices() + 1);
        prop_assert_eq!(*g.row_ptr().last().unwrap() as usize, g.num_arcs());
        // Undirected symmetry: u in N(v) iff v in N(u).
        for (u, v) in g.arcs() {
            prop_assert!(g.has_arc(v, u), "missing reverse arc {v}->{u}");
        }
        // Neighbors sorted and deduplicated.
        for u in 0..n {
            let nb = g.neighbors(u);
            prop_assert!(nb.windows(2).all(|w| w[0] < w[1]), "row {u} not strictly sorted");
        }
    }

    #[test]
    fn directed_csr_preserves_all_arcs((n, edges) in arb_edges(60, 150)) {
        let g = from_edge_list(n, &edges, true);
        let mut want: Vec<(u32, u32)> = edges.clone();
        want.sort_unstable();
        want.dedup();
        let got: Vec<(u32, u32)> = g.arcs().collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn matrix_market_round_trip(g in arb_graph(50, 120)) {
        let mut buf = Vec::new();
        write_matrix_market(&g, &mut buf).unwrap();
        let back = read_matrix_market(buf.as_slice()).unwrap();
        prop_assert_eq!(g, back);
    }

    #[test]
    fn matrix_market_round_trip_directed((n, edges) in arb_edges(40, 100)) {
        let g = from_edge_list(n, &edges, true);
        let mut buf = Vec::new();
        write_matrix_market(&g, &mut buf).unwrap();
        let back = read_matrix_market(buf.as_slice()).unwrap();
        prop_assert_eq!(g, back);
    }

    #[test]
    fn serial_dfs_always_valid(g in arb_graph(60, 150), root in 0u32..60) {
        prop_assume!((root as usize) < g.num_vertices());
        let out = serial_dfs(&g, root);
        check_reachability(&g, root, &out.visited).unwrap();
        check_spanning_tree(&g, root, &out.visited, &out.parent).unwrap();
        check_dfs_tree_property(&g, root, &out.visited, &out.parent).unwrap();
        // Discovery order is consistent with the tree: parents precede
        // children.
        let mut pos = vec![usize::MAX; g.num_vertices()];
        for (i, &v) in out.order.iter().enumerate() {
            pos[v as usize] = i;
        }
        for v in 0..g.num_vertices() {
            let p = out.parent[v];
            if p != NO_PARENT {
                prop_assert!(pos[p as usize] < pos[v], "parent after child in order");
            }
        }
    }

    #[test]
    fn validator_rejects_mutated_trees(g in arb_graph(40, 100)) {
        let out = serial_dfs(&g, 0);
        let visited_count = out.visited.iter().filter(|&&b| b).count();
        prop_assume!(visited_count >= 3);
        // Point some visited non-root vertex at itself: cycle.
        let victim = (1..g.num_vertices())
            .find(|&v| out.visited[v] && out.parent[v] != NO_PARENT)
            .unwrap();
        let mut bad = out.parent.clone();
        bad[victim] = victim as u32;
        prop_assert!(check_spanning_tree(&g, 0, &out.visited, &bad).is_err());
    }

    #[test]
    fn bfs_levels_are_tight(g in arb_graph(60, 150)) {
        let (levels, depth) = bfs_levels(&g, 0);
        // Level d vertices have a level d-1 neighbor; no edge skips a level.
        for u in 0..g.num_vertices() as u32 {
            if levels[u as usize] == u32::MAX {
                continue;
            }
            for &v in g.neighbors(u) {
                if levels[v as usize] != u32::MAX {
                    let lu = levels[u as usize] as i64;
                    let lv = levels[v as usize] as i64;
                    prop_assert!((lu - lv).abs() <= 1, "edge {u}-{v} skips a level");
                }
            }
        }
        let max_level = levels.iter().filter(|&&l| l != u32::MAX).max().copied().unwrap_or(0);
        prop_assert_eq!(depth as u64, max_level as u64 + 1);
    }

    #[test]
    fn components_partition_the_graph(g in arb_graph(60, 150)) {
        let (comp, count) = connected_components(&g);
        prop_assert!(comp.iter().all(|&c| c < count));
        // Edges never cross components.
        for (u, v) in g.arcs() {
            prop_assert_eq!(comp[u as usize], comp[v as usize]);
        }
        // DFS from any vertex visits exactly its component.
        if g.num_vertices() > 0 {
            let out = serial_dfs(&g, 0);
            for v in 0..g.num_vertices() {
                prop_assert_eq!(out.visited[v], comp[v] == comp[0]);
            }
        }
    }

    /// `far_arcs()` equals a recount over the distinct arcs the edges
    /// name, on the builder's graph and on its arrays rebuilt through
    /// `try_from_sorted_parts`.
    #[test]
    fn far_arcs_match_a_recount((n, edges) in straddling_edges(), directed in any::<bool>()) {
        let back = |&(u, v): &(u32, u32)| if directed { (u, v) } else { (v, u) };
        let arcs: BTreeSet<_> = edges.iter().flat_map(|e| [*e, back(e)]).collect();
        let naive = arcs.iter().filter(|(u, v)| u.abs_diff(*v) > FAR_IDS).count() as u64;
        let g = from_edge_list(n, &edges, directed);
        prop_assert_eq!(g.far_arcs(), naive);
        let (row_ptr, col_idx) = (g.row_ptr().to_vec(), g.col_idx().to_vec());
        let parts = CsrGraph::try_from_sorted_parts(n, row_ptr, col_idx, directed).unwrap();
        prop_assert_eq!(parts.far_arcs(), naive);
    }
}
