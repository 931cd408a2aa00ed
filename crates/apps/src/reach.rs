//! Multi-source reachability oracle built from parallel DFS runs.
//!
//! Many query workloads (distributed querying à la aDFS, pattern
//! prefiltering) reduce to "is `t` reachable from hub `s`?". One
//! parallel DFS per hub yields a bitset row; queries are O(1). This is
//! the reachability face of Table 2's `visited` output — the one output
//! *every* method in the paper produces.

use crate::forest::DfsEngine;
use db_graph::{CsrGraph, VertexId};

/// Reachability oracle over a fixed set of source hubs.
#[derive(Debug)]
pub struct ReachOracle {
    hubs: Vec<VertexId>,
    /// Row per hub: packed visited bits.
    rows: Vec<Vec<u64>>,
    n: usize,
}

impl ReachOracle {
    /// Builds the oracle by running one parallel DFS per hub.
    pub fn build<E: DfsEngine>(g: &CsrGraph, hubs: &[VertexId], engine: &E) -> Self {
        let n = g.num_vertices();
        let words = n.div_ceil(64);
        let mut rows = Vec::with_capacity(hubs.len());
        for &h in hubs {
            assert!((h as usize) < n, "hub {h} out of range");
            let (visited, _) = engine.traverse(g, h);
            let mut row = vec![0u64; words];
            for (v, &b) in visited.iter().enumerate() {
                if b {
                    row[v / 64] |= 1 << (v % 64);
                }
            }
            rows.push(row);
        }
        Self {
            hubs: hubs.to_vec(),
            rows,
            n,
        }
    }

    /// The hubs this oracle covers.
    pub fn hubs(&self) -> &[VertexId] {
        &self.hubs
    }

    /// Whether `target` is reachable from `hubs()[hub_idx]`.
    pub fn reachable(&self, hub_idx: usize, target: VertexId) -> bool {
        assert!((target as usize) < self.n, "target out of range");
        let t = target as usize;
        (self.rows[hub_idx][t / 64] >> (t % 64)) & 1 == 1
    }

    /// Number of vertices reachable from `hubs()[hub_idx]`.
    pub fn coverage(&self, hub_idx: usize) -> usize {
        self.rows[hub_idx]
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum()
    }

    /// Hubs that can reach `target`.
    pub fn sources_reaching(&self, target: VertexId) -> Vec<VertexId> {
        (0..self.hubs.len())
            .filter(|&i| self.reachable(i, target))
            .map(|i| self.hubs[i])
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forest::NativeDfs;
    use db_core::native::NativeConfig;
    use db_graph::{traversal::reachable_set, GraphBuilder};

    fn engine() -> NativeDfs {
        NativeDfs(NativeConfig::default())
    }

    #[test]
    fn oracle_matches_reference_reachability() {
        let g = GraphBuilder::directed(8)
            .edges([(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (1, 4)])
            .build();
        let hubs = [0u32, 4, 7];
        let oracle = ReachOracle::build(&g, &hubs, &engine());
        for (i, &h) in hubs.iter().enumerate() {
            let truth = reachable_set(&g, h);
            for v in 0..8u32 {
                assert_eq!(
                    oracle.reachable(i, v),
                    truth[v as usize],
                    "hub {h} target {v}"
                );
            }
            assert_eq!(oracle.coverage(i), truth.iter().filter(|&&b| b).count());
        }
    }

    #[test]
    fn sources_reaching_target() {
        let g = GraphBuilder::directed(5)
            .edges([(0, 2), (1, 2), (3, 4)])
            .build();
        let oracle = ReachOracle::build(&g, &[0, 1, 3], &engine());
        assert_eq!(oracle.sources_reaching(2), vec![0, 1]);
        assert_eq!(oracle.sources_reaching(4), vec![3]);
        assert!(oracle.sources_reaching(0).contains(&0)); // self
    }

    #[test]
    fn bitset_boundary_at_word_edges() {
        // 130 vertices: exercise bits 63/64/127/128.
        let n = 130u32;
        let g = GraphBuilder::undirected(n)
            .edges((0..n - 1).map(|i| (i, i + 1)))
            .build();
        let oracle = ReachOracle::build(&g, &[0], &engine());
        for v in [63u32, 64, 127, 128, 129] {
            assert!(oracle.reachable(0, v));
        }
        assert_eq!(oracle.coverage(0), n as usize);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_hub() {
        let g = GraphBuilder::undirected(2).edges([(0, 1)]).build();
        ReachOracle::build(&g, &[9], &engine());
    }
}
