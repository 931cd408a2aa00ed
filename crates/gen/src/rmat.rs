//! R-MAT (recursive matrix) power-law graph generator.
//!
//! The standard Graph500/GAP generator for social-network-like graphs:
//! heavy-tailed degree distribution, tiny diameter, one giant core. These
//! are the SNAP/LAW analogues (`wiki`, `ljournal`, `hollywood`,
//! `higgs-twitter`, `soc-Pokec`) — the graphs where the paper's BFS
//! baselines shine (10-level traversals, Fig. 6) and NVG-DFS collapses.

use db_graph::{CsrGraph, GraphBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// R-MAT quadrant probabilities.
#[derive(Debug, Clone, Copy)]
pub struct RmatParams {
    /// Top-left quadrant probability (the "core" pull). Graph500 uses 0.57.
    pub a: f64,
    /// Top-right probability. Graph500 uses 0.19.
    pub b: f64,
    /// Bottom-left probability. Graph500 uses 0.19.
    pub c: f64,
}

impl Default for RmatParams {
    fn default() -> Self {
        // Graph500 reference parameters.
        Self {
            a: 0.57,
            b: 0.19,
            c: 0.19,
        }
    }
}

impl RmatParams {
    fn d(&self) -> f64 {
        1.0 - self.a - self.b - self.c
    }
}

/// Generates an undirected R-MAT graph with `2^scale` vertices and
/// `edge_factor * 2^scale` sampled edges (duplicates are merged, so the
/// final edge count is somewhat lower — as in Graph500).
pub fn rmat(scale: u32, edge_factor: u32, params: RmatParams, seed: u64) -> CsrGraph {
    assert!((1..=30).contains(&scale), "scale out of supported range");
    assert!(params.d() >= 0.0, "rmat probabilities exceed 1");
    let n: u32 = 1 << scale;
    let m = (n as u64) * edge_factor as u64;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::undirected(n);
    b.reserve(m as usize);
    for _ in 0..m {
        let (mut u, mut v) = (0u32, 0u32);
        for _ in 0..scale {
            u <<= 1;
            v <<= 1;
            let r: f64 = rng.gen();
            if r < params.a {
                // top-left: both bits 0
            } else if r < params.a + params.b {
                v |= 1;
            } else if r < params.a + params.b + params.c {
                u |= 1;
            } else {
                u |= 1;
                v |= 1;
            }
        }
        if u != v {
            b.edge(u, v);
        }
    }
    b.build()
}

/// Makes a DAG out of any graph by keeping only arcs `u -> v` with
/// `u < v` — the standard construction for lexicographic-DFS baselines
/// (NVG-DFS is defined on DAGs).
pub fn to_dag(g: &CsrGraph) -> CsrGraph {
    let n = g.num_vertices() as u32;
    let mut b = GraphBuilder::directed(n);
    for (u, v) in g.arcs() {
        if u < v {
            b.edge(u, v);
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use db_graph::traversal::{bfs_levels, largest_component};

    #[test]
    fn rmat_deterministic() {
        let p = RmatParams::default();
        assert_eq!(rmat(10, 8, p, 1), rmat(10, 8, p, 1));
        assert_ne!(rmat(10, 8, p, 1), rmat(10, 8, p, 2));
    }

    #[test]
    fn rmat_has_heavy_tail() {
        let g = rmat(12, 8, RmatParams::default(), 42);
        let n = g.num_vertices();
        let avg = g.num_arcs() as f64 / n as f64;
        let max = g.max_degree() as f64;
        assert!(max > 10.0 * avg, "expected skew: max {max}, avg {avg}");
    }

    #[test]
    fn rmat_core_is_shallow() {
        let g = rmat(12, 16, RmatParams::default(), 7);
        // start from the hub (max-degree vertex)
        let hub = (0..g.num_vertices() as u32)
            .max_by_key(|&v| g.degree(v))
            .unwrap();
        let (_, depth) = bfs_levels(&g, hub);
        assert!(depth <= 12, "social graphs are shallow, got {depth} levels");
        let (_, giant) = largest_component(&g);
        assert!(giant > g.num_vertices() / 2);
    }

    #[test]
    fn uniform_params_give_erdos_renyi_like() {
        let p = RmatParams {
            a: 0.25,
            b: 0.25,
            c: 0.25,
        };
        let g = rmat(10, 8, p, 3);
        let avg = g.num_arcs() as f64 / g.num_vertices() as f64;
        let max = g.max_degree() as f64;
        assert!(max < 6.0 * avg, "uniform R-MAT should not be very skewed");
    }

    #[test]
    fn to_dag_is_acyclic_by_construction() {
        let g = rmat(8, 4, RmatParams::default(), 5);
        let dag = to_dag(&g);
        assert!(dag.is_directed());
        for (u, v) in dag.arcs() {
            assert!(u < v);
        }
    }

    #[test]
    #[should_panic(expected = "probabilities exceed 1")]
    fn rejects_bad_params() {
        rmat(
            5,
            2,
            RmatParams {
                a: 0.5,
                b: 0.4,
                c: 0.3,
            },
            0,
        );
    }
}
