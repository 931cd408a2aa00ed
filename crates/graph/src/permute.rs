//! Vertex reordering (relabeling) transforms.
//!
//! Traversal locality depends heavily on vertex order — SuiteSparse
//! road networks come roughly geographically ordered, social graphs
//! roughly by crawl order. These transforms let experiments control for
//! that: relabel a graph by a seeded random permutation
//! (locality-adversarial), and the harness can measure the difference.

use crate::{CsrGraph, GraphBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Applies a permutation: vertex `v` becomes `perm[v]`.
///
/// # Panics
///
/// Panics if `perm` is not a permutation of `0..n`.
pub fn apply_permutation(g: &CsrGraph, perm: &[u32]) -> CsrGraph {
    let n = g.num_vertices();
    assert_eq!(perm.len(), n, "permutation length mismatch");
    let mut seen = vec![false; n];
    for &p in perm {
        assert!((p as usize) < n && !seen[p as usize], "not a permutation");
        seen[p as usize] = true;
    }
    let mut b = if g.is_directed() {
        GraphBuilder::directed(n as u32)
    } else {
        GraphBuilder::undirected(n as u32)
    };
    b.reserve(g.num_arcs());
    for (u, v) in g.arcs() {
        if g.is_directed() || u <= v {
            b.edge(perm[u as usize], perm[v as usize]);
        }
    }
    b.build()
}

/// Seeded uniformly random permutation.
pub fn random_order(n: usize, seed: u64) -> Vec<u32> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut perm: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        perm.swap(i, j);
    }
    perm
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traversal::bfs_levels;

    fn sample() -> CsrGraph {
        GraphBuilder::undirected(6)
            .edges([(0, 2), (2, 4), (4, 1), (1, 3), (0, 5)])
            .build()
    }

    #[test]
    fn permutation_preserves_structure() {
        let g = sample();
        let perm = random_order(6, 7);
        let h = apply_permutation(&g, &perm);
        assert_eq!(h.num_vertices(), g.num_vertices());
        assert_eq!(h.num_edges(), g.num_edges());
        // Edge (u,v) in g iff (perm[u], perm[v]) in h.
        for (u, v) in g.arcs() {
            assert!(h.has_arc(perm[u as usize], perm[v as usize]));
        }
        // Degrees are permuted.
        for v in 0..6u32 {
            assert_eq!(g.degree(v), h.degree(perm[v as usize]));
        }
    }

    #[test]
    fn random_order_is_a_permutation_and_seeded() {
        let a = random_order(100, 5);
        let b = random_order(100, 5);
        let c = random_order(100, 6);
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<u32>>());
    }

    #[test]
    fn relabeling_preserves_bfs_depth() {
        let g = sample();
        let (_, d1) = bfs_levels(&g, 0);
        let perm = random_order(6, 3);
        let h = apply_permutation(&g, &perm);
        let (_, d2) = bfs_levels(&h, perm[0]);
        assert_eq!(d1, d2);
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn rejects_bad_permutation() {
        apply_permutation(&sample(), &[0, 0, 1, 2, 3, 4]);
    }
}
