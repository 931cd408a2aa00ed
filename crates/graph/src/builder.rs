//! Edge-list ingestion into CSR form.
//!
//! The builder sorts, deduplicates, and (for undirected graphs)
//! symmetrizes arcs — the same normalization the paper's artifact applies
//! to SuiteSparse `.mtx` inputs before handing them to the kernels.

use crate::{CsrGraph, VertexId};

/// Incremental builder for [`CsrGraph`].
///
/// ```
/// use db_graph::GraphBuilder;
/// let g = GraphBuilder::undirected(3).edges([(0, 1), (1, 2)]).build();
/// assert_eq!(g.neighbors(1), &[0, 2]);
/// ```
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    n: u32,
    directed: bool,
    arcs: Vec<(u32, u32)>,
}

impl GraphBuilder {
    /// Starts an undirected graph over `n` vertices. Every added edge is
    /// stored in both directions.
    pub fn undirected(n: u32) -> Self {
        Self {
            n,
            directed: false,
            arcs: Vec::new(),
        }
    }

    /// Starts a directed graph over `n` vertices.
    pub fn directed(n: u32) -> Self {
        Self {
            n,
            directed: true,
            arcs: Vec::new(),
        }
    }

    /// Adds one edge (arc for directed graphs).
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range.
    pub fn edge(&mut self, u: VertexId, v: VertexId) -> &mut Self {
        assert!(
            u < self.n && v < self.n,
            "edge ({u},{v}) out of range for n={}",
            self.n
        );
        self.arcs.push((u, v));
        if !self.directed && u != v {
            self.arcs.push((v, u));
        }
        self
    }

    /// Adds many edges (builder-by-value convenience).
    pub fn edges<I: IntoIterator<Item = (VertexId, VertexId)>>(mut self, it: I) -> Self {
        for (u, v) in it {
            self.edge(u, v);
        }
        self
    }

    /// Reserves capacity for `additional` more arcs (twice that for
    /// undirected graphs).
    pub fn reserve(&mut self, additional: usize) {
        let factor = if self.directed { 1 } else { 2 };
        self.arcs.reserve(additional * factor);
    }

    /// Finalizes into CSR: sorts arcs, removes duplicates, builds
    /// `row_ptr`/`col_idx`.
    pub fn build(mut self) -> CsrGraph {
        self.arcs.sort_unstable();
        self.arcs.dedup();
        let n = self.n as usize;
        let mut row_ptr = vec![0u64; n + 1];
        for &(u, _) in &self.arcs {
            row_ptr[u as usize + 1] += 1;
        }
        for i in 0..n {
            row_ptr[i + 1] += row_ptr[i];
        }
        let col_idx: Vec<u32> = self.arcs.iter().map(|&(_, v)| v).collect();
        CsrGraph::from_sorted_parts(self.n, row_ptr, col_idx, self.directed)
    }
}

/// Builds an undirected graph from an edge list in one call.
pub fn from_edge_list(n: u32, edges: &[(VertexId, VertexId)], directed: bool) -> CsrGraph {
    let mut b = if directed {
        GraphBuilder::directed(n)
    } else {
        GraphBuilder::undirected(n)
    };
    b.reserve(edges.len());
    for &(u, v) in edges {
        b.edge(u, v);
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedups_parallel_edges() {
        let g = GraphBuilder::undirected(2)
            .edges([(0, 1), (0, 1), (1, 0)])
            .build();
        assert_eq!(g.num_arcs(), 2);
        assert_eq!(g.neighbors(0), &[1]);
    }

    #[test]
    fn directed_is_asymmetric() {
        let g = GraphBuilder::directed(3).edges([(0, 1), (1, 2)]).build();
        assert_eq!(g.neighbors(0), &[1]);
        assert!(g.neighbors(1) == [2]);
        assert!(g.neighbors(2).is_empty());
    }

    #[test]
    fn neighbors_are_sorted() {
        let g = GraphBuilder::undirected(5)
            .edges([(0, 4), (0, 2), (0, 3), (0, 1)])
            .build();
        assert_eq!(g.neighbors(0), &[1, 2, 3, 4]);
    }

    #[test]
    fn self_loop_stored_once_undirected() {
        let g = GraphBuilder::undirected(1).edges([(0, 0)]).build();
        assert_eq!(g.num_arcs(), 1);
        assert_eq!(g.neighbors(0), &[0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_edge() {
        GraphBuilder::undirected(2).edges([(0, 2)]);
    }

    #[test]
    fn from_edge_list_matches_builder() {
        let edges = [(0, 1), (1, 2), (2, 0)];
        let a = from_edge_list(3, &edges, false);
        let b = GraphBuilder::undirected(3).edges(edges).build();
        assert_eq!(a, b);
    }
}
