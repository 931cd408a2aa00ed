//! Graph characterization: the structural quantities that predict where
//! a graph lands in the paper's evaluation (degree shape drives the
//! bandwidth story; traversal depth drives the BFS-vs-DFS crossover).

use crate::{CsrGraph, VertexId};

/// Summary statistics of a graph (plus one traversal's depth numbers).
#[derive(Debug, Clone, PartialEq)]
pub struct GraphStats {
    /// Vertex count.
    pub vertices: usize,
    /// Logical edge count.
    pub edges: usize,
    /// Mean degree (arcs per vertex).
    pub avg_degree: f64,
    /// Maximum degree.
    pub max_degree: usize,
    /// Degree skew: max / mean (≫1 for social graphs, ~1 for meshes).
    pub degree_skew: f64,
    /// Share of isolated vertices.
    pub isolated_fraction: f64,
    /// BFS levels from the probe root (the Fig. 6 depth signal).
    pub bfs_levels: u32,
    /// Serial-DFS maximum stack depth from the probe root — the quantity
    /// that motivates the two-level stack (§2.3 issue #1).
    pub dfs_max_stack: usize,
    /// Vertices reachable from the probe root.
    pub reachable: usize,
}

/// Computes [`GraphStats`] probing traversals from `root`.
pub fn graph_stats(g: &CsrGraph, root: VertexId) -> GraphStats {
    let n = g.num_vertices();
    let arcs = g.num_arcs();
    let max_degree = g.max_degree();
    let avg = if n > 0 { arcs as f64 / n as f64 } else { 0.0 };
    let isolated = (0..n as u32).filter(|&v| g.degree(v) == 0).count();
    let (_, bfs_levels) = crate::traversal::bfs_levels(g, root);

    // DFS max stack depth (Algorithm 1's stack).
    let mut visited = vec![false; n];
    let mut stack: Vec<(u32, u64)> = Vec::new();
    visited[root as usize] = true;
    stack.push((root, g.row_ptr()[root as usize]));
    let mut max_stack = 1usize;
    let mut reachable = 1usize;
    while let Some(&(u, i)) = stack.last() {
        if i < g.row_ptr()[u as usize + 1] {
            let v = g.col_idx()[i as usize];
            stack.last_mut().expect("nonempty").1 = i + 1;
            if !visited[v as usize] {
                visited[v as usize] = true;
                reachable += 1;
                stack.push((v, g.row_ptr()[v as usize]));
                max_stack = max_stack.max(stack.len());
            }
        } else {
            stack.pop();
        }
    }

    GraphStats {
        vertices: n,
        edges: g.num_edges(),
        avg_degree: avg,
        max_degree,
        degree_skew: if avg > 0.0 {
            max_degree as f64 / avg
        } else {
            0.0
        },
        isolated_fraction: if n > 0 {
            isolated as f64 / n as f64
        } else {
            0.0
        },
        bfs_levels,
        dfs_max_stack: max_stack,
        reachable,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    #[test]
    fn path_stats() {
        let g = GraphBuilder::undirected(100)
            .edges((0..99).map(|i| (i, i + 1)))
            .build();
        let s = graph_stats(&g, 0);
        assert_eq!(s.vertices, 100);
        assert_eq!(s.edges, 99);
        assert_eq!(s.bfs_levels, 100);
        assert_eq!(s.dfs_max_stack, 100, "path DFS stack is the whole path");
        assert_eq!(s.reachable, 100);
        assert_eq!(s.max_degree, 2);
        assert_eq!(s.isolated_fraction, 0.0);
    }

    #[test]
    fn star_stats() {
        let g = GraphBuilder::undirected(101)
            .edges((1..101).map(|i| (0, i)))
            .build();
        let s = graph_stats(&g, 0);
        assert_eq!(s.bfs_levels, 2);
        assert_eq!(s.dfs_max_stack, 2, "star DFS never stacks deep");
        assert!(s.degree_skew > 40.0);
    }

    #[test]
    fn isolated_fraction() {
        let g = GraphBuilder::undirected(10).edges([(0, 1)]).build();
        let s = graph_stats(&g, 0);
        assert!((s.isolated_fraction - 0.8).abs() < 1e-12);
        assert_eq!(s.reachable, 2);
    }

    #[test]
    fn deep_stack_vs_shallow_levels_diverge() {
        // A cycle: BFS depth ~ n/2 but DFS stack ~ n.
        let n = 1000u32;
        let g = GraphBuilder::undirected(n)
            .edges((0..n).map(|i| (i, (i + 1) % n)))
            .build();
        let s = graph_stats(&g, 0);
        assert_eq!(s.dfs_max_stack, n as usize);
        assert_eq!(s.bfs_levels as usize, n as usize / 2 + 1);
    }
}
