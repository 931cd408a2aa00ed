//! Reference serial traversals.
//!
//! [`serial_dfs`] is a verbatim transcription of the paper's Algorithm 1
//! (serial stack-based DFS over CSR). Its outputs — the `visited` set,
//! the `parent` array, and the lexicographic discovery order — are the
//! ground truth that every parallel engine in this workspace is checked
//! against. BFS levels and connected components support the BFS baselines
//! and the workload characterization in the benchmark harness.

use crate::{CsrGraph, VertexId, NO_PARENT};

/// Output of a DFS traversal: the paper's Table 2 semantics for
/// DiggerBees (`visited` + `parent`, i.e. a DFS tree), plus the discovery
/// order which serial DFS additionally defines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DfsOutput {
    /// `visited[v]` — whether `v` is reachable from the root.
    pub visited: Vec<bool>,
    /// `parent[v]` — DFS-tree parent, [`NO_PARENT`] for the root and for
    /// unvisited vertices.
    pub parent: Vec<u32>,
    /// Vertices in discovery order (root first). Defined for serial DFS;
    /// parallel engines leave ordering unspecified (Table 2: "Unordered").
    pub order: Vec<VertexId>,
}

impl DfsOutput {
    /// Number of visited vertices.
    pub fn num_visited(&self) -> usize {
        self.visited.iter().filter(|&&b| b).count()
    }

    /// Sum of degrees over visited vertices — the "traversed edges" count
    /// used for MTEPS in §4.1 (every adjacency entry of a visited vertex
    /// is examined exactly once by stack-based DFS).
    pub fn traversed_edges(&self, g: &CsrGraph) -> u64 {
        self.visited
            .iter()
            .enumerate()
            .filter(|(_, &b)| b)
            .map(|(v, _)| g.degree(v as u32) as u64)
            .sum()
    }
}

/// Serial stack-based DFS — Algorithm 1 of the paper.
///
/// Produces the unique lexicographically ordered DFS tree (Figure 1(b)):
/// neighbors are tried in ascending id order because CSR rows are sorted.
///
/// # Panics
///
/// Panics if `root` is out of range.
pub fn serial_dfs(g: &CsrGraph, root: VertexId) -> DfsOutput {
    let n = g.num_vertices();
    assert!((root as usize) < n, "root {root} out of range");
    let mut visited = vec![false; n];
    let mut parent = vec![NO_PARENT; n];
    let mut order = Vec::new();

    // S: stack of (node, next_idx) exactly as in Algorithm 1.
    let mut stack: Vec<(u32, u64)> = Vec::new();
    visited[root as usize] = true;
    order.push(root);
    stack.push((root, g.row_ptr()[root as usize]));

    while let Some(&(u, i)) = stack.last() {
        if i < g.row_ptr()[u as usize + 1] {
            let v = g.col_idx()[i as usize];
            stack.last_mut().expect("nonempty").1 = i + 1;
            if !visited[v as usize] {
                visited[v as usize] = true;
                parent[v as usize] = u;
                order.push(v);
                stack.push((v, g.row_ptr()[v as usize]));
            }
        } else {
            stack.pop();
        }
    }

    DfsOutput {
        visited,
        parent,
        order,
    }
}

/// Serial BFS from `root`. Returns `level[v]` (`u32::MAX` if unreachable)
/// and the number of non-empty levels — the quantity driving the paper's
/// Fig. 6 discussion ("euro_osm requires 17,346 levels", "ljournal
/// completes in only 10 levels").
pub fn bfs_levels(g: &CsrGraph, root: VertexId) -> (Vec<u32>, u32) {
    let n = g.num_vertices();
    assert!((root as usize) < n, "root {root} out of range");
    let mut level = vec![u32::MAX; n];
    // index-ok: root < n was asserted and `level` holds n entries
    level[root as usize] = 0;
    let mut frontier = vec![root];
    let mut next = Vec::new();
    let mut depth = 0u32;
    let (row_ptr, col_idx) = (g.row_ptr(), g.col_idx());
    while !frontier.is_empty() {
        depth += 1;
        for &u in &frontier {
            let u = u as usize;
            // index-ok: u < n (the root or a column entry), and a CsrGraph's
            // row_ptr is monotone and ends at col_idx.len()
            for &v in &col_idx[row_ptr[u] as usize..row_ptr[u + 1] as usize] {
                // index-ok: a CsrGraph's column entries are below n, and
                // `level` holds n entries
                if level[v as usize] == u32::MAX {
                    level[v as usize] = depth;
                    next.push(v);
                }
            }
        }
        std::mem::swap(&mut frontier, &mut next);
        next.clear();
    }
    (level, depth)
}

/// Set of vertices reachable from `root` (directed reachability).
pub fn reachable_set(g: &CsrGraph, root: VertexId) -> Vec<bool> {
    bfs_levels(g, root)
        .0
        .into_iter()
        .map(|l| l != u32::MAX)
        .collect()
}

/// Connected components of an undirected graph. Returns `(comp_id, count)`.
///
/// # Panics
///
/// Panics if the graph is directed (component semantics differ).
pub fn connected_components(g: &CsrGraph) -> (Vec<u32>, u32) {
    assert!(
        !g.is_directed(),
        "connected_components requires an undirected graph"
    );
    let n = g.num_vertices();
    let mut comp = vec![u32::MAX; n];
    let mut count = 0u32;
    let mut queue = Vec::new();
    for s in 0..n as u32 {
        if comp[s as usize] != u32::MAX {
            continue;
        }
        comp[s as usize] = count;
        queue.push(s);
        while let Some(u) = queue.pop() {
            for &v in g.neighbors(u) {
                if comp[v as usize] == u32::MAX {
                    comp[v as usize] = count;
                    queue.push(v);
                }
            }
        }
        count += 1;
    }
    (comp, count)
}

/// Largest connected component: `(component id, size)`.
pub fn largest_component(g: &CsrGraph) -> (u32, usize) {
    let (comp, count) = connected_components(g);
    let mut sizes = vec![0usize; count as usize];
    for &c in &comp {
        sizes[c as usize] += 1;
    }
    let (best, &size) = sizes
        .iter()
        .enumerate()
        .max_by_key(|&(_, &s)| s)
        .expect("at least one component");
    (best as u32, size)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    /// The paper's Figure 1 example graph: a-b, a-c, b-d, c-e, d-e, c-f
    /// with ids a=0, b=1, c=2, d=3, e=4, f=5.
    fn figure1() -> CsrGraph {
        GraphBuilder::undirected(6)
            .edges([(0, 1), (0, 2), (1, 3), (2, 4), (3, 4), (2, 5)])
            .build()
    }

    #[test]
    fn figure1_lexicographic_order() {
        // Serial DFS produces a -> b -> d -> e -> c -> f (Figure 1(b)).
        let out = serial_dfs(&figure1(), 0);
        assert_eq!(out.order, vec![0, 1, 3, 4, 2, 5]);
        assert_eq!(out.parent[1], 0);
        assert_eq!(out.parent[3], 1);
        assert_eq!(out.parent[4], 3);
        assert_eq!(out.parent[2], 4);
        assert_eq!(out.parent[5], 2);
        assert_eq!(out.parent[0], NO_PARENT);
    }

    #[test]
    fn dfs_visits_only_reachable() {
        let g = GraphBuilder::undirected(4).edges([(0, 1)]).build();
        let out = serial_dfs(&g, 0);
        assert_eq!(out.visited, vec![true, true, false, false]);
        assert_eq!(out.num_visited(), 2);
        assert_eq!(out.parent[2], NO_PARENT);
    }

    #[test]
    fn dfs_on_directed_graph() {
        let g = GraphBuilder::directed(3).edges([(0, 1), (2, 0)]).build();
        let out = serial_dfs(&g, 0);
        assert_eq!(out.visited, vec![true, true, false]);
    }

    #[test]
    fn traversed_edges_counts_visited_degrees() {
        let g = figure1();
        let out = serial_dfs(&g, 0);
        assert_eq!(out.traversed_edges(&g), g.num_arcs() as u64);
    }

    #[test]
    fn bfs_levels_on_path() {
        let g = GraphBuilder::undirected(4)
            .edges([(0, 1), (1, 2), (2, 3)])
            .build();
        let (levels, depth) = bfs_levels(&g, 0);
        assert_eq!(levels, vec![0, 1, 2, 3]);
        assert_eq!(depth, 4);
    }

    #[test]
    fn bfs_unreachable_is_max() {
        let g = GraphBuilder::undirected(3).edges([(0, 1)]).build();
        let (levels, _) = bfs_levels(&g, 0);
        assert_eq!(levels[2], u32::MAX);
    }

    #[test]
    fn components_counts() {
        let g = GraphBuilder::undirected(5).edges([(0, 1), (2, 3)]).build();
        let (comp, count) = connected_components(&g);
        assert_eq!(count, 3);
        assert_eq!(comp[0], comp[1]);
        assert_eq!(comp[2], comp[3]);
        assert_ne!(comp[0], comp[2]);
        assert_ne!(comp[4], comp[0]);
    }

    #[test]
    fn largest_component_size() {
        let g = GraphBuilder::undirected(6)
            .edges([(0, 1), (1, 2), (3, 4)])
            .build();
        let (_, size) = largest_component(&g);
        assert_eq!(size, 3);
    }

    #[test]
    fn dfs_and_bfs_agree_on_reachability() {
        let g = figure1();
        let dfs = serial_dfs(&g, 0);
        let reach = reachable_set(&g, 0);
        assert_eq!(dfs.visited, reach);
    }

    #[test]
    fn single_vertex_graph() {
        let g = GraphBuilder::undirected(1).build();
        let out = serial_dfs(&g, 0);
        assert_eq!(out.order, vec![0]);
        assert_eq!(out.num_visited(), 1);
    }
}
