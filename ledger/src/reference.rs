//! Reference answers, independent of every engine under test: a
//! serial explicit-stack reachability search over a bitset visited set.

use db_graph::CsrGraph;

/// The vertices reachable from one root.
#[derive(Debug, Clone)]
pub struct Reach {
    bits: Vec<u64>,
    /// Number of reachable vertices (the root included).
    pub visited: u64,
    /// Arcs scanned: the sum of the out-degrees of the reachable
    /// vertices. Every engine scans exactly these, so it is the work
    /// count behind the kernel MTEPS figures.
    pub arcs: u64,
}

impl Reach {
    /// Whether `v` is reachable.
    pub fn contains(&self, v: u32) -> bool {
        self.bits
            .get(v as usize / 64)
            .is_some_and(|w| w >> (v % 64) & 1 == 1)
    }
}

/// Reachability from `root` in an `n`-vertex graph given by its
/// out-adjacency rows.
pub fn reach<'a>(n: usize, root: u32, neighbors: impl Fn(u32) -> &'a [u32]) -> Reach {
    let mut bits = vec![0u64; n.div_ceil(64)];
    let mut out = Reach {
        bits: Vec::new(),
        visited: 0,
        arcs: 0,
    };
    if (root as usize) < n {
        bits[root as usize / 64] |= 1 << (root % 64);
        let mut stack = vec![root];
        while let Some(u) = stack.pop() {
            let row = neighbors(u);
            out.visited += 1;
            out.arcs += row.len() as u64;
            for &v in row {
                let (w, b) = (v as usize / 64, 1u64 << (v % 64));
                if bits[w] & b == 0 {
                    bits[w] |= b;
                    stack.push(v);
                }
            }
        }
    }
    out.bits = bits;
    out
}

/// [`reach`] over a CSR graph.
pub fn reach_csr(g: &CsrGraph, root: u32) -> Reach {
    reach(g.num_vertices(), root, |u| g.neighbors(u))
}

#[cfg(test)]
mod tests {
    use super::*;
    use db_serve::corpus::build_graph;

    #[test]
    fn grid_and_path_are_connected() {
        let g = build_graph("grid:60:60").unwrap();
        let r = reach_csr(&g, 1234);
        assert_eq!(r.visited, 3600);
        // 60×60 grid: 2·60·59 undirected edges, each stored as two arcs.
        assert_eq!(r.arcs, 2 * 2 * 60 * 59);
        let p = build_graph("path:5000").unwrap();
        let r = reach_csr(&p, 4999);
        assert_eq!((r.visited, r.arcs), (5000, 2 * 4999));
        assert!(r.contains(0) && !r.contains(5000));
    }

    #[test]
    fn dag_reaches_only_forward() {
        let g = build_graph("dag:4000").unwrap();
        let r = reach_csr(&g, 1000);
        assert_eq!(r.visited, 3000);
        assert!(r.contains(3999) && !r.contains(999));
        // i → i+1 and i → i+2 arcs out of 1000..=3999.
        assert_eq!(r.arcs, 2 * 3000 - 3);
    }

    #[test]
    fn arcs_count_out_degrees_of_visited_vertices_only() {
        // 0 → 1 → 2, 3 → 0 (3 unreachable from 0), 2 has a self loop.
        let rows: Vec<Vec<u32>> = vec![vec![1], vec![2], vec![2], vec![0]];
        let r = reach(rows.len(), 0, |u| &rows[u as usize]);
        assert_eq!((r.visited, r.arcs), (3, 3));
        assert!(!r.contains(3));
        let r = reach(rows.len(), 3, |u| &rows[u as usize]);
        assert_eq!((r.visited, r.arcs), (4, 4));
    }

    #[test]
    fn out_of_range_root_visits_nothing() {
        let rows: Vec<Vec<u32>> = vec![vec![]];
        let r = reach(rows.len(), 7, |u| &rows[u as usize]);
        assert_eq!((r.visited, r.arcs), (0, 0));
    }
}
