//! Input validation at the engines' API boundary.
//!
//! Every public `run_*` entry point validates its graph and root with
//! [`validate_input`] before touching a ring: a malformed CSR (stale
//! file loader, a buggy FFI producer, a deliberately corrupt chaos
//! graph) is reported as a typed [`GraphError`] at the boundary instead
//! of panicking with an index error deep inside a steal. Fallible
//! callers — the serve layer's executor — run the same check themselves
//! and map the error to a rejection-with-reason before the engine is
//! ever entered.
//!
//! The check is `O(n + m)` over the two CSR arrays. A long-lived caller
//! pays it once: [`ValidCsr`] carries a passed check, so the served
//! traversal kernel ([`crate::kernel`]) never re-runs it.

use crate::kernel;
use db_graph::{CsrGraph, GraphStore};
use std::ops::Deref;

/// A structural defect in a traversal input, detected at engine entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// `row_ptr.len() != n + 1`.
    RowPtrLength {
        /// Required length (`n + 1`).
        expected: usize,
        /// Actual length.
        got: usize,
    },
    /// `row_ptr` does not start at 0 or end at `col_idx.len()`.
    RowPtrBounds {
        /// First offset (must be 0).
        first: u64,
        /// Final offset.
        last: u64,
        /// Required final offset (`col_idx.len()`).
        arcs: usize,
    },
    /// Row offsets decrease: `row_ptr[at] > row_ptr[at + 1]`.
    NonMonotoneRowPtr {
        /// First index where the offsets decrease.
        at: usize,
    },
    /// A column index points past the vertex count.
    ColumnOutOfRange {
        /// Index of the offending entry in `col_idx`.
        at: usize,
        /// The out-of-range vertex id.
        value: u32,
        /// The vertex count it must stay below.
        n: u32,
    },
    /// The requested root vertex does not exist.
    RootOutOfRange {
        /// The requested root.
        root: u32,
        /// The vertex count.
        n: u32,
    },
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::RowPtrLength { expected, got } => {
                write!(f, "row_ptr length {got} != n + 1 = {expected}")
            }
            GraphError::RowPtrBounds { first, last, arcs } => write!(
                f,
                "row_ptr must span [0, {arcs}] (starts at {first}, ends at {last})"
            ),
            GraphError::NonMonotoneRowPtr { at } => {
                write!(f, "row offsets decrease at index {at}")
            }
            GraphError::ColumnOutOfRange { at, value, n } => {
                write!(f, "col_idx[{at}] = {value} out of range (n = {n})")
            }
            GraphError::RootOutOfRange { root, n } => {
                write!(f, "root {root} out of range (n = {n})")
            }
        }
    }
}

impl std::error::Error for GraphError {}

/// Validates the CSR structure of `g` (length, bounds, monotonicity,
/// column range). Graphs built by `db_graph::GraphBuilder` or
/// `CsrGraph::try_from_sorted_parts` always pass; only
/// `CsrGraph::from_parts_unchecked` can smuggle a defect this far.
pub fn validate_graph(g: &CsrGraph) -> Result<(), GraphError> {
    far_arcs(g).map(drop)
}

/// The walk behind [`validate_graph`] and [`ValidCsr::new`]: checks
/// the structure and, while it visits every arc for the column range,
/// counts the arcs whose endpoints are more than [`kernel::FAR_IDS`]
/// ids apart.
fn far_arcs(g: &CsrGraph) -> Result<u64, GraphError> {
    let n = g.num_vertices();
    let row_ptr = g.row_ptr();
    let col_idx = g.col_idx();
    if row_ptr.len() != n + 1 {
        return Err(GraphError::RowPtrLength {
            expected: n + 1,
            got: row_ptr.len(),
        });
    }
    // index-ok: row_ptr holds n + 1 >= 1 entries, checked above
    let (first, last) = (row_ptr[0], row_ptr[n]);
    if first != 0 || last as usize != col_idx.len() {
        return Err(GraphError::RowPtrBounds {
            first,
            last,
            arcs: col_idx.len(),
        });
    }
    // index-ok: windows(2) yields two-entry slices
    if let Some(at) = row_ptr.windows(2).position(|w| w[0] > w[1]) {
        return Err(GraphError::NonMonotoneRowPtr { at });
    }
    let mut far = 0;
    for (u, w) in (0u32..).zip(row_ptr.windows(2)) {
        // index-ok: windows(2) yields two-entry slices
        let (start, end) = (w[0] as usize, w[1] as usize);
        // index-ok: the offsets rise from 0 to col_idx.len(), checked
        // above, so every row lies within col_idx
        for (at, &v) in (start..).zip(&col_idx[start..end]) {
            if v as usize >= n {
                return Err(GraphError::ColumnOutOfRange {
                    at,
                    value: v,
                    n: n as u32,
                });
            }
            far += u64::from(v.abs_diff(u) > kernel::FAR_IDS);
        }
    }
    Ok(far)
}

/// A graph that passed [`validate_graph`]: the proof the served
/// traversal kernel demands, so a corpus is checked once when it is
/// admitted instead of on every request.
///
/// `G` is how the graph is held: `&CsrGraph` for a borrowed check, or
/// an `Arc<dyn GraphStore>` for a cached corpus. [`ValidCsr::new`] is
/// the only constructor, and the holder only ever hands out shared
/// references, so the proof cannot go stale.
///
/// The check also settles, once per graph, whether the kernel searches
/// it in batches ([`ValidCsr::batches`]).
#[derive(Debug, Clone, Copy)]
pub struct ValidCsr<G> {
    holder: G,
    far_arcs: u64,
    batch: bool,
}

impl<G, S> ValidCsr<G>
where
    G: Deref<Target = S>,
    S: GraphStore + ?Sized + 'static,
{
    /// Runs [`validate_graph`] on the held graph and decides whether
    /// the kernel batches it.
    pub fn new(holder: G) -> Result<Self, GraphError> {
        let g = holder.graph();
        let far_arcs = far_arcs(g)?;
        let batch = kernel::batches(far_arcs, g.num_arcs());
        Ok(ValidCsr {
            holder,
            far_arcs,
            batch,
        })
    }

    /// The validated graph.
    pub fn graph(&self) -> &CsrGraph {
        self.holder.graph()
    }

    /// A borrowed proof for the same graph, the form the kernel takes.
    pub fn view(&self) -> ValidCsr<&CsrGraph> {
        ValidCsr {
            holder: self.holder.graph(),
            far_arcs: self.far_arcs,
            batch: self.batch,
        }
    }

    /// Share of arcs whose endpoints are more than [`kernel::FAR_IDS`]
    /// ids apart (0 for a graph with no arcs).
    pub fn far_share(&self) -> f64 {
        self.far_arcs as f64 / self.graph().num_arcs().max(1) as f64
    }

    /// Whether [`kernel::search`] runs this graph in batches of
    /// [`kernel::BATCH`]: at least [`kernel::BATCH_FAR_SHARE`] of its
    /// arcs are far.
    pub fn batches(&self) -> bool {
        self.batch
    }

    /// How the validated graph is held.
    pub fn holder(&self) -> &G {
        &self.holder
    }
}

/// Full engine-entry check: structure plus root range.
pub fn validate_input(g: &CsrGraph, root: u32) -> Result<(), GraphError> {
    validate_graph(g)?;
    if root as usize >= g.num_vertices() {
        return Err(GraphError::RootOutOfRange {
            root,
            n: g.num_vertices() as u32,
        });
    }
    Ok(())
}

/// Engine-entry assertion used by the infallible `run_*` signatures:
/// panics with the typed defect's message, so a bad input fails loudly
/// and uniformly at the boundary rather than corrupting a traversal.
pub(crate) fn assert_valid_input(g: &CsrGraph, root: u32) {
    if let Err(e) = validate_input(g, root) {
        panic!("invalid traversal input: {e}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use db_graph::GraphBuilder;

    fn good() -> CsrGraph {
        let mut b = GraphBuilder::undirected(4);
        b.edge(0, 1);
        b.edge(1, 2);
        b.edge(2, 3);
        b.build()
    }

    #[test]
    fn builder_graphs_pass() {
        let g = good();
        assert_eq!(validate_input(&g, 0), Ok(()));
        assert_eq!(
            validate_input(&g, 4),
            Err(GraphError::RootOutOfRange { root: 4, n: 4 })
        );
    }

    #[test]
    fn each_defect_is_detected_and_named() {
        let bad_len = CsrGraph::from_parts_unchecked(3, vec![0, 1, 2], vec![1, 2], false);
        assert!(matches!(
            validate_graph(&bad_len),
            Err(GraphError::RowPtrLength {
                expected: 4,
                got: 3
            })
        ));

        let bad_end = CsrGraph::from_parts_unchecked(2, vec![0, 1, 5], vec![1, 0], false);
        assert!(matches!(
            validate_graph(&bad_end),
            Err(GraphError::RowPtrBounds { last: 5, .. })
        ));

        let decreasing = CsrGraph::from_parts_unchecked(3, vec![0, 2, 1, 3], vec![1, 2, 0], false);
        assert!(matches!(
            validate_graph(&decreasing),
            Err(GraphError::NonMonotoneRowPtr { at: 1 })
        ));

        let oob = CsrGraph::from_parts_unchecked(2, vec![0, 1, 2], vec![1, 7], false);
        assert!(matches!(
            validate_graph(&oob),
            Err(GraphError::ColumnOutOfRange {
                at: 1,
                value: 7,
                n: 2
            })
        ));
        // Errors render as human-readable reasons for serve rejections.
        let msg = validate_graph(&oob).unwrap_err().to_string();
        assert!(msg.contains("col_idx[1]"), "{msg}");
    }

    #[test]
    fn valid_csr_is_built_only_by_a_passed_check() {
        let oob = CsrGraph::from_parts_unchecked(2, vec![0, 1, 2], vec![1, 7], false);
        assert!(matches!(
            ValidCsr::new(&oob),
            Err(GraphError::ColumnOutOfRange { .. })
        ));
        let shared: std::sync::Arc<dyn GraphStore> = std::sync::Arc::new(good());
        let proof = ValidCsr::new(shared).unwrap();
        assert_eq!(proof.view().graph().num_vertices(), 4);
        assert_eq!(proof.holder().graph().num_arcs(), 6);
    }

    #[test]
    #[should_panic(expected = "invalid traversal input")]
    fn engines_reject_malformed_graphs_at_entry() {
        let oob = CsrGraph::from_parts_unchecked(2, vec![0, 1, 2], vec![1, 7], false);
        crate::native::NativeEngine::default().run(&oob, 0);
    }
}
