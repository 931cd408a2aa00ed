//! Former home of the partitioned cross-shard DFS. Nothing serves it:
//! every served engine name but `sim` answers with the served kernel.
//! The benchmark ledger (`ledger/`, built against this workspace) still
//! names [`partition_by_arcs`] and [`run_partitioned`]; both go when the
//! ledger stops naming them.

use db_graph::{CsrGraph, VertexId};

/// What [`partition_by_arcs`] returns; it holds nothing.
#[derive(Debug)]
pub struct PartitionSpec;

/// Returns the empty [`PartitionSpec`]; `g` and `parts` are unused.
pub fn partition_by_arcs(_g: &CsrGraph, _parts: usize) -> PartitionSpec {
    PartitionSpec
}

/// The set of vertices reachable from `root`, by the reference BFS
/// ([`db_graph::traversal::reachable_set`]), as `(visited, true, ())`.
/// The spec, the tracer and the cancellation poll are unused.
///
/// # Panics
///
/// Panics if `root` is out of range.
pub fn run_partitioned<T: ?Sized>(
    g: &CsrGraph,
    _spec: &PartitionSpec,
    root: VertexId,
    _tracer: &T,
    _cancelled: &(dyn Fn() -> bool + Sync),
) -> (Vec<bool>, bool, ()) {
    (db_graph::traversal::reachable_set(g, root), true, ())
}
