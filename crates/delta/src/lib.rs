//! `db-delta`: epoch-versioned dynamic graphs.
//!
//! Every other layer of this workspace treats a graph as frozen at
//! pack/load time. This crate adds mutability without giving up the
//! engines' frozen-CSR assumption: a [`DeltaGraph`] is a frozen base
//! CSR (built, or loaded from a `db-store` pack) plus published per-epoch
//! [`DeltaLayer`] overlays. Readers [`pin`](DeltaGraph::pin) an epoch
//! and get a materialized [`db_graph::CsrGraph`] snapshot that every
//! existing engine consumes unchanged — snapshot isolation by
//! construction, because the pin guard owns the snapshot. The base
//! epoch's snapshot is the base itself, so reads copy nothing. The crate
//! runs no traversal of its own: a dfs or reach over a delta graph is
//! an ordinary traversal of a pinned snapshot.
//!
//! ```
//! use db_delta::DeltaGraph;
//! use db_graph::CsrGraph;
//! use std::sync::Arc;
//!
//! // 0→1→2 path; add a back edge, traverse the new epoch.
//! let base = CsrGraph::from_sorted_parts(3, vec![0, 1, 2, 2], vec![1, 2], true);
//! let dg = Arc::new(DeltaGraph::from_csr(base));
//! let pin0 = dg.pin();
//! dg.add_edges(&[(2, 0)]).unwrap();
//! let pin1 = dg.pin();
//! assert_eq!(pin0.graph().num_arcs(), 2); // old pin: unchanged view
//! assert_eq!(pin1.graph().num_arcs(), 3);
//! ```
//!
//! See [`graph`] for the pin/publish/compact/reclaim lifecycle and
//! DESIGN.md §9 for the invariants the `db-check` model enforces.

#![warn(missing_docs)]

pub mod graph;
pub mod layer;

pub use graph::{
    CompactAction, CompactHook, CompactOutcome, CompactPoint, DeltaError, DeltaGraph, DeltaStats,
    EpochPin, Publish, DEFAULT_COMPACT_THRESHOLD,
};
pub use layer::{DeltaLayer, PendingDelta, VertexPatch};
