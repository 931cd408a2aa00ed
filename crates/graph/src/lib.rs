//! # db-graph — graph substrate for the DiggerBees reproduction
//!
//! This crate provides everything the traversal engines need from a graph:
//!
//! * [`CsrGraph`] — a compact compressed-sparse-row graph over `u32`
//!   vertices with `u64` edge offsets (graphs larger than 4 B edges are
//!   representable; vertex count is capped at `u32::MAX`, matching the
//!   paper's CSR layout in §2.1), held in two heap `Vec`s whether it was
//!   built or loaded from a pack.
//! * [`builder`] — edge-list ingestion (sorting, deduplication,
//!   symmetrization for undirected graphs).
//! * [`mm`] — a Matrix Market (`.mtx`) reader/writer, the input format of
//!   the paper's artifact (§A.5), so real SuiteSparse graphs can be used
//!   when present.
//! * [`traversal`] — reference serial algorithms: the stack-based DFS of
//!   Algorithm 1 (verbatim), BFS levels, reachability, and connected
//!   components. These are the ground truth every parallel engine is
//!   validated against.
//! * [`validate`] — checkers for traversal outputs: the strict DFS-tree
//!   ancestor property (every non-tree edge joins an ancestor/descendant
//!   pair), spanning-structure validity, and visited-set equivalence.
//! * [`sources`] — GAP-benchmark-style source-vertex selection (§4.1 uses
//!   64 sources drawn from the GAP suite; we draw seeded random sources
//!   from non-trivial components).
//! * [`permute`] — vertex relabeling (a seeded random order) for
//!   locality-sensitivity experiments.
//! * [`stats`] — structural characterization: degree shape, BFS level
//!   count, and serial-DFS stack depth (the quantities that position a
//!   graph in the paper's evaluation).
//! * [`par`] — scoped row-chunk parallelism for the cold path: the
//!   social generator, the pack encoder and decoder and the CSR check
//!   split big inputs into one chunk of rows per core.
//!
//! The crate is dependency-light and deterministic; all randomness is
//! seeded and owned by the caller.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod builder;
pub mod csr;
pub mod encode;
pub mod mm;
pub mod par;
pub mod permute;
pub mod sources;
pub mod stats;
pub mod traversal;
pub mod validate;

pub use builder::GraphBuilder;
pub use csr::{CsrError, CsrGraph};
pub use traversal::{serial_dfs, DfsOutput};

/// Vertex identifier. The paper's CSR uses 32-bit vertex ids; so do we.
pub type VertexId = u32;

/// Sentinel parent value for roots and unvisited vertices, mirroring the
/// paper's `parent[root] = -1` convention from Algorithm 1.
pub const NO_PARENT: u32 = u32::MAX;
