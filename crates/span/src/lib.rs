//! # db-span — causal request spans and the always-on flight recorder
//!
//! The serve stack's per-layer aggregates (`db_*` metrics) explain the
//! fleet but not a single request. This crate adds the request-scoped
//! layer, and is the serve tier's only event stream:
//!
//! * [`TraceCtx`] — a seed-deterministic 64-bit trace id plus a span-id
//!   allocator that travels *with* the request through admission, the
//!   EDF queue, the retry/degradation ladder and the store/delta
//!   resolution paths. Two runs of the same workload
//!   derive the same trace ids, so span streams diff cleanly.
//! * [`SpanRecord`] / [`SpanKind`] — one fixed-width typed span per
//!   decision point, carrying `(trace, span, parent)` causality plus a
//!   kind-specific code and value (engine, queue depth, epoch, …).
//! * [`FlightRecorder`] — fixed-budget per-worker rings of recent
//!   spans, always on. On a panic, an injected fault, a deadline miss
//!   or an explicit trigger the rings are snapshotted into a versioned
//!   [`FlightDump`] and (optionally) written as a `.dbfr` file for
//!   `diggerbees flight inspect|export` to reconstruct post mortem.
//! * [`dbfr`] — the `.dbfr` binary codec (magic, version, string
//!   table, fixed-width little-endian records; round-trips exactly).
//! * [`tree`] — span-tree reconstruction and validation: group by
//!   trace, check single-root/parentage invariants, render trees and
//!   export Chrome-trace duration events via `db_trace::chrome`.
//!
//! Overhead budget: recording one span is one ring-mutex lock plus a
//! `VecDeque` push (~tens of ns); a request emits < 16 spans, against
//! multi-millisecond traversals. DESIGN.md §10 has the format spec.

#![warn(missing_docs)]

pub mod dbfr;
pub mod recorder;
pub mod span;
pub mod tree;

pub use dbfr::{FlightDump, DBFR_MAGIC, DBFR_VERSION};
pub use recorder::{DumpReason, FlightConfig, FlightRecorder};
pub use span::{SpanKind, SpanRecord, TraceCtx, ADMISSION_WORKER, NO_TENANT};
pub use tree::{build_traces, chrome_document, render_trace, validate_dump, TraceTree};
