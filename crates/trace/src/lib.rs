//! # db-trace — structured event tracing for the DiggerBees engines
//!
//! The paper's claims are dynamics claims: how often warps steal, where
//! flush/refill traffic goes, how evenly tasks spread across blocks
//! (Fig. 8/9). This crate is the observability layer that makes those
//! dynamics visible without perturbing them:
//!
//! * [`TraceEvent`] / [`EventKind`] — the typed event model. Every event
//!   carries block/warp/cycle provenance.
//! * [`Tracer`] — the sink abstraction. Engines are generic over
//!   `T: Tracer` and emit through [`emit`], which guards on the
//!   associated `const ENABLED`; with [`NullTracer`] the entire
//!   instrumentation folds away at compile time (the criterion ring
//!   benches are the watchdog for this zero-overhead guarantee).
//! * [`CountingTracer`] — lock-free aggregate counters, including the
//!   per-block Push histogram Fig. 9 is derived from.
//! * [`RingBufferTracer`] — bounded drop-oldest buffer for full event
//!   streams; adversarial runs cannot OOM the tracer.
//! * [`chrome`] — Chrome-trace / Perfetto JSON exporter (one track per
//!   block, one lane per warp) with a parser for round-trip tests.
//! * [`csv`] — flat CSV exporter for the figure harness, with the
//!   inverse parser for post-hoc analysis tools.
//! * [`json`] — the dependency-free JSON document model the exporters
//!   are built on (the workspace builds offline, without serde).
//! * [`validate`] — stream well-formedness checks (balanced kernel
//!   phases, per-actor cycle monotonicity) that `db-check`'s race
//!   detector requires of its input.

pub mod chrome;
pub mod csv;
pub mod event;
pub mod json;
pub mod tracer;
pub mod validate;

pub use event::{EventKind, PhaseKind, TraceEvent};
pub use tracer::{emit, CounterSnapshot, CountingTracer, NullTracer, RingBufferTracer, Tracer};
