//! # db-metrics — unified live metrics for the DiggerBees workspace
//!
//! The trace ring (`db-trace`) answers *what happened, in order* for one
//! diagnostic run; this crate answers *what is happening, right now* for
//! a long-lived process. It is the substrate behind the serve layer's
//! `GET /metrics` scrape and the `diggerbees metrics` and `top` CLIs
//! that read it. The traversal engines do not record here: a
//! run reports its counters in the `SimStats` it returns.
//!
//! * [`Registry`] — an instance-scoped set of named series. Each
//!   `db_serve::Server` owns one (its WAL registers there too), so
//!   sibling servers and unit tests stay isolated; there is no
//!   process-wide registry. Registration takes a short mutex; the
//!   returned [`Counter`], [`Gauge`], and [`Histogram`] handles are
//!   `Arc`-shared atomics, so the hot path (increment/observe) is
//!   lock-free. Re-registering the same `(name, labels)` returns a
//!   handle to the same underlying series.
//! * [`Histogram`] — power-of-two bucket histogram with exact count,
//!   sum, and max. This generalizes (and replaced) the old
//!   `db_serve::metrics::LatencyHistogram`: quantiles are upper bounds
//!   with at most 2× resolution error.
//! * [`Registry::render_prometheus`] — Prometheus text exposition
//!   (format 0.0.4): `# HELP`/`# TYPE` headers, escaped label values,
//!   stable series ordering, cumulative `le` buckets with
//!   `+Inf`/`_sum`/`_count`.
//! * [`parse_exposition`] / [`validate_exposition`] — a parser for the
//!   same text format, used by round-trip tests and the CI smoke job
//!   that scrapes a live server and fails on any malformed line.
//! * [`slo`] — declarative per-tenant latency/availability objectives
//!   with multi-window burn-rate series (`db_slo_*`), folded from
//!   finished requests by the serve layer.
//! * [`dash`] — the `diggerbees top` terminal dashboard renderer,
//!   driven by a parsed scrape.

#![warn(missing_docs)]

pub mod dash;
pub mod prometheus;
pub mod registry;
pub mod slo;

pub use dash::render_dashboard;
pub use prometheus::{parse_exposition, validate_exposition, Exposition, Sample};
pub use registry::{Counter, FloatGauge, Gauge, Histogram, Registry, HISTOGRAM_BUCKETS};
pub use slo::{SloConfig, SloSpec, SloTracker, SLO_WINDOWS};
