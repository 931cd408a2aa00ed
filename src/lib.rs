//! # diggerbees — facade crate
//!
//! A pure-Rust reproduction of *"DiggerBees: Depth First Search Leveraging
//! Hierarchical Block-Level Stealing on GPUs"* (PPoPP 2026). This crate
//! re-exports the workspace members under one roof:
//!
//! * [`graph`] — CSR graphs, Matrix Market I/O, reference traversals,
//!   output validation ([`db_graph`]).
//! * [`gen`] — seeded synthetic workload generators mirroring the paper's
//!   DIMACS10/SNAP/LAW graph families ([`db_gen`]).
//! * [`sim`] — the deterministic GPU/CPU execution-model simulator that
//!   substitutes for the A100/H100 hardware ([`db_gpu_sim`]).
//! * [`core`] — the DiggerBees algorithm itself: two-level stack
//!   (HotRing + ColdSeg), warp-level DFS, intra-block and inter-block
//!   work stealing; both a native multithreaded engine and a simulated
//!   GPU engine ([`db_core`]).
//! * [`baselines`] — every comparison point from the paper's evaluation
//!   ([`db_baselines`]).
//! * [`trace`] — typed execution-event tracing: zero-overhead-when-off
//!   tracer backends plus Chrome-trace and CSV exporters ([`db_trace`]).
//! * [`metrics`] — lock-light live metrics registry (counters, gauges,
//!   power-of-two histograms) with Prometheus text exposition and a
//!   validating parser ([`db_metrics`]).
//! * [`fault`] — deterministic fault injection: seeded, parseable fault
//!   plans (kill/stall/slowdown/corrupt/drop-steal) shared by the sim's
//!   chaos hooks and the serve layer's resilience machinery
//!   ([`db_fault`]).
//! * [`store`] — the packed on-disk graph layer: compressed `.dbsg`
//!   packs with zero-copy mmap loading ([`db_store`]).
//! * [`serve`] — a multi-tenant traversal service: corpus cache
//!   (including `store:`-keyed packs), admission control,
//!   a worker pool over one deadline-ordered queue, NDJSON TCP front-end
//!   ([`db_serve`]).
//! * [`check`] — concurrency-correctness subsystem: bounded model
//!   checker for the ring/steal protocols and vector-clock race
//!   detector over trace streams ([`db_check`]).
//! * [`span`] — causal request-scoped spans, the always-on flight
//!   recorder with `.dbfr` dumps, and the span-tree / Chrome-trace
//!   inspectors behind `diggerbees flight` ([`db_span`]).
//! * [`analyze`] — offline static analysis: workspace call graph plus
//!   six checks (panic reachability, atomic-ordering audit, lock-order
//!   cycles, blocking-in-hot-path, determinism taint, guarded
//!   `catch_unwind`) with SARIF output; `diggerbees check` gates on it
//!   against the committed baseline ([`db_analyze`]).
//!
//! See `README.md` for a tour and `DESIGN.md` for the reproduction
//! notes. Runnable examples live in `examples/`: `quickstart`,
//! `road_network`, `maze_path`, `gpu_scaling`, and `tuning`.
//!
//! ## Quickstart
//!
//! ```
//! use diggerbees::graph::{GraphBuilder, validate};
//! use diggerbees::core::native::{NativeEngine, NativeConfig};
//!
//! // The example graph from Figure 1 of the paper.
//! let g = GraphBuilder::undirected(6)
//!     .edges([(0, 1), (0, 2), (1, 3), (2, 4), (3, 4), (2, 5)])
//!     .build();
//! let engine = NativeEngine::new(NativeConfig::default());
//! let out = engine.run(&g, 0);
//! validate::check_spanning_tree(&g, 0, &out.visited, &out.parent).unwrap();
//! validate::check_reachability(&g, 0, &out.visited).unwrap();
//! ```

pub use db_analyze as analyze;
pub use db_apps as apps;
pub use db_baselines as baselines;
pub use db_check as check;
pub use db_core as core;
pub use db_fault as fault;
pub use db_gen as gen;
pub use db_gpu_sim as sim;
pub use db_graph as graph;
pub use db_metrics as metrics;
pub use db_serve as serve;
pub use db_span as span;
pub use db_store as store;
pub use db_trace as trace;
pub use db_wal as wal;
