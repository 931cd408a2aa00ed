//! # db-fault — seeded deterministic fault plans
//!
//! Chaos tooling for the DiggerBees workspace, built on one principle:
//! **every fault is a pure function of the plan and a seed**, never of
//! wall-clock time or thread scheduling. That is what lets the chaos
//! suites assert bit-identical results and identical injection logs
//! across double runs — the same property the deterministic DES gives
//! the simulator, extended to failure itself.
//!
//! Two halves:
//!
//! * [`plan`] — the [`FaultPlan`] model (`Kill`, `Stall`, `SlowDown`,
//!   `CorruptResult`, `DropSteal` and the storage kinds `Torn`,
//!   `ShortWrite`, `FsyncLie`, `Crash`, with SM/worker/store/wal targets
//!   and cycle/request/probability/compaction/LSN/checkpoint triggers)
//!   and its `--faults` spec-string codec, e.g. `kill:sm=3@cycle=10000`
//!   or `seed=7;corrupt:worker=*@p=0.25`.
//! * [`inject`] — the thread-safe [`Injector`], whose one evaluator
//!   [`Injector::strike`] decides a [`Check`] at any of ten named
//!   [`Site`]s (sim: SM dispatch, ring push/pop, steal copy; serve:
//!   request execution, pack load, delta compaction; wal: append,
//!   fsync, checkpoint) and records every strike in an injection log
//!   for cross-run comparison.
//!
//! Consumers: `db_core::sim::run_sim_faulted` (a killed SM's pending
//! work is spilled and re-stolen by survivors), the `db-serve` worker
//! pool (panic isolation, retries, circuit breaker, degradation
//! ladder, per-request store-load corruption), its delta registry
//! (compaction aborts and WAL storage faults), and the `diggerbees` /
//! `serve_load` CLIs via `--faults`.

#![warn(missing_docs)]

pub mod inject;
pub mod plan;

pub use inject::{Check, Injection, Injector, Site};
pub use plan::{CkptPhaseKind, Domain, FaultKind, FaultPlan, FaultRule, Target, Trigger};
