//! # db-gpu-sim — deterministic execution-model simulator
//!
//! The hardware substrate of this reproduction. The paper evaluates on
//! NVIDIA A100/H100 GPUs and a 64-core Xeon Max; none of that hardware is
//! available, so every engine in this workspace runs against a
//! deterministic discrete-event simulation of the machine instead
//! (DESIGN.md §1 explains the substitution).
//!
//! Components:
//!
//! * [`machine`] — machine descriptions: SM/core counts, clock, and a
//!   cycle-cost table for the operations the traversal engines perform
//!   (shared vs. global memory accesses, atomics, 32-wide edge-chunk
//!   scans, steal transfers, kernel launches). Presets for the paper's
//!   three platforms: [`machine::MachineModel::a100`],
//!   [`machine::MachineModel::h100`], [`machine::MachineModel::xeon_max`].
//! * [`des`] — a deterministic discrete-event scheduler: every warp (or
//!   CPU worker) is an agent with its own local clock; agents execute in
//!   global time order with ties broken by agent id, so shared-state
//!   interactions (visited-array CAS, steal CAS) are serialized
//!   deterministically and contention emerges from the schedule itself.
//! * [`profile`] — cycle-attribution profiler: charges every simulated
//!   cycle to a phase (expand, ring-push/pop, steal-search, steal-copy,
//!   TMA-wait, idle) per SM, with folded-stacks export, per-phase span
//!   cells and an occupancy timeline. Zero-cost when disabled,
//!   mirroring the `db-trace` tracer pattern.
//! * [`stats`] — counters shared by all engines (traversed edges, steals,
//!   flushes/refills, per-block task distribution with the coefficient of
//!   variation reported in Fig. 9) and MTEPS conversion.
//! * [`level_sync`] — the work-depth cost model for level-synchronous
//!   GPU methods (Gunrock/BerryBees BFS, NVG-DFS): per-level kernel
//!   launch + latency + throughput-bound edge processing.
//!
//! Simulated time is measured in cycles; [`machine::MachineModel::mteps`]
//! converts a `(traversed_edges, cycles)` pair into the paper's metric
//! (million traversed edges per second).

#![warn(missing_docs)]

pub mod des;
pub mod level_sync;
pub mod machine;
pub mod pipeline;
pub mod profile;
pub mod stats;

pub use des::Des;
pub use machine::{CostModel, MachineModel};
pub use pipeline::MemPipeline;
pub use profile::{CycleProfiler, NoProfiler, Profiler, SimPhase};
pub use stats::SimStats;
