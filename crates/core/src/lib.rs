//! # db-core — the DiggerBees algorithm
//!
//! Implements the paper's contribution (§3): parallel unordered DFS with
//! a **two-level stack** (shared-memory HotRing + global-memory ColdSeg)
//! and **hierarchical block-level work stealing** (warp-level DFS,
//! intra-block stealing via `tail` reservation, inter-block stealing via
//! power-of-two-choices victim blocks and `bottom` reservation).
//!
//! Two engines execute the same algorithm:
//!
//! * [`sim`] — the deterministic GPU-simulated engine used for every
//!   figure in the paper's evaluation (the hardware substitute; see
//!   DESIGN.md §1). Warps are state machines scheduled by the
//!   discrete-event core of `db-gpu-sim`, and performance is reported in
//!   simulated cycles / MTEPS under a machine model (A100/H100 presets).
//! * [`native`] — a real multithreaded engine for library users: the
//!   same two-level structure and stealing hierarchy mapped onto OS
//!   threads ("warps") grouped into thread groups ("blocks"), with each
//!   HotRing on the GPU's lock-free `atomicCAS` ring protocol
//!   ([`lockfree::StampedRing`]: packed head/tail CAS claims plus
//!   per-slot stamps for safe payload transfer).
//!
//! Shared pieces:
//!
//! * [`config`] — `hot_size` / `hot_cutoff` / `cold_cutoff`, block
//!   geometry, victim policy, and the §4.5 breakdown presets
//!   ([`config::DiggerBeesConfig::v1`] … `v4`).
//! * [`stack`] — the HotRing / ColdSeg data structures of §3.2 with the
//!   four core operations (fast push, fast pop, flush, refill).
//! * [`cancel`] — cooperative cancellation tokens polled by the native
//!   engine's worker loops and the served kernel, so a service layer can
//!   enforce per-request deadlines without killing threads.
//!
//! The service layer does not run these engines for `dfs`/`reach`: it
//! runs [`kernel`] over a graph proved valid once ([`ValidCsr`]), with
//! per-worker reused [`kernel::Scratch`]. A search runs on its caller's
//! thread over a bitset ([`kernel::search`]) or, on a graph the kernel
//! batches while another pool worker is idle, as a team of two
//! ([`kernel::team_search`]): the idle worker joins and steals the cold
//! half of the owner's stack, the paper's §3.4 stealing one level down.

#![warn(missing_docs)]

pub mod cancel;
pub mod config;
pub mod graph_check;
pub mod kernel;
pub mod lockfree;
pub mod native;
pub mod native_lockfree;
pub mod sim;
pub mod stack;

pub use cancel::CancelToken;
pub use config::{DiggerBeesConfig, StackLevels, VictimPolicy};
pub use graph_check::{validate_graph, validate_input, GraphError, ValidCsr};
pub use sim::{
    run_sim, run_sim_faulted, run_sim_profiled, run_sim_store, run_sim_traced, SimResult,
};
