//! # db-bench — harness regenerating the paper's tables and figures
//!
//! One binary per experiment (see DESIGN.md §4 for the full index):
//!
//! | binary | reproduces |
//! |---|---|
//! | `fig5_dfs_comparison` | Fig. 5 — four DFS methods over the full suite |
//! | `fig6_representative` | Fig. 6 / Table 4 — 12 representative graphs + best BFS |
//! | `fig7_scalability` | Fig. 7 — A100 → H100 scaling, DiggerBees vs NVG |
//! | `fig8_breakdown` | Fig. 8 — v1..v4 breakdown on six graphs |
//! | `fig9_balance` | Fig. 9 — per-block load distribution, random vs two-choice |
//! | `fig10_sensitivity` | Fig. 10 — hot_cutoff × cold_cutoff heatmap |
//! | `tables` | Tables 1–4 — platforms, output semantics, datasets |
//! | `ablation_tma` | §3.3 — TMA async-copy ablation |
//! | `ablation_scheduler` | extra — structured vs generic work stealing |
//!
//! Every binary prints an aligned table plus CSV rows (behind `--csv`),
//! and honors `DB_SOURCES` (sources per graph, default 4) and `DB_SCALE`
//! (suite scale factor) environment variables so CI can run quick
//! passes. This crate's library half hosts the shared runner code and is
//! what the criterion benches link against.

#![warn(missing_docs)]

pub mod methods;
pub mod report;
pub mod schema;

pub use methods::{average_mteps, Method, MethodOutcome};
pub use report::Table;
pub use schema::{
    validate_kernel_line, validate_serve_line, validate_sim_line, KERNEL_SCHEMA_VERSION,
    SERVE_SCHEMA_VERSION, SIM_SCHEMA_VERSION,
};
