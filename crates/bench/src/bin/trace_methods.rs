//! Trace-derived load balance: re-derives the Figure 9 per-block task
//! distribution from the *event stream* instead of the engine's own
//! `SimStats` counters, cross-checking the two pipelines against each
//! other. A [`CountingTracer`] rides along with the sim engine and
//! accumulates `Push` events per block; the coefficient of variation of
//! those counts must agree with `SimStats::block_load_cv()` (same run,
//! same seed — the trace stream and the stats are two views of one
//! execution).
//!
//! Reported per configuration: the trace-derived CoV, the stats CoV,
//! event totals, and whether the two agree. A disagreement means an
//! engine emits events that do not match its own accounting — the
//! table makes that a visible failure (`MISMATCH`) and the process
//! exits nonzero.
//!
//! Usage: `trace_methods [--csv]`.

use db_bench::report::{csv_flag, Table};
use db_core::{run_sim_traced, DiggerBeesConfig, VictimPolicy};
use db_gen::Suite;
use db_gpu_sim::stats::coefficient_of_variation;
use db_gpu_sim::MachineModel;
use db_graph::sources::select_sources;
use db_trace::CountingTracer;

fn main() {
    let h100 = MachineModel::h100();
    let mut table = Table::new([
        "graph", "policy", "trace_CV", "stats_CV", "pushes", "steals", "agree",
    ]);
    let mut mismatches = 0u32;
    eprintln!("trace_methods: Fig. 9 CoV re-derived from the trace stream");
    for spec in Suite::representative6() {
        let g = spec.build();
        let root = select_sources(&g, 1, 42)[0];
        for (label, policy) in [
            ("Baseline(random)", VictimPolicy::Random),
            ("DiggerBees(2choice)", VictimPolicy::TwoChoice),
        ] {
            let cfg = DiggerBeesConfig {
                victim_policy: policy,
                ..DiggerBeesConfig::v4(h100.sm_count)
            };
            let tracer = CountingTracer::new(cfg.blocks as usize);
            let r = run_sim_traced(&g, root, &cfg, &h100, &tracer);
            let snap = tracer.snapshot();
            let trace_cv = coefficient_of_variation(&snap.pushes_per_block);
            let stats_cv = r.stats.block_load_cv();
            // Two views of one deterministic run: bit-identical counts.
            let agree = snap.pushes_per_block == r.stats.tasks_per_block
                && trace_cv == stats_cv
                && snap.pushes == r.stats.vertices_visited
                && snap.steals_intra == r.stats.steals_intra
                && snap.steals_inter == r.stats.steals_inter;
            if !agree {
                mismatches += 1;
            }
            table.row([
                spec.name.to_string(),
                label.to_string(),
                format!("{trace_cv:.2}"),
                format!("{stats_cv:.2}"),
                snap.pushes.to_string(),
                format!("{}+{}", snap.steals_intra, snap.steals_inter),
                if agree {
                    "yes".to_string()
                } else {
                    "MISMATCH".to_string()
                },
            ]);
            eprintln!("  {} {} done", spec.name, label);
        }
    }
    table.emit("trace_methods", csv_flag());
    if mismatches > 0 {
        eprintln!("trace_methods: {mismatches} configuration(s) disagreed with SimStats");
        std::process::exit(1);
    }
    println!(
        "Trace-derived per-block task counts match the engine's SimStats on every\n\
         configuration; the Fig. 9 CoV can be computed from the event stream alone."
    );
}
