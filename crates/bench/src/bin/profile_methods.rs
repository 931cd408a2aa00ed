//! Developer utility: wall-clock cost of each simulated method on one
//! graph (`profile_methods <graph> [source]`). Not part of the paper's
//! experiment set; used to keep the harness runtimes bounded.

use db_bench::methods::{run_once, Method};
use db_gen::Suite;
use db_gpu_sim::{CycleProfiler, MachineModel};
use std::time::Instant;

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "euro_osm".into());
    let spec = Suite::by_name(&name).expect("unknown graph");
    let t0 = Instant::now();
    let g = spec.build();
    eprintln!(
        "{name}: |V|={} |E|={} build={:?}",
        g.num_vertices(),
        g.num_edges(),
        t0.elapsed()
    );
    let h100 = MachineModel::h100();
    let src = db_graph::sources::select_sources(&g, 1, 42)[0];
    for m in [
        Method::Ckl,
        Method::Acr,
        Method::Nvg(h100.clone()),
        Method::Gunrock(h100.clone()),
        Method::BerryBees(h100.clone()),
        Method::diggerbees_default(&h100),
    ] {
        let t = Instant::now();
        let out = run_once(&g, src, &m);
        eprintln!("{:>12}: {:?} wall={:?}", m.name(), out, t.elapsed());
    }
    // Detailed DiggerBees stats.
    let cfg = db_core::DiggerBeesConfig::v4(h100.sm_count);
    let prof = CycleProfiler::new(cfg.blocks as usize);
    let r = db_core::run_sim_profiled(&g, src, &cfg, &h100, &db_trace::NullTracer, &prof);
    let busy = r.stats.tasks_per_block.iter().filter(|&&t| t > 0).count();
    eprintln!(
        "DB stats: cycles={} steals_intra={} steals_inter={} failures={} flushes={} refills={} busy_blocks={}/{} cv={:.2}",
        r.stats.cycles,
        r.stats.steals_intra,
        r.stats.steals_inter,
        r.stats.steal_failures,
        r.stats.flushes,
        r.stats.refills,
        busy,
        cfg.blocks,
        r.stats.block_load_cv()
    );
    // active-warp histogram over deciles of the run
    let t_end = r.stats.cycles.max(1);
    let mut deciles = [(0u64, 0u64); 10];
    for &(t, a) in &prof.occupancy_timeline() {
        let d = ((t * 10) / t_end).min(9) as usize;
        deciles[d].0 += a as u64;
        deciles[d].1 += 1;
    }
    let avgs: Vec<u64> = deciles
        .iter()
        .map(|&(s, c)| s.checked_div(c).unwrap_or(0))
        .collect();
    eprintln!(
        "DB active warps by decile: {:?} (of {})",
        avgs,
        cfg.total_warps()
    );
}
