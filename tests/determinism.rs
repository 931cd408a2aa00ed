//! Determinism: every simulated engine is bit-for-bit reproducible for a
//! fixed seed, and seeds actually matter where randomness is involved.

use diggerbees::baselines::bfs::{self, BfsFlavor};
use diggerbees::baselines::cpu_ws::{self, CpuWsConfig, CpuWsStyle};
use diggerbees::core::{run_sim, run_sim_profiled, DiggerBeesConfig};
use diggerbees::gen::grid::grid_road;
use diggerbees::sim::{CycleProfiler, MachineModel};
use diggerbees::trace::NullTracer;

fn cfg(seed: u64) -> DiggerBeesConfig {
    DiggerBeesConfig {
        blocks: 6,
        warps_per_block: 4,
        hot_size: 16,
        hot_cutoff: 4,
        cold_cutoff: 8,
        flush_batch: 8,
        seed,
        ..Default::default()
    }
}

#[test]
fn diggerbees_sim_is_reproducible() {
    let g = grid_road(50, 50, 0.9, 3, 4);
    let h100 = MachineModel::h100();
    let blocks = cfg(1).blocks as usize;
    let (pa, pb) = (CycleProfiler::new(blocks), CycleProfiler::new(blocks));
    let a = run_sim_profiled(&g, 0, &cfg(1), &h100, &NullTracer, &pa);
    let b = run_sim_profiled(&g, 0, &cfg(1), &h100, &NullTracer, &pb);
    assert_eq!(a.visited, b.visited);
    assert_eq!(a.parent, b.parent);
    assert_eq!(a.stats.cycles, b.stats.cycles);
    assert_eq!(a.stats.steals_intra, b.stats.steals_intra);
    assert_eq!(a.stats.steals_inter, b.stats.steals_inter);
    assert_eq!(a.stats.steal_failures, b.stats.steal_failures);
    assert_eq!(a.stats.tasks_per_block, b.stats.tasks_per_block);
    assert_eq!(pa.occupancy_timeline(), pb.occupancy_timeline());
}

#[test]
fn seed_changes_the_schedule_not_the_contract() {
    let g = grid_road(50, 50, 0.9, 3, 4);
    let h100 = MachineModel::h100();
    let a = run_sim(&g, 0, &cfg(1), &h100);
    let b = run_sim(&g, 0, &cfg(2), &h100);
    // Same reachability either way…
    assert_eq!(a.visited, b.visited);
    // …but victim sampling differs, so the schedules should diverge.
    assert!(
        a.stats.cycles != b.stats.cycles || a.parent != b.parent,
        "different seeds should produce different schedules"
    );
}

#[test]
fn cpu_baselines_are_reproducible() {
    let g = grid_road(40, 40, 0.9, 2, 9);
    let xeon = MachineModel::xeon_max();
    for style in [CpuWsStyle::Ckl, CpuWsStyle::Acr] {
        let a = cpu_ws::run(&g, 0, style, &CpuWsConfig::default(), &xeon);
        let b = cpu_ws::run(&g, 0, style, &CpuWsConfig::default(), &xeon);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.visited, b.visited);
        assert_eq!(a.edges_traversed, b.edges_traversed);
    }
}

#[test]
fn bfs_models_are_reproducible() {
    let g = grid_road(40, 40, 0.9, 2, 9);
    let h100 = MachineModel::h100();
    for flavor in [BfsFlavor::Gunrock, BfsFlavor::BerryBees] {
        let a = bfs::run(&g, 0, flavor, &h100);
        let b = bfs::run(&g, 0, flavor, &h100);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.level, b.level);
    }
}

#[test]
fn machine_model_changes_cycles_not_outputs() {
    let g = grid_road(40, 40, 0.9, 2, 9);
    let a = run_sim(&g, 0, &cfg(1), &MachineModel::a100());
    let h = run_sim(&g, 0, &cfg(1), &MachineModel::h100());
    assert_eq!(a.visited, h.visited);
    assert_ne!(
        a.stats.cycles, h.stats.cycles,
        "different machines, different cycles"
    );
    // H100 must be at least as fast in wall-clock terms.
    let a_s = MachineModel::a100().cycles_to_seconds(a.stats.cycles);
    let h_s = MachineModel::h100().cycles_to_seconds(h.stats.cycles);
    assert!(h_s < a_s * 1.2, "H100 regressed vs A100: {h_s} vs {a_s}");
}
