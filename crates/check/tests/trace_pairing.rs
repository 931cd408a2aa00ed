//! Every engine's trace stream must be structurally sound: exactly one
//! balanced `KernelPhase Start`/`Finish` pair bracketing the run, and
//! non-decreasing cycles within each `(block, warp)` lane. This is the
//! input contract of the `db-check` race detector and both exporters,
//! enforced here per engine via `db_trace::validate::check_stream`
//! (and, in debug builds, again at record time inside
//! `RingBufferTracer`).

use db_baselines::cpu_ws::{self, CpuWsConfig, CpuWsStyle};
use db_baselines::deque_dfs;
use db_core::native::{NativeConfig, NativeEngine};
use db_core::{run_sim_traced, DiggerBeesConfig};
use db_gpu_sim::machine::MachineModel;
use db_graph::{CsrGraph, GraphBuilder};
use db_trace::validate::check_stream;
use db_trace::{RingBufferTracer, TraceEvent};

fn grid(w: u32, h: u32) -> CsrGraph {
    let mut b = GraphBuilder::undirected(w * h);
    for y in 0..h {
        for x in 0..w {
            if x + 1 < w {
                b.edge(y * w + x, y * w + x + 1);
            }
            if y + 1 < h {
                b.edge(y * w + x, (y + 1) * w + x);
            }
        }
    }
    b.build()
}

fn small_cfg() -> DiggerBeesConfig {
    DiggerBeesConfig {
        blocks: 2,
        warps_per_block: 2,
        hot_size: 16,
        hot_cutoff: 4,
        cold_cutoff: 8,
        flush_batch: 8,
        ..Default::default()
    }
}

/// Drains the tracer and asserts the stream contract for one engine.
fn assert_sound(name: &str, tracer: &RingBufferTracer) -> Vec<TraceEvent> {
    assert_eq!(tracer.dropped(), 0, "{name}: trace truncated");
    let events = tracer.drain();
    let summary =
        check_stream(&events).unwrap_or_else(|e| panic!("{name}: unsound trace stream: {e}"));
    assert_eq!(summary.runs, 1, "{name}: expected one Start/Finish pair");
    assert!(summary.events > 2, "{name}: stream has no payload events");
    events
}

#[test]
fn sim_engine_stream_is_sound() {
    let g = grid(12, 12);
    let tracer = RingBufferTracer::new(1 << 18);
    run_sim_traced(&g, 0, &small_cfg(), &MachineModel::a100(), &tracer);
    assert_sound("sim", &tracer);
}

#[test]
fn native_engine_stream_is_sound() {
    let g = grid(12, 12);
    let tracer = RingBufferTracer::new(1 << 18);
    NativeEngine::new(NativeConfig { algo: small_cfg() }).run_traced(&g, 0, &tracer);
    assert_sound("native", &tracer);
}

#[test]
fn deque_baseline_stream_is_sound() {
    let g = grid(12, 12);
    let tracer = RingBufferTracer::new(1 << 18);
    deque_dfs::run_traced(&g, 0, 4, 7, &tracer);
    assert_sound("deque", &tracer);
}

#[test]
fn cpu_ws_baseline_streams_are_sound() {
    let g = grid(12, 12);
    for style in [CpuWsStyle::Ckl, CpuWsStyle::Acr] {
        let tracer = RingBufferTracer::new(1 << 18);
        cpu_ws::run_traced(
            &g,
            0,
            style,
            &CpuWsConfig::default(),
            &MachineModel::xeon_max(),
            &tracer,
        );
        assert_sound(&format!("cpu_ws {style:?}"), &tracer);
    }
}

#[test]
fn sim_trace_is_race_free_under_strict_happens_before() {
    // The deterministic simulator's stream must pass the detector with
    // zero skew: DES cycles are exact, so every cross-lane transfer is
    // explained by a steal/flush edge or the finding is real.
    let g = grid(16, 16);
    let tracer = RingBufferTracer::new(1 << 20);
    run_sim_traced(&g, 0, &small_cfg(), &MachineModel::a100(), &tracer);
    let events = assert_sound("sim", &tracer);
    let report = db_check::race::detect(&events, &db_check::race::RaceConfig { skew: 0 })
        .expect("validated stream");
    assert!(
        report.findings.is_empty(),
        "races reported on a correct sim run: {:#?}",
        report.findings
    );
    assert!(report.sync_edges > 0, "no sync edges seen: {report:?}");
}

#[test]
fn native_lockfree_trace_is_race_free_with_skew() {
    // Native timestamps come from per-thread clocks read *around* the
    // protocol actions, not atomically with them; a small skew window
    // absorbs that emission jitter (see db_check::race docs).
    let g = grid(16, 16);
    let tracer = RingBufferTracer::new(1 << 20);
    NativeEngine::new(NativeConfig { algo: small_cfg() }).run_traced(&g, 0, &tracer);
    let events = assert_sound("native", &tracer);
    let report = db_check::race::detect(&events, &db_check::race::RaceConfig { skew: 1_000_000 })
        .expect("validated stream");
    assert!(
        report.findings.is_empty(),
        "races reported on a correct native run: {:#?}",
        report.findings
    );
}
