//! Cross-checks the tracing subsystem against the engines' own
//! statistics: on one run, the `CountingTracer` totals derived from the
//! event stream must agree with the `SimStats` counters the engine
//! accumulates itself, and the event stream written through the Chrome
//! exporter must survive a parse round trip.

use diggerbees::core::native::{NativeConfig, NativeEngine};
use diggerbees::core::{run_sim_traced, DiggerBeesConfig};
use diggerbees::graph::{CsrGraph, GraphBuilder};
use diggerbees::sim::MachineModel;
use diggerbees::trace::chrome::{chrome_trace_document, events_from_document};
use diggerbees::trace::json::Value;
use diggerbees::trace::{CounterSnapshot, CountingTracer, EventKind, RingBufferTracer};

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

fn sim_cfg() -> DiggerBeesConfig {
    DiggerBeesConfig {
        blocks: 8,
        warps_per_block: 4,
        ..Default::default()
    }
}

/// The identities every engine's event stream must satisfy against the
/// stats of the same run.
fn check_against_stats(snap: &CounterSnapshot, stats: &diggerbees::sim::SimStats) {
    assert_eq!(
        snap.pushes, stats.vertices_visited,
        "one Push per visited vertex"
    );
    assert_eq!(snap.pops, snap.pushes, "every pushed entry eventually dies");
    assert_eq!(snap.flushes, stats.flushes);
    assert_eq!(snap.refills, stats.refills);
    assert_eq!(snap.steals_intra, stats.steals_intra);
    assert_eq!(snap.steals_inter, stats.steals_inter);
    assert_eq!(snap.steal_fails, stats.steal_failures);
    assert_eq!(snap.kernel_phases, 2, "one Start and one Finish");
}

#[test]
fn sim_trace_counts_match_stats() {
    let g = grid(60, 60);
    let m = MachineModel::h100();
    let cfg = sim_cfg();
    let tracer = CountingTracer::new(cfg.blocks as usize);
    let r = run_sim_traced(&g, 0, &cfg, &m, &tracer);
    let snap = tracer.snapshot();
    check_against_stats(&snap, &r.stats);
    // The sim engine's per-block task counts are exactly the per-block
    // Push histogram — the identity `trace_methods` relies on.
    assert_eq!(snap.pushes_per_block, r.stats.tasks_per_block);
}

#[test]
fn sim_trace_is_deterministic_on_fixed_seed() {
    let g = grid(40, 40);
    let m = MachineModel::h100();
    let cfg = sim_cfg();
    let (t1, t2) = (
        CountingTracer::new(cfg.blocks as usize),
        CountingTracer::new(cfg.blocks as usize),
    );
    run_sim_traced(&g, 0, &cfg, &m, &t1);
    run_sim_traced(&g, 0, &cfg, &m, &t2);
    assert_eq!(t1.snapshot(), t2.snapshot());
}

#[test]
fn sim_ring_stream_is_ordered_and_chrome_round_trips() {
    let g = grid(25, 25);
    let m = MachineModel::h100();
    let cfg = DiggerBeesConfig {
        blocks: 2,
        warps_per_block: 2,
        ..Default::default()
    };
    let tracer = RingBufferTracer::new(1 << 20);
    let r = run_sim_traced(&g, 0, &cfg, &m, &tracer);
    assert_eq!(tracer.dropped(), 0, "ring sized for the whole run");
    let events = tracer.snapshot();

    // The DES processes warps in cycle order, so the stream is globally
    // nondecreasing in time.
    assert!(events.windows(2).all(|w| w[0].cycle <= w[1].cycle));

    // Count identities also hold for the raw stream.
    let pushes = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Push { .. }))
        .count();
    assert_eq!(pushes as u64, r.stats.vertices_visited);

    // Exporter round trip over a real engine stream.
    let text = chrome_trace_document(&events).to_json();
    let back = events_from_document(&Value::parse(&text).expect("valid JSON"));
    assert_eq!(back, events);
}

#[test]
fn native_trace_counts_match_stats() {
    let g = grid(50, 50);
    let algo = DiggerBeesConfig {
        blocks: 2,
        warps_per_block: 2,
        hot_size: 16,
        hot_cutoff: 4,
        cold_cutoff: 8,
        flush_batch: 8,
        ..Default::default()
    };
    let tracer = CountingTracer::new(algo.blocks as usize);
    let out = NativeEngine::new(NativeConfig { algo }).run_traced(&g, 0, &tracer);
    check_against_stats(&tracer.snapshot(), &out.stats);
}
