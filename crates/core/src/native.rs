//! The native multithreaded DiggerBees engine.
//!
//! This is the *library* form of the algorithm: the same two-level
//! stacks and hierarchical stealing as [`crate::sim`], mapped onto OS
//! threads. Each "warp" is a worker thread; warps are grouped into
//! "blocks" (thread groups) that share the intra-block stealing domain,
//! and blocks steal from each other exactly as in Algorithm 4.
//!
//! Concurrency design (DESIGN.md §1): each HotRing is a
//! [`StampedRing`], the GPU's lock-free `atomicCAS` ring protocol. Victim
//! scans read the ring's packed head/tail word, intra-block thieves
//! reserve a batch with one CAS at `tail`, and the owner claims entries
//! at `head`. The ColdSeg stays behind a `parking_lot::Mutex`:
//! inter-block steals are rare by design (that is what `cold_cutoff` is
//! for), and its length is published in an atomic so victim scans never
//! take the lock.
//!
//! The owner uses pop-process-push instead of the paper's in-place
//! `updateTop`: it pops the top entry into hand, scans its row for an
//! unclaimed neighbour, then pushes the advanced continuation and the
//! child (child on top). A thief may claim the top slot at any moment,
//! so an in-place update is not safe (see the protocol note in
//! [`crate::lockfree`]). An entry in the owner's hand is still live.
//!
//! Termination uses a global `live` counter: every entry pushed
//! increments it, every exhausted entry popped decrements it; zero means
//! no warp can ever obtain work again, so the decrementing thread raises
//! the `done` flag. (Entries being copied during a steal stay counted —
//! they are live, merely in transit.)

use crate::cancel::CancelToken;
use crate::config::DiggerBeesConfig;
use crate::lockfree::StampedRing;
use crate::stack::{ColdSeg, Entry};
use db_gpu_sim::SimStats;
use db_graph::{CsrGraph, VertexId, NO_PARENT};
use db_trace::{EventKind, NullTracer, PhaseKind, TraceEvent, Tracer};
use parking_lot::Mutex;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::time::{Duration, Instant};

/// Tracer plus the engine start time; the engine stamps events with
/// nanoseconds since kernel start (monotone per warp, which is all the
/// exporters require).
struct TraceCtx<'t, T: Tracer> {
    tracer: &'t T,
    t0: Instant,
}

impl<T: Tracer> TraceCtx<'_, T> {
    /// `T::ENABLED` is a compile-time constant: with [`NullTracer`] the
    /// timestamp read, event construction, and call all fold away.
    #[inline(always)]
    fn emit(&self, block: u32, lane: u32, kind: EventKind) {
        if T::ENABLED {
            self.tracer.record(TraceEvent {
                cycle: self.t0.elapsed().as_nanos() as u64,
                block,
                warp: lane,
                kind,
            });
        }
    }
}

/// Configuration for the native engine: the algorithm parameters plus
/// nothing else — thread count is `blocks × warps_per_block`.
#[derive(Debug, Clone, Copy)]
pub struct NativeConfig {
    /// Algorithm parameters. Defaults scale the block geometry down to
    /// CPU-appropriate sizes (4 blocks × 2 warps = 8 threads).
    pub algo: DiggerBeesConfig,
}

impl Default for NativeConfig {
    fn default() -> Self {
        Self {
            algo: DiggerBeesConfig {
                blocks: 4,
                warps_per_block: 2,
                ..DiggerBeesConfig::default()
            },
        }
    }
}

/// Output of a native traversal.
#[derive(Debug, Clone)]
pub struct NativeResult {
    /// Reachability flags.
    pub visited: Vec<bool>,
    /// DFS-tree parents ([`NO_PARENT`] for the root / unvisited).
    pub parent: Vec<u32>,
    /// Steal/flush counters and per-block task counts (`cycles` is 0 —
    /// wall time is in [`NativeResult::wall`]).
    pub stats: SimStats,
    /// Wall-clock duration of the traversal (excluding setup).
    pub wall: Duration,
    /// `false` when the run was stopped early by a [`CancelToken`]; the
    /// output arrays then describe a consistent partial traversal.
    pub completed: bool,
}

impl NativeResult {
    /// Million traversed edges per second by wall clock.
    pub fn mteps(&self) -> f64 {
        let s = self.wall.as_secs_f64();
        if s == 0.0 {
            return 0.0;
        }
        self.stats.edges_traversed as f64 / s / 1e6
    }
}

struct WarpShared {
    hot: StampedRing,
    cold: Mutex<ColdSeg>,
    /// Published `cold_rest` for lock-free victim scans.
    cold_len: AtomicU64,
}

struct Shared<'g> {
    g: &'g CsrGraph,
    cfg: DiggerBeesConfig,
    visited: Vec<AtomicU8>,
    parent: Vec<AtomicU32>,
    warps: Vec<WarpShared>,
    /// Entries logically alive anywhere (rings, segments, in hand, in
    /// transit).
    live: AtomicI64,
    done: AtomicBool,
    /// Set when a worker observed a cancelled token and raised `done`.
    cancelled: AtomicBool,
    /// Pending entries per block — the Alg. 4 load signal.
    pending: Vec<AtomicI64>,
    /// Active warps per block — the §3.4 mask, as a counter.
    block_active: Vec<AtomicU32>,
    tasks_per_block: Vec<AtomicU64>,
    steals_intra: AtomicU64,
    steals_inter: AtomicU64,
    steal_failures: AtomicU64,
    flushes: AtomicU64,
    refills: AtomicU64,
    cas_failures: AtomicU64,
    edges: AtomicU64,
    vertices: AtomicU64,
    /// High-water marks across all rings/segments (fetch_max updated
    /// wherever a stack grows).
    hot_hw: AtomicU64,
    cold_hw: AtomicU64,
}

/// The DiggerBees native engine.
#[derive(Debug, Clone, Default)]
pub struct NativeEngine {
    cfg: NativeConfig,
}

impl NativeEngine {
    /// Creates an engine; `cfg.algo.validate()` is checked at run time.
    pub fn new(cfg: NativeConfig) -> Self {
        Self { cfg }
    }

    /// Runs parallel DFS on `g` from `root`.
    ///
    /// # Panics
    ///
    /// Panics if `root` is out of range or the configuration is invalid.
    pub fn run(&self, g: &CsrGraph, root: VertexId) -> NativeResult {
        self.run_traced(g, root, &NullTracer)
    }

    /// Like [`NativeEngine::run`], but every worker polls `token` at the
    /// top of its loop (one poll per vertex-expansion step). When the
    /// token cancels — by hand or by deadline — all workers stop within
    /// one step and the result comes back with `completed == false`.
    pub fn run_cancellable(
        &self,
        g: &CsrGraph,
        root: VertexId,
        token: &CancelToken,
    ) -> NativeResult {
        self.run_inner(g, root, &NullTracer, Some(token))
    }

    /// Like [`NativeEngine::run`], recording events into `tracer`.
    ///
    /// Event timestamps are nanoseconds since kernel start; block/warp
    /// provenance maps worker thread `w` to block `w / warps_per_block`,
    /// lane `w % warps_per_block`. With [`NullTracer`] this compiles to
    /// exactly [`NativeEngine::run`].
    pub fn run_traced<T: Tracer>(&self, g: &CsrGraph, root: VertexId, tracer: &T) -> NativeResult {
        self.run_inner(g, root, tracer, None)
    }

    fn run_inner<T: Tracer>(
        &self,
        g: &CsrGraph,
        root: VertexId,
        tracer: &T,
        cancel: Option<&CancelToken>,
    ) -> NativeResult {
        let cfg = self.cfg.algo;
        cfg.validate();
        let n = g.num_vertices();
        assert!((root as usize) < n, "root {root} out of range (n = {n})");
        let nw = cfg.total_warps();
        let cold_cap = ((n as u32) / nw.max(1)).max(4 * cfg.cold_cutoff);

        let shared = Shared {
            g,
            cfg,
            visited: (0..n).map(|_| AtomicU8::new(0)).collect(),
            parent: (0..n).map(|_| AtomicU32::new(NO_PARENT)).collect(),
            warps: (0..nw)
                .map(|_| WarpShared {
                    hot: StampedRing::new(cfg.hot_size),
                    cold: Mutex::new(ColdSeg::new(cold_cap)),
                    cold_len: AtomicU64::new(0),
                })
                .collect(),
            live: AtomicI64::new(0),
            done: AtomicBool::new(false),
            cancelled: AtomicBool::new(false),
            pending: (0..cfg.blocks).map(|_| AtomicI64::new(0)).collect(),
            block_active: (0..cfg.blocks).map(|_| AtomicU32::new(0)).collect(),
            tasks_per_block: (0..cfg.blocks).map(|_| AtomicU64::new(0)).collect(),
            steals_intra: AtomicU64::new(0),
            steals_inter: AtomicU64::new(0),
            steal_failures: AtomicU64::new(0),
            flushes: AtomicU64::new(0),
            refills: AtomicU64::new(0),
            cas_failures: AtomicU64::new(0),
            edges: AtomicU64::new(0),
            vertices: AtomicU64::new(0),
            hot_hw: AtomicU64::new(1), // the seeded root
            cold_hw: AtomicU64::new(0),
        };

        // Seed the root into warp 0.
        shared.visited[root as usize].store(1, Ordering::Release);
        // relaxed-ok: stats counters seeded before any worker spawns
        shared.vertices.store(1, Ordering::Relaxed);
        shared.tasks_per_block[0].store(1, Ordering::Relaxed);
        shared.live.store(1, Ordering::Release);
        // relaxed-ok: pending is an advisory victim-selection estimate,
        // seeded before any worker spawns; every other access is Relaxed
        shared.pending[0].store(1, Ordering::Relaxed);
        shared.warps[0].hot.push((root, 0)).expect("fresh ring");
        shared.block_active[0].store(1, Ordering::Release);

        let start = Instant::now();
        let tc = TraceCtx { tracer, t0: start };
        tc.emit(
            0,
            0,
            EventKind::KernelPhase {
                phase: PhaseKind::Start,
            },
        );
        tc.emit(0, 0, EventKind::Push { vertex: root });
        crossbeam::scope(|scope| {
            for w in 0..nw {
                let shared = &shared;
                let tc = &tc;
                let poller = cancel.map(CancelToken::poller);
                scope.spawn(move |_| worker(shared, w, w == 0, tc, poller));
            }
        })
        .expect("worker panicked");
        let wall = start.elapsed();
        tc.emit(
            0,
            0,
            EventKind::KernelPhase {
                phase: PhaseKind::Finish,
            },
        );

        let completed = !shared.cancelled.load(Ordering::Acquire);
        debug_assert!(!completed || shared.live.load(Ordering::SeqCst) == 0);
        let mut stats = SimStats::new(cfg.blocks as usize);
        // relaxed-ok: stats snapshot after every worker has joined; the
        // scope join is the synchronization point (also the next 10 loads)
        stats.vertices_visited = shared.vertices.load(Ordering::Relaxed);
        stats.edges_traversed = shared.edges.load(Ordering::Relaxed); // relaxed-ok: after join
        stats.steals_intra = shared.steals_intra.load(Ordering::Relaxed); // relaxed-ok: after join
        stats.steals_inter = shared.steals_inter.load(Ordering::Relaxed); // relaxed-ok: after join
        stats.steal_failures = shared.steal_failures.load(Ordering::Relaxed); // relaxed-ok: after join
        stats.flushes = shared.flushes.load(Ordering::Relaxed); // relaxed-ok: after join
        stats.refills = shared.refills.load(Ordering::Relaxed); // relaxed-ok: after join
        stats.visited_cas_failures = shared.cas_failures.load(Ordering::Relaxed); // relaxed-ok: after join
        stats.hot_high_water = shared.hot_hw.load(Ordering::Relaxed); // relaxed-ok: after join
        stats.cold_high_water = shared.cold_hw.load(Ordering::Relaxed); // relaxed-ok: after join
        stats.tasks_per_block = shared
            .tasks_per_block
            .iter()
            .map(|a| a.load(Ordering::Relaxed)) // relaxed-ok: after join
            .collect();
        stats.record_to(db_metrics::global(), "native");
        NativeResult {
            visited: shared
                .visited
                .iter()
                .map(|a| a.load(Ordering::Acquire) != 0)
                .collect(),
            parent: shared
                .parent
                .iter()
                .map(|a| a.load(Ordering::Acquire))
                .collect(),
            stats,
            wall,
            completed,
        }
    }
}

fn worker<T: Tracer>(
    s: &Shared<'_>,
    w: u32,
    initially_active: bool,
    tc: &TraceCtx<'_, T>,
    mut poller: Option<crate::cancel::CancelPoller>,
) {
    let cfg = s.cfg;
    let b = (w / cfg.warps_per_block) as usize;
    let lane = w % cfg.warps_per_block;
    let mut rng =
        SmallRng::seed_from_u64(cfg.seed ^ (w as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let mut active = initially_active;
    let mut backoff = 0u32;

    // Local stat accumulators, merged on exit.
    let mut edges = 0u64;
    let mut vertices = 0u64;
    let mut tasks = 0u64;

    loop {
        if s.done.load(Ordering::Acquire) {
            break;
        }
        // Cooperative cancellation poll point: one poll per step.
        if let Some(p) = poller.as_mut() {
            if p.poll() {
                s.cancelled.store(true, Ordering::Release);
                s.done.store(true, Ordering::Release);
                break;
            }
        }
        if active {
            if work_step(s, w, b, &mut edges, &mut vertices, &mut tasks, tc) {
                backoff = 0;
                continue;
            }
            // Out of local work: flip to idle.
            active = false;
            s.block_active[b].fetch_sub(1, Ordering::AcqRel);
            tc.emit(b as u32, lane, EventKind::WarpIdle);
            continue;
        }
        if steal_step(s, w, b, &mut rng, tc) {
            active = true;
            backoff = 0;
            s.block_active[b].fetch_add(1, Ordering::AcqRel);
            continue;
        }
        backoff = (backoff + 1).min(16);
        if backoff < 4 {
            std::hint::spin_loop();
        } else {
            std::thread::yield_now();
        }
    }
    // relaxed-ok: stats counters, read only after the scope join
    s.edges.fetch_add(edges, Ordering::Relaxed);
    s.vertices.fetch_add(vertices, Ordering::Relaxed);
    s.tasks_per_block[b].fetch_add(tasks, Ordering::Relaxed);
}

/// One pop-process-push step for an active warp. Returns false when the
/// warp has no local work left (hot and cold both empty).
fn work_step<T: Tracer>(
    s: &Shared<'_>,
    w: u32,
    b: usize,
    edges: &mut u64,
    vertices: &mut u64,
    tasks: &mut u64,
    tc: &TraceCtx<'_, T>,
) -> bool {
    let lane = w % s.cfg.warps_per_block;
    let ws = &s.warps[w as usize];
    let Some((u, off)) = ws.hot.pop() else {
        // Refill from own ColdSeg (Figure 2(f)).
        let mut cold = ws.cold.lock();
        if cold.is_empty() {
            return false;
        }
        let batch = cold.take_from_top(ws.hot.capacity() as u64 / 2);
        ws.cold_len.store(cold.len(), Ordering::Release);
        drop(cold);
        let entries = batch.len() as u32;
        for e in batch {
            ws.hot.push(e).expect("refill fits an empty ring");
        }
        s.hot_hw.fetch_max(ws.hot.len() as u64, Ordering::Relaxed); // relaxed-ok: stats
        s.refills.fetch_add(1, Ordering::Relaxed); // relaxed-ok: stats
        tc.emit(b as u32, lane, EventKind::Refill { entries });
        return true;
    };

    // Scan u's remaining neighbors for a vertex we can claim.
    let row = s.g.neighbors(u);
    let deg = row.len() as u32;
    let mut i = off;
    let mut child: Option<Entry> = None;
    while i < deg {
        let v = row[i as usize];
        i += 1;
        // relaxed-ok: optimistic pre-check; the CAS below decides
        if s.visited[v as usize].load(Ordering::Relaxed) != 0 {
            continue;
        }
        // relaxed-ok: CAS failure means another worker won the claim; we
        // read nothing it published, so no acquire is needed
        if s.visited[v as usize]
            .compare_exchange(0, 1, Ordering::AcqRel, Ordering::Relaxed)
            .is_ok()
        {
            s.parent[v as usize].store(u, Ordering::Release);
            child = Some((v, 0));
            break;
        }
        s.cas_failures.fetch_add(1, Ordering::Relaxed); // relaxed-ok: stats
    }
    *edges += (i - off) as u64;
    match child {
        Some((v, _)) => {
            *vertices += 1;
            *tasks += 1;
            // Count the new entry BEFORE publishing it (a thief may
            // consume the child instantly; the live counter must never
            // under-count while the parent continuation exists).
            s.live.fetch_add(1, Ordering::AcqRel);
            // relaxed-ok: pending is an advisory load estimate read only by
            // two-choice victim selection; nothing is published under it
            s.pending[b].fetch_add(1, Ordering::Relaxed);
            // Push the continuation then the child (child on top).
            push_with_flush(s, w, (u, i), tc);
            push_with_flush(s, w, (v, 0), tc);
            tc.emit(b as u32, lane, EventKind::Push { vertex: v });
        }
        None => {
            // Row exhausted without a claim: the entry dies.
            tc.emit(b as u32, lane, EventKind::Pop { vertex: u });
            // relaxed-ok: advisory victim-selection estimate (see above)
            s.pending[b].fetch_sub(1, Ordering::Relaxed);
            if s.live.fetch_sub(1, Ordering::AcqRel) == 1 {
                // This thread consumed the last live entry: traversal done.
                s.done.store(true, Ordering::Release);
            }
        }
    }
    true
}

/// Push, flushing the oldest entries to the ColdSeg when the ring is
/// full (Figure 2(e); the flush consumes from `tail` through the same
/// steal path a thief uses, so it composes with concurrent steals).
fn push_with_flush<T: Tracer>(s: &Shared<'_>, w: u32, e: Entry, tc: &TraceCtx<'_, T>) {
    let ws = &s.warps[w as usize];
    loop {
        match ws.hot.push(e) {
            Ok(()) => {
                // relaxed-ok: stats high-water mark
                s.hot_hw.fetch_max(ws.hot.len() as u64, Ordering::Relaxed);
                return;
            }
            Err(_) => {
                let batch = ws.hot.take_from_tail(s.cfg.flush_batch, 1, 4);
                if batch.is_empty() {
                    // Thieves are draining the ring; retry the push.
                    std::hint::spin_loop();
                    continue;
                }
                let mut cold = ws.cold.lock();
                cold.push_top(&batch);
                ws.cold_len.store(cold.len(), Ordering::Release);
                s.cold_hw.fetch_max(cold.len(), Ordering::Relaxed); // relaxed-ok: stats
                drop(cold);
                s.flushes.fetch_add(1, Ordering::Relaxed); // relaxed-ok: stats
                tc.emit(
                    w / s.cfg.warps_per_block,
                    w % s.cfg.warps_per_block,
                    EventKind::Flush {
                        entries: batch.len() as u32,
                    },
                );
            }
        }
    }
}

/// One steal attempt for an idle warp. Returns true if work was acquired.
fn steal_step<T: Tracer>(
    s: &Shared<'_>,
    w: u32,
    b: usize,
    rng: &mut SmallRng,
    tc: &TraceCtx<'_, T>,
) -> bool {
    let cfg = s.cfg;
    let wpb = cfg.warps_per_block;
    let first = b as u32 * wpb;
    let lane = w % wpb;

    // --- Intra-block (Algorithm 3): CAS reservation at the victim's `tail` ---
    let mut max_rest = 0u32;
    let mut victim = None;
    for peer in first..first + wpb {
        if peer == w {
            continue;
        }
        let rest = s.warps[peer as usize].hot.len();
        if rest > max_rest {
            max_rest = rest;
            victim = Some(peer);
        }
    }
    if let Some(v) = victim {
        if max_rest >= cfg.hot_cutoff {
            let batch =
                s.warps[v as usize]
                    .hot
                    .take_from_tail(cfg.hot_steal_batch(), cfg.hot_cutoff, 2);
            if batch.is_empty() {
                s.steal_failures.fetch_add(1, Ordering::Relaxed); // relaxed-ok: stats
                tc.emit(b as u32, lane, EventKind::StealFail { victim: v % wpb });
            } else {
                let entries = batch.len() as u32;
                for e in batch {
                    push_with_flush(s, w, e, tc);
                }
                s.steals_intra.fetch_add(1, Ordering::Relaxed); // relaxed-ok: stats
                tc.emit(
                    b as u32,
                    lane,
                    EventKind::StealIntra {
                        victim_warp: v % wpb,
                        entries,
                    },
                );
                return true;
            }
        }
    }

    // --- Inter-block (Algorithm 4): leader warp of an idle block ---
    if !cfg.inter_block || cfg.blocks <= 1 || w != first {
        return false;
    }
    if s.block_active[b].load(Ordering::Acquire) != 0 {
        return false;
    }
    let vb = match cfg.victim_policy {
        crate::config::VictimPolicy::Random => {
            // Blind single sample — the Fig. 9 baseline has no load info.
            let c = rng.gen_range(0..cfg.blocks);
            if c == b as u32 {
                return false;
            }
            c
        }
        crate::config::VictimPolicy::TwoChoice => {
            let mut best: Option<(i64, u32)> = None;
            let mut found = 0;
            for _ in 0..8 {
                let c = rng.gen_range(0..cfg.blocks);
                if c == b as u32 || s.block_active[c as usize].load(Ordering::Acquire) == 0 {
                    continue;
                }
                // relaxed-ok: advisory estimate; staleness is tolerated
                let load = s.pending[c as usize].load(Ordering::Relaxed);
                if best.is_none_or(|(bl, _)| load > bl) {
                    best = Some((load, c));
                }
                found += 1;
                if found == 2 {
                    break;
                }
            }
            match best {
                Some((_, c)) => c,
                None => return false,
            }
        }
    };
    // Victim warp: max published cold_rest in the victim block; the
    // ColdSeg is then re-checked under its lock.
    let vfirst = vb * wpb;
    let mut best: Option<(u64, u32)> = None;
    for peer in vfirst..vfirst + wpb {
        let rest = s.warps[peer as usize].cold_len.load(Ordering::Acquire);
        if rest > 0 && best.is_none_or(|(br, _)| rest > br) {
            best = Some((rest, peer));
        }
    }
    let Some((rest, vw)) = best else { return false };
    if rest < cfg.cold_cutoff as u64 {
        return false;
    }
    let vs = &s.warps[vw as usize];
    let mut vcold = vs.cold.lock();
    if vcold.len() < cfg.cold_cutoff as u64 {
        drop(vcold);
        s.steal_failures.fetch_add(1, Ordering::Relaxed); // relaxed-ok: stats
        tc.emit(b as u32, lane, EventKind::StealFail { victim: vb });
        return false;
    }
    let batch = vcold.take_from_bottom(cfg.cold_steal_batch() as u64);
    vs.cold_len.store(vcold.len(), Ordering::Release);
    drop(vcold);
    let k = batch.len() as i64;
    // relaxed-ok: advisory victim-selection estimates; a stale value only
    // costs one misdirected steal probe
    s.pending[vb as usize].fetch_sub(k, Ordering::Relaxed);
    s.pending[b].fetch_add(k, Ordering::Relaxed);
    let entries = batch.len() as u32;
    for e in batch {
        push_with_flush(s, w, e, tc);
    }
    s.steals_inter.fetch_add(1, Ordering::Relaxed); // relaxed-ok: stats
    tc.emit(
        b as u32,
        lane,
        EventKind::StealInter {
            victim_block: vb,
            entries,
        },
    );
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use db_graph::validate::{check_reachability, check_spanning_tree};
    use db_graph::GraphBuilder;

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

    fn small_cfg() -> NativeConfig {
        NativeConfig {
            algo: DiggerBeesConfig {
                blocks: 2,
                warps_per_block: 2,
                hot_size: 16,
                hot_cutoff: 4,
                cold_cutoff: 8,
                flush_batch: 8,
                ..Default::default()
            },
        }
    }

    #[test]
    fn traverses_figure1() {
        let g = GraphBuilder::undirected(6)
            .edges([(0, 1), (0, 2), (1, 3), (2, 4), (3, 4), (2, 5)])
            .build();
        let out = NativeEngine::new(small_cfg()).run(&g, 0);
        check_reachability(&g, 0, &out.visited).unwrap();
        check_spanning_tree(&g, 0, &out.visited, &out.parent).unwrap();
        assert_eq!(out.stats.vertices_visited, 6);
    }

    #[test]
    fn grid_traversal_valid() {
        let g = grid(50, 50);
        let out = NativeEngine::new(small_cfg()).run(&g, 17);
        check_reachability(&g, 17, &out.visited).unwrap();
        check_spanning_tree(&g, 17, &out.visited, &out.parent).unwrap();
        assert_eq!(out.stats.edges_traversed, g.num_arcs() as u64);
    }

    #[test]
    fn deep_path_exercises_flush_refill() {
        // Single warp so thieves cannot drain the ring before it fills.
        let n = 5000u32;
        let g = GraphBuilder::undirected(n)
            .edges((0..n - 1).map(|i| (i, i + 1)))
            .build();
        let cfg = NativeConfig {
            algo: DiggerBeesConfig {
                blocks: 1,
                warps_per_block: 1,
                inter_block: false,
                ..small_cfg().algo
            },
        };
        let out = NativeEngine::new(cfg).run(&g, 0);
        check_reachability(&g, 0, &out.visited).unwrap();
        assert!(out.stats.flushes > 0);
        assert!(out.stats.refills > 0);
    }

    #[test]
    fn disconnected_graph_partial_visit() {
        let mut b = GraphBuilder::undirected(10);
        b.edge(0, 1);
        b.edge(5, 6);
        let g = b.build();
        let out = NativeEngine::new(small_cfg()).run(&g, 0);
        assert!(out.visited[0] && out.visited[1]);
        assert!(!out.visited[5] && !out.visited[6]);
    }

    #[test]
    fn default_config_runs() {
        // Defaults use 8 threads; make sure they terminate on a small graph.
        let g = grid(20, 20);
        let out = NativeEngine::new(NativeConfig::default()).run(&g, 0);
        check_reachability(&g, 0, &out.visited).unwrap();
    }

    #[test]
    fn stress_repeat_runs_agree_on_reachability() {
        let g = grid(30, 30);
        for _ in 0..5 {
            let out = NativeEngine::new(small_cfg()).run(&g, 0);
            check_reachability(&g, 0, &out.visited).unwrap();
            check_spanning_tree(&g, 0, &out.visited, &out.parent).unwrap();
        }
    }

    #[test]
    fn mteps_is_positive() {
        let g = grid(40, 40);
        let out = NativeEngine::new(small_cfg()).run(&g, 0);
        assert!(out.mteps() > 0.0);
        assert!(out.wall > Duration::ZERO);
    }

    #[test]
    fn precancelled_token_stops_immediately() {
        let g = grid(60, 60);
        let token = CancelToken::new();
        token.cancel();
        let out = NativeEngine::new(small_cfg()).run_cancellable(&g, 0, &token);
        assert!(!out.completed);
        // Workers poll before their first step, so (at most) the
        // pre-seeded root is marked.
        assert!(out.visited.iter().filter(|&&v| v).count() < g.num_vertices());
    }

    #[test]
    fn uncancelled_token_runs_to_completion() {
        let g = grid(30, 30);
        let token = CancelToken::new();
        let out = NativeEngine::new(small_cfg()).run_cancellable(&g, 0, &token);
        assert!(out.completed);
        check_reachability(&g, 0, &out.visited).unwrap();
        check_spanning_tree(&g, 0, &out.visited, &out.parent).unwrap();
    }

    #[test]
    fn expired_deadline_yields_partial_but_consistent_prefix() {
        // A long path forces a serial frontier, so the traversal cannot
        // finish before the (already expired) deadline is observed at
        // the first poll point.
        let n = 200_000u32;
        let g = GraphBuilder::undirected(n)
            .edges((0..n - 1).map(|i| (i, i + 1)))
            .build();
        let token = CancelToken::with_deadline(std::time::Instant::now());
        let out = NativeEngine::new(small_cfg()).run_cancellable(&g, 0, &token);
        assert!(!out.completed);
        // The visited prefix must still be parent-consistent: every
        // visited non-root vertex has a visited parent.
        for v in 1..n as usize {
            if out.visited[v] {
                let p = out.parent[v];
                assert!(p != NO_PARENT && out.visited[p as usize]);
            }
        }
    }

    #[test]
    fn run_records_into_global_registry() {
        let runs = db_metrics::global().counter(
            "db_engine_runs_total",
            "Completed traversal runs per engine",
            &[("engine", "native")],
        );
        let before = runs.get();
        let out = NativeEngine::new(small_cfg()).run(&grid(20, 20), 0);
        assert!(out.stats.hot_high_water >= 1);
        assert!(runs.get() > before, "run must bump the global run counter");
    }

    #[test]
    fn single_thread_config() {
        let g = grid(15, 15);
        let cfg = NativeConfig {
            algo: DiggerBeesConfig {
                blocks: 1,
                warps_per_block: 1,
                inter_block: false,
                ..small_cfg().algo
            },
        };
        let out = NativeEngine::new(cfg).run(&g, 0);
        check_spanning_tree(&g, 0, &out.visited, &out.parent).unwrap();
        assert_eq!(out.stats.steals_intra + out.stats.steals_inter, 0);
    }
}
