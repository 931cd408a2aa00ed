//! The simulated DiggerBees engine.
//!
//! Executes the full §3 algorithm — warp-level DFS on two-level stacks
//! with intra-block and inter-block stealing — as per-warp state
//! machines driven by the deterministic discrete-event scheduler of
//! `db-gpu-sim`. Every warp is an agent; each event performs one atomic
//! protocol step (a 32-edge scan, a flush, a victim scan, a steal
//! reservation, …) and charges the machine model's cycle cost for it.
//!
//! Faithfulness notes:
//!
//! * Steal operations are split into *selection* and *reservation*
//!   events, so a thief's reservation can fail because another thief got
//!   there first — Warp2's failed `atomicCAS` in Figure 3(a) happens
//!   here for real.
//! * Flushes take the *oldest* entries from `tail` (§3.3's locality and
//!   steal-candidate argument); refills take the newest from `top`.
//! * Inter-block stealing is performed by the leader warp of a fully
//!   idle block only, with power-of-two-choices load-aware victim
//!   selection (Algorithm 4), or uniformly random victim selection when
//!   configured as the Fig. 9 baseline.
//! * The v1 breakdown variant keeps the whole stack in global memory:
//!   same protocol, global-memory costs, no flush/refill.

use crate::config::{DiggerBeesConfig, StackLevels, VictimPolicy};
use crate::stack::{ColdSeg, HotRing};
use db_fault::{FaultKind, Injector, Site};
use db_gpu_sim::{Des, MachineModel, MemPipeline, NoProfiler, Profiler, SimPhase, SimStats};
use db_graph::{CsrGraph, VertexId, NO_PARENT};
use db_trace::{EventKind, NullTracer, PhaseKind, TraceEvent, Tracer};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Result of a simulated traversal.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Reachability flags (Table 2 `visited` output).
    pub visited: Vec<bool>,
    /// DFS-tree parents (Table 2 `DFS Tree` output).
    pub parent: Vec<u32>,
    /// Execution counters, including the simulated makespan in cycles.
    pub stats: SimStats,
    /// Million traversed edges per second under the machine model.
    pub mteps: f64,
    /// Sampled `(cycle, active_warps)` trace (one sample per 16 Ki
    /// cycles) — used by the harness to inspect ramp-up and tail
    /// behaviour, and by the engine's own diagnostics.
    pub trace: Vec<(u64, u32)>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Has local work (or needs a refill).
    Working,
    /// Idle: next event scans for a victim.
    IdleScan,
    /// Selected an intra-block victim; next event reserves and copies.
    IntraReserve { victim: u32 },
    /// Selected an inter-block victim warp; next event reserves/copies.
    InterReserve { victim_warp: u32 },
}

struct Warp {
    hot: HotRing,
    cold: ColdSeg,
    phase: Phase,
    active: bool,
    backoff: u64,
}

/// Outcome of the steal-copy fault check (see [`Engine::fault_steal`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StealFault {
    None,
    /// The steal loses its reservation race: entries stay with the victim.
    Drop,
    /// The copied entries arrive with corrupted offsets (reset to 0),
    /// forcing the thief to re-scan their rows.
    Corrupt,
}

/// Dense code carried by [`EventKind::Fault`] trace events.
fn fault_code(kind: &FaultKind) -> u32 {
    match kind {
        FaultKind::Kill => 0,
        FaultKind::Stall { .. } => 1,
        FaultKind::SlowDown { .. } => 2,
        FaultKind::CorruptResult => 3,
        FaultKind::DropSteal => 4,
        // Storage kinds never strike sim sites; the code is carried only
        // if a future site wires them through.
        FaultKind::Torn => 5,
        FaultKind::ShortWrite => 6,
        FaultKind::FsyncLie => 7,
        FaultKind::Crash => 8,
    }
}

struct Engine<'g, 't, 'p, 'f, T: Tracer, P: Profiler> {
    g: &'g CsrGraph,
    tracer: &'t T,
    profiler: &'p P,
    cfg: DiggerBeesConfig,
    m: MachineModel,
    warps: Vec<Warp>,
    visited: Vec<bool>,
    parent: Vec<u32>,
    /// Entries logically present across all stacks. Zero ⇒ traversal done.
    live: u64,
    /// Pending entries per block (the "cumulative workload" of Alg. 4).
    pending: Vec<u64>,
    /// Active warps per block (the §3.4 mask, as a count).
    block_active: Vec<u32>,
    stats: SimStats,
    finish: Option<u64>,
    rng: SmallRng,
    /// Device-wide random-transaction pipeline (see `db_gpu_sim::pipeline`).
    mem: MemPipeline,
    active_total: u32,
    trace: Vec<(u64, u32)>,
    trace_next: u64,
    /// Fault injector, when running under a chaos plan. `None` keeps the
    /// fault-free fast path: every check site is a single `is_some` test.
    injector: Option<&'f Injector>,
    /// Per-block kill flags — a dead SM never dispatches again.
    dead: Vec<bool>,
    /// True once any block died; gates all recovery bookkeeping.
    any_dead: bool,
}

const BACKOFF_START: u64 = 64;
const BACKOFF_MAX: u64 = 4096;

impl<'g, 't, 'p, 'f, T: Tracer, P: Profiler> Engine<'g, 't, 'p, 'f, T, P> {
    fn new(
        g: &'g CsrGraph,
        root: VertexId,
        cfg: DiggerBeesConfig,
        m: MachineModel,
        tracer: &'t T,
        profiler: &'p P,
        injector: Option<&'f Injector>,
    ) -> Self {
        cfg.validate();
        let n = g.num_vertices();
        assert!((root as usize) < n, "root out of range");
        let nw = cfg.total_warps();
        let hot_cap = match cfg.stack {
            StackLevels::Two => cfg.hot_size,
            // v1: one big global-memory stack per warp; sized generously
            // so it never needs a second level.
            StackLevels::One => (n as u32).max(cfg.hot_size),
        };
        // cold_size = nv / nw (§3.2), clamped to something useful.
        let cold_cap = ((n as u32) / nw.max(1)).max(4 * cfg.cold_cutoff);
        let warps = (0..nw)
            .map(|_| Warp {
                hot: HotRing::new(hot_cap),
                cold: ColdSeg::new(cold_cap),
                phase: Phase::IdleScan,
                active: false,
                backoff: BACKOFF_START,
            })
            .collect();
        let mem = MemPipeline::new(m.costs.random_trans_per_cycle);
        let mut eng = Self {
            g,
            tracer,
            profiler,
            cfg,
            m,
            warps,
            visited: vec![false; n],
            parent: vec![NO_PARENT; n],
            live: 0,
            pending: vec![0; cfg.blocks as usize],
            block_active: vec![0; cfg.blocks as usize],
            stats: SimStats::new(cfg.blocks as usize),
            finish: None,
            rng: SmallRng::seed_from_u64(cfg.seed),
            mem,
            active_total: 0,
            trace: Vec::new(),
            trace_next: 0,
            injector,
            dead: vec![false; cfg.blocks as usize],
            any_dead: false,
        };
        // Initialization (§3.6): root into warp 0's HotRing.
        eng.visited[root as usize] = true;
        eng.stats.vertices_visited = 1;
        eng.stats.tasks_per_block[0] += 1;
        eng.prof_task(0);
        eng.stats.hot_high_water = 1;
        eng.warps[0].hot.push((root, 0)).expect("fresh ring");
        eng.live = 1;
        eng.pending[0] = 1;
        eng.set_active(0, true);
        eng.warps[0].phase = Phase::Working;
        eng.emit(0, 0, EventKind::Push { vertex: root });
        eng
    }

    /// Records a trace event with (block, lane) provenance derived from
    /// the global warp id. The `T::ENABLED` guard is a compile-time
    /// constant: with `NullTracer` this entire function folds away.
    #[inline(always)]
    fn emit(&self, w: u32, now: u64, kind: EventKind) {
        if T::ENABLED {
            self.tracer.record(TraceEvent {
                cycle: now,
                block: self.block_of(w),
                warp: w % self.cfg.warps_per_block,
                kind,
            });
        }
    }

    /// Charges `cycles` to `phase` on warp `w`'s SM. Like `emit`, the
    /// `P::ENABLED` guard is compile-time: with `NoProfiler` every
    /// charge site folds away.
    #[inline(always)]
    fn prof(&self, w: u32, phase: SimPhase, cycles: u64) {
        if P::ENABLED {
            self.profiler.charge(self.block_of(w), phase, cycles);
        }
    }

    /// Counts one claimed vertex on warp `w`'s SM (Fig. 9 numerator).
    #[inline(always)]
    fn prof_task(&self, w: u32) {
        if P::ENABLED {
            self.profiler.count_task(self.block_of(w));
        }
    }

    /// Updates the stack high-water marks after warp `w`'s stacks grew.
    #[inline]
    fn note_high_water(&mut self, w: u32) {
        let wp = &self.warps[w as usize];
        self.stats.hot_high_water = self.stats.hot_high_water.max(wp.hot.len());
        self.stats.cold_high_water = self.stats.cold_high_water.max(wp.cold.len());
    }

    #[inline]
    fn block_of(&self, w: u32) -> u32 {
        w / self.cfg.warps_per_block
    }

    #[inline]
    fn is_leader(&self, w: u32) -> bool {
        w.is_multiple_of(self.cfg.warps_per_block)
    }

    fn set_active(&mut self, w: u32, active: bool) {
        let b = self.block_of(w) as usize;
        if self.warps[w as usize].active != active {
            self.warps[w as usize].active = active;
            if active {
                self.block_active[b] += 1;
                self.active_total += 1;
            } else {
                self.block_active[b] -= 1;
                self.active_total -= 1;
            }
        }
    }

    /// Cost of a local stack operation under the configured stack level.
    #[inline]
    fn stack_op_cost(&self) -> u64 {
        match self.cfg.stack {
            StackLevels::Two => self.m.costs.smem_op,
            StackLevels::One => self.m.costs.gmem_latency,
        }
    }

    /// Random memory transactions issued by one local stack operation
    /// (zero for shared-memory HotRing ops, one for the v1 global stack).
    #[inline]
    fn stack_op_trans(&self) -> u64 {
        match self.cfg.stack {
            StackLevels::Two => 0,
            StackLevels::One => 1,
        }
    }

    /// Transactions for a contiguous batch transfer of `k` entries.
    #[inline]
    fn batch_trans(k: u64) -> u64 {
        1 + k / 16
    }

    /// Evaluates the fault plan at `site` for warp `w`'s SM.
    #[inline]
    fn fault(&self, site: Site, w: u32, now: u64) -> Option<FaultKind> {
        self.injector?.check(site, self.block_of(w), now)
    }

    /// Records a strike on the trace timeline.
    fn emit_fault(&self, w: u32, now: u64, kind: FaultKind) {
        self.emit(
            w,
            now,
            EventKind::Fault {
                code: fault_code(&kind),
            },
        );
    }

    /// Ring-site fault check (push/pop): only `Stall` applies there; the
    /// returned extra cycles are added to the step's cost.
    fn ring_fault(&self, site: Site, w: u32, now: u64) -> u64 {
        match self.fault(site, w, now) {
            Some(k @ FaultKind::Stall { cycles }) => {
                self.emit_fault(w, now, k);
                cycles
            }
            _ => 0,
        }
    }

    /// Steal-copy fault check, shared by the intra and inter reserve steps.
    fn fault_steal(&self, w: u32, now: u64) -> StealFault {
        match self.fault(Site::StealCopy, w, now) {
            Some(k @ FaultKind::DropSteal) => {
                self.emit_fault(w, now, k);
                StealFault::Drop
            }
            Some(k @ FaultKind::CorruptResult) => {
                self.emit_fault(w, now, k);
                StealFault::Corrupt
            }
            _ => StealFault::None,
        }
    }

    /// An injected kill: warp `w`'s whole SM stops dispatching forever.
    /// Each warp's HotRing is spilled into its ColdSeg (the global-memory
    /// level survives the SM) so survivors can re-steal the stranded work
    /// through the recovery path (`select_dead_victim`).
    fn kill_block(&mut self, w: u32, now: u64) {
        let b = self.block_of(w);
        let wpb = self.cfg.warps_per_block;
        for peer in b * wpb..(b + 1) * wpb {
            let n = self.warps[peer as usize].hot.len();
            if n > 0 {
                let spilled = self.warps[peer as usize].hot.take_from_tail(n);
                self.warps[peer as usize].cold.push_top(&spilled);
                self.note_high_water(peer);
            }
            self.set_active(peer, false);
        }
        self.dead[b as usize] = true;
        self.any_dead = true;
        self.stats.sms_killed += 1;
        self.emit_fault(w, now, FaultKind::Kill);
    }

    /// One protocol step for warp `w`. Returns the cycle cost, or `None`
    /// to park the warp (traversal finished, SM killed, or stranded work
    /// that can never be recovered).
    fn step(&mut self, w: u32, now: u64) -> Option<u64> {
        let mut scale = 1.0f64;
        if self.injector.is_some() {
            if self.dead[self.block_of(w) as usize] {
                return None;
            }
            match self.fault(Site::Dispatch, w, now) {
                Some(FaultKind::Kill) => {
                    self.kill_block(w, now);
                    return None;
                }
                Some(k @ FaultKind::Stall { cycles }) => {
                    self.emit_fault(w, now, k);
                    let cost = cycles.max(1);
                    self.prof(w, SimPhase::Idle, cost);
                    return Some(cost);
                }
                Some(k @ FaultKind::SlowDown { factor }) => {
                    self.emit_fault(w, now, k);
                    scale = factor;
                }
                _ => {}
            }
        }
        let cost = match self.warps[w as usize].phase {
            Phase::Working => Some(self.step_working(w, now)),
            Phase::IdleScan => self.step_idle_scan(w),
            Phase::IntraReserve { victim } => Some(self.step_intra_reserve(w, victim, now)),
            Phase::InterReserve { victim_warp } => {
                Some(self.step_inter_reserve(w, victim_warp, now))
            }
        }?;
        Some(if scale > 1.0 {
            (cost as f64 * scale).ceil() as u64
        } else {
            cost
        })
    }

    fn step_working(&mut self, w: u32, now: u64) -> u64 {
        let wi = w as usize;
        let b = self.block_of(w) as usize;
        if self.warps[wi].hot.is_empty() {
            // Refill from own ColdSeg (Figure 2(f)) or go idle.
            if !self.warps[wi].cold.is_empty() {
                let batch = (self.cfg.hot_size as u64 / 2).max(1);
                let entries = self.warps[wi].cold.take_from_top(batch);
                let k = entries.len() as u64;
                self.warps[wi].hot.push_batch(&entries);
                self.note_high_water(w);
                self.stats.refills += 1;
                self.emit(w, now, EventKind::Refill { entries: k as u32 });
                let cost = self.m.transfer_cost(k) + self.mem.charge(now, Self::batch_trans(k));
                self.prof(w, SimPhase::TmaWait, cost);
                return cost;
            }
            self.set_active(w, false);
            self.warps[wi].phase = Phase::IdleScan;
            self.warps[wi].backoff = BACKOFF_START;
            self.emit(w, now, EventKind::WarpIdle);
            self.prof(w, SimPhase::Idle, self.m.costs.smem_op);
            return self.m.costs.smem_op;
        }

        let (u, off) = self.warps[wi].hot.top().expect("nonempty");
        let deg = self.g.degree(u) as u32;
        if off >= deg {
            // Vertex exhausted: fast pop (Figure 2(d)).
            self.warps[wi].hot.pop();
            self.live -= 1;
            self.pending[b] -= 1;
            self.emit(w, now, EventKind::Pop { vertex: u });
            if self.live == 0 && self.finish.is_none() {
                self.finish = Some(now + self.stack_op_cost());
            }
            let cost = self.stack_op_cost()
                + self.mem.charge(now, self.stack_op_trans())
                + self.ring_fault(Site::RingPop, w, now);
            self.prof(w, SimPhase::RingPop, cost);
            return cost;
        }

        // Scan one warp-wide chunk of u's row for an unvisited neighbor.
        let row = self.g.neighbors(u);
        let chunk_end = (off + self.m.warp_width).min(deg);
        let mut found: Option<(u32, u32)> = None; // (neighbor, index)
        for i in off..chunk_end {
            let v = row[i as usize];
            if !self.visited[v as usize] {
                found = Some((v, i));
                break;
            }
        }
        match found {
            Some((v, i)) => {
                // Claim v (the global atomicCAS of §3.3 — serialized by
                // the DES, so the claim always succeeds here).
                self.visited[v as usize] = true;
                self.parent[v as usize] = u;
                self.stats.vertices_visited += 1;
                self.stats.edges_traversed += (i + 1 - off) as u64;
                self.stats.tasks_per_block[b] += 1;
                self.prof_task(w);
                self.warps[wi].hot.update_top((u, i + 1));
                // row_ptr + contiguous columns (2 transactions), one
                // scattered visited probe per examined edge, CAS + parent
                // write (2), plus v1's global stack traffic.
                let trans = 2 + (i + 1 - off) as u64 + 2 + 2 * self.stack_op_trans();
                let expand_cost = self.m.costs.edge_chunk
                    + self.m.costs.atomic_global
                    + self.mem.charge(now, trans);
                let push_cost = 2 * self.stack_op_cost();
                self.prof(w, SimPhase::Expand, expand_cost);
                self.prof(w, SimPhase::RingPush, push_cost);
                let mut cost = expand_cost + push_cost + self.ring_fault(Site::RingPush, w, now);
                if self.warps[wi].hot.is_full() {
                    cost += self.flush(w, now);
                }
                self.warps[wi]
                    .hot
                    .push((v, 0))
                    .expect("flush guarantees space");
                self.note_high_water(w);
                self.live += 1;
                self.pending[b] += 1;
                self.emit(w, now, EventKind::Push { vertex: v });
                cost
            }
            None => {
                // Whole chunk visited: advance the offset.
                self.stats.edges_traversed += (chunk_end - off) as u64;
                self.warps[wi].hot.update_top((u, chunk_end));
                let trans = 2 + (chunk_end - off) as u64 + self.stack_op_trans();
                let cost =
                    self.m.costs.edge_chunk + self.stack_op_cost() + self.mem.charge(now, trans);
                self.prof(w, SimPhase::Expand, cost);
                cost
            }
        }
    }

    /// Flush (Figure 2(e)): move the oldest `flush_batch` entries to the
    /// ColdSeg. Only meaningful for the two-level stack; the one-level
    /// variant sizes its ring to the graph and never fills.
    fn flush(&mut self, w: u32, now: u64) -> u64 {
        debug_assert_eq!(self.cfg.stack, StackLevels::Two);
        let wi = w as usize;
        let batch = self.warps[wi]
            .hot
            .take_from_tail(self.cfg.flush_batch as u64);
        let k = batch.len() as u64;
        self.warps[wi].cold.push_top(&batch);
        self.note_high_water(w);
        self.stats.flushes += 1;
        self.emit(w, now, EventKind::Flush { entries: k as u32 });
        let cost = self.m.transfer_cost(k) + self.mem.charge(now, Self::batch_trans(k));
        self.prof(w, SimPhase::TmaWait, cost);
        cost
    }

    fn step_idle_scan(&mut self, w: u32) -> Option<u64> {
        if self.live == 0 {
            return None; // traversal complete — park
        }
        if self.any_dead {
            // Stranded-work guard: if every remaining live entry sits on
            // a killed SM and no recovery path exists (no inter-block
            // stealing), idle warps would spin on `live > 0` forever.
            // Park instead; the DES drains and the run terminates with
            // the stranded vertices unvisited.
            let stranded: u64 = (0..self.cfg.blocks as usize)
                .filter(|&db| self.dead[db])
                .map(|db| self.pending[db])
                .sum();
            if stranded == self.live && !(self.cfg.inter_block && self.cfg.blocks > 1) {
                return None;
            }
        }
        let b = self.block_of(w);
        let wpb = self.cfg.warps_per_block;
        let first = b * wpb;

        // Step 1 of Algorithm 3: scan peers for the max hot_rest.
        let mut max_rest = 0u64;
        let mut victim = None;
        for peer in first..first + wpb {
            if peer == w {
                continue;
            }
            let rest = self.warps[peer as usize].hot.len();
            if rest > max_rest {
                max_rest = rest;
                victim = Some(peer);
            }
        }
        let scan_cost = self.m.costs.steal_scan * wpb as u64;
        if let Some(v) = victim {
            if max_rest >= self.cfg.hot_cutoff as u64 {
                self.warps[w as usize].phase = Phase::IntraReserve { victim: v };
                self.prof(w, SimPhase::StealSearch, scan_cost);
                return Some(scan_cost);
            }
        }

        // Inter-block stealing (Algorithm 4): leader warp of an idle block.
        if self.cfg.inter_block
            && self.cfg.blocks > 1
            && self.is_leader(w)
            && self.block_active[b as usize] == 0
        {
            if let Some(vw) = self.select_inter_victim(b) {
                self.warps[w as usize].phase = Phase::InterReserve { victim_warp: vw };
                // two sampled blocks + a warp scan inside the victim
                let cost = scan_cost + (2 + wpb as u64) * self.m.costs.steal_scan;
                self.prof(w, SimPhase::StealSearch, cost);
                return Some(cost);
            }
        }

        // Nothing stealable: exponential backoff poll.
        self.prof(w, SimPhase::StealSearch, scan_cost);
        self.prof(w, SimPhase::Idle, self.warps[w as usize].backoff);
        let cost = scan_cost + self.warps[w as usize].backoff;
        let bo = &mut self.warps[w as usize].backoff;
        *bo = (*bo * 2).min(BACKOFF_MAX);
        Some(cost)
    }

    /// Recovery pre-pass: a killed SM never re-activates, so its stacks
    /// are drained outside the normal victim discipline — the active
    /// mask (dead blocks are inactive by definition) and the cold cutoff
    /// (every stranded entry matters) are both ignored. Returns the
    /// dead-block warp holding the most stranded entries.
    fn select_dead_victim(&self, my_block: u32) -> Option<u32> {
        let wpb = self.cfg.warps_per_block;
        let mut best: Option<(u64, u32)> = None;
        for b in 0..self.cfg.blocks {
            if b == my_block || !self.dead[b as usize] {
                continue;
            }
            for peer in b * wpb..(b + 1) * wpb {
                let rest = self.warps[peer as usize].cold.len();
                if rest > 0 && best.is_none_or(|(br, _)| rest > br) {
                    best = Some((rest, peer));
                }
            }
        }
        best.map(|(_, vw)| vw)
    }

    /// Steps 1–2 of Algorithm 4: pick a victim block (two-choice or
    /// random), then the warp with max `cold_rest` inside it.
    fn select_inter_victim(&mut self, my_block: u32) -> Option<u32> {
        if self.any_dead {
            if let Some(vw) = self.select_dead_victim(my_block) {
                return Some(vw);
            }
        }
        let nb = self.cfg.blocks;
        let sample = |rng: &mut SmallRng| -> u32 { rng.gen_range(0..nb) };
        let candidate = match self.cfg.victim_policy {
            VictimPolicy::Random => {
                // Fig. 9 baseline: one *blind* sample — no load
                // information at all. If the sampled block has nothing
                // stealable, this attempt simply fails.
                let c = sample(&mut self.rng);
                if c == my_block {
                    None
                } else {
                    Some(c)
                }
            }
            VictimPolicy::TwoChoice => {
                // Sample two candidate *active* blocks (activity is
                // cheap shared state — the §3.4 mask), keep the
                // heavier-loaded one (power of two choices, §3.5).
                let mut best: Option<(u64, u32)> = None;
                let mut found = 0;
                for _ in 0..8 {
                    let c = sample(&mut self.rng);
                    if c == my_block || self.block_active[c as usize] == 0 {
                        continue;
                    }
                    let load = self.pending[c as usize];
                    if best.is_none_or(|(bl, _)| load > bl) {
                        best = Some((load, c));
                    }
                    found += 1;
                    if found == 2 {
                        break;
                    }
                }
                best.map(|(_, c)| c)
            }
        }?;
        // Step 2: warp with max cold_rest in the victim block.
        let wpb = self.cfg.warps_per_block;
        let first = candidate * wpb;
        let mut best: Option<(u64, u32)> = None;
        for peer in first..first + wpb {
            let rest = self.warps[peer as usize].cold.len();
            if rest > 0 && best.is_none_or(|(br, _)| rest > br) {
                best = Some((rest, peer));
            }
        }
        match best {
            Some((rest, vw)) if rest >= self.cfg.cold_cutoff as u64 => Some(vw),
            _ => None,
        }
    }

    /// Steps 2–3 of Algorithm 3: re-validate, reserve with the CAS, copy.
    fn step_intra_reserve(&mut self, w: u32, victim: u32, now: u64) -> u64 {
        let cas_cost = match self.cfg.stack {
            StackLevels::Two => self.m.costs.atomic_shared,
            StackLevels::One => self.m.costs.atomic_global,
        };
        // Re-validation: another thief may have emptied the victim since
        // our selection event (Warp2's failure in Figure 3(a)).
        if self.warps[victim as usize].hot.len() < self.cfg.hot_cutoff as u64 {
            self.stats.steal_failures += 1;
            self.warps[w as usize].phase = Phase::IdleScan;
            self.emit(
                w,
                now,
                EventKind::StealFail {
                    victim: victim % self.cfg.warps_per_block,
                },
            );
            self.prof(w, SimPhase::StealSearch, cas_cost);
            return cas_cost;
        }
        let steal_fault = self.fault_steal(w, now);
        if steal_fault == StealFault::Drop {
            // The reservation is lost exactly as a CAS race would lose it.
            self.stats.steal_failures += 1;
            self.warps[w as usize].phase = Phase::IdleScan;
            self.emit(
                w,
                now,
                EventKind::StealFail {
                    victim: victim % self.cfg.warps_per_block,
                },
            );
            self.prof(w, SimPhase::StealSearch, cas_cost);
            return cas_cost;
        }
        let h_s = self.cfg.hot_steal_batch() as u64;
        let mut entries = self.warps[victim as usize].hot.take_from_tail(h_s);
        if steal_fault == StealFault::Corrupt {
            // Corrupted copy: offsets reset to 0, so the thief re-scans
            // each row from the start. Progress is preserved (visited
            // checks absorb the re-scan); only cycles are lost.
            for e in entries.iter_mut() {
                e.1 = 0;
            }
        }
        let k = entries.len() as u64;
        self.warps[w as usize].hot.push_batch(&entries);
        self.note_high_water(w);
        self.stats.steals_intra += 1;
        self.emit(
            w,
            now,
            EventKind::StealIntra {
                victim_warp: victim % self.cfg.warps_per_block,
                entries: k as u32,
            },
        );
        self.set_active(w, true);
        self.warps[w as usize].phase = Phase::Working;
        self.warps[w as usize].backoff = BACKOFF_START;
        // CAS + threadfence_block + local transfer (shared→shared for
        // the two-level stack; global traffic for the v1 variant).
        let trans = 2 * self.stack_op_trans() * Self::batch_trans(k);
        let cost = cas_cost
            + self.stack_op_cost()
            + k * self.m.costs.copy_per_entry
            + self.mem.charge(now, trans);
        self.prof(w, SimPhase::StealCopy, cost);
        cost
    }

    /// Steps 3–4 of Algorithm 4: re-validate, reserve via global CAS,
    /// remote transfer into the thief's HotRing.
    fn step_inter_reserve(&mut self, w: u32, victim_warp: u32, now: u64) -> u64 {
        let vb = self.block_of(victim_warp) as usize;
        let dead_victim = self.any_dead && self.dead[vb];
        // Recovery steals from killed SMs relax the cutoff to a single
        // entry: stranded work must drain completely, not just while it
        // is plentiful.
        let threshold = if dead_victim {
            1
        } else {
            self.cfg.cold_cutoff as u64
        };
        if self.warps[victim_warp as usize].cold.len() < threshold {
            self.stats.steal_failures += 1;
            self.warps[w as usize].phase = Phase::IdleScan;
            self.emit(
                w,
                now,
                EventKind::StealFail {
                    victim: self.block_of(victim_warp),
                },
            );
            self.prof(w, SimPhase::StealSearch, self.m.costs.atomic_global);
            return self.m.costs.atomic_global;
        }
        // The recovery path is the resilience mechanism itself and is
        // exempt from steal-site faults — otherwise an `always` DropSteal
        // rule could strand killed work forever.
        let steal_fault = if dead_victim {
            StealFault::None
        } else {
            self.fault_steal(w, now)
        };
        if steal_fault == StealFault::Drop {
            self.stats.steal_failures += 1;
            self.warps[w as usize].phase = Phase::IdleScan;
            self.emit(w, now, EventKind::StealFail { victim: vb as u32 });
            self.prof(w, SimPhase::StealSearch, self.m.costs.atomic_global);
            return self.m.costs.atomic_global;
        }
        let c_s = self.cfg.cold_steal_batch() as u64;
        let mut entries = self.warps[victim_warp as usize].cold.take_from_bottom(c_s);
        if steal_fault == StealFault::Corrupt {
            for e in entries.iter_mut() {
                e.1 = 0;
            }
        }
        let k = entries.len() as u64;
        self.warps[w as usize].hot.push_batch(&entries);
        self.note_high_water(w);
        let mb = self.block_of(w) as usize;
        self.pending[vb] -= k;
        self.pending[mb] += k;
        self.stats.steals_inter += 1;
        self.emit(
            w,
            now,
            EventKind::StealInter {
                victim_block: vb as u32,
                entries: k as u32,
            },
        );
        if dead_victim {
            self.stats.entries_recovered += k;
            self.emit(
                w,
                now,
                EventKind::Recover {
                    victim_block: vb as u32,
                    entries: k as u32,
                },
            );
        }
        self.set_active(w, true);
        self.warps[w as usize].phase = Phase::Working;
        self.warps[w as usize].backoff = BACKOFF_START;
        // global CAS + threadfence + async copy from global memory.
        let cost = self.m.costs.atomic_global
            + self.m.transfer_cost(k)
            + self.mem.charge(now, Self::batch_trans(k));
        self.prof(w, SimPhase::StealCopy, cost);
        cost
    }
}

/// Runs the simulated DiggerBees traversal of `g` from `root` under
/// `cfg` on machine `m`.
///
/// Deterministic: identical inputs produce identical results, including
/// all statistics.
pub fn run_sim(
    g: &CsrGraph,
    root: VertexId,
    cfg: &DiggerBeesConfig,
    m: &MachineModel,
) -> SimResult {
    run_sim_traced(g, root, cfg, m, &NullTracer)
}

/// [`run_sim`] over any [`db_graph::GraphStore`]-backed graph — packed,
/// mmap-loaded, or in-RAM — traversed in place without copying.
pub fn run_sim_store(
    store: &dyn db_graph::GraphStore,
    root: VertexId,
    cfg: &DiggerBeesConfig,
    m: &MachineModel,
) -> SimResult {
    run_sim(store.graph(), root, cfg, m)
}

/// [`run_sim`] with a [`Tracer`] attached. Tracing is observational
/// only: for any tracer the traversal result and statistics are
/// identical to the untraced run (the DES never consults the tracer),
/// and with [`NullTracer`] the instrumentation compiles out entirely.
pub fn run_sim_traced<T: Tracer>(
    g: &CsrGraph,
    root: VertexId,
    cfg: &DiggerBeesConfig,
    m: &MachineModel,
    tracer: &T,
) -> SimResult {
    run_sim_profiled(g, root, cfg, m, tracer, &NoProfiler)
}

/// [`run_sim_traced`] with a cycle-attribution [`Profiler`] attached:
/// every simulated cycle a warp spends is charged to a
/// [`SimPhase`] on its SM, and claimed vertices are counted per SM.
/// Profiling is observational only, like tracing — the traversal
/// result and statistics are identical for any profiler, and with
/// [`NoProfiler`] the charge sites compile out.
///
/// After the run, [`Profiler::finalize`] is invoked with the makespan
/// so the implementation can top up [`db_gpu_sim::SimPhase::Idle`]
/// with the unattributed remainder; a
/// [`db_gpu_sim::CycleProfiler`] then partitions the full
/// `makespan × warps` cycle budget across the seven phases.
pub fn run_sim_profiled<T: Tracer, P: Profiler>(
    g: &CsrGraph,
    root: VertexId,
    cfg: &DiggerBeesConfig,
    m: &MachineModel,
    tracer: &T,
    profiler: &P,
) -> SimResult {
    run_impl(g, root, cfg, m, tracer, profiler, None)
}

/// [`run_sim_traced`] under a deterministic fault [`Injector`].
///
/// The plan's SM-domain rules strike the simulated machine at four
/// sites: **dispatch** (`kill` halts the whole SM and spills its
/// HotRings to the ColdSegs; `stall` parks the warp for N cycles;
/// `slow` scales the step's cost), **ring push / ring pop** (`stall`
/// adds latency), and **steal copy** (`dropsteal` loses the
/// reservation race; `corrupt` resets the stolen offsets, forcing a
/// harmless re-scan). A killed SM's stranded work is re-stolen by
/// surviving blocks through a recovery path that ignores the active
/// mask and cold cutoff — when inter-block stealing is enabled the
/// traversal still completes, bit-identical to the fault-free run.
/// When it is disabled, idle warps park once every live entry is
/// stranded, so the run terminates (with unvisited vertices) instead
/// of spinning.
///
/// Determinism: faults are pure functions of the plan and per-site
/// draw counters (see `db-fault`), so same plan + same inputs ⇒ same
/// injection log, same result, same cycle count. The injector's log
/// and counters accumulate; [`SimStats::faults_injected`] records only
/// this run's strikes.
pub fn run_sim_faulted<T: Tracer>(
    g: &CsrGraph,
    root: VertexId,
    cfg: &DiggerBeesConfig,
    m: &MachineModel,
    tracer: &T,
    injector: &Injector,
) -> SimResult {
    run_impl(g, root, cfg, m, tracer, &NoProfiler, Some(injector))
}

fn run_impl<T: Tracer, P: Profiler>(
    g: &CsrGraph,
    root: VertexId,
    cfg: &DiggerBeesConfig,
    m: &MachineModel,
    tracer: &T,
    profiler: &P,
    injector: Option<&Injector>,
) -> SimResult {
    let n = g.num_vertices();
    assert!((root as usize) < n, "root {root} out of range (n = {n})");
    let faults_before = injector.map_or(0, Injector::injected);
    let mut eng = Engine::new(g, root, *cfg, m.clone(), tracer, profiler, injector);
    eng.emit(
        0,
        0,
        EventKind::KernelPhase {
            phase: PhaseKind::Start,
        },
    );
    let mut des = Des::new(cfg.total_warps());
    while let Some((now, w)) = des.next() {
        if now >= eng.trace_next {
            eng.trace.push((now, eng.active_total));
            if P::ENABLED {
                eng.profiler.sample(now, eng.active_total);
            }
            eng.trace_next = now + (1 << 14);
        }
        if let Some(cost) = eng.step(w, now) {
            des.yield_for(w, cost);
        } // else: parked
    }
    let cycles = eng.finish.unwrap_or_else(|| des.horizon());
    eng.stats.cycles = cycles;
    if P::ENABLED {
        eng.profiler.finalize(cycles, cfg.warps_per_block);
    }
    eng.emit(
        0,
        cycles,
        EventKind::KernelPhase {
            phase: PhaseKind::Finish,
        },
    );
    if let Some(inj) = injector {
        eng.stats.faults_injected = inj.injected() - faults_before;
        eng.stats.blocks_recovered = (0..cfg.blocks as usize)
            .filter(|&b| eng.dead[b] && eng.pending[b] == 0)
            .count() as u64;
    }
    eng.stats.record_to(db_metrics::global(), "sim");
    let mteps = eng.m.mteps(eng.stats.edges_traversed, cycles);
    SimResult {
        visited: eng.visited,
        parent: eng.parent,
        stats: eng.stats,
        mteps,
        trace: eng.trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use db_graph::validate::{check_reachability, check_spanning_tree};
    use db_graph::GraphBuilder;

    fn h100() -> MachineModel {
        MachineModel::h100()
    }

    fn small_cfg() -> DiggerBeesConfig {
        DiggerBeesConfig {
            blocks: 4,
            warps_per_block: 4,
            hot_size: 16,
            hot_cutoff: 4,
            cold_cutoff: 8,
            flush_batch: 8,
            ..Default::default()
        }
    }

    fn figure1() -> CsrGraph {
        GraphBuilder::undirected(6)
            .edges([(0, 1), (0, 2), (1, 3), (2, 4), (3, 4), (2, 5)])
            .build()
    }

    #[test]
    fn traverses_figure1() {
        let g = figure1();
        let r = run_sim(&g, 0, &small_cfg(), &h100());
        check_reachability(&g, 0, &r.visited).unwrap();
        check_spanning_tree(&g, 0, &r.visited, &r.parent).unwrap();
        assert_eq!(r.stats.vertices_visited, 6);
        assert_eq!(r.stats.edges_traversed, g.num_arcs() as u64);
        assert!(r.stats.cycles > 0);
        assert!(r.mteps > 0.0);
    }

    #[test]
    fn deterministic_across_runs() {
        let g = db_gen_grid(40, 40);
        let a = run_sim(&g, 0, &small_cfg(), &h100());
        let b = run_sim(&g, 0, &small_cfg(), &h100());
        assert_eq!(a.visited, b.visited);
        assert_eq!(a.parent, b.parent);
        assert_eq!(a.stats.cycles, b.stats.cycles);
        assert_eq!(a.stats.steals_intra, b.stats.steals_intra);
        assert_eq!(a.stats.steals_inter, b.stats.steals_inter);
    }

    /// Local helper: small grid without depending on db-gen (dev-dep
    /// cycles are fine, but unit tests stay self-contained).
    fn db_gen_grid(w: u32, h: u32) -> CsrGraph {
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

    #[test]
    fn all_variants_produce_valid_output() {
        let g = db_gen_grid(30, 30);
        for cfg in [
            DiggerBeesConfig {
                blocks: 1,
                inter_block: false,
                stack: StackLevels::One,
                ..small_cfg()
            },
            DiggerBeesConfig {
                blocks: 1,
                inter_block: false,
                ..small_cfg()
            },
            DiggerBeesConfig {
                blocks: 3,
                ..small_cfg()
            },
            small_cfg(),
        ] {
            let r = run_sim(&g, 0, &cfg, &h100());
            check_reachability(&g, 0, &r.visited).unwrap();
            check_spanning_tree(&g, 0, &r.visited, &r.parent).unwrap();
        }
    }

    #[test]
    fn stealing_actually_happens() {
        let g = db_gen_grid(60, 60);
        let r = run_sim(&g, 0, &small_cfg(), &h100());
        assert!(r.stats.steals_intra > 0, "expected intra-block steals");
        assert!(r.stats.steals_inter > 0, "expected inter-block steals");
        // More than one block ended up doing work.
        let busy = r.stats.tasks_per_block.iter().filter(|&&t| t > 0).count();
        assert!(busy > 1, "work never left block 0");
    }

    #[test]
    fn two_level_flushes_on_deep_graphs() {
        // A path forces stack depth = n >> hot_size. A single warp so
        // thieves cannot drain the ring before it fills.
        let n = 2000u32;
        let g = GraphBuilder::undirected(n)
            .edges((0..n - 1).map(|i| (i, i + 1)))
            .build();
        let cfg = DiggerBeesConfig {
            blocks: 1,
            warps_per_block: 1,
            inter_block: false,
            ..small_cfg()
        };
        let r = run_sim(&g, 0, &cfg, &h100());
        check_reachability(&g, 0, &r.visited).unwrap();
        assert!(r.stats.flushes > 0, "deep path must flush");
        assert!(r.stats.refills > 0, "backtracking must refill");
    }

    #[test]
    fn one_level_never_flushes() {
        let n = 1000u32;
        let g = GraphBuilder::undirected(n)
            .edges((0..n - 1).map(|i| (i, i + 1)))
            .build();
        let cfg = DiggerBeesConfig {
            stack: StackLevels::One,
            blocks: 1,
            inter_block: false,
            ..small_cfg()
        };
        let r = run_sim(&g, 0, &cfg, &h100());
        assert_eq!(r.stats.flushes, 0);
        assert_eq!(r.stats.refills, 0);
        check_reachability(&g, 0, &r.visited).unwrap();
    }

    #[test]
    fn respects_reachability_on_disconnected_graph() {
        let mut b = GraphBuilder::undirected(20);
        for i in 0..9 {
            b.edge(i, i + 1);
        }
        b.edge(15, 16);
        let g = b.build();
        let r = run_sim(&g, 0, &small_cfg(), &h100());
        check_reachability(&g, 0, &r.visited).unwrap();
        assert!(!r.visited[15] && !r.visited[16]);
    }

    #[test]
    fn single_warp_config_works() {
        let g = figure1();
        let cfg = DiggerBeesConfig {
            blocks: 1,
            warps_per_block: 1,
            inter_block: false,
            ..small_cfg()
        };
        let r = run_sim(&g, 0, &cfg, &h100());
        check_spanning_tree(&g, 0, &r.visited, &r.parent).unwrap();
        assert_eq!(r.stats.steals_intra + r.stats.steals_inter, 0);
    }

    #[test]
    fn random_policy_also_valid() {
        let g = db_gen_grid(40, 40);
        let cfg = DiggerBeesConfig {
            victim_policy: VictimPolicy::Random,
            ..small_cfg()
        };
        let r = run_sim(&g, 0, &cfg, &h100());
        check_reachability(&g, 0, &r.visited).unwrap();
    }

    #[test]
    fn finish_time_below_horizon() {
        // Idle warps may still be backing off after the last entry dies;
        // MTEPS must be computed from the finish time, not the horizon.
        let g = figure1();
        let r = run_sim(&g, 0, &small_cfg(), &h100());
        assert!(r.stats.cycles > 0);
    }

    #[test]
    fn profiler_is_observational_and_partitions_cycles() {
        use db_gpu_sim::{CycleProfiler, SimPhase};
        let g = db_gen_grid(40, 40);
        let cfg = small_cfg();
        let plain = run_sim(&g, 0, &cfg, &h100());
        let prof = CycleProfiler::new(cfg.blocks as usize);
        let profiled = run_sim_profiled(&g, 0, &cfg, &h100(), &NullTracer, &prof);

        // Observational: identical results and statistics.
        assert_eq!(plain.visited, profiled.visited);
        assert_eq!(plain.stats.cycles, profiled.stats.cycles);
        assert_eq!(plain.stats.steals_intra, profiled.stats.steals_intra);

        // The live task gauges reproduce Fig. 9's distribution exactly.
        assert_eq!(prof.tasks_per_sm(), profiled.stats.tasks_per_block);

        // Real work was attributed.
        assert!(prof.total_cycles(SimPhase::Expand) > 0);
        assert!(prof.total_cycles(SimPhase::StealSearch) > 0);

        // Each SM's phase total covers at least the makespan budget
        // (finalize tops idle up to it; explicit charges past the
        // finish time can only push it over).
        let budget = profiled.stats.cycles * cfg.warps_per_block as u64;
        for sm in 0..cfg.blocks {
            let total: u64 = SimPhase::ALL
                .iter()
                .map(|p| prof.phase_cycles(sm, *p))
                .sum();
            assert!(
                total >= budget,
                "sm{sm}: attributed {total} < budget {budget}"
            );
        }

        // Occupancy timeline mirrors the result's sampled trace.
        assert_eq!(prof.occupancy_timeline(), profiled.trace);
    }

    #[test]
    fn stack_high_water_marks_are_tracked() {
        let n = 2000u32;
        let g = GraphBuilder::undirected(n)
            .edges((0..n - 1).map(|i| (i, i + 1)))
            .build();
        let cfg = DiggerBeesConfig {
            blocks: 1,
            warps_per_block: 1,
            inter_block: false,
            ..small_cfg()
        };
        let r = run_sim(&g, 0, &cfg, &h100());
        // A deep path fills the ring (flushes happen at hot_size) and
        // pushes most of the path into the ColdSeg.
        assert_eq!(r.stats.hot_high_water, cfg.hot_size as u64);
        assert!(r.stats.cold_high_water > n as u64 / 2);
    }

    #[test]
    fn more_blocks_speed_up_big_graphs() {
        let g = db_gen_grid(90, 90);
        let one = run_sim(
            &g,
            0,
            &DiggerBeesConfig {
                blocks: 1,
                inter_block: false,
                ..small_cfg()
            },
            &h100(),
        );
        let many = run_sim(
            &g,
            0,
            &DiggerBeesConfig {
                blocks: 16,
                ..small_cfg()
            },
            &h100(),
        );
        assert!(
            many.stats.cycles < one.stats.cycles,
            "16 blocks ({}) should beat 1 block ({})",
            many.stats.cycles,
            one.stats.cycles
        );
    }
}
