//! Cycle-attribution profiler: where do simulated cycles go?
//!
//! The paper's load-balance figures (Figs. 8–11) are statements about
//! *time*, not just event counts: how many cycles each SM spent
//! expanding edges versus searching for steal victims versus waiting on
//! transfers. The trace ring can reconstruct that post-hoc; this module
//! measures it live, with the same zero-overhead-when-disabled contract
//! as `db_trace::Tracer`: engines are generic over [`Profiler`], and
//! with [`NoProfiler`] (whose `ENABLED` is `false`) every charge site
//! folds away at compile time.
//!
//! [`CycleProfiler`] accumulates per-SM, per-phase cycle totals and
//! exports these views:
//!
//! * [`CycleProfiler::folded_stacks`] — `flamegraph.pl`-ready folded
//!   stack lines (`diggerbees;sm3;steal-search 1234`);
//! * [`CycleProfiler::phase_spans`] — the nonzero `(sm, phase, cycles)`
//!   cells, which a served `sim` request's flight dump carries as
//!   `sim_phase` spans;
//! * [`CycleProfiler::occupancy_timeline`] — sampled
//!   `(cycle, active_warps)` pairs.
//!
//! Fig. 9's per-block task counts are not profiled: a run returns them
//! in `SimStats::tasks_per_block`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// A phase every simulated cycle is charged to.
///
/// The seven phases partition an engine's cycle budget: per SM,
/// `makespan × warps_per_block` equals the sum over phases once
/// [`Profiler::finalize`] has topped up [`SimPhase::Idle`] with the
/// unattributed remainder (parked and backing-off warps).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SimPhase {
    /// Edge-chunk scans and visited-array claims (the useful work).
    Expand,
    /// HotRing pushes and top-entry updates.
    RingPush,
    /// HotRing pops of exhausted vertices.
    RingPop,
    /// Victim scans, cutoff checks, and failed steal reservations.
    StealSearch,
    /// Successful steal reservation + entry copy into the thief's ring.
    StealCopy,
    /// Bulk transfers: flushes, refills, and inter-block copies
    /// (the TMA/`cp.async` traffic of §3.3).
    TmaWait,
    /// Parked, backing off, or waiting for the traversal to end.
    Idle,
}

impl SimPhase {
    /// Number of phases (array dimension for per-phase tables).
    pub const COUNT: usize = 7;

    /// All phases, in export order.
    pub const ALL: [SimPhase; SimPhase::COUNT] = [
        SimPhase::Expand,
        SimPhase::RingPush,
        SimPhase::RingPop,
        SimPhase::StealSearch,
        SimPhase::StealCopy,
        SimPhase::TmaWait,
        SimPhase::Idle,
    ];

    /// Stable kebab-case name, used in folded stacks and label values.
    pub fn name(self) -> &'static str {
        match self {
            SimPhase::Expand => "expand",
            SimPhase::RingPush => "ring-push",
            SimPhase::RingPop => "ring-pop",
            SimPhase::StealSearch => "steal-search",
            SimPhase::StealCopy => "steal-copy",
            SimPhase::TmaWait => "tma-wait",
            SimPhase::Idle => "idle",
        }
    }

    #[inline]
    fn index(self) -> usize {
        match self {
            SimPhase::Expand => 0,
            SimPhase::RingPush => 1,
            SimPhase::RingPop => 2,
            SimPhase::StealSearch => 3,
            SimPhase::StealCopy => 4,
            SimPhase::TmaWait => 5,
            SimPhase::Idle => 6,
        }
    }
}

/// Observer for cycle attribution, mirroring `db_trace::Tracer`:
/// `ENABLED` is a compile-time constant, so engines instrumented with
/// [`NoProfiler`] pay nothing.
///
/// Profiling is observational only — implementations must not influence
/// the simulation (and the engines never consult them).
pub trait Profiler {
    /// Compile-time switch; charge sites are guarded by `P::ENABLED`.
    const ENABLED: bool;

    /// Charges `cycles` spent in `phase` by a warp on `sm`.
    fn charge(&self, sm: u32, phase: SimPhase, cycles: u64);

    /// Records an occupancy sample: `active_warps` runnable at `cycle`.
    fn sample(&self, cycle: u64, active_warps: u32) {
        let _ = (cycle, active_warps);
    }

    /// Called once at the end of a run with the final makespan: tops up
    /// [`SimPhase::Idle`] so every simulated cycle is attributed.
    fn finalize(&self, makespan: u64, warps_per_sm: u32) {
        let _ = (makespan, warps_per_sm);
    }
}

/// The disabled profiler: all methods are no-ops that compile out.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoProfiler;

impl Profiler for NoProfiler {
    const ENABLED: bool = false;

    #[inline(always)]
    fn charge(&self, _sm: u32, _phase: SimPhase, _cycles: u64) {}
}

/// Per-SM, per-phase cycle table with shareable `&self` recording.
///
/// Counters are relaxed atomics (the DES itself is single-threaded; the
/// atomics exist so a profiler can be shared by reference, like the
/// tracers). The occupancy timeline takes a short mutex per sample —
/// one sample per 16 Ki simulated cycles, far off any hot path.
#[derive(Debug)]
pub struct CycleProfiler {
    /// `cells[sm][phase.index()]` = cycles charged.
    cells: Vec<[AtomicU64; SimPhase::COUNT]>,
    samples: Mutex<Vec<(u64, u32)>>,
}

impl CycleProfiler {
    /// Creates a profiler for `sms` SMs (the engine's block count).
    pub fn new(sms: usize) -> Self {
        Self {
            cells: (0..sms)
                .map(|_| std::array::from_fn(|_| AtomicU64::new(0)))
                .collect(),
            samples: Mutex::new(Vec::new()),
        }
    }

    /// Number of SMs this profiler tracks.
    pub fn sms(&self) -> usize {
        self.cells.len()
    }

    /// Cycles charged to `phase` on `sm`.
    pub fn phase_cycles(&self, sm: u32, phase: SimPhase) -> u64 {
        // relaxed-ok: monotonic profiling counter; a momentarily stale
        // read is fine for reporting (also every load/RMW below)
        self.cells[sm as usize][phase.index()].load(Ordering::Relaxed)
    }

    /// Cycles charged to `phase`, summed over all SMs.
    pub fn total_cycles(&self, phase: SimPhase) -> u64 {
        self.cells
            .iter()
            .map(|c| c[phase.index()].load(Ordering::Relaxed)) // relaxed-ok: reporting
            .sum()
    }

    /// Non-idle cycles charged on `sm`.
    pub fn busy_cycles(&self, sm: u32) -> u64 {
        SimPhase::ALL
            .iter()
            .filter(|p| **p != SimPhase::Idle)
            .map(|p| self.phase_cycles(sm, *p))
            .sum()
    }

    /// The sampled `(cycle, active_warps)` occupancy timeline.
    pub fn occupancy_timeline(&self) -> Vec<(u64, u32)> {
        self.samples
            .lock()
            .expect("profiler samples poisoned")
            .clone()
    }

    /// Folded-stacks export, one line per `(sm, phase)` cell with a
    /// nonzero cycle count: `diggerbees;sm<N>;<phase> <cycles>`. Feed
    /// directly to `flamegraph.pl` / `inferno-flamegraph`.
    pub fn folded_stacks(&self) -> String {
        let mut out = String::new();
        for (sm, cell) in self.cells.iter().enumerate() {
            for phase in SimPhase::ALL {
                let cycles = cell[phase.index()].load(Ordering::Relaxed); // relaxed-ok: reporting
                if cycles > 0 {
                    out.push_str(&format!("diggerbees;sm{sm};{} {cycles}\n", phase.name()));
                }
            }
        }
        out
    }

    /// The nonzero `(sm, phase_index, cycles)` cells, for span sinks:
    /// the serve layer maps each cell onto a `SimPhase` span whose code
    /// packs `(sm << 8) | phase_index` and whose value is the cycle
    /// count, so a flight dump carries the sim-side cost breakdown of
    /// the request that ran it.
    pub fn phase_spans(&self) -> Vec<(u32, usize, u64)> {
        let mut out = Vec::new();
        for (sm, cell) in self.cells.iter().enumerate() {
            for phase in SimPhase::ALL {
                let cycles = cell[phase.index()].load(Ordering::Relaxed); // relaxed-ok: reporting
                if cycles > 0 {
                    out.push((sm as u32, phase.index(), cycles));
                }
            }
        }
        out
    }
}

impl Profiler for CycleProfiler {
    const ENABLED: bool = true;

    #[inline]
    fn charge(&self, sm: u32, phase: SimPhase, cycles: u64) {
        // relaxed-ok: independent profiling counter, no ordering needed
        self.cells[sm as usize][phase.index()].fetch_add(cycles, Ordering::Relaxed);
    }

    fn sample(&self, cycle: u64, active_warps: u32) {
        self.samples
            .lock()
            .expect("profiler samples poisoned")
            .push((cycle, active_warps));
    }

    /// Per SM, charges `makespan × warps_per_sm − busy − explicit idle`
    /// to [`SimPhase::Idle`], so the seven phases partition the cycle
    /// budget. Saturating: warps still backing off past the finish time
    /// can push explicit charges beyond the makespan budget, in which
    /// case no further idle is added.
    fn finalize(&self, makespan: u64, warps_per_sm: u32) {
        for sm in 0..self.cells.len() {
            let budget = makespan * warps_per_sm as u64;
            let spent = self.busy_cycles(sm as u32) + self.phase_cycles(sm as u32, SimPhase::Idle);
            self.charge(sm as u32, SimPhase::Idle, budget.saturating_sub(spent));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_accumulate_per_sm_and_phase() {
        let p = CycleProfiler::new(2);
        p.charge(0, SimPhase::Expand, 10);
        p.charge(0, SimPhase::Expand, 5);
        p.charge(1, SimPhase::StealSearch, 7);
        assert_eq!(p.phase_cycles(0, SimPhase::Expand), 15);
        assert_eq!(p.phase_cycles(1, SimPhase::Expand), 0);
        assert_eq!(p.total_cycles(SimPhase::StealSearch), 7);
        assert_eq!(p.busy_cycles(0), 15);
    }

    #[test]
    fn finalize_partitions_the_cycle_budget() {
        let p = CycleProfiler::new(2);
        p.charge(0, SimPhase::Expand, 30);
        p.charge(0, SimPhase::Idle, 10);
        p.charge(1, SimPhase::TmaWait, 100);
        p.finalize(25, 4); // budget = 100 per SM
        assert_eq!(p.phase_cycles(0, SimPhase::Idle), 70);
        // SM 1 already at budget: no extra idle.
        assert_eq!(p.phase_cycles(1, SimPhase::Idle), 0);
        let total0: u64 = SimPhase::ALL.iter().map(|ph| p.phase_cycles(0, *ph)).sum();
        assert_eq!(total0, 100);
    }

    #[test]
    fn phase_spans_lists_nonzero_cells() {
        let p = CycleProfiler::new(2);
        p.charge(0, SimPhase::Expand, 30);
        p.charge(1, SimPhase::StealSearch, 7);
        let spans = p.phase_spans();
        assert_eq!(spans.len(), 2);
        assert!(spans.contains(&(0, SimPhase::Expand.index(), 30)));
        assert!(spans.contains(&(1, SimPhase::StealSearch.index(), 7)));
    }

    #[test]
    fn folded_stacks_format() {
        let p = CycleProfiler::new(2);
        p.charge(1, SimPhase::StealCopy, 42);
        p.charge(0, SimPhase::Expand, 7);
        let folded = p.folded_stacks();
        assert_eq!(
            folded,
            "diggerbees;sm0;expand 7\ndiggerbees;sm1;steal-copy 42\n"
        );
    }

    #[test]
    fn occupancy_samples_round_trip() {
        let p = CycleProfiler::new(1);
        p.sample(0, 4);
        p.sample(16384, 2);
        assert_eq!(p.occupancy_timeline(), vec![(0, 4), (16384, 2)]);
    }

    #[test]
    fn no_profiler_is_disabled() {
        const { assert!(!NoProfiler::ENABLED) }
        // And its methods are callable no-ops.
        NoProfiler.charge(0, SimPhase::Idle, 1);
        NoProfiler.sample(0, 0);
        NoProfiler.finalize(0, 0);
    }
}
