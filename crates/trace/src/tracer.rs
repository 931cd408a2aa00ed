//! Tracer implementations.
//!
//! The `Tracer` trait carries an associated `const ENABLED`. Engines are
//! generic over `T: Tracer` and route every emission through [`emit`],
//! which guards on `T::ENABLED` — a compile-time constant, so for
//! `NullTracer` the branch *and the closure that would construct the
//! event* fold away entirely. The instrumented hot path compiles to the
//! same code as the uninstrumented one (the criterion `ring_ops` /
//! `native` benches are the regression check on this claim).

use crate::event::{EventKind, TraceEvent};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// A sink for trace events. Implementations must be cheap and
/// thread-safe: `record` is called from every worker.
pub trait Tracer: Sync {
    /// When `false`, `emit` compiles to nothing; `record` is never called.
    const ENABLED: bool;

    fn record(&self, ev: TraceEvent);
}

/// Records an event only if the tracer type is enabled. The closure runs
/// only when `T::ENABLED`, so event construction costs nothing when
/// tracing is compiled out.
#[inline(always)]
pub fn emit<T: Tracer>(tracer: &T, ev: impl FnOnce() -> TraceEvent) {
    if T::ENABLED {
        tracer.record(ev());
    }
}

/// The disabled tracer: zero size, zero overhead.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullTracer;

impl Tracer for NullTracer {
    const ENABLED: bool = false;

    #[inline(always)]
    fn record(&self, _ev: TraceEvent) {}
}

/// Aggregate counters: total events per kind, entry totals for bulk
/// transfers, and a per-block Push histogram (the paper's Fig. 9
/// per-block task distribution, derived from the stream instead of
/// hard-wired `SimStats` increments).
#[derive(Debug)]
pub struct CountingTracer {
    kind_counts: [AtomicU64; EventKind::COUNT],
    pushes_per_block: Vec<AtomicU64>,
    entries_flushed: AtomicU64,
    entries_refilled: AtomicU64,
    entries_stolen_intra: AtomicU64,
    entries_stolen_inter: AtomicU64,
}

/// Plain-data snapshot of a [`CountingTracer`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CounterSnapshot {
    pub pushes: u64,
    pub pops: u64,
    pub flushes: u64,
    pub refills: u64,
    pub steals_intra: u64,
    pub steals_inter: u64,
    pub steal_fails: u64,
    pub warp_idles: u64,
    pub kernel_phases: u64,
    pub pushes_per_block: Vec<u64>,
    pub entries_flushed: u64,
    pub entries_refilled: u64,
    pub entries_stolen_intra: u64,
    pub entries_stolen_inter: u64,
}

impl CountingTracer {
    /// `blocks` sizes the per-block Push histogram; events from blocks
    /// beyond it still count toward the totals.
    pub fn new(blocks: usize) -> Self {
        CountingTracer {
            kind_counts: std::array::from_fn(|_| AtomicU64::new(0)),
            pushes_per_block: (0..blocks).map(|_| AtomicU64::new(0)).collect(),
            entries_flushed: AtomicU64::new(0),
            entries_refilled: AtomicU64::new(0),
            entries_stolen_intra: AtomicU64::new(0),
            entries_stolen_inter: AtomicU64::new(0),
        }
    }

    pub fn snapshot(&self) -> CounterSnapshot {
        let k = |i: usize| self.kind_counts[i].load(Ordering::Relaxed);
        CounterSnapshot {
            pushes: k(0),
            pops: k(1),
            flushes: k(2),
            refills: k(3),
            steals_intra: k(4),
            steals_inter: k(5),
            steal_fails: k(6),
            warp_idles: k(7),
            kernel_phases: k(8),
            pushes_per_block: self
                .pushes_per_block
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            entries_flushed: self.entries_flushed.load(Ordering::Relaxed),
            entries_refilled: self.entries_refilled.load(Ordering::Relaxed),
            entries_stolen_intra: self.entries_stolen_intra.load(Ordering::Relaxed),
            entries_stolen_inter: self.entries_stolen_inter.load(Ordering::Relaxed),
        }
    }
}

impl Tracer for CountingTracer {
    const ENABLED: bool = true;

    fn record(&self, ev: TraceEvent) {
        self.kind_counts[ev.kind.index()].fetch_add(1, Ordering::Relaxed);
        match ev.kind {
            EventKind::Push { .. } => {
                if let Some(c) = self.pushes_per_block.get(ev.block as usize) {
                    c.fetch_add(1, Ordering::Relaxed);
                }
            }
            EventKind::Flush { entries } => {
                self.entries_flushed
                    .fetch_add(entries as u64, Ordering::Relaxed);
            }
            EventKind::Refill { entries } => {
                self.entries_refilled
                    .fetch_add(entries as u64, Ordering::Relaxed);
            }
            EventKind::StealIntra { entries, .. } => {
                self.entries_stolen_intra
                    .fetch_add(entries as u64, Ordering::Relaxed);
            }
            EventKind::StealInter { entries, .. } => {
                self.entries_stolen_inter
                    .fetch_add(entries as u64, Ordering::Relaxed);
            }
            _ => {}
        }
    }
}

/// Bounded in-memory event buffer with drop-oldest overflow, so tracing
/// an adversarially large run cannot OOM. The mutex keeps it simple;
/// tracing runs are diagnostic runs, not benchmark runs.
#[derive(Debug)]
pub struct RingBufferTracer {
    inner: Mutex<RingInner>,
}

#[derive(Debug)]
struct RingInner {
    buf: VecDeque<TraceEvent>,
    capacity: usize,
    dropped: u64,
    /// Debug builds assert per-actor cycle monotonicity at record time
    /// (the invariant `validate::check_stream` enforces post-hoc), so a
    /// misbehaving engine fails its own tests instead of producing a
    /// stream the race detector rejects later.
    #[cfg(debug_assertions)]
    last_cycle: std::collections::HashMap<(u32, u32), u64>,
}

impl RingBufferTracer {
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        RingBufferTracer {
            inner: Mutex::new(RingInner {
                buf: VecDeque::with_capacity(capacity.min(1 << 20)),
                capacity,
                dropped: 0,
                #[cfg(debug_assertions)]
                last_cycle: std::collections::HashMap::new(),
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, RingInner> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Removes and returns all buffered events, oldest first.
    pub fn drain(&self) -> Vec<TraceEvent> {
        self.lock().buf.drain(..).collect()
    }

    /// Copies the buffered events without clearing them.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        self.lock().buf.iter().copied().collect()
    }

    /// Events discarded (oldest-first) because the buffer was full.
    pub fn dropped(&self) -> u64 {
        self.lock().dropped
    }

    pub fn len(&self) -> usize {
        self.lock().buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.lock().buf.is_empty()
    }
}

impl Tracer for RingBufferTracer {
    const ENABLED: bool = true;

    fn record(&self, ev: TraceEvent) {
        let mut g = self.lock();
        #[cfg(debug_assertions)]
        {
            let prev = g
                .last_cycle
                .insert((ev.block, ev.warp), ev.cycle)
                .unwrap_or(0);
            debug_assert!(
                ev.cycle >= prev,
                "cycle went backwards on actor ({}, {}): {} -> {}",
                ev.block,
                ev.warp,
                prev,
                ev.cycle,
            );
        }
        if g.buf.len() == g.capacity {
            g.buf.pop_front();
            g.dropped += 1;
        }
        g.buf.push_back(ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::PhaseKind;

    fn ev(cycle: u64, block: u32, warp: u32, kind: EventKind) -> TraceEvent {
        TraceEvent {
            cycle,
            block,
            warp,
            kind,
        }
    }

    #[test]
    fn null_tracer_is_disabled() {
        const { assert!(!NullTracer::ENABLED) };
        // emit must not call record; this would be a type error to observe
        // directly, so just exercise the path.
        emit(&NullTracer, || unreachable!("closure must not run"));
    }

    #[test]
    fn counting_tracer_counts_by_kind_and_block() {
        let t = CountingTracer::new(2);
        emit(&t, || ev(0, 0, 0, EventKind::Push { vertex: 9 }));
        emit(&t, || ev(1, 1, 0, EventKind::Push { vertex: 10 }));
        emit(&t, || ev(2, 1, 1, EventKind::Push { vertex: 11 }));
        emit(&t, || ev(3, 0, 0, EventKind::Pop { vertex: 9 }));
        emit(&t, || ev(4, 0, 0, EventKind::Flush { entries: 32 }));
        emit(&t, || {
            ev(
                5,
                0,
                1,
                EventKind::StealIntra {
                    victim_warp: 0,
                    entries: 4,
                },
            )
        });
        emit(&t, || {
            ev(
                6,
                1,
                0,
                EventKind::StealInter {
                    victim_block: 0,
                    entries: 8,
                },
            )
        });
        emit(&t, || {
            ev(
                7,
                1,
                0,
                EventKind::KernelPhase {
                    phase: PhaseKind::Finish,
                },
            )
        });
        let s = t.snapshot();
        assert_eq!(s.pushes, 3);
        assert_eq!(s.pops, 1);
        assert_eq!(s.flushes, 1);
        assert_eq!(s.steals_intra, 1);
        assert_eq!(s.steals_inter, 1);
        assert_eq!(s.kernel_phases, 1);
        assert_eq!(s.pushes_per_block, vec![1, 2]);
        assert_eq!(s.entries_flushed, 32);
        assert_eq!(s.entries_stolen_intra, 4);
        assert_eq!(s.entries_stolen_inter, 8);
    }

    #[test]
    fn ring_buffer_drops_oldest() {
        let t = RingBufferTracer::new(3);
        for i in 0..5u64 {
            t.record(ev(i, 0, 0, EventKind::WarpIdle));
        }
        assert_eq!(t.dropped(), 2);
        assert_eq!(t.len(), 3);
        let cycles: Vec<u64> = t.drain().iter().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![2, 3, 4]);
        assert!(t.is_empty());
        assert_eq!(t.dropped(), 2);
    }
}
