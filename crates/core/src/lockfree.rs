//! Lock-free HotRing: the GPU's `atomicCAS` ring protocol, verbatim in
//! spirit.
//!
//! The paper's kernel coordinates the ring ends with atomics: the owner
//! operates at `head`, thieves reserve batches at `tail` with
//! `atomicCAS` (§3.4). [`StampedRing`] is the CPU-correct form of that
//! protocol:
//!
//! * **Control word** — `head` and `tail` packed into one `AtomicU64`;
//!   every push / pop / batch-steal is a single CAS on it, so claims are
//!   linearizable exactly like the GPU's CAS on `tail` (and the packed
//!   form also covers the owner-pop vs. thief race the modulo-`u32`
//!   GPU code leaves to fences).
//! * **Slot stamps** — claiming a position and transferring its payload
//!   are separate steps, so each slot carries a stamp (à la Vyukov's
//!   bounded queue) encoding *which position may write/read it next*.
//!   A thief that claimed positions `[t, t+k)` spins (bounded by the
//!   writer's store) until each stamp turns readable, reads, and
//!   releases the slot for the next lap.
//!
//! The owner consumes entries by *popping* them into hand and pushing
//! continuations back (the simulator updates the top in place, as the
//! paper's `updateTop` does; in-place updates are not safe once thieves
//! can claim the top slot, so the native engine uses pop-process-push —
//! same semantics, one extra CAS).
//!
//! Positions are wrapping `u32`s; stamp values are unique per position
//! per lap within a `2^32`-operation window (far beyond any traversal
//! here; a production deployment at that scale would widen the packed
//! word to `u128`).

use crate::stack::Entry;
use std::sync::atomic::{AtomicU64, Ordering};

#[inline]
fn pack(head: u32, tail: u32) -> u64 {
    ((head as u64) << 32) | tail as u64
}

#[inline]
fn unpack(c: u64) -> (u32, u32) {
    ((c >> 32) as u32, c as u32)
}

#[inline]
fn pack_entry(e: Entry) -> u64 {
    ((e.0 as u64) << 32) | e.1 as u64
}

#[inline]
fn unpack_entry(d: u64) -> Entry {
    ((d >> 32) as u32, d as u32)
}

/// Stamp value meaning "position `p` may be written".
#[inline]
fn writable(p: u32) -> u64 {
    (p as u64) << 1
}

/// Stamp value meaning "position `p` holds a readable entry".
#[inline]
fn readable(p: u32) -> u64 {
    ((p as u64) << 1) | 1
}

struct Slot {
    stamp: AtomicU64,
    data: AtomicU64,
}

/// Lock-free bounded work-stealing ring (owner at `head`, thieves at
/// `tail`).
pub struct StampedRing {
    control: AtomicU64,
    slots: Box<[Slot]>,
    cap: u32,
}

impl std::fmt::Debug for StampedRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (h, t) = unpack(self.control.load(Ordering::Relaxed)); // relaxed-ok: debug snapshot
        f.debug_struct("StampedRing")
            .field("cap", &self.cap)
            .field("head", &h)
            .field("tail", &t)
            .finish_non_exhaustive()
    }
}

impl StampedRing {
    /// Creates a ring with `cap` slots.
    pub fn new(cap: u32) -> Self {
        assert!(cap >= 1, "capacity must be positive");
        let slots = (0..cap)
            .map(|i| Slot {
                stamp: AtomicU64::new(writable(i)),
                data: AtomicU64::new(0),
            })
            .collect();
        Self {
            control: AtomicU64::new(0),
            slots,
            cap,
        }
    }

    /// Capacity in entries.
    pub fn capacity(&self) -> u32 {
        self.cap
    }

    /// Live entries (`hot_rest`), racy snapshot — exactly what the GPU's
    /// victim scan reads.
    pub fn len(&self) -> u32 {
        let (h, t) = unpack(self.control.load(Ordering::Acquire));
        h.wrapping_sub(t)
    }

    /// Whether the ring is currently empty (racy snapshot).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    #[inline]
    fn slot(&self, p: u32) -> &Slot {
        &self.slots[(p % self.cap) as usize]
    }

    #[inline]
    fn spin_until(&self, p: u32, want: u64) {
        let s = self.slot(p);
        while s.stamp.load(Ordering::Acquire) != want {
            std::hint::spin_loop();
        }
    }

    /// Owner push at `head`. Fails when full (the engine flushes first).
    pub fn push(&self, e: Entry) -> Result<(), Entry> {
        loop {
            let c = self.control.load(Ordering::Acquire);
            let (h, t) = unpack(c);
            if h.wrapping_sub(t) >= self.cap {
                return Err(e);
            }
            if self
                .control
                .compare_exchange_weak(
                    c,
                    pack(h.wrapping_add(1), t),
                    Ordering::AcqRel,
                    // relaxed-ok: failure retries from a fresh Acquire load
                    Ordering::Relaxed,
                )
                .is_ok()
            {
                // Position h is ours; wait for the slot's previous
                // occupant to be fully consumed, then publish.
                self.spin_until(h, writable(h));
                let s = self.slot(h);
                // relaxed-ok: publication is ordered by the stamp Release below
                s.data.store(pack_entry(e), Ordering::Relaxed);
                s.stamp.store(readable(h), Ordering::Release);
                return Ok(());
            }
        }
    }

    /// Owner pop at `head`.
    pub fn pop(&self) -> Option<Entry> {
        loop {
            let c = self.control.load(Ordering::Acquire);
            let (h, t) = unpack(c);
            if h == t {
                return None;
            }
            let p = h.wrapping_sub(1);
            if self
                .control
                // relaxed-ok: failure retries from a fresh Acquire load
                .compare_exchange_weak(c, pack(p, t), Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
            {
                self.spin_until(p, readable(p));
                let s = self.slot(p);
                // relaxed-ok: spin_until's Acquire on the stamp orders this read
                let e = unpack_entry(s.data.load(Ordering::Relaxed));
                // Release the slot for position p again (the owner may
                // push back to the same position next).
                s.stamp.store(writable(p), Ordering::Release);
                return Some(e);
            }
        }
    }

    /// Reserves up to `k` of the oldest entries from `tail` — the §3.4
    /// steal (and the owner-side flush source). Returns the reserved
    /// batch oldest-first, or an empty vector if fewer than `min`
    /// entries were available or the CAS raced out after `attempts`
    /// tries (the paper's thief simply re-selects a victim).
    pub fn take_from_tail(&self, k: u32, min: u32, attempts: u32) -> Vec<Entry> {
        for _ in 0..attempts.max(1) {
            let c = self.control.load(Ordering::Acquire);
            let (h, t) = unpack(c);
            let avail = h.wrapping_sub(t);
            if avail < min {
                return Vec::new();
            }
            let take = k.min(avail);
            if self
                .control
                .compare_exchange(
                    c,
                    pack(h, t.wrapping_add(take)),
                    Ordering::AcqRel,
                    // relaxed-ok: failure re-selects a victim or retries fresh
                    Ordering::Relaxed,
                )
                .is_ok()
            {
                let mut out = Vec::with_capacity(take as usize);
                for i in 0..take {
                    let p = t.wrapping_add(i);
                    self.spin_until(p, readable(p));
                    let s = self.slot(p);
                    // relaxed-ok: spin_until's Acquire on the stamp orders this read
                    out.push(unpack_entry(s.data.load(Ordering::Relaxed)));
                    // Release the slot for the *next lap* of this slot.
                    s.stamp
                        .store(writable(p.wrapping_add(self.cap)), Ordering::Release);
                }
                return out;
            }
        }
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64 as Counter;
    use std::sync::Arc;

    #[test]
    fn single_threaded_lifo() {
        let r = StampedRing::new(8);
        for i in 0..5u32 {
            r.push((i, i)).unwrap();
        }
        assert_eq!(r.len(), 5);
        for i in (0..5u32).rev() {
            assert_eq!(r.pop(), Some((i, i)));
        }
        assert!(r.pop().is_none());
    }

    #[test]
    fn full_ring_rejects() {
        let r = StampedRing::new(2);
        r.push((1, 0)).unwrap();
        r.push((2, 0)).unwrap();
        assert_eq!(r.push((3, 0)), Err((3, 0)));
    }

    #[test]
    fn steal_takes_oldest() {
        let r = StampedRing::new(8);
        for i in 0..6u32 {
            r.push((i, 0)).unwrap();
        }
        let stolen = r.take_from_tail(2, 4, 1);
        assert_eq!(stolen, vec![(0, 0), (1, 0)]);
        assert_eq!(r.pop(), Some((5, 0)));
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn steal_respects_min() {
        let r = StampedRing::new(8);
        r.push((1, 0)).unwrap();
        assert!(r.take_from_tail(1, 4, 3).is_empty());
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn wrap_around_many_laps() {
        let r = StampedRing::new(4);
        for lap in 0..1000u32 {
            r.push((lap, 0)).unwrap();
            r.push((lap, 1)).unwrap();
            assert_eq!(r.take_from_tail(2, 1, 1).len(), 2);
        }
        assert!(r.is_empty());
    }

    /// Concurrency stress: one owner pushing/popping, several thieves
    /// stealing; every pushed entry must be consumed exactly once.
    #[test]
    fn concurrent_no_loss_no_duplication() {
        let ring = Arc::new(StampedRing::new(64));
        let total: u32 = 20_000;
        let consumed = Arc::new(Counter::new(0));
        let sum = Arc::new(Counter::new(0));

        let mut handles = Vec::new();
        for _ in 0..3 {
            let ring = Arc::clone(&ring);
            let consumed = Arc::clone(&consumed);
            let sum = Arc::clone(&sum);
            handles.push(std::thread::spawn(move || {
                while consumed.load(Ordering::Acquire) < total as u64 {
                    let batch = ring.take_from_tail(4, 2, 2);
                    if batch.is_empty() {
                        std::thread::yield_now();
                        continue;
                    }
                    for (v, _) in batch {
                        sum.fetch_add(v as u64, Ordering::Relaxed);
                        consumed.fetch_add(1, Ordering::AcqRel);
                    }
                }
            }));
        }

        // Owner: push everything, popping occasionally like real DFS.
        let mut pushed = 0u32;
        let mut owner_rng = 0x9e3779b9u32;
        while pushed < total {
            match ring.push((pushed, 0)) {
                Ok(()) => pushed += 1,
                Err(_) => {
                    // ring full: consume one ourselves
                    if let Some((v, _)) = ring.pop() {
                        sum.fetch_add(v as u64, Ordering::Relaxed);
                        consumed.fetch_add(1, Ordering::AcqRel);
                    }
                }
            }
            owner_rng = owner_rng.wrapping_mul(1664525).wrapping_add(1013904223);
            if owner_rng.is_multiple_of(7) {
                if let Some((v, _)) = ring.pop() {
                    sum.fetch_add(v as u64, Ordering::Relaxed);
                    consumed.fetch_add(1, Ordering::AcqRel);
                }
            }
        }
        // Drain the rest as the owner.
        while consumed.load(Ordering::Acquire) < total as u64 {
            if let Some((v, _)) = ring.pop() {
                sum.fetch_add(v as u64, Ordering::Relaxed);
                consumed.fetch_add(1, Ordering::AcqRel);
            } else {
                std::thread::yield_now();
            }
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(consumed.load(Ordering::Relaxed), total as u64);
        let expect: u64 = (0..total as u64).sum();
        assert_eq!(
            sum.load(Ordering::Relaxed),
            expect,
            "entries lost or duplicated"
        );
        assert!(ring.is_empty());
    }
}
