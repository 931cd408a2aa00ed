//! The two-level stack of §3.2: HotRing + ColdSeg.
//!
//! Entries are `⟨vertex | offset⟩` pairs where `offset` is the index of
//! the next neighbor to visit *within the vertex's CSR row* (relative
//! offsets keep entries at 8 bytes even for multi-billion-edge graphs).
//!
//! Deviation from the paper (documented in DESIGN.md §1): `head`/`tail`
//! and `top`/`bottom` are unbounded `u64` counters, indexed modulo the
//! capacity, instead of wrapped `u32` pointers. `hot_rest = head - tail`
//! without the `% hot_size` dance, and the ABA problem disappears. The
//! ColdSeg is stored circularly for the same reason (the paper draws it
//! linear; the `top`/`bottom` semantics are identical), and overflow
//! beyond `cold_size` goes to a spill vector — the paper sizes ColdSeg at
//! `nv / nw` and never discusses overflow, which adversarially skewed
//! graphs can trigger.
//!
//! These structures are *plain data*: the simulated engine owns them
//! outright (the DES serializes all access), and the native engine wraps
//! them in per-warp locks (`native` module). The stealing *protocol* —
//! who may touch which end, cutoffs, reservation — lives in the engines.

/// A stack entry: `(vertex, next-neighbor offset within the row)`.
pub type Entry = (u32, u32);

/// Fixed-capacity circular stack with owner ops at `head` and
/// thief/flush ops at `tail` (Figure 2(a), (c), (d)).
#[derive(Debug, Clone)]
pub struct HotRing {
    buf: Box<[Entry]>,
    cap: u64,
    /// Next free slot (owner side). Monotonically increasing.
    head: u64,
    /// Oldest live entry (thief side). Monotonically increasing.
    tail: u64,
}

impl HotRing {
    /// Creates a ring with `cap` slots (paper: `hot_size = 128`).
    pub fn new(cap: u32) -> Self {
        assert!(cap >= 1, "HotRing capacity must be positive");
        Self {
            buf: vec![(0, 0); cap as usize].into_boxed_slice(),
            cap: cap as u64,
            head: 0,
            tail: 0,
        }
    }

    /// `hot_rest`: live entries (§3.4).
    #[inline]
    pub fn len(&self) -> u64 {
        self.head - self.tail
    }

    /// Empty iff `head == tail` (Figure 2(a)).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.head == self.tail
    }

    /// Full when every slot is live.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.len() == self.cap
    }

    /// Capacity in entries.
    #[inline]
    pub fn capacity(&self) -> u64 {
        self.cap
    }

    #[inline]
    fn slot(&self, counter: u64) -> usize {
        (counter % self.cap) as usize
    }

    /// Fast push at `head` (Figure 2(c)). Fails when full — the engine
    /// must flush first.
    pub fn push(&mut self, e: Entry) -> Result<(), Entry> {
        if self.is_full() {
            return Err(e);
        }
        let s = self.slot(self.head);
        self.buf[s] = e;
        self.head += 1;
        Ok(())
    }

    /// Fast pop at `head` (Figure 2(d)).
    pub fn pop(&mut self) -> Option<Entry> {
        if self.is_empty() {
            return None;
        }
        self.head -= 1;
        Some(self.buf[self.slot(self.head)])
    }

    /// The top entry (the one the owner warp is working on).
    pub fn top(&self) -> Option<Entry> {
        if self.is_empty() {
            None
        } else {
            Some(self.buf[self.slot(self.head - 1)])
        }
    }

    /// `updateTop` from Algorithm 1: advance the top entry's offset.
    ///
    /// # Panics
    ///
    /// Panics if the ring is empty.
    pub fn update_top(&mut self, e: Entry) {
        assert!(!self.is_empty(), "update_top on empty HotRing");
        let s = self.slot(self.head - 1);
        self.buf[s] = e;
    }

    /// Removes up to `k` of the *oldest* entries from `tail` — the flush
    /// source (Figure 2(e)) and the intra-block steal reservation
    /// (Algorithm 3 steps 2–3). Returns them oldest-first.
    pub fn take_from_tail(&mut self, k: u64) -> Vec<Entry> {
        let k = k.min(self.len());
        let mut out = Vec::with_capacity(k as usize);
        for i in 0..k {
            out.push(self.buf[self.slot(self.tail + i)]);
        }
        self.tail += k;
        out
    }

    /// Pushes a batch at `head` (steal transfer / refill destination).
    /// The batch must fit.
    ///
    /// # Panics
    ///
    /// Panics if the batch does not fit — engines check capacity before
    /// reserving work.
    pub fn push_batch(&mut self, entries: &[Entry]) {
        assert!(
            self.len() + entries.len() as u64 <= self.cap,
            "push_batch overflow: {} live + {} new > {}",
            self.len(),
            entries.len(),
            self.cap
        );
        for &e in entries {
            let s = self.slot(self.head);
            self.buf[s] = e;
            self.head += 1;
        }
    }

    /// Raw `head` counter (diagnostics).
    pub fn head(&self) -> u64 {
        self.head
    }

    /// Raw `tail` counter (diagnostics).
    pub fn tail(&self) -> u64 {
        self.tail
    }
}

/// Large-capacity overflow stack: owner pushes/pops at `top`, remote
/// thieves take from `bottom` (Figure 2(b), (e), (f); Algorithm 4).
#[derive(Debug, Clone)]
pub struct ColdSeg {
    buf: Box<[Entry]>,
    cap: u64,
    /// One past the newest entry. Monotonic counter.
    top: u64,
    /// Oldest live entry. Monotonic counter.
    bottom: u64,
    /// Overflow beyond `cap` (newest entries; LIFO above the ring).
    spill: Vec<Entry>,
}

impl ColdSeg {
    /// Creates a segment with `cap` slots (paper: `cold_size = nv / nw`).
    pub fn new(cap: u32) -> Self {
        let cap = cap.max(1);
        Self {
            buf: vec![(0, 0); cap as usize].into_boxed_slice(),
            cap: cap as u64,
            top: 0,
            bottom: 0,
            spill: Vec::new(),
        }
    }

    /// `cold_rest = top - bottom` (§3.5) — not counting spill.
    #[inline]
    pub fn len(&self) -> u64 {
        self.top - self.bottom
    }

    /// Whether both the ring and the spill are empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0 && self.spill.is_empty()
    }

    /// Entries currently in the spill vector.
    pub fn spilled(&self) -> usize {
        self.spill.len()
    }

    #[inline]
    fn slot(&self, counter: u64) -> usize {
        (counter % self.cap) as usize
    }

    /// Receives a flush batch at `top` (Figure 2(e)); overflow goes to
    /// the spill. Entries arrive oldest-first and keep that order.
    pub fn push_top(&mut self, entries: &[Entry]) {
        for &e in entries {
            if !self.spill.is_empty() || self.len() == self.cap {
                self.spill.push(e);
            } else {
                let s = self.slot(self.top);
                self.buf[s] = e;
                self.top += 1;
            }
        }
    }

    /// Refill source (Figure 2(f)): removes up to `k` of the *newest*
    /// entries from `top` (or the spill, which sits above `top`).
    /// Returns them oldest-first so `HotRing::push_batch` preserves
    /// stack order.
    pub fn take_from_top(&mut self, k: u64) -> Vec<Entry> {
        let mut out = Vec::new();
        let from_spill = (k as usize).min(self.spill.len());
        // Newest first overall: spill entries are newest.
        let spill_start = self.spill.len() - from_spill;
        let spill_part: Vec<Entry> = self.spill.drain(spill_start..).collect();
        let remaining = k - from_spill as u64;
        let from_ring = remaining.min(self.len());
        for i in 0..from_ring {
            // oldest-first among the taken range [top - from_ring, top)
            out.push(self.buf[self.slot(self.top - from_ring + i)]);
        }
        self.top -= from_ring;
        out.extend(spill_part);
        out
    }

    /// Inter-block steal reservation (Algorithm 4 steps 3–4): removes up
    /// to `k` of the *oldest* entries from `bottom`, oldest-first. The
    /// spill is never stolen from (it is private overflow).
    pub fn take_from_bottom(&mut self, k: u64) -> Vec<Entry> {
        let k = k.min(self.len());
        let mut out = Vec::with_capacity(k as usize);
        for i in 0..k {
            out.push(self.buf[self.slot(self.bottom + i)]);
        }
        self.bottom += k;
        out
    }

    /// Raw `bottom` counter (diagnostics).
    pub fn bottom_counter(&self) -> u64 {
        self.bottom
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure2_push_pop_example() {
        // Size-4 ring; push ⟨a|i⟩ at head 0; head -> 1 (Figure 2(c)).
        let mut r = HotRing::new(4);
        r.push((0xa, 1)).unwrap();
        assert_eq!(r.head(), 1);
        assert_eq!(r.top(), Some((0xa, 1)));
        // Pop it back (Figure 2(d)).
        assert_eq!(r.pop(), Some((0xa, 1)));
        assert!(r.is_empty());
    }

    #[test]
    fn ring_lifo_order() {
        let mut r = HotRing::new(8);
        for i in 0..5 {
            r.push((i, 0)).unwrap();
        }
        for i in (0..5).rev() {
            assert_eq!(r.pop(), Some((i, 0)));
        }
    }

    #[test]
    fn ring_rejects_push_when_full() {
        let mut r = HotRing::new(2);
        r.push((1, 0)).unwrap();
        r.push((2, 0)).unwrap();
        assert!(r.is_full());
        assert_eq!(r.push((3, 0)), Err((3, 0)));
    }

    #[test]
    fn ring_wraps_around() {
        // The tail counter grows monotonically via take_from_tail, so
        // slots are reused modulo the capacity without ambiguity.
        let mut r = HotRing::new(4);
        for round in 0..10u32 {
            r.push((round, round)).unwrap();
            assert_eq!(r.take_from_tail(1), vec![(round, round)]);
        }
        assert_eq!(r.head(), 10);
        assert_eq!(r.tail(), 10);
        assert!(r.is_empty());
    }

    #[test]
    fn take_from_tail_returns_oldest_first() {
        let mut r = HotRing::new(8);
        for i in 0..6 {
            r.push((i, 0)).unwrap();
        }
        let stolen = r.take_from_tail(3);
        assert_eq!(stolen, vec![(0, 0), (1, 0), (2, 0)]);
        assert_eq!(r.len(), 3);
        // owner still pops newest
        assert_eq!(r.pop(), Some((5, 0)));
    }

    #[test]
    fn take_from_tail_caps_at_len() {
        let mut r = HotRing::new(8);
        r.push((1, 0)).unwrap();
        assert_eq!(r.take_from_tail(100).len(), 1);
        assert!(r.is_empty());
    }

    #[test]
    fn update_top_changes_offset() {
        let mut r = HotRing::new(4);
        r.push((7, 0)).unwrap();
        r.update_top((7, 3));
        assert_eq!(r.pop(), Some((7, 3)));
    }

    #[test]
    #[should_panic(expected = "update_top on empty")]
    fn update_top_empty_panics() {
        HotRing::new(4).update_top((0, 0));
    }

    #[test]
    fn push_batch_preserves_order() {
        let mut r = HotRing::new(8);
        r.push_batch(&[(1, 0), (2, 0), (3, 0)]);
        assert_eq!(r.pop(), Some((3, 0))); // newest on top
    }

    #[test]
    #[should_panic(expected = "push_batch overflow")]
    fn push_batch_overflow_panics() {
        let mut r = HotRing::new(2);
        r.push_batch(&[(1, 0), (2, 0), (3, 0)]);
    }

    #[test]
    fn figure2_flush_refill_round_trip() {
        // Flush moves oldest ring entries to ColdSeg top (Figure 2(e));
        // refill brings the newest ColdSeg entries back (Figure 2(f)).
        let mut r = HotRing::new(4);
        let mut c = ColdSeg::new(8);
        for i in 0..4 {
            r.push((i, 0)).unwrap();
        }
        let batch = r.take_from_tail(2);
        c.push_top(&batch);
        assert_eq!(c.len(), 2);
        assert_eq!(r.len(), 2);
        let refill = c.take_from_top(2);
        assert_eq!(refill, vec![(0, 0), (1, 0)]); // oldest-first
        r.push_batch(&refill);
        assert_eq!(r.len(), 4);
    }

    #[test]
    fn cold_take_from_bottom_oldest_first() {
        let mut c = ColdSeg::new(8);
        c.push_top(&[(1, 0), (2, 0), (3, 0), (4, 0)]);
        let stolen = c.take_from_bottom(2);
        assert_eq!(stolen, vec![(1, 0), (2, 0)]);
        assert_eq!(c.len(), 2);
        assert_eq!(c.bottom_counter(), 2);
    }

    #[test]
    fn cold_spill_on_overflow() {
        let mut c = ColdSeg::new(2);
        c.push_top(&[(1, 0), (2, 0), (3, 0), (4, 0)]);
        assert_eq!(c.len(), 2);
        assert_eq!(c.spilled(), 2);
        assert!(!c.is_empty());
        // take_from_top drains the spill (newest) first, oldest-first
        // within the returned batch.
        let taken = c.take_from_top(3);
        assert_eq!(taken, vec![(2, 0), (3, 0), (4, 0)]);
        assert_eq!(c.spilled(), 0);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn cold_steal_never_touches_spill() {
        let mut c = ColdSeg::new(2);
        c.push_top(&[(1, 0), (2, 0), (3, 0)]);
        assert_eq!(c.spilled(), 1);
        let stolen = c.take_from_bottom(10);
        assert_eq!(stolen, vec![(1, 0), (2, 0)]);
        assert_eq!(c.spilled(), 1);
        assert_eq!(c.take_from_top(10), vec![(3, 0)]);
    }

    #[test]
    fn cold_wraps_circularly() {
        let mut c = ColdSeg::new(4);
        for round in 0..20u32 {
            c.push_top(&[(round, 0)]);
            assert_eq!(c.take_from_bottom(1), vec![(round, 0)]);
        }
        assert_eq!(c.bottom_counter(), 20);
    }
}
