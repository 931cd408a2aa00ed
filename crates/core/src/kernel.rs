//! The served traversal kernel: reachability from one root over a
//! bitset visited set and an explicit stack, on the calling thread.
//!
//! The service layer runs this for every `dfs`/`reach` that does not ask
//! for the simulator. The paper's engines ([`crate::native`],
//! [`crate::sim`]) spawn threads and fill parent arrays because they
//! model the GPU; a served answer only needs the visited set, which
//! every engine must produce identically. So the kernel keeps one bit
//! per vertex and one stack, both in a [`Scratch`] the caller reuses
//! across requests, and it accepts only a [`ValidCsr`], so the graph is
//! never re-checked per call.
//!
//! A vertex is marked when it is pushed, so the stack never holds more
//! than `n` entries. The [`CancelToken`] is polled before the first
//! expansion and then every [`POLL_STRIDE`] expansions. A search with a
//! target returns as soon as it marks that target.
//!
//! # Batching
//!
//! On a graph too big for the caches the loop is bound by memory
//! latency, not bandwidth: each popped vertex costs two dependent
//! misses, `row_ptr[u]` and then the head of its `col_idx` row. The
//! visited set does not depend on the order of expansion, so on such
//! graphs each step pops up to [`BATCH`] entries, reads all of their row
//! bounds and prefetches the head of each row, and only then expands
//! them; each vertex it pushes also has its `row_ptr` line prefetched,
//! ready for the next step. This is the AMAC pattern (Kocberber et al.,
//! "Asynchronous Memory Access Chaining", PVLDB 2015), the CPU
//! analogue of DiggerBees hiding stack-segment movement behind
//! traversal with TMA async copies.
//!
//! Batching costs time on graphs whose neighbours sit at nearby ids,
//! where the next rows are already cached: forced on, it takes 1.5–1.7×
//! as long on `path:1000000` and 1.2× on `delaunay` as the
//! one-at-a-time loop. So the choice is made once per graph, by
//! [`ValidCsr::new`], from a count its validation walk takes anyway:
//! the share of arcs whose endpoints are more than [`FAR_IDS`] ids
//! apart. A graph batches when at least [`BATCH_FAR_SHARE`] of its arcs
//! are far ([`ValidCsr::batches`]). Measured shares: 0.80 on
//! `social:1000000`, 0.96 on `ljournal`, 0.57 on `google`, 0.45 on
//! `citation`, 0.11 on `amazon`, and 0 on every grid, mesh, road, path
//! and dag graph. Batched, a full reach of `social:1000000` takes a
//! quarter to a third of the one-at-a-time time on one core. Graph size
//! alone is the wrong switch: a million-vertex path is big and still
//! has every neighbour one id away.
//!
//! Both modes run one generic loop, instantiated at batch 1 and at
//! [`BATCH`]. The poll countdown is charged a whole batch at a time, so
//! a batched search polls after [`POLL_STRIDE`] expansions rounded up to
//! a whole batch. The prefetch is the one `unsafe` site, in
//! `prefetch`; it is a no-op off x86-64.

use crate::{CancelToken, ValidCsr};
use db_graph::CsrGraph;

/// Expansions between two cancellation polls. A poll reads the clock
/// when the token has a deadline; at this stride that cost stays out of
/// the profile, and a cancelled search still stops within microseconds.
pub const POLL_STRIDE: u32 = 1024;

/// Stack entries one batched step pops, bounds and prefetches before it
/// expands any of them.
pub const BATCH: usize = 16;

/// Endpoint distance, in vertex ids, beyond which an arc counts as far:
/// 4096 ids span 32 KiB of `row_ptr`, so a far neighbour's row bounds
/// are not on a line its source just loaded.
pub const FAR_IDS: u32 = 4096;

/// Share of far arcs from which a graph is searched in batches of
/// [`BATCH`]: one arc in twenty. `amazon`, at 0.11 the lowest share
/// measured off zero, already runs 1.6× faster batched.
pub const BATCH_FAR_SHARE: f64 = 0.05;

/// Whether a graph with `far` far arcs out of `arcs` is searched in
/// batches; [`ValidCsr::new`] asks once per graph.
pub(crate) fn batches(far: u64, arcs: usize) -> bool {
    far > 0 && far as f64 >= BATCH_FAR_SHARE * arcs as f64
}

/// Reusable kernel memory: one visited bit per vertex and the explicit
/// stack. [`search`] clears it for each graph but keeps its capacity,
/// so a long-lived owner stops allocating after its first requests.
#[derive(Debug, Default)]
pub struct Scratch {
    bits: Vec<u64>,
    stack: Vec<u32>,
}

impl Scratch {
    /// Heap bytes held (capacity, not length).
    pub fn bytes(&self) -> usize {
        self.bits.capacity() * std::mem::size_of::<u64>()
            + self.stack.capacity() * std::mem::size_of::<u32>()
    }

    /// Clears the visited bits of an `n`-vertex graph and empties the
    /// stack, reserving room for all `n` vertices up front.
    fn reset(&mut self, n: usize) {
        self.bits.clear();
        self.bits.resize(n.div_ceil(64), 0);
        self.stack.clear();
        self.stack.reserve(n);
    }
}

/// What one [`search`] found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Search {
    /// Vertices marked, the root included. A completed search that
    /// claimed no target marked exactly the root's reachable set.
    pub visited: u64,
    /// Whether the target was marked; the search stopped there.
    pub claimed: bool,
    /// `false` only when the token stopped the search before it had
    /// its answer.
    pub completed: bool,
}

/// Searches `g` from `root`, stopping early once `target` (if any) is
/// marked or once `token` is cancelled. The search runs in batches of
/// [`BATCH`] when the proof says the graph pays for it
/// ([`ValidCsr::batches`]).
///
/// # Panics
///
/// Panics if `root` is not a vertex of `g`.
pub fn search(
    g: ValidCsr<&CsrGraph>,
    root: u32,
    target: Option<u32>,
    token: &CancelToken,
    scratch: &mut Scratch,
) -> Search {
    if g.batches() {
        run::<BATCH>(g.graph(), root, target, token, scratch)
    } else {
        run::<1>(g.graph(), root, target, token, scratch)
    }
}

/// The search loop, popping up to `B` stack entries per step. `g` must
/// have passed validation.
fn run<const B: usize>(
    g: &CsrGraph,
    root: u32,
    target: Option<u32>,
    token: &CancelToken,
    scratch: &mut Scratch,
) -> Search {
    let n = g.num_vertices();
    assert!((root as usize) < n, "root {root} out of range (n = {n})");
    scratch.reset(n);
    let Scratch { bits, stack } = scratch;
    let (row_ptr, col_idx) = (g.row_ptr(), g.col_idx());
    // Vertex ids are below n <= u32::MAX, so u32::MAX never matches.
    let target = target.unwrap_or(u32::MAX);
    // index-ok: root < n was asserted and `bits` holds n bits
    bits[root as usize >> 6] |= 1 << (root & 63);
    let mut found = Search {
        visited: 1,
        claimed: root == target,
        completed: true,
    };
    if found.claimed {
        return found;
    }
    stack.push(root);
    let mut countdown = 0;
    let mut rows = [(0usize, 0usize); B];
    loop {
        // Pop up to B entries and read their row bounds, prefetching
        // the head of each row.
        let mut k = 0;
        while k < B {
            let Some(u) = stack.pop() else { break };
            let u = u as usize;
            // index-ok: u < n (the root or a column entry), and ValidCsr
            // proves row_ptr is monotone and ends at col_idx.len()
            let (start, end) = (row_ptr[u] as usize, row_ptr[u + 1] as usize);
            if B > 1 {
                prefetch(col_idx.as_ptr().wrapping_add(start));
            }
            // index-ok: k < B, the loop bound
            rows[k] = (start, end);
            k += 1;
        }
        if k == 0 {
            return found;
        }
        if countdown == 0 {
            if token.is_cancelled() {
                found.completed = false;
                return found;
            }
            countdown = POLL_STRIDE;
        }
        countdown = countdown.saturating_sub(k as u32);
        // index-ok: k <= B
        for &(start, end) in &rows[..k] {
            // index-ok: the bounds came from row_ptr, so the row lies
            // within col_idx
            for &v in &col_idx[start..end] {
                // index-ok: ValidCsr proves every column entry is below n
                let word = &mut bits[v as usize >> 6];
                let bit = 1u64 << (v & 63);
                if *word & bit == 0 {
                    *word |= bit;
                    found.visited += 1;
                    if v == target {
                        found.claimed = true;
                        return found;
                    }
                    if B > 1 {
                        prefetch(row_ptr.as_ptr().wrapping_add(v as usize));
                    }
                    stack.push(v);
                }
            }
        }
    }
}

/// Asks the CPU to start loading the cache line holding `p`, without
/// waiting for it.
#[inline(always)]
fn prefetch<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `_mm_prefetch` is only a hint. It reads nothing the
    // program can observe and never faults, whatever the address, and
    // SSE, which it needs, is part of the x86-64 baseline.
    unsafe {
        std::arch::x86_64::_mm_prefetch::<{ std::arch::x86_64::_MM_HINT_T0 }>(p.cast::<i8>());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}
