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

use crate::{CancelToken, ValidCsr};
use db_graph::CsrGraph;

/// Expansions between two cancellation polls. A poll reads the clock
/// when the token has a deadline; at this stride that cost stays out of
/// the profile, and a cancelled search still stops within microseconds.
pub const POLL_STRIDE: u32 = 1024;

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
/// marked or once `token` is cancelled.
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
    let g = g.graph();
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
    while let Some(u) = stack.pop() {
        if countdown == 0 {
            if token.is_cancelled() {
                found.completed = false;
                return found;
            }
            countdown = POLL_STRIDE;
        }
        countdown -= 1;
        let u = u as usize;
        // index-ok: u < n (the root or a column entry), and ValidCsr
        // proves row_ptr is monotone and ends at col_idx.len()
        let row = &col_idx[row_ptr[u] as usize..row_ptr[u + 1] as usize];
        for &v in row {
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
                stack.push(v);
            }
        }
    }
    found
}
