//! Scoped row-chunk parallelism for the cold path: generating, packing,
//! decoding and checking a graph, one contiguous chunk of rows per
//! core.
//!
//! Each of those jobs is a pure function of its rows, so chunks can run
//! on separate cores and still produce bit-identical output. The rules
//! every user follows:
//!
//! * [`parts`] decides the chunk count. Work below two minimum chunks
//!   stays on the calling thread and never asks the OS for its core
//!   count; larger work gets at most one chunk per core.
//! * [`run`] runs the first chunk on the calling thread and each other
//!   on a scoped thread, all joined before it returns. There is no pool
//!   and nothing to configure.
//! * Workers write only into slices of buffers the caller allocated
//!   ([`split_mut`]), sized exactly or to a computed bound. A worker
//!   that grew its own `Vec` would leave the freed memory in its
//!   thread's allocator arena, and the process's resident set would
//!   grow by it.

use std::num::NonZeroUsize;
use std::ops::Range;
use std::sync::OnceLock;

/// Work items (rows plus arcs) one chunk must hold to pay for its
/// thread: about a millisecond of generating, encoding or decoding.
const MIN_CHUNK: usize = 1 << 17;

/// How many chunks to split `work` items into: 1 below two minimum
/// chunks, else one per minimum chunk up to the core count. The core
/// count is read once per process, and only once some work is big
/// enough to split.
pub fn parts(work: usize) -> usize {
    if work < 2 * MIN_CHUNK {
        return 1;
    }
    static CORES: OnceLock<usize> = OnceLock::new();
    let cores =
        *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get));
    cores.min(work / MIN_CHUNK)
}

/// `parts + 1` row boundaries splitting the rows of `row_ptr` (a CSR
/// offset array, or a window of one) into contiguous chunks with about
/// equal rows plus arcs. The boundaries never decrease and run from 0
/// to the row count, even when `row_ptr` itself is malformed.
pub fn balance(row_ptr: &[u64], parts: usize) -> Vec<usize> {
    let rows = row_ptr.len().saturating_sub(1);
    let first = row_ptr.first().copied().unwrap_or(0);
    // Work before row r: r rows plus the arcs of rows 0..r.
    let work = |r: usize| {
        let arcs = row_ptr.get(r).map_or(0, |&end| end.saturating_sub(first));
        (r as u64).saturating_add(arcs)
    };
    let (total, parts) = (u128::from(work(rows)), parts.max(1));
    let mut bounds = vec![0];
    let mut lo = 0;
    for k in 1..parts {
        let target = (total * k as u128 / parts as u128) as u64;
        // The first row at or past the target, searched from the last
        // bound on so the bounds never decrease.
        let mut hi = rows;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if work(mid) < target {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        bounds.push(lo);
    }
    bounds.push(rows);
    bounds
}

/// `parts + 1` boundaries splitting `0..len` into near-equal ranges.
pub fn even(len: usize, parts: usize) -> Vec<usize> {
    let parts = parts.max(1);
    (0..=parts).map(|k| len * k / parts).collect()
}

/// The ranges between consecutive `bounds`.
pub fn ranges(bounds: &[usize]) -> impl Iterator<Item = Range<usize>> + '_ {
    bounds
        .iter()
        .zip(bounds.iter().skip(1))
        .map(|(&lo, &hi)| lo..hi)
}

/// Running sums from 0: the boundaries of consecutive chunks of
/// `lens`, so `offsets([a, b])` is `[0, a, a + b]`.
pub fn offsets(lens: impl IntoIterator<Item = usize>) -> Vec<usize> {
    let mut sum = 0;
    let mut at = vec![0];
    at.extend(lens.into_iter().map(|len| {
        sum += len;
        sum
    }));
    at
}

/// Splits `buf` into the disjoint slices between consecutive `bounds`,
/// which start at 0 and never decrease.
///
/// # Panics
///
/// Panics if `bounds` runs past `buf`.
pub fn split_mut<'a, T>(mut buf: &'a mut [T], bounds: &[usize]) -> Vec<&'a mut [T]> {
    let mut out = Vec::with_capacity(bounds.len().saturating_sub(1));
    for r in ranges(bounds) {
        let (chunk, rest) = std::mem::take(&mut buf).split_at_mut(r.len());
        out.push(chunk);
        buf = rest;
    }
    out
}

/// Sets `buf` to `len` zeros for workers to fill, keeping its
/// allocation when it is big enough. A bigger one is fresh zeroed
/// memory, whose pages the workers fault in as they write instead of
/// the caller zeroing them first.
pub fn zeroed<T: Copy + Default>(buf: &mut Vec<T>, len: usize) {
    buf.clear();
    if buf.capacity() < len {
        *buf = Vec::new();
        *buf = vec![T::default(); len];
    } else {
        buf.resize(len, T::default());
    }
}

/// Runs `f(k, item)` for each of `items`: the first on the calling
/// thread, each other on a scoped thread of its own. Returns the
/// results in order once every thread has joined; a panic in a worker
/// resumes on the caller. One item spawns nothing.
pub fn run<T: Send, R: Send>(items: Vec<T>, f: impl Fn(usize, T) -> R + Sync) -> Vec<R> {
    let mut items = items.into_iter();
    let Some(first) = items.next() else {
        return Vec::new();
    };
    if items.len() == 0 {
        return vec![f(0, first)];
    }
    let f = &f;
    std::thread::scope(|s| {
        let workers: Vec<_> = items
            .enumerate()
            .map(|(k, item)| s.spawn(move || f(k + 1, item)))
            .collect();
        let mut out = Vec::with_capacity(workers.len() + 1);
        out.push(f(0, first));
        for w in workers {
            out.push(w.join().unwrap_or_else(|p| std::panic::resume_unwind(p)));
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_work_stays_on_one_part() {
        assert_eq!(parts(0), 1);
        assert_eq!(parts(2 * MIN_CHUNK - 1), 1);
        let big = parts(64 * MIN_CHUNK);
        assert!((1..=64).contains(&big));
    }

    #[test]
    fn balance_splits_by_rows_plus_arcs() {
        // Row 0 holds 10 arcs, rows 1..=10 none: 21 work items.
        let mut rp = vec![0u64];
        rp.extend(std::iter::repeat_n(10, 11));
        assert_eq!(balance(&rp, 2), vec![0, 1, 11]);
        assert_eq!(balance(&rp, 1), vec![0, 11]);
        // Malformed offsets still give monotone, in-range bounds.
        for b in [balance(&[5, 3, 9, 0], 3), balance(&[], 3), balance(&[0], 4)] {
            assert!(b.windows(2).all(|w| w[0] <= w[1]), "{b:?}");
            assert!(b.iter().all(|&r| r <= 3));
        }
    }

    #[test]
    fn split_and_run_cover_every_item_in_order() {
        assert_eq!(offsets([3, 0, 4]), vec![0, 3, 3, 7]);
        let mut buf = vec![0u32; 10];
        let bounds = even(buf.len(), 3);
        assert_eq!(bounds, vec![0, 3, 6, 10]);
        assert_eq!(ranges(&bounds).collect::<Vec<_>>(), vec![0..3, 3..6, 6..10]);
        let slices = split_mut(&mut buf, &bounds);
        let lens = run(slices, |k, s: &mut [u32]| {
            s.fill(k as u32 + 1);
            s.len()
        });
        assert_eq!(lens, vec![3, 3, 4]);
        assert_eq!(buf, [1, 1, 1, 2, 2, 2, 3, 3, 3, 3]);
        assert!(run(Vec::<u8>::new(), |_, _| 0).is_empty());
    }

    #[test]
    fn zeroed_reuses_or_replaces_the_buffer() {
        let mut v = vec![7u32; 4];
        zeroed(&mut v, 3);
        assert_eq!(v, [0, 0, 0]);
        zeroed(&mut v, 9);
        assert_eq!(v, [0; 9]);
    }
}
