//! Streaming social-network generator for pack-scale graphs.
//!
//! The other generators in this crate materialize an edge list and sort
//! it through [`db_graph::GraphBuilder`] — fine up to a few million
//! edges, hopeless for the 50M-arc packs `db-store` is built for. This
//! generator is **row-streaming**: every vertex's adjacency row is a
//! pure function of `(seed, vertex)`, produced sorted and deduplicated,
//! so a caller can feed rows straight into a `PackWriter` a block at a
//! time and never hold more than one block in memory. Because rows are
//! independent, a block (and [`SocialGraph::build`]'s whole graph) is
//! generated in row chunks on every core with the same bytes as the
//! serial [`SocialGraph::for_each_row`] stream. Re-deriving any row
//! later (for spot checks, or to rebuild the whole graph in RAM for a
//! differential test) gives identical bytes.
//!
//! Structure, after the SNAP social graphs the paper evaluates:
//!
//! * **Pareto out-degrees** (`alpha = 2`, `x_m = avg/2`): heavy-tailed
//!   degree skew, mean `avg_degree`, occasional hubs thousands wide,
//!   so a pack holds rows of every width in its one varint encoding.
//! * **Popularity-biased targets**: an arc points at
//!   `floor(n · r^beta)` with `beta = 2`, so low-numbered vertices are
//!   quadratically more popular — the social "celebrity" core.
//! * **Locality arcs**: a fraction of each row links near the source
//!   (friend-of-friend clustering), which keeps deltas small and gives
//!   the varint encoder something to compress.
//!
//! Graphs are **directed** (out-adjacency rows): symmetrizing would
//! need the transpose and break one-pass streaming.

use db_graph::{par, CsrGraph};
use std::ops::Range;

/// Tunables for [`SocialGraph`]. `Default` matches the paper's social
/// analogues: mean degree 10, Pareto tail `alpha = 2`, popularity bias
/// `beta = 2`, 20% local arcs.
#[derive(Debug, Clone, Copy)]
pub struct SocialParams {
    /// Mean out-degree (Pareto mean; actual rows dedup slightly lower).
    pub avg_degree: u32,
    /// Pareto tail index; smaller = heavier hub tail. Must be > 1.
    pub alpha: f64,
    /// Popularity exponent: targets are `floor(n · r^beta)`.
    pub beta: f64,
    /// Fraction of arcs drawn from the near-window instead of the
    /// popularity distribution, in `[0, 1]`.
    pub locality: f64,
    /// Hard cap on a single row's sampled degree (before dedup).
    pub max_degree: u32,
}

impl Default for SocialParams {
    fn default() -> Self {
        Self {
            avg_degree: 10,
            alpha: 2.0,
            beta: 2.0,
            locality: 0.2,
            max_degree: 1 << 16,
        }
    }
}

/// A deterministic, row-streamable social graph: `n` vertices whose
/// out-rows are pure functions of `(seed, vertex)`.
#[derive(Debug, Clone, Copy)]
pub struct SocialGraph {
    n: u32,
    seed: u64,
    params: SocialParams,
}

/// splitmix64 — the stateless mixer every row derivation hangs off.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Uniform in `[0, 1)` from a mixed word (53-bit mantissa).
fn unit(x: u64) -> f64 {
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// `f(p) as u32` for the power `p` that libm's `powf` returns, computed
/// from `fast`, the correctly rounded power (`r * r` for `r^2`,
/// `r.sqrt()` for `r^0.5`), without calling `powf`. `f` must be
/// monotone. libm's power lies within one ULP of `fast`, so when
/// `f(x) as u32` is the same integer at `fast`'s neighbours one ULP
/// below and above, it is that integer at every candidate (Ziv's
/// rounding test). `None` when they differ: the caller then calls
/// `powf` as before.
fn exact_u32(fast: f64, f: impl Fn(f64) -> f64) -> Option<u32> {
    let lo = f(fast.next_down()) as u32;
    (lo == f(fast.next_up()) as u32).then_some(lo)
}

impl SocialGraph {
    /// Describes an `n`-vertex social graph; no memory is allocated
    /// until rows are asked for.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, `alpha <= 1`, or `locality` is outside
    /// `[0, 1]`.
    pub fn new(n: u32, seed: u64, params: SocialParams) -> Self {
        assert!(n > 0, "social graph needs at least one vertex");
        assert!(params.alpha > 1.0, "pareto mean diverges for alpha <= 1");
        assert!(
            (0.0..=1.0).contains(&params.locality),
            "locality must be a fraction"
        );
        Self { n, seed, params }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> u32 {
        self.n
    }

    /// The sampled (pre-dedup) out-degree of `u`.
    fn sampled_degree(&self, u: u32) -> u32 {
        self.degree(unit(splitmix64(
            self.seed ^ (u as u64).wrapping_mul(0x9e6c_63d0_876a_8bb1),
        )))
    }

    /// The Pareto degree `x_m / r^(1/alpha)` of a draw `r` in `[0, 1)`,
    /// capped at `max_degree` and `n - 1`.
    fn degree(&self, r: f64) -> u32 {
        let p = &self.params;
        // Pareto(x_m = avg·(alpha-1)/alpha, alpha) has mean exactly avg.
        let xm = p.avg_degree as f64 * (p.alpha - 1.0) / p.alpha;
        let r = r.max(f64::EPSILON);
        let fast = if p.alpha == 2.0 {
            exact_u32(r.sqrt(), |s| xm / s)
        } else {
            None
        };
        let d = fast.unwrap_or_else(|| (xm / r.powf(1.0 / p.alpha)) as u32);
        d.min(p.max_degree).min(self.n - 1)
    }

    /// The popularity-biased target `floor(n · r^beta)` of a draw `r`
    /// in `[0, 1)`, capped at `n - 1`.
    fn target(&self, r: f64) -> u32 {
        let (n, beta) = (self.n as f64, self.params.beta);
        let fast = if beta == 2.0 {
            exact_u32(r * r, |p| n * p)
        } else {
            None
        };
        let t = fast.unwrap_or_else(|| (n * r.powf(beta)) as u32);
        t.min(self.n - 1)
    }

    /// Writes `u`'s sorted, deduplicated out-row into `out` (cleared
    /// first). Pure in `(seed, u)`: every call yields identical bytes.
    pub fn row_into(&self, u: u32, out: &mut Vec<u32>) {
        let deg = self.sampled_degree(u);
        out.clear();
        out.resize(deg as usize, 0);
        let len = self.fill_row(u, deg, out);
        out.truncate(len);
    }

    /// Writes `u`'s sorted, deduplicated out-row into the front of
    /// `out` and returns its length. `deg` is `sampled_degree(u)`, the
    /// row's length before dedup; `out` must hold at least that many.
    fn fill_row(&self, u: u32, deg: u32, out: &mut [u32]) -> usize {
        let p = &self.params;
        let base = splitmix64(
            self.seed
                .wrapping_add(0x5851_f42d_4c95_7f2d)
                .wrapping_mul(2)
                ^ u as u64,
        );
        let targets = (0..deg).map(|k| {
            let w = splitmix64(base ^ (k as u64).wrapping_mul(0xd6e8_feb8_6659_fd93));
            if unit(w) < p.locality {
                // Near-window arc: a small forward offset in [1, 64].
                let off = 1 + (splitmix64(w) % 64) as u32;
                (u.wrapping_add(off)) % self.n
            } else {
                // Popularity-biased arc toward low vertex ids.
                self.target(unit(splitmix64(w ^ 1)))
            }
        });
        let mut len = 0;
        for (slot, t) in out.iter_mut().zip(targets.filter(|&t| t != u)) {
            *slot = t;
            len += 1;
        }
        let (row, _) = out.split_at_mut(len);
        row.sort_unstable();
        // Dedup in place: keep each value's first copy.
        let mut kept = 0;
        for i in 0..len {
            // index-ok: kept <= i < len = row.len(), and kept > 0 when read
            if kept == 0 || row[i] != row[kept - 1] {
                row[kept] = row[i];
                kept += 1;
            }
        }
        kept
    }

    /// Streams every row in vertex order through `f(u, row)`, reusing
    /// one buffer, on the calling thread: peak memory is one row.
    /// Returns the total arc count.
    pub fn for_each_row(&self, mut f: impl FnMut(u32, &[u32])) -> u64 {
        let mut row = Vec::new();
        let mut arcs = 0u64;
        for u in 0..self.n {
            self.row_into(u, &mut row);
            arcs += row.len() as u64;
            f(u, &row);
        }
        arcs
    }

    /// Generates the block of rows `rows` as CSR arrays, in row chunks
    /// on every core ([`db_graph::par`]): `ends` gets `rows.len() + 1`
    /// offsets from 0 and `cols` the rows' columns. Both are
    /// overwritten, and a caller packing block after block reuses their
    /// allocations; a block needs the sum of its rows' sampled degrees
    /// in `cols`, a few percent above its arcs.
    ///
    /// # Panics
    ///
    /// Panics if `rows` runs past the vertex count.
    pub fn rows_into(&self, rows: Range<u32>, ends: &mut Vec<u64>, cols: &mut Vec<u32>) {
        let work = rows
            .len()
            .saturating_mul(1 + self.params.avg_degree as usize);
        self.rows_into_parts(rows, ends, cols, par::parts(work));
    }

    /// [`SocialGraph::rows_into`] in exactly `parts` chunks.
    pub(crate) fn rows_into_parts(
        &self,
        rows: Range<u32>,
        ends: &mut Vec<u64>,
        cols: &mut Vec<u32>,
        parts: usize,
    ) {
        assert!(rows.end <= self.n, "rows {rows:?} past n = {}", self.n);
        let first = rows.start as usize;
        let bounds = par::even(rows.len(), parts);
        par::zeroed(ends, rows.len() + 1);
        // Each row's sampled degree bounds its length, so each chunk can
        // write at the sum of the degrees before it, in a buffer the
        // caller allocates up front. Until the second pass, `ends` holds
        // those degrees.
        let row_ends = ends.split_at_mut(1).1;
        let work: Vec<_> = par::ranges(&bounds)
            .zip(par::split_mut(row_ends, &bounds))
            .collect();
        let sampled = par::run(work, |_, (r, degs)| {
            let mut sum = 0;
            for (i, deg) in r.zip(degs) {
                *deg = u64::from(self.sampled_degree((first + i) as u32));
                sum += *deg as usize;
            }
            sum
        });
        let at = par::offsets(sampled.iter().copied());
        par::zeroed(cols, sampled.iter().sum());
        let row_ends = ends.split_at_mut(1).1;
        let work: Vec<_> = par::ranges(&bounds)
            .zip(par::split_mut(row_ends, &bounds))
            .zip(par::split_mut(cols, &at))
            .collect();
        // Row ends are relative to their chunk's start until the gaps
        // between the chunks are closed below.
        let used = par::run(work, |_, ((r, ends), mut free)| {
            let mut used = 0;
            for (i, end) in r.zip(ends) {
                let len = self.fill_row((first + i) as u32, *end as u32, free);
                free = std::mem::take(&mut free).split_at_mut(len).1;
                used += len;
                *end = used as u64;
            }
            used
        });
        let mut len = 0;
        for ((r, start), used) in par::ranges(&bounds).zip(at).zip(used) {
            cols.copy_within(start..start + used, len);
            for end in ends.iter_mut().skip(1 + r.start).take(r.len()) {
                *end += len as u64;
            }
            len += used;
        }
        cols.truncate(len);
    }

    /// Materializes the whole graph in RAM (directed CSR), generating
    /// its rows on every core. Pack-scale callers stream with
    /// [`SocialGraph::rows_into`] in blocks instead.
    pub fn build(&self) -> CsrGraph {
        let work = (self.n as usize).saturating_mul(1 + self.params.avg_degree as usize);
        self.build_parts(par::parts(work))
    }

    /// [`SocialGraph::build`] in exactly `parts` chunks.
    pub(crate) fn build_parts(&self, parts: usize) -> CsrGraph {
        let (mut row_ptr, mut col_idx) = (Vec::new(), Vec::new());
        self.rows_into_parts(0..self.n, &mut row_ptr, &mut col_idx, parts);
        col_idx.shrink_to_fit();
        CsrGraph::from_sorted_parts(self.n, row_ptr, col_idx, true)
    }
}

/// One-call convenience: materialize a social graph with default
/// parameters.
pub fn social(n: u32, seed: u64) -> CsrGraph {
    SocialGraph::new(n, seed, SocialParams::default()).build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_are_deterministic_and_sorted() {
        let g = SocialGraph::new(5000, 42, SocialParams::default());
        let mut a = Vec::new();
        let mut b = Vec::new();
        for u in [0u32, 1, 17, 4999] {
            g.row_into(u, &mut a);
            g.row_into(u, &mut b);
            assert_eq!(a, b, "row {u} not reproducible");
            assert!(
                a.windows(2).all(|w| w[0] < w[1]),
                "row {u} not strict-sorted"
            );
            assert!(a.iter().all(|&t| t < 5000 && t != u));
        }
    }

    #[test]
    fn streaming_matches_build() {
        let sg = SocialGraph::new(2000, 7, SocialParams::default());
        let g = sg.build();
        let mut u = 0u32;
        let arcs = sg.for_each_row(|v, row| {
            assert_eq!(v, u);
            assert_eq!(g.neighbors(v), row, "row {v} differs from built graph");
            u += 1;
        });
        assert_eq!(u, 2000);
        assert_eq!(arcs, g.num_arcs() as u64);
        assert!(g.is_directed());
    }

    /// The graph and every block are the serial stream's bytes, however
    /// many chunks generate them.
    #[test]
    fn chunked_rows_match_the_stream() {
        for n in [1u32, 2, 3, 7, 2000, 200_001] {
            let sg = SocialGraph::new(n, 0x5eed ^ u64::from(n), SocialParams::default());
            let (mut row_ptr, mut col_idx) = (vec![0u64], Vec::new());
            sg.for_each_row(|_, row| {
                col_idx.extend_from_slice(row);
                row_ptr.push(col_idx.len() as u64);
            });
            for parts in [1, 2, 3, 7] {
                let g = sg.build_parts(parts);
                assert_eq!(g.row_ptr(), &row_ptr[..], "n={n} parts={parts}");
                assert_eq!(g.col_idx(), &col_idx[..], "n={n} parts={parts}");
            }
            assert_eq!(sg.build().col_idx(), &col_idx[..], "n={n}");
            // A block from the middle, into buffers holding stale values.
            let (lo, hi) = (n / 3, n - n / 4);
            let (mut ends, mut cols) = (vec![9; 5], vec![9; 50]);
            sg.rows_into_parts(lo..hi, &mut ends, &mut cols, 3);
            let base = row_ptr[lo as usize];
            let want: Vec<u64> = row_ptr[lo as usize..=hi as usize]
                .iter()
                .map(|&e| e - base)
                .collect();
            assert_eq!(ends, want, "n={n} block");
            assert_eq!(
                cols,
                &col_idx[base as usize..row_ptr[hi as usize] as usize],
                "n={n} block"
            );
        }
    }

    /// The degree `powf` gives: the reference the fast draw must equal.
    fn pow_degree(sg: &SocialGraph, r: f64) -> u32 {
        let p = &sg.params;
        let xm = p.avg_degree as f64 * (p.alpha - 1.0) / p.alpha;
        let d = xm / r.max(f64::EPSILON).powf(1.0 / p.alpha);
        (d as u32).min(p.max_degree).min(sg.n - 1)
    }

    /// The target `powf` gives: the reference the fast draw must equal.
    fn pow_target(sg: &SocialGraph, r: f64) -> u32 {
        ((sg.n as f64 * r.powf(sg.params.beta)) as u32).min(sg.n - 1)
    }

    #[test]
    fn fast_draws_equal_powf() {
        for n in [20_000u32, 1_000_000, 1 << 20] {
            let sg = SocialGraph::new(n, 1, SocialParams::default());
            let mut fallbacks = 0;
            for i in 0..1_000_000u64 {
                let r = unit(splitmix64(i ^ u64::from(n)));
                assert_eq!(sg.target(r), pow_target(&sg, r), "n={n} r={r:e}");
                assert_eq!(sg.degree(r), pow_degree(&sg, r), "n={n} r={r:e}");
                let n = f64::from(n);
                fallbacks += usize::from(exact_u32(r * r, |p| n * p).is_none());
            }
            // The draws above exercise the fast path, not the fallback.
            assert!(fallbacks < 10, "n={n}: {fallbacks} ambiguous targets");
        }
        // Any other exponent calls `powf` as it always did.
        let params = SocialParams {
            alpha: 3.0,
            beta: 1.5,
            ..SocialParams::default()
        };
        let sg = SocialGraph::new(1000, 1, params);
        for r in [0.0, f64::EPSILON, 0.25, 0.5, 0.999] {
            assert_eq!(sg.target(r), pow_target(&sg, r), "r={r:e}");
            assert_eq!(sg.degree(r), pow_degree(&sg, r), "r={r:e}");
        }
    }

    /// Draws whose fast value is an exact integer sit on an integer
    /// boundary: they take the `powf` fallback and still agree.
    #[test]
    fn boundary_draws_take_the_fallback() {
        let n = 1u32 << 20;
        let sg = SocialGraph::new(n, 1, SocialParams::default());
        // n · r² is an exact integer.
        let nf = f64::from(n);
        for r in [0.5, 0.25] {
            assert_eq!(exact_u32(r * r, |p| nf * p), None, "target r={r}");
            assert_eq!(sg.target(r), pow_target(&sg, r), "target r={r}");
        }
        // At r = 0 the float below 0 · n is negative and saturates to
        // the same 0, so the fast path answers.
        assert_eq!(exact_u32(0.0, |p| nf * p), Some(0));
        assert_eq!(sg.target(0.0), pow_target(&sg, 0.0));
        // x_m / √r is an exact integer: x_m = 5, and r = 0 draws as
        // EPSILON, whose root is 2^-26.
        for r in [0.0, f64::EPSILON, 0.25] {
            let s = r.max(f64::EPSILON).sqrt();
            assert_eq!(exact_u32(s, |s| 5.0 / s), None, "degree r={r:e}");
            assert_eq!(sg.degree(r), pow_degree(&sg, r), "degree r={r:e}");
        }
        assert_eq!(sg.degree(0.25), 10);
        // 5 · 2^26 is past `max_degree`, which caps both paths.
        assert_eq!(sg.degree(f64::EPSILON), SocialParams::default().max_degree);
        let capped = SocialParams {
            max_degree: 3,
            ..SocialParams::default()
        };
        let sg = SocialGraph::new(n, 1, capped);
        for r in [0.0, f64::EPSILON, 0.25, 0.5] {
            assert_eq!(sg.degree(r), 3, "r={r:e}");
            assert_eq!(sg.degree(r), pow_degree(&sg, r), "r={r:e}");
        }
    }

    /// The generator's bytes, pinned: an FNV-1a digest of
    /// `social(20_000, 7)`'s `row_ptr` and `col_idx` (little-endian).
    #[test]
    fn social_bytes_are_pinned() {
        let g = social(20_000, 7);
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let words = g.row_ptr().iter().flat_map(|v| v.to_le_bytes());
        for b in words.chain(g.col_idx().iter().flat_map(|v| v.to_le_bytes())) {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
        assert_eq!(g.num_arcs(), 187_393);
        assert_eq!(h, 0x7a30_c23f_e095_4050, "social(20_000, 7) drifted");
    }

    #[test]
    fn mean_degree_lands_near_target() {
        let sg = SocialGraph::new(20_000, 3, SocialParams::default());
        let arcs = sg.for_each_row(|_, _| {});
        let mean = arcs as f64 / 20_000.0;
        // Dedup trims a little below the Pareto mean of 10.
        assert!(
            (6.0..=12.0).contains(&mean),
            "mean degree {mean} far from target"
        );
    }

    #[test]
    fn degrees_are_skewed_toward_hubs() {
        let sg = SocialGraph::new(20_000, 11, SocialParams::default());
        let g = sg.build();
        let max = (0..20_000u32).map(|u| g.degree(u)).max().unwrap();
        assert!(max >= 100, "no hub emerged (max degree {max})");
        // Popularity bias: the top id-decile should collect well over
        // its uniform 10% share of in-arcs (beta = 2 predicts ~27%:
        // P(r^2 < 0.1) ≈ 0.316 over the 80% non-local arcs).
        let low: usize = (0..20_000u32)
            .flat_map(|u| g.neighbors(u))
            .filter(|&&t| t < 2_000)
            .count();
        assert!(
            low * 5 > g.num_arcs(),
            "popularity bias missing: {low} of {} arcs hit the top decile",
            g.num_arcs()
        );
    }
}
