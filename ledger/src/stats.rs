//! Order statistics for latency samples.

/// Median: the lower middle sample (`ceil(n/2)`-th smallest), so the
/// value is always one that was measured. `NaN` for no samples.
pub fn p50(sorted: &[f64]) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        n => sorted[n.div_ceil(2) - 1],
    }
}

/// The tail figure reported beside each median.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample value.
    pub value: f64,
    /// Its percentile: the share of samples at or below it, in percent.
    pub pct: f64,
    /// Samples strictly beyond it.
    pub beyond: usize,
}

/// The highest percentile with at least ten samples beyond it, capped
/// at p99: past p99 a few host hiccups decide the figure. With fewer
/// than 22 samples that percentile would fall at or below the median,
/// so the maximum is reported instead (and `beyond` says so).
pub fn tail(sorted: &[f64]) -> Tail {
    let n = sorted.len();
    if n == 0 {
        return Tail {
            value: f64::NAN,
            pct: f64::NAN,
            beyond: 0,
        };
    }
    let p99 = (99 * n).div_ceil(100).saturating_sub(1);
    let idx = if n >= 22 { (n - 11).min(p99) } else { n - 1 };
    Tail {
        value: sorted[idx],
        pct: 100.0 * (idx + 1) as f64 / n as f64,
        beyond: n - 1 - idx,
    }
}

/// Completed requests per second, robust to stalls of the host: the
/// completions (instants, sorted) are cut into ten groups of equal size,
/// each group's rate is its size over the time since the previous
/// group ended, and the median of the ten rates is returned.
pub fn rate(start: f64, done: &[f64]) -> f64 {
    let n = done.len();
    if n < 10 {
        return n as f64 / (done.last().copied().unwrap_or(start) - start).max(1e-9);
    }
    let mut prev = start;
    let mut rates: Vec<f64> = (1..=10)
        .map(|k| {
            let (lo, hi) = ((k - 1) * n / 10, k * n / 10);
            let end = done[hi - 1];
            let r = (hi - lo) as f64 / (end - prev).max(1e-9);
            prev = end;
            r
        })
        .collect();
    rates.sort_by(f64::total_cmp);
    (rates[4] + rates[5]) / 2.0
}

/// Sorts a copy of `xs` (NaN-free input) ascending.
pub fn sorted(xs: impl IntoIterator<Item = f64>) -> Vec<f64> {
    let mut v: Vec<f64> = xs.into_iter().collect();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!(t.beyond, 10);
        assert_eq!(t.value, 990.0);
        assert!((t.pct - 99.0).abs() < 1e-9);
        let xs: Vec<f64> = (1..=22).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!((t.value, t.beyond), (12.0, 10));
        assert!(t.value > p50(&xs));
    }

    #[test]
    fn tail_is_capped_at_p99() {
        let xs: Vec<f64> = (1..=10_000).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!((t.value, t.beyond), (9900.0, 100));
    }

    #[test]
    fn rate_ignores_one_stalled_group() {
        // 100 completions, one every 10 ms, except a 1 s stall before
        // the 55th: nine groups run at 100/s, one at ~9/s.
        let mut t = 0.0;
        let done: Vec<f64> = (0..100)
            .map(|i| {
                t += if i == 54 { 1.0 } else { 0.01 };
                t
            })
            .collect();
        assert!((rate(0.0, &done) - 100.0).abs() < 1e-6);
        assert!((rate(0.0, &done[..5]) - 100.0).abs() < 1e-6);
    }

    #[test]
    fn few_samples_report_the_maximum() {
        let xs: Vec<f64> = (1..=21).map(f64::from).collect();
        assert_eq!(tail(&xs).value, 21.0);
        assert_eq!(tail(&xs).beyond, 0);
        assert_eq!(tail(&[5.0]).value, 5.0);
        assert!(tail(&[]).value.is_nan());
    }

    #[test]
    fn median_is_a_measured_sample() {
        assert_eq!(p50(&[1.0, 2.0, 3.0, 4.0]), 2.0);
        assert_eq!(p50(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(sorted([3.0, 1.0, 2.0]), vec![1.0, 2.0, 3.0]);
    }
}
