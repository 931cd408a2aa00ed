//! The metrics registry and its series handles.
//!
//! A [`Registry`] maps `(name, labels)` pairs to series. Registration
//! (first call for a pair) takes the registry mutex; the returned
//! handles are clones of `Arc`-shared atomics, so recording values is
//! lock-free and wait-free — the "lock-light" contract the serve
//! layer's hot paths require. Scraping takes the mutex only long
//! enough to clone the handle list.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Number of power-of-two histogram buckets: bucket `i` holds values in
/// `[2^(i-1), 2^i)` (bucket 0 holds `0..1`); the last bucket absorbs
/// everything at or above `2^(BUCKETS-2)` and renders as `+Inf`.
pub const HISTOGRAM_BUCKETS: usize = 40;

/// Monotonically increasing counter handle.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Last-write-wins gauge handle (also supports add/sub/max updates).
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Sets the gauge to `v`.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `n` (e.g. a worker going busy).
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n`, saturating at zero.
    #[inline]
    pub fn sub(&self, n: u64) {
        let _ = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(n))
            });
    }

    /// Raises the gauge to `v` if `v` is larger (high-water marks).
    #[inline]
    pub fn max(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Float-valued last-write-wins gauge (stores `f64` bits in an
/// `AtomicU64`). Renders as a `gauge` in the exposition; used for
/// ratios like SLO burn rates that a `u64` [`Gauge`] cannot express.
#[derive(Debug, Clone)]
pub struct FloatGauge(Arc<AtomicU64>);

impl FloatGauge {
    /// Sets the gauge to `v`.
    #[inline]
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

#[derive(Debug)]
struct HistogramCore {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for HistogramCore {
    fn default() -> Self {
        HistogramCore {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

/// Lock-free power-of-two histogram handle.
///
/// The generalization of the old serve-layer `LatencyHistogram`:
/// quantiles are upper bounds with at most 2× resolution error, while
/// `count`, `sum`, and `max` are exact.
#[derive(Debug, Clone, Default)]
pub struct Histogram(Arc<HistogramCore>);

impl Histogram {
    /// Records one sample.
    pub fn observe(&self, v: u64) {
        let idx = (64 - v.leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1);
        let c = &self.0;
        c.buckets[idx].fetch_add(1, Ordering::Relaxed);
        c.count.fetch_add(1, Ordering::Relaxed);
        c.sum.fetch_add(v, Ordering::Relaxed);
        c.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Estimate of the `q`-quantile (0 < q ≤ 1); 0 when no samples were
    /// recorded.
    ///
    /// The estimate interpolates linearly within the landing bucket
    /// rather than reporting the bucket's power-of-two ceiling — before
    /// this, a saturated p999 always read as an edge like 32767 or
    /// 16777215 regardless of where samples actually sat. When the
    /// target rank is the last sample (including `q >= 1.0`) the exact
    /// maximum is returned, and every estimate is clamped to it.
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let target = ((q * count as f64).ceil() as u64).clamp(1, count);
        if q >= 1.0 || target == count {
            return self.max_value();
        }
        let mut seen = 0u64;
        for (i, b) in self.0.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n > 0 && seen + n >= target {
                if i == HISTOGRAM_BUCKETS - 1 {
                    return self.max_value();
                }
                // Bucket i spans [2^(i-1), 2^i) (bucket 0 holds only 0);
                // place the target rank at its midpoint-adjusted
                // position within that span.
                let lo = if i == 0 { 0 } else { 1u64 << (i - 1) };
                let hi = (1u64 << i) - 1;
                let rank_in = (target - seen) as f64 - 0.5;
                let est = lo as f64 + (rank_in / n as f64) * (hi - lo) as f64;
                return (est.round() as u64).min(self.max_value());
            }
            seen += n;
        }
        self.max_value()
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// Largest sample observed (exact; 0 when empty).
    pub fn max_value(&self) -> u64 {
        self.0.max.load(Ordering::Relaxed)
    }

    /// Mean sample (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum().checked_div(self.count()).unwrap_or(0)
    }

    /// Per-bucket counts (non-cumulative), for exposition and tests.
    pub fn bucket_counts(&self) -> [u64; HISTOGRAM_BUCKETS] {
        std::array::from_fn(|i| self.0.buckets[i].load(Ordering::Relaxed))
    }
}

/// One registered series' value cell.
#[derive(Debug, Clone)]
enum Cell {
    Counter(Counter),
    Gauge(Gauge),
    Float(FloatGauge),
    Histogram(Histogram),
}

impl Cell {
    /// Exposition `# TYPE` name (float gauges render as `gauge`).
    fn type_name(&self) -> &'static str {
        match self {
            Cell::Counter(_) => "counter",
            Cell::Gauge(_) | Cell::Float(_) => "gauge",
            Cell::Histogram(_) => "histogram",
        }
    }

    /// Internal handle kind, distinguishing u64 and float gauges so a
    /// re-registration with the wrong handle type still panics.
    fn kind_name(&self) -> &'static str {
        match self {
            Cell::Counter(_) => "counter",
            Cell::Gauge(_) => "gauge",
            Cell::Float(_) => "float_gauge",
            Cell::Histogram(_) => "histogram",
        }
    }
}

#[derive(Debug, Clone)]
struct SeriesEntry {
    name: String,
    labels: Vec<(String, String)>,
    help: String,
    cell: Cell,
}

#[derive(Debug, Default)]
struct RegistryInner {
    entries: Vec<SeriesEntry>,
    index: HashMap<(String, Vec<(String, String)>), usize>,
}

/// A set of named, labeled metric series.
///
/// Every registry has one owner (a `db_serve::Server`, a WAL, a
/// harness) and there is no process-wide one, so a scrape holds only
/// its owner's series.
#[derive(Debug, Default)]
pub struct Registry {
    inner: Mutex<RegistryInner>,
}

/// Validates a metric or label name: `[a-zA-Z_:][a-zA-Z0-9_:]*` for
/// metrics, `[a-zA-Z_][a-zA-Z0-9_]*` for labels.
fn valid_name(s: &str, allow_colon: bool) -> bool {
    let mut chars = s.chars();
    let head_ok = chars
        .clone()
        .next()
        .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || (allow_colon && c == ':'));
    head_ok && chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || (allow_colon && c == ':'))
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn lock(&self) -> MutexGuard<'_, RegistryInner> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn series(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Cell,
        kind: &'static str,
    ) -> Cell {
        assert!(valid_name(name, true), "invalid metric name '{name}'");
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|&(k, v)| {
                assert!(valid_name(k, false), "invalid label name '{k}'");
                assert!(k != "le", "label 'le' is reserved for histogram buckets");
                (k.to_string(), v.to_string())
            })
            .collect();
        labels.sort();
        let mut g = self.lock();
        let key = (name.to_string(), labels.clone());
        if let Some(&i) = g.index.get(&key) {
            let cell = g.entries[i].cell.clone();
            assert_eq!(
                cell.kind_name(),
                kind,
                "series '{name}' re-registered as a different type"
            );
            return cell;
        }
        let cell = make();
        let i = g.entries.len();
        g.entries.push(SeriesEntry {
            name: name.to_string(),
            labels,
            help: help.to_string(),
            cell: cell.clone(),
        });
        g.index.insert(key, i);
        cell
    }

    /// Registers (or looks up) a counter.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        match self.series(
            name,
            help,
            labels,
            || Cell::Counter(Counter(Arc::new(AtomicU64::new(0)))),
            "counter",
        ) {
            Cell::Counter(c) => c,
            _ => unreachable!(),
        }
    }

    /// Registers (or looks up) a gauge.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.series(
            name,
            help,
            labels,
            || Cell::Gauge(Gauge(Arc::new(AtomicU64::new(0)))),
            "gauge",
        ) {
            Cell::Gauge(g) => g,
            _ => unreachable!(),
        }
    }

    /// Registers (or looks up) a float gauge.
    pub fn float_gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> FloatGauge {
        match self.series(
            name,
            help,
            labels,
            || Cell::Float(FloatGauge(Arc::new(AtomicU64::new(0)))),
            "float_gauge",
        ) {
            Cell::Float(g) => g,
            _ => unreachable!(),
        }
    }

    /// Registers (or looks up) a histogram.
    pub fn histogram(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Histogram {
        match self.series(
            name,
            help,
            labels,
            || Cell::Histogram(Histogram::default()),
            "histogram",
        ) {
            Cell::Histogram(h) => h,
            _ => unreachable!(),
        }
    }

    /// Number of registered series.
    pub fn len(&self) -> usize {
        self.lock().entries.len()
    }

    /// Whether the registry has no series.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn escape_help(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn label_block(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v)))
        .collect();
    if let Some((k, v)) = extra {
        parts.push(format!("{k}=\"{}\"", escape_label_value(v)));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

impl Registry {
    /// Renders the registry in Prometheus text exposition format
    /// (0.0.4): stable ordering (series sorted by name, then by label
    /// set), one `# HELP`/`# TYPE` pair per metric name, escaped label
    /// values and help text, and for histograms the cumulative
    /// `_bucket{le=...}` ladder ending in `+Inf`, plus `_sum` and
    /// `_count`.
    pub fn render_prometheus(&self) -> String {
        let mut entries = self.lock().entries.clone();
        entries.sort_by(|a, b| a.name.cmp(&b.name).then_with(|| a.labels.cmp(&b.labels)));

        let mut out = String::new();
        let mut last_name: Option<&str> = None;
        for e in &entries {
            if last_name != Some(e.name.as_str()) {
                if !e.help.is_empty() {
                    out.push_str(&format!("# HELP {} {}\n", e.name, escape_help(&e.help)));
                }
                out.push_str(&format!("# TYPE {} {}\n", e.name, e.cell.type_name()));
                last_name = Some(e.name.as_str());
            }
            match &e.cell {
                Cell::Counter(c) => {
                    out.push_str(&format!(
                        "{}{} {}\n",
                        e.name,
                        label_block(&e.labels, None),
                        c.get()
                    ));
                }
                Cell::Gauge(g) => {
                    out.push_str(&format!(
                        "{}{} {}\n",
                        e.name,
                        label_block(&e.labels, None),
                        g.get()
                    ));
                }
                Cell::Float(g) => {
                    out.push_str(&format!(
                        "{}{} {}\n",
                        e.name,
                        label_block(&e.labels, None),
                        g.get()
                    ));
                }
                Cell::Histogram(h) => {
                    let counts = h.bucket_counts();
                    let mut cum = 0u64;
                    // Buckets 0..BUCKETS-1 get finite `le` edges (the upper
                    // edge of bucket i is 2^i - 1); the top bucket is +Inf.
                    for (i, &c) in counts.iter().enumerate().take(HISTOGRAM_BUCKETS - 1) {
                        cum += c;
                        let le = ((1u128 << i) - 1).to_string();
                        out.push_str(&format!(
                            "{}_bucket{} {}\n",
                            e.name,
                            label_block(&e.labels, Some(("le", &le))),
                            cum
                        ));
                    }
                    out.push_str(&format!(
                        "{}_bucket{} {}\n",
                        e.name,
                        label_block(&e.labels, Some(("le", "+Inf"))),
                        h.count()
                    ));
                    out.push_str(&format!(
                        "{}_sum{} {}\n",
                        e.name,
                        label_block(&e.labels, None),
                        h.sum()
                    ));
                    out.push_str(&format!(
                        "{}_count{} {}\n",
                        e.name,
                        label_block(&e.labels, None),
                        h.count()
                    ));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let r = Registry::new();
        let c = r.counter("db_test_total", "help", &[("engine", "sim")]);
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Same (name, labels) → same series.
        let c2 = r.counter("db_test_total", "other help ignored", &[("engine", "sim")]);
        assert_eq!(c2.get(), 5);
        // Different labels → different series.
        let c3 = r.counter("db_test_total", "h", &[("engine", "native")]);
        assert_eq!(c3.get(), 0);
        assert_eq!(r.len(), 2);

        let g = r.gauge("db_depth", "queue depth", &[]);
        g.set(7);
        g.add(3);
        g.sub(20);
        assert_eq!(g.get(), 0, "sub saturates");
        g.max(9);
        g.max(4);
        assert_eq!(g.get(), 9);
    }

    #[test]
    fn histogram_matches_old_latency_histogram_semantics() {
        let h = Histogram::default();
        for us in [1u64, 2, 3, 100, 100, 100, 1000, 10_000] {
            h.observe(us);
        }
        assert_eq!(h.count(), 8);
        // Rank 4 of 8 lands in bucket [64, 127]; interpolation places it
        // near the low edge (it is the 1st of 3 samples in the bucket).
        let p50 = h.quantile(0.5);
        assert!((64..=127).contains(&p50), "p50 = {p50}");
        // Rank 8 of 8 is the last sample: exact max, not a bucket edge.
        let p99 = h.quantile(0.99);
        assert_eq!(p99, 10_000, "p99 = {p99}");
        assert!(h.mean() >= 1400 && h.mean() <= 1500, "{}", h.mean());
        assert_eq!(h.max_value(), 10_000);
        assert_eq!(h.sum(), 1 + 2 + 3 + 300 + 1000 + 10_000);
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let h = Histogram::default();
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.mean(), 0);
        assert_eq!(h.max_value(), 0);
    }

    #[test]
    fn histogram_top_bucket_reports_exact_max() {
        let h = Histogram::default();
        h.observe(u64::MAX);
        assert_eq!(h.quantile(1.0), u64::MAX);
    }

    #[test]
    fn histogram_quantiles_interpolate_not_saturate() {
        // 1000 samples all at 20_000µs land in bucket [16384, 32767].
        // The old quantile returned the 32767 bucket ceiling for p999;
        // interpolation must stay clamped at the true maximum.
        let h = Histogram::default();
        for _ in 0..1000 {
            h.observe(20_000);
        }
        assert_eq!(h.quantile(0.999), 20_000, "p999 clamps to exact max");
        assert_eq!(h.quantile(1.0), 20_000);
        // Mid-rank quantiles interpolate inside the bucket and clamp to
        // the true maximum instead of pinning at the 32767 edge.
        let p50 = h.quantile(0.5);
        assert!((16_384..=20_000).contains(&p50), "p50 = {p50}");

        // And with a spread, the estimate moves with rank.
        let h = Histogram::default();
        for v in [70u64, 80, 90, 100, 110, 120] {
            h.observe(v); // all in [64, 127]
        }
        let p25 = h.quantile(0.25);
        let p75 = h.quantile(0.75);
        assert!(p25 < p75, "p25 = {p25}, p75 = {p75}");
        assert!((64..=127).contains(&p25));
        assert!((64..=120).contains(&p75));
    }

    #[test]
    fn float_gauge_renders_fractional_values() {
        let r = Registry::new();
        let g = r.float_gauge("db_burn", "burn rate", &[("window", "5m")]);
        g.set(0.25);
        assert_eq!(g.get(), 0.25);
        let text = r.render_prometheus();
        assert!(text.contains("# TYPE db_burn gauge"), "{text}");
        assert!(text.contains("db_burn{window=\"5m\"} 0.25"), "{text}");
    }

    #[test]
    #[should_panic(expected = "different type")]
    fn float_and_int_gauges_do_not_alias() {
        let r = Registry::new();
        let _ = r.gauge("db_y", "", &[]);
        let _ = r.float_gauge("db_y", "", &[]);
    }

    #[test]
    #[should_panic(expected = "different type")]
    fn type_mismatch_panics() {
        let r = Registry::new();
        let _ = r.counter("db_x", "", &[]);
        let _ = r.gauge("db_x", "", &[]);
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn le_label_is_reserved() {
        let r = Registry::new();
        let _ = r.counter("db_x", "", &[("le", "1")]);
    }
}
