//! Service metrics: registry-backed counters/gauges and the shared
//! power-of-two latency histogram.
//!
//! Each server instance owns a private [`db_metrics::Registry`], so
//! concurrent servers in one process (tests, embedded use) never share
//! counters; the Prometheus scrape merges the instance registry with
//! the process-global one (engine and sim-profiler series) through
//! [`db_metrics::render`]. All serve series use the `db_serve_` name
//! prefix, disjoint from the engines' `db_engine_`/`db_sim_` prefixes.
//!
//! Spans drive the series: the pool records every scheduling decision
//! as one `db-span` span, and [`Metrics::observe_span`] folds each span
//! into the series it feeds before the span reaches the flight
//! recorder, so a scrape and a flight dump of the same run agree:
//!
//! | span kind (code) | series |
//! |---|---|
//! | `admit` (0) | `db_serve_admitted_total` |
//! | `admit` (1–5) | `db_serve_rejected_total`, `reason` = `breaker`, `draining`, `capacity`, `tenant_quota`, `write_quota` |
//! | `request` root, unless refused at admission | `db_serve_requests_total{status}` (a worker's `rejected` answer counts as `error`) and `db_serve_request_latency_us` (the root's duration) |
//! | `retry` | `db_serve_retries_total` |
//! | `attempt` (1, panicked) | `db_serve_worker_panics_total` |
//! | `fault` | `db_serve_faults_injected_total` |
//! | `team` | `db_serve_team_joins_total` (one per helper that joined a search) |
//!
//! Five counters have no span and are updated where their decision is
//! made: `db_serve_worker_respawns_total`, `db_serve_breaker_trips_total`,
//! `db_serve_rejected_total{reason="storage"}`,
//! `db_serve_rejected_total{reason="connections"}` (the TCP front end's
//! accept loop, [`crate::net`]) and `db_serve_degraded_total`. The
//! gauges are set where their state changes (`busy_workers`,
//! `scratch_bytes`, `connections`) or read at scrape time
//! (`queue_depth`, `breaker_open`).
//!
//! The latency histogram is [`db_metrics::Histogram`] — power-of-two
//! microsecond buckets, so reported quantiles are upper bounds with at
//! most 2× resolution error (fine for the live `metrics` endpoint; the
//! load generator computes exact quantiles client-side from
//! per-response latencies). `count`, `sum`, and `max` are exact.

use db_metrics::{Counter, Gauge, Histogram, Registry};
use db_span::{SpanKind, SpanRecord, ADMISSION_WORKER};
use db_trace::json::Value;

/// Live series handles for one server instance.
///
/// Handles are `Arc`-shared atomics cloned out of the instance
/// [`Registry`]; recording is lock-free. The same series are rendered
/// verbatim by the Prometheus scrape, so there is exactly one source
/// of truth for every number the server reports.
#[derive(Debug, Clone)]
pub struct Metrics {
    /// Requests accepted into the queue.
    pub admitted: Counter,
    /// Requests refused because the global queue was full.
    pub rejected_capacity: Counter,
    /// Requests refused because their tenant was over quota.
    pub rejected_tenant: Counter,
    /// Requests refused because the server was draining.
    pub rejected_draining: Counter,
    /// Requests refused because their tenant's circuit breaker was open.
    pub rejected_breaker: Counter,
    /// Write requests refused because their tenant was over the
    /// separate write quota.
    pub rejected_writes: Counter,
    /// Write requests refused because the WAL append failed (short
    /// write / ENOSPC); the batch made zero state changes.
    pub rejected_storage: Counter,
    /// Connections the TCP front end refused because it already held
    /// [`crate::net::MAX_CONNECTIONS`] open.
    pub rejected_connections: Counter,
    /// Requests that finished with [`crate::Status::Ok`].
    pub completed: Counter,
    /// Requests whose deadline expired.
    pub expired: Counter,
    /// Requests that failed (bad graph key, workload mismatch, …).
    pub errors: Counter,
    /// Requests that exhausted their retry budget ([`crate::Status::Failed`]).
    pub failed: Counter,
    /// Retry attempts (attempts beyond a request's first).
    pub retries: Counter,
    /// Worker panics caught by the per-attempt isolation boundary.
    pub worker_panics: Counter,
    /// Worker incarnations respawned after a poisoning panic.
    pub worker_respawns: Counter,
    /// Circuit-breaker trips (closed/half-open → open).
    pub breaker_trips: Counter,
    /// `sim` requests that completed only via the degradation ladder
    /// (a final attempt on the served kernel).
    pub degraded: Counter,
    /// Faults injected into request handling by the chaos plan.
    pub faults_injected: Counter,
    /// Idle workers that joined another worker's search as its helper
    /// (one per `team` span).
    pub team_joins: Counter,
    /// Tenant circuit breakers currently open.
    pub breaker_open: Gauge,
    /// Requests currently queued.
    pub queue_depth: Gauge,
    /// Workers currently executing a request (occupancy).
    pub busy_workers: Gauge,
    /// Heap bytes of the workers' reused traversal scratch (visited
    /// bits, stacks and level bitmaps), summed.
    pub scratch_bytes: Gauge,
    /// Connections the TCP front end holds open.
    pub connections: Gauge,
    /// Latency of every request a worker finished (any status) and of
    /// the `failed` answers closed without one, µs.
    pub latency: Histogram,
}

impl Metrics {
    /// Registers the serve series in `reg` and returns the handles.
    pub fn register(reg: &Registry) -> Metrics {
        let rejected = |reason: &str| {
            reg.counter(
                "db_serve_rejected_total",
                "Requests refused at admission, by reason",
                &[("reason", reason)],
            )
        };
        let finished = |status: &str| {
            reg.counter(
                "db_serve_requests_total",
                "Finished requests by final status",
                &[("status", status)],
            )
        };
        Metrics {
            admitted: reg.counter(
                "db_serve_admitted_total",
                "Requests accepted into the queue",
                &[],
            ),
            rejected_capacity: rejected("capacity"),
            rejected_tenant: rejected("tenant_quota"),
            rejected_draining: rejected("draining"),
            rejected_breaker: rejected("breaker"),
            rejected_writes: rejected("write_quota"),
            rejected_storage: rejected("storage"),
            rejected_connections: rejected("connections"),
            completed: finished("ok"),
            expired: finished("expired"),
            errors: finished("error"),
            failed: finished("failed"),
            retries: reg.counter(
                "db_serve_retries_total",
                "Retry attempts beyond each request's first attempt",
                &[],
            ),
            worker_panics: reg.counter(
                "db_serve_worker_panics_total",
                "Worker panics caught by the per-attempt isolation boundary",
                &[],
            ),
            worker_respawns: reg.counter(
                "db_serve_worker_respawns_total",
                "Worker incarnations respawned after a poisoning panic",
                &[],
            ),
            breaker_trips: reg.counter(
                "db_serve_breaker_trips_total",
                "Circuit-breaker trips (closed or half-open to open)",
                &[],
            ),
            degraded: reg.counter(
                "db_serve_degraded_total",
                "Sim requests completed only via the degradation ladder to the served kernel",
                &[],
            ),
            faults_injected: reg.counter(
                "db_serve_faults_injected_total",
                "Faults injected into request handling by the chaos plan",
                &[],
            ),
            team_joins: reg.counter(
                "db_serve_team_joins_total",
                "Idle workers that joined another worker's search as its helper",
                &[],
            ),
            breaker_open: reg.gauge(
                "db_serve_breaker_open",
                "Tenant circuit breakers currently open",
                &[],
            ),
            queue_depth: reg.gauge("db_serve_queue_depth", "Requests currently queued", &[]),
            busy_workers: reg.gauge(
                "db_serve_busy_workers",
                "Workers currently executing a request",
                &[],
            ),
            scratch_bytes: reg.gauge(
                "db_serve_scratch_bytes",
                "Heap bytes of the workers' reused traversal scratch, summed",
                &[],
            ),
            connections: reg.gauge(
                "db_serve_connections",
                "Connections the TCP front end holds open",
                &[],
            ),
            latency: reg.histogram(
                "db_serve_request_latency_us",
                "Finished-request latency in microseconds (any status)",
                &[],
            ),
        }
    }

    /// Folds one recorded span into the series it drives (see the
    /// module table); every other span only reaches the flight recorder.
    pub fn observe_span(&self, span: &SpanRecord) {
        let counter = match (span.kind, span.code) {
            (SpanKind::Admit, 0) => &self.admitted,
            (SpanKind::Admit, 1) => &self.rejected_breaker,
            (SpanKind::Admit, 2) => &self.rejected_draining,
            (SpanKind::Admit, 3) => &self.rejected_capacity,
            (SpanKind::Admit, 4) => &self.rejected_tenant,
            (SpanKind::Admit, 5) => &self.rejected_writes,
            // Refused at admission: its `admit` span counted it.
            (SpanKind::Request, 1) if span.worker == ADMISSION_WORKER => return,
            (SpanKind::Request, status) => {
                self.latency.observe(span_us(span));
                match status {
                    0 => &self.completed,
                    2 => &self.expired,
                    4 => &self.failed,
                    // 3, and a worker's `rejected` answer (code 1).
                    _ => &self.errors,
                }
            }
            (SpanKind::Retry, _) => &self.retries,
            (SpanKind::Attempt, 1) => &self.worker_panics,
            (SpanKind::Fault, _) => &self.faults_injected,
            (SpanKind::Team, _) => &self.team_joins,
            _ => return,
        };
        counter.inc();
    }
}

/// A span's duration in whole microseconds: a root span's is its
/// request's latency.
pub(crate) fn span_us(span: &SpanRecord) -> u64 {
    span.t1_ns.saturating_sub(span.t0_ns) / 1_000
}

/// Plain-data snapshot of [`Metrics`] plus cache/queue gauges, as
/// returned by [`crate::ServeHandle::metrics`] and the TCP `metrics` op.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Requests accepted into the queue.
    pub admitted: u64,
    /// Refusals: queue full.
    pub rejected_capacity: u64,
    /// Refusals: tenant over quota.
    pub rejected_tenant: u64,
    /// Refusals: server draining.
    pub rejected_draining: u64,
    /// Refusals: tenant circuit breaker open.
    pub rejected_breaker: u64,
    /// Refusals: tenant over the separate write quota.
    pub rejected_writes: u64,
    /// Refusals: WAL append failed (short write / ENOSPC).
    pub rejected_storage: u64,
    /// Requests finished `ok`.
    pub completed: u64,
    /// Requests finished `expired`.
    pub expired: u64,
    /// Requests finished `error`.
    pub errors: u64,
    /// Requests finished `failed` (retry budget exhausted).
    pub failed: u64,
    /// Always 0: the pool has one queue and moves no request between
    /// workers. The benchmark ledger (`ledger/`, built against this
    /// workspace) still prints it; the field goes when the ledger stops
    /// naming it. Neither the `metrics` op nor [`Self::from_value`]
    /// carries it.
    pub steals: u64,
    /// Retry attempts beyond each request's first.
    pub retries: u64,
    /// Worker panics caught by the isolation boundary.
    pub worker_panics: u64,
    /// Worker incarnations respawned after a panic.
    pub worker_respawns: u64,
    /// Circuit-breaker trips.
    pub breaker_trips: u64,
    /// Tenant breakers currently open.
    pub breaker_open: u64,
    /// `sim` requests completed via the degradation ladder.
    pub degraded: u64,
    /// Faults injected into request handling.
    pub faults_injected: u64,
    /// Corpus-cache hits.
    pub cache_hits: u64,
    /// Corpus-cache misses (graph builds).
    pub cache_misses: u64,
    /// Corpus-cache evictions.
    pub cache_evictions: u64,
    /// Graphs currently resident.
    pub resident_graphs: u64,
    /// Bytes of CSR currently resident.
    pub resident_bytes: u64,
    /// Requests currently queued.
    pub queue_depth: u64,
    /// Workers currently executing a request.
    pub busy_workers: u64,
    /// Finished-request count (denominator of the quantiles).
    pub latency_count: u64,
    /// Mean finished-request latency, µs.
    pub latency_mean_us: u64,
    /// p50 latency upper bound, µs.
    pub p50_us: u64,
    /// p90 latency upper bound, µs.
    pub p90_us: u64,
    /// p99 latency upper bound, µs.
    pub p99_us: u64,
    /// p99.9 latency upper bound, µs.
    pub p999_us: u64,
    /// Largest single finished-request latency (exact), µs.
    pub max_us: u64,
}

impl MetricsSnapshot {
    /// Total refusals of any kind.
    pub fn rejected(&self) -> u64 {
        self.rejected_capacity
            + self.rejected_tenant
            + self.rejected_draining
            + self.rejected_breaker
            + self.rejected_writes
            + self.rejected_storage
    }

    /// Cache hit rate in `[0, 1]`; 1.0 when the cache was never used.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            1.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Serializes to JSON for the TCP `metrics` op and BENCH output.
    pub fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("admitted".into(), Value::u64(self.admitted)),
            (
                "rejected_capacity".into(),
                Value::u64(self.rejected_capacity),
            ),
            ("rejected_tenant".into(), Value::u64(self.rejected_tenant)),
            (
                "rejected_draining".into(),
                Value::u64(self.rejected_draining),
            ),
            ("rejected_breaker".into(), Value::u64(self.rejected_breaker)),
            ("rejected_writes".into(), Value::u64(self.rejected_writes)),
            ("rejected_storage".into(), Value::u64(self.rejected_storage)),
            ("completed".into(), Value::u64(self.completed)),
            ("expired".into(), Value::u64(self.expired)),
            ("errors".into(), Value::u64(self.errors)),
            ("failed".into(), Value::u64(self.failed)),
            ("retries".into(), Value::u64(self.retries)),
            ("worker_panics".into(), Value::u64(self.worker_panics)),
            ("worker_respawns".into(), Value::u64(self.worker_respawns)),
            ("breaker_trips".into(), Value::u64(self.breaker_trips)),
            ("breaker_open".into(), Value::u64(self.breaker_open)),
            ("degraded".into(), Value::u64(self.degraded)),
            ("faults_injected".into(), Value::u64(self.faults_injected)),
            ("cache_hits".into(), Value::u64(self.cache_hits)),
            ("cache_misses".into(), Value::u64(self.cache_misses)),
            ("cache_evictions".into(), Value::u64(self.cache_evictions)),
            ("resident_graphs".into(), Value::u64(self.resident_graphs)),
            ("resident_bytes".into(), Value::u64(self.resident_bytes)),
            ("queue_depth".into(), Value::u64(self.queue_depth)),
            ("busy_workers".into(), Value::u64(self.busy_workers)),
            ("latency_count".into(), Value::u64(self.latency_count)),
            ("latency_mean_us".into(), Value::u64(self.latency_mean_us)),
            ("p50_us".into(), Value::u64(self.p50_us)),
            ("p90_us".into(), Value::u64(self.p90_us)),
            ("p99_us".into(), Value::u64(self.p99_us)),
            ("p999_us".into(), Value::u64(self.p999_us)),
            ("max_us".into(), Value::u64(self.max_us)),
        ])
    }

    /// Parses the JSON produced by [`MetricsSnapshot::to_value`].
    pub fn from_value(v: &Value) -> Result<MetricsSnapshot, String> {
        let f = |k: &str| -> Result<u64, String> {
            v.get(k)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("metrics: missing '{k}'"))
        };
        Ok(MetricsSnapshot {
            admitted: f("admitted")?,
            rejected_capacity: f("rejected_capacity")?,
            rejected_tenant: f("rejected_tenant")?,
            rejected_draining: f("rejected_draining")?,
            rejected_breaker: f("rejected_breaker")?,
            // Absent in documents written before the write quota
            // existed; default rather than reject those.
            rejected_writes: v
                .get("rejected_writes")
                .and_then(Value::as_u64)
                .unwrap_or(0),
            // Same forward-compat default: absent before durability.
            rejected_storage: v
                .get("rejected_storage")
                .and_then(Value::as_u64)
                .unwrap_or(0),
            completed: f("completed")?,
            expired: f("expired")?,
            errors: f("errors")?,
            failed: f("failed")?,
            steals: 0,
            retries: f("retries")?,
            worker_panics: f("worker_panics")?,
            worker_respawns: f("worker_respawns")?,
            breaker_trips: f("breaker_trips")?,
            breaker_open: f("breaker_open")?,
            degraded: f("degraded")?,
            faults_injected: f("faults_injected")?,
            cache_hits: f("cache_hits")?,
            cache_misses: f("cache_misses")?,
            cache_evictions: f("cache_evictions")?,
            resident_graphs: f("resident_graphs")?,
            resident_bytes: f("resident_bytes")?,
            queue_depth: f("queue_depth")?,
            busy_workers: f("busy_workers")?,
            latency_count: f("latency_count")?,
            latency_mean_us: f("latency_mean_us")?,
            p50_us: f("p50_us")?,
            p90_us: f("p90_us")?,
            p99_us: f("p99_us")?,
            p999_us: f("p999_us")?,
            max_us: f("max_us")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two cases of the fold the serve suites do not pin: a `rejected`
    /// root counts as `error` only when a worker closed it, and a
    /// `no_workers` refusal (admit code 6) is counted by its `failed`
    /// root, latency included.
    #[test]
    fn rejected_roots_and_no_worker_refusals_fold_once() {
        let m = Metrics::register(&Registry::new());
        let span = |kind, code, worker| SpanRecord {
            trace_id: 1,
            span_id: 1,
            parent: 0,
            kind,
            code,
            value: 0,
            worker,
            tenant: 0,
            t0_ns: 1_000,
            t1_ns: 8_000,
        };
        m.observe_span(&span(SpanKind::Admit, 4, ADMISSION_WORKER));
        m.observe_span(&span(SpanKind::Request, 1, ADMISSION_WORKER));
        assert_eq!((m.rejected_tenant.get(), m.errors.get()), (1, 0));
        assert_eq!(m.latency.count(), 0, "a refusal has no latency sample");
        m.observe_span(&span(SpanKind::Request, 1, 0));
        assert_eq!(m.errors.get(), 1, "a worker's rejected answer is an error");
        m.observe_span(&span(SpanKind::Admit, 6, ADMISSION_WORKER));
        m.observe_span(&span(SpanKind::Request, 4, ADMISSION_WORKER));
        assert_eq!((m.admitted.get(), m.failed.get()), (0, 1));
        assert_eq!((m.latency.count(), m.latency.sum()), (2, 14));
    }

    #[test]
    fn registered_series_render_as_valid_exposition() {
        let reg = Registry::new();
        let m = Metrics::register(&reg);
        m.admitted.inc();
        m.rejected_tenant.inc();
        m.completed.inc();
        m.queue_depth.set(3);
        m.busy_workers.add(2);
        m.latency.observe(100);
        m.latency.observe(10_000);
        let text = reg.render_prometheus();
        let exp = db_metrics::validate_exposition(&text).unwrap();
        assert_eq!(
            exp.types.get("db_serve_request_latency_us").map(|s| &**s),
            Some("histogram")
        );
        let admitted = exp
            .samples
            .iter()
            .find(|s| s.name == "db_serve_admitted_total")
            .unwrap();
        assert_eq!(admitted.value, 1.0);
        // The seven rejection reasons are distinct series of one name.
        let reasons: Vec<_> = exp
            .samples
            .iter()
            .filter(|s| s.name == "db_serve_rejected_total")
            .filter_map(|s| s.label("reason"))
            .collect();
        assert_eq!(
            reasons,
            [
                "breaker",
                "capacity",
                "connections",
                "draining",
                "storage",
                "tenant_quota",
                "write_quota"
            ]
        );
    }

    #[test]
    fn latency_quantiles_match_the_old_histogram_contract() {
        // The shared histogram absorbed the old serve LatencyHistogram;
        // the quantile/mean contract the serve tests relied on must
        // carry over unchanged.
        let reg = Registry::new();
        let h = reg.histogram("db_serve_request_latency_us", "", &[]);
        for us in [1u64, 2, 3, 100, 100, 100, 1000, 10_000] {
            h.observe(us);
        }
        assert_eq!(h.count(), 8);
        let p50 = h.quantile(0.5);
        assert!((64..=127).contains(&p50), "p50 = {p50}");
        // Since the in-bucket interpolation fix, the final rank reports
        // the exact maximum instead of the 16383 bucket ceiling.
        let p99 = h.quantile(0.99);
        assert_eq!(p99, 10_000, "p99 = {p99}");
        assert!(h.mean() >= 1400 && h.mean() <= 1500, "{}", h.mean());
        assert_eq!(h.max_value(), 10_000);
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let s = MetricsSnapshot {
            admitted: 10,
            completed: 8,
            expired: 1,
            errors: 1,
            cache_hits: 9,
            cache_misses: 1,
            queue_depth: 2,
            busy_workers: 1,
            latency_count: 10,
            p50_us: 127,
            p99_us: 1023,
            p999_us: 2047,
            max_us: 1600,
            ..MetricsSnapshot::default()
        };
        let back =
            MetricsSnapshot::from_value(&Value::parse(&s.to_value().to_json()).unwrap()).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.cache_hit_rate(), 0.9);
    }
}
