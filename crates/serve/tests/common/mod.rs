//! Recounts, from a flight dump, the `db_serve_*` series the pool
//! derives from spans. Shared by `span_flow.rs` and the root package's
//! `tests/serve_e2e.rs`, which includes this file by path.

use db_span::{FlightDump, SpanKind, SpanRecord, ADMISSION_WORKER};
use std::collections::BTreeMap;

/// The status series a root span counts under, or `None` when it is not
/// a counted root: a refusal closed on the admission lane is counted by
/// its `admit` span instead. A worker's `rejected` answer (an invalid
/// graph) counts as `error`.
fn answer(s: &SpanRecord) -> Option<&'static str> {
    if s.kind != SpanKind::Request || (s.code == 1 && s.worker == ADMISSION_WORKER) {
        return None;
    }
    Some(match SpanKind::status_name(s.code) {
        "rejected" => "error",
        name => name,
    })
}

fn admit(s: &SpanRecord, code: u32) -> u64 {
    u64::from(s.kind == SpanKind::Admit && s.code == code)
}

/// What one span adds to a series.
type PerSpan = fn(&SpanRecord) -> u64;

/// Every span-derived series, keyed as the exposition prints it, with
/// what one span adds to it.
fn series() -> Vec<(&'static str, PerSpan)> {
    vec![
        ("db_serve_admitted_total", |s| admit(s, 0)),
        (r#"db_serve_rejected_total{reason="breaker"}"#, |s| {
            admit(s, 1)
        }),
        (r#"db_serve_rejected_total{reason="draining"}"#, |s| {
            admit(s, 2)
        }),
        (r#"db_serve_rejected_total{reason="capacity"}"#, |s| {
            admit(s, 3)
        }),
        (r#"db_serve_rejected_total{reason="tenant_quota"}"#, |s| {
            admit(s, 4)
        }),
        (r#"db_serve_rejected_total{reason="write_quota"}"#, |s| {
            admit(s, 5)
        }),
        (r#"db_serve_requests_total{status="ok"}"#, |s| {
            u64::from(answer(s) == Some("ok"))
        }),
        (r#"db_serve_requests_total{status="expired"}"#, |s| {
            u64::from(answer(s) == Some("expired"))
        }),
        (r#"db_serve_requests_total{status="error"}"#, |s| {
            u64::from(answer(s) == Some("error"))
        }),
        (r#"db_serve_requests_total{status="failed"}"#, |s| {
            u64::from(answer(s) == Some("failed"))
        }),
        ("db_serve_request_latency_us_count", |s| {
            u64::from(answer(s).is_some())
        }),
        ("db_serve_request_latency_us_sum", |s| {
            answer(s).map_or(0, |_| (s.t1_ns - s.t0_ns) / 1_000)
        }),
        ("db_serve_retries_total", |s| {
            u64::from(s.kind == SpanKind::Retry)
        }),
        ("db_serve_worker_panics_total", |s| {
            u64::from(s.kind == SpanKind::Attempt && s.code == 1)
        }),
        ("db_serve_faults_injected_total", |s| {
            u64::from(s.kind == SpanKind::Fault)
        }),
        ("db_serve_team_joins_total", |s| {
            u64::from(s.kind == SpanKind::Team)
        }),
    ]
}

/// Asserts that every span-derived series in `scrape` equals its count
/// over `dump`, a flight dump of the same idle server that evicted no
/// span, and returns those counts by series.
pub fn assert_scrape_matches_dump(scrape: &str, dump: &FlightDump) -> BTreeMap<&'static str, u64> {
    assert_eq!(dump.dropped, 0, "the flight rings evicted spans");
    let exp = db_metrics::validate_exposition(scrape).expect("the scrape parses");
    let scraped: BTreeMap<String, f64> = exp
        .samples
        .iter()
        .map(|s| {
            let labels: Vec<String> = s
                .labels
                .iter()
                .map(|(k, v)| format!("{k}=\"{v}\""))
                .collect();
            let key = if labels.is_empty() {
                s.name.clone()
            } else {
                format!("{}{{{}}}", s.name, labels.join(","))
            };
            (key, s.value)
        })
        .collect();
    series()
        .into_iter()
        .map(|(key, per_span)| {
            let counted: u64 = dump.spans.iter().map(per_span).sum();
            assert_eq!(
                scraped.get(key).copied(),
                Some(counted as f64),
                "{key}: the scrape disagrees with the flight dump"
            );
            (key, counted)
        })
        .collect()
}
