//! Terminal dashboard renderer behind `diggerbees top`.
//!
//! Renders one parsed scrape ([`Exposition`]) — plus optionally the
//! previous scrape for per-second rates — into a compact fixed-width
//! panel: request counters, worker occupancy, latency quantiles
//! recovered from the histogram bucket ladder, and the `db_slo_*`
//! burn-rate table. Pure string-in/string-out so it is trivially
//! testable and usable against a saved scrape file.

use crate::prometheus::Exposition;

/// Sums every sample of `name` whose labels all match `filter`.
fn sum(exp: &Exposition, name: &str, filter: &[(&str, &str)]) -> f64 {
    exp.samples
        .iter()
        .filter(|s| s.name == name && filter.iter().all(|&(k, v)| s.label(k) == Some(v)))
        .map(|s| s.value)
        .sum()
}

/// Collects histogram bucket (upper-edge, cumulative-count) pairs.
fn ladder(exp: &Exposition, family: &str) -> Vec<(f64, f64)> {
    let bucket_name = format!("{family}_bucket");
    let mut out: Vec<(f64, f64)> = exp
        .samples
        .iter()
        .filter(|s| s.name == bucket_name)
        .filter_map(|s| {
            let le = s.label("le")?;
            let edge = match le {
                "+Inf" => f64::INFINITY,
                _ => le.parse().ok()?,
            };
            Some((edge, s.value))
        })
        .collect();
    out.sort_by(|a, b| a.0.total_cmp(&b.0));
    out
}

/// Quantile estimate from a cumulative bucket ladder, interpolating
/// within the landing bucket (mirrors `Histogram::quantile`).
fn ladder_quantile(ladder: &[(f64, f64)], q: f64) -> f64 {
    let Some(&(_, count)) = ladder.last() else {
        return 0.0;
    };
    if count <= 0.0 {
        return 0.0;
    }
    let target = (q * count).ceil().clamp(1.0, count);
    let mut prev_edge = 0.0;
    let mut prev_cum = 0.0;
    for &(edge, cum) in ladder {
        if cum >= target {
            if !edge.is_finite() {
                return prev_edge;
            }
            let in_bucket = cum - prev_cum;
            if in_bucket <= 0.0 {
                return edge;
            }
            let frac = ((target - prev_cum) - 0.5) / in_bucket;
            return prev_edge + frac.max(0.0) * (edge - prev_edge);
        }
        prev_edge = edge;
        prev_cum = cum;
    }
    prev_edge
}

/// Formats a microsecond value with an adaptive unit.
fn fmt_us(us: f64) -> String {
    if us >= 1_000_000.0 {
        format!("{:.2}s", us / 1_000_000.0)
    } else if us >= 1_000.0 {
        format!("{:.2}ms", us / 1_000.0)
    } else {
        format!("{us:.0}µs")
    }
}

/// Per-second rate of counter `name` between two scrapes.
fn rate(now: &Exposition, prev: Option<&Exposition>, name: &str, interval_s: f64) -> Option<f64> {
    let prev = prev?;
    if interval_s <= 0.0 {
        return None;
    }
    Some((sum(now, name, &[]) - sum(prev, name, &[])).max(0.0) / interval_s)
}

/// Renders the `diggerbees top` panel from one scrape; with `prev`
/// (the scrape `interval_s` seconds earlier) counters also show
/// per-second rates.
pub fn render_dashboard(exp: &Exposition, prev: Option<&Exposition>, interval_s: f64) -> String {
    let mut out = String::new();
    let admitted = sum(exp, "db_serve_admitted_total", &[]);
    let ok = sum(exp, "db_serve_requests_total", &[("status", "ok")]);
    let failed = sum(exp, "db_serve_requests_total", &[("status", "failed")]);
    let expired = sum(exp, "db_serve_requests_total", &[("status", "expired")]);
    let errors = sum(exp, "db_serve_requests_total", &[("status", "error")]);
    let rejected = sum(exp, "db_serve_rejected_total", &[]);

    out.push_str("diggerbees top — serve dashboard\n");
    let rate_str = rate(exp, prev, "db_serve_admitted_total", interval_s)
        .map(|r| format!("  ({r:.1}/s)"))
        .unwrap_or_default();
    out.push_str(&format!(
        "requests  admitted {admitted:.0}{rate_str}  ok {ok:.0}  failed {failed:.0}  \
         expired {expired:.0}  error {errors:.0}  rejected {rejected:.0}\n"
    ));
    out.push_str(&format!(
        "workers   busy {:.0}  queue {:.0}  steals {:.0}  retries {:.0}  panics {:.0}  \
         respawns {:.0}\n",
        sum(exp, "db_serve_busy_workers", &[]),
        sum(exp, "db_serve_queue_depth", &[]),
        sum(exp, "db_serve_steals_total", &[]),
        sum(exp, "db_serve_retries_total", &[]),
        sum(exp, "db_serve_worker_panics_total", &[]),
        sum(exp, "db_serve_worker_respawns_total", &[]),
    ));
    out.push_str(&format!(
        "guard     breaker_open {:.0}  trips {:.0}  degraded {:.0}  faults {:.0}\n",
        sum(exp, "db_serve_breaker_open", &[]),
        sum(exp, "db_serve_breaker_trips_total", &[]),
        sum(exp, "db_serve_degraded_total", &[]),
        sum(exp, "db_serve_faults_injected_total", &[]),
    ));

    let lad = ladder(exp, "db_serve_request_latency_us");
    if !lad.is_empty() {
        out.push_str(&format!(
            "latency   p50 {}  p90 {}  p99 {}  p999 {}\n",
            fmt_us(ladder_quantile(&lad, 0.5)),
            fmt_us(ladder_quantile(&lad, 0.9)),
            fmt_us(ladder_quantile(&lad, 0.99)),
            fmt_us(ladder_quantile(&lad, 0.999)),
        ));
    }

    // Burn-rate table: one row per (tenant, slo), windows as columns.
    let mut rows: Vec<(&str, &str)> = exp
        .samples
        .iter()
        .filter(|s| s.name == "db_slo_burn_rate")
        .filter_map(|s| Some((s.label("tenant")?, s.label("slo")?)))
        .collect();
    rows.sort();
    rows.dedup();
    for (tenant, slo) in rows {
        let cell = |window: &str| -> String {
            exp.samples
                .iter()
                .find(|s| {
                    s.name == "db_slo_burn_rate"
                        && s.label("tenant") == Some(tenant)
                        && s.label("slo") == Some(slo)
                        && s.label("window") == Some(window)
                })
                .map(|s| format!("{:.2}", s.value))
                .unwrap_or_else(|| "-".into())
        };
        out.push_str(&format!(
            "slo       {tenant:<8} {slo:<13} burn 1m {}  5m {}  1h {}\n",
            cell("1m"),
            cell("5m"),
            cell("1h"),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prometheus::parse_exposition;

    #[test]
    fn dashboard_summarizes_a_scrape() {
        let text = "\
db_serve_admitted_total 100
db_serve_requests_total{status=\"ok\"} 90
db_serve_requests_total{status=\"failed\"} 5
db_serve_busy_workers 2
db_serve_queue_depth 7
db_serve_steals_total 11
db_serve_request_latency_us_bucket{le=\"1023\"} 50
db_serve_request_latency_us_bucket{le=\"2047\"} 90
db_serve_request_latency_us_bucket{le=\"+Inf\"} 100
db_serve_request_latency_us_sum 150000
db_serve_request_latency_us_count 100
db_slo_burn_rate{tenant=\"*\",slo=\"latency\",window=\"1m\"} 2.5
db_slo_burn_rate{tenant=\"*\",slo=\"latency\",window=\"5m\"} 0.5
db_slo_burn_rate{tenant=\"*\",slo=\"latency\",window=\"1h\"} 0.1
";
        let exp = parse_exposition(text).unwrap();
        let dash = render_dashboard(&exp, None, 0.0);
        assert!(dash.contains("admitted 100"), "{dash}");
        assert!(dash.contains("ok 90"), "{dash}");
        assert!(dash.contains("failed 5"), "{dash}");
        assert!(dash.contains("steals 11"), "{dash}");
        assert!(dash.contains("p50"), "{dash}");
        assert!(dash.contains("burn 1m 2.50  5m 0.50  1h 0.10"), "{dash}");
    }

    #[test]
    fn rates_need_a_previous_scrape() {
        let prev = parse_exposition("db_serve_admitted_total 100\n").unwrap();
        let now = parse_exposition("db_serve_admitted_total 150\n").unwrap();
        let dash = render_dashboard(&now, Some(&prev), 5.0);
        assert!(dash.contains("(10.0/s)"), "{dash}");
        let dash = render_dashboard(&now, None, 5.0);
        assert!(!dash.contains("/s)"), "{dash}");
    }

    #[test]
    fn ladder_quantile_interpolates() {
        let lad = vec![(1023.0, 50.0), (2047.0, 90.0), (f64::INFINITY, 100.0)];
        let p50 = ladder_quantile(&lad, 0.5);
        assert!((0.0..=1023.0).contains(&p50), "p50 = {p50}");
        let p80 = ladder_quantile(&lad, 0.8);
        assert!((1023.0..=2047.0).contains(&p80), "p80 = {p80}");
        // Top bucket has no finite edge: fall back to the last finite one.
        let p999 = ladder_quantile(&lad, 0.999);
        assert_eq!(p999, 2047.0);
        assert_eq!(ladder_quantile(&[], 0.5), 0.0);
    }
}
