//! Line-schema validation for the repo's JSON-lines bench reports.
//!
//! `BENCH_serve.json` and `BENCH_sim.json` are append-only JSON-lines
//! files read by humans, CI greps, and downstream tooling;
//! `BENCH_kernel.json` holds the line of the last `kernel_bench` run.
//! Each line carries `schema_version` so an incompatible format change
//! is an explicit bump, not a silent drift — and each emitter validates
//! its own line here *before* writing, so a harness bug fails the bench
//! run instead of corrupting the report file.

use db_trace::json::Value;

/// Current version of the `BENCH_serve.json` line format (2 added
/// `rss_mb`).
pub const SERVE_SCHEMA_VERSION: u64 = 2;

/// Current version of the `BENCH_sim.json` line format.
pub const SIM_SCHEMA_VERSION: u64 = 1;

fn want_u64(v: &Value, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("missing or non-integer field '{key}'"))
}

fn want_f64(v: &Value, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("missing or non-numeric field '{key}'"))
}

fn want_str<'a>(v: &'a Value, key: &str) -> Result<&'a str, String> {
    v.get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| format!("missing or non-string field '{key}'"))
}

fn want_arr<'a>(v: &'a Value, key: &str) -> Result<&'a [Value], String> {
    let a = v
        .get(key)
        .and_then(Value::as_array)
        .ok_or_else(|| format!("missing or non-array field '{key}'"))?;
    if a.is_empty() {
        return Err(format!("field '{key}' must be non-empty"));
    }
    Ok(a)
}

fn want_version(v: &Value, expect: u64) -> Result<(), String> {
    let got = want_u64(v, "schema_version")?;
    if got != expect {
        return Err(format!("schema_version {got}, this build writes {expect}"));
    }
    Ok(())
}

/// Validates one parsed `BENCH_serve.json` line against schema v2.
///
/// Checks field presence and types, that the status counts add up to
/// the request count, and that the digest is present on every run (the
/// determinism check is meaningless without it). `rss_mb` is a
/// non-negative number, or `null` where it was not measured.
pub fn validate_serve_line(v: &Value) -> Result<(), String> {
    want_version(v, SERVE_SCHEMA_VERSION)?;
    let bench = want_str(v, "bench")?;
    if bench != "serve_load" {
        return Err(format!("bench '{bench}', expected 'serve_load'"));
    }
    let mode = want_str(v, "mode")?;
    if mode != "closed" && mode != "open" {
        return Err(format!("mode '{mode}', expected 'closed' or 'open'"));
    }
    want_u64(v, "workers")?;
    want_u64(v, "clients")?;
    want_u64(v, "seed")?;
    want_f64(v, "write_frac")?;
    for g in want_arr(v, "graphs")? {
        if g.as_str().is_none() {
            return Err("graphs entries must be strings".into());
        }
    }
    v.get("deterministic")
        .and_then(Value::as_bool)
        .ok_or("missing or non-bool field 'deterministic'")?;
    match v.get("rss_mb") {
        Some(Value::Null) => {}
        Some(Value::Num(mb)) if *mb >= 0.0 => {}
        _ => return Err("'rss_mb' must be a non-negative number or null".into()),
    }
    for (i, run) in want_arr(v, "runs")?.iter().enumerate() {
        let check = || -> Result<(), String> {
            let requests = want_u64(run, "requests")?;
            let outcomes = ["ok", "expired", "rejected", "errors", "failed"]
                .iter()
                .map(|k| want_u64(run, k))
                .sum::<Result<u64, String>>()?;
            if outcomes != requests {
                return Err(format!(
                    "status counts sum to {outcomes}, expected {requests}"
                ));
            }
            want_u64(run, "wall_ms")?;
            want_f64(run, "throughput_rps")?;
            for k in ["p50_us", "p90_us", "p99_us", "p999_us", "max_us", "steals"] {
                want_u64(run, k)?;
            }
            let hit = want_f64(run, "cache_hit_rate")?;
            if !(0.0..=1.0).contains(&hit) {
                return Err(format!("cache_hit_rate {hit} outside [0, 1]"));
            }
            if want_str(run, "digest")?.is_empty() {
                return Err("empty digest".into());
            }
            Ok(())
        };
        check().map_err(|e| format!("runs[{i}]: {e}"))?;
    }
    Ok(())
}

/// Current version of the crash-recovery (`crash_recover`) line format.
pub const CRASH_SCHEMA_VERSION: u64 = 1;

/// Validates one parsed crash-recovery report line against schema v1.
///
/// One line summarizes a whole kill-and-recover sweep: the fault-free
/// reference digest, one entry per seeded kill point (child exit code,
/// acknowledged vs durable write counts, replay/torn-tail telemetry,
/// digest and epoch equality against the reference), and the two
/// aggregate verdicts CI greps for (`zero_lost_acks`, `digest_match`).
pub fn validate_crash_line(v: &Value) -> Result<(), String> {
    want_version(v, CRASH_SCHEMA_VERSION)?;
    let bench = want_str(v, "bench")?;
    if bench != "crash_recover" {
        return Err(format!("bench '{bench}', expected 'crash_recover'"));
    }
    want_u64(v, "seed")?;
    if want_u64(v, "requests")? == 0 {
        return Err("zero requests".into());
    }
    want_str(v, "fsync")?;
    if want_str(v, "digest_ref")?.is_empty() {
        return Err("empty digest_ref".into());
    }
    want_u64(v, "epoch_ref")?;
    let want_bool = |doc: &Value, key: &str| -> Result<bool, String> {
        doc.get(key)
            .and_then(Value::as_bool)
            .ok_or_else(|| format!("missing or non-bool field '{key}'"))
    };
    let mut all_safe = true;
    let mut all_match = true;
    for (i, point) in want_arr(v, "points")?.iter().enumerate() {
        let check = || -> Result<(bool, bool), String> {
            if want_str(point, "spec")?.is_empty() {
                return Err("empty spec".into());
            }
            want_u64(point, "exit_code")?;
            let acked = want_u64(point, "acked")?;
            let durable = want_u64(point, "durable")?;
            want_u64(point, "replayed")?;
            want_bool(point, "torn")?;
            let zero_lost = want_bool(point, "zero_lost_acks")?;
            if zero_lost != (acked <= durable) {
                return Err(format!(
                    "zero_lost_acks {zero_lost} contradicts acked {acked} / durable {durable}"
                ));
            }
            Ok((zero_lost, want_bool(point, "digest_match")?))
        };
        let (safe, matched) = check().map_err(|e| format!("points[{i}]: {e}"))?;
        all_safe &= safe;
        all_match &= matched;
    }
    if want_bool(v, "zero_lost_acks")? != all_safe {
        return Err("aggregate zero_lost_acks contradicts the points".into());
    }
    if want_bool(v, "digest_match")? != all_match {
        return Err("aggregate digest_match contradicts the points".into());
    }
    Ok(())
}

/// Validates one parsed `BENCH_sim.json` line against schema v1.
pub fn validate_sim_line(v: &Value) -> Result<(), String> {
    want_version(v, SIM_SCHEMA_VERSION)?;
    let bench = want_str(v, "bench")?;
    if bench != "sim" {
        return Err(format!("bench '{bench}', expected 'sim'"));
    }
    want_str(v, "machine")?;
    want_u64(v, "seed")?;
    v.get("deterministic")
        .and_then(Value::as_bool)
        .ok_or("missing or non-bool field 'deterministic'")?;
    for (i, run) in want_arr(v, "runs")?.iter().enumerate() {
        let check = || -> Result<(), String> {
            want_str(run, "graph")?;
            want_u64(run, "root")?;
            if want_u64(run, "cycles")? == 0 {
                return Err("zero simulated cycles".into());
            }
            if want_u64(run, "visited")? == 0 {
                return Err("zero vertices visited".into());
            }
            want_f64(run, "mteps")?;
            let cps = want_f64(run, "sim_cycles_per_sec")?;
            if !cps.is_finite() || cps <= 0.0 {
                return Err(format!("sim_cycles_per_sec {cps} not positive"));
            }
            want_u64(run, "steals_intra")?;
            want_u64(run, "steals_inter")?;
            Ok(())
        };
        check().map_err(|e| format!("runs[{i}]: {e}"))?;
    }
    Ok(())
}

/// Current version of the `BENCH_kernel.json` line format.
pub const KERNEL_SCHEMA_VERSION: u64 = 4;

/// Validates one parsed `BENCH_kernel.json` line against schema v4.
///
/// Checks field presence and types, that every graph visited at least
/// its root and reports finite positive times, among them the median of
/// its full searches from random roots (`root_median_us`), and that the
/// far-arc share is a share. A batched graph also carries the
/// two-member team's times (`team_median_us`, `team_min_us`,
/// `team_root_median_us`), the searches its helper joined
/// (`team_joins`), and the median of its random-target reaches, lone
/// and as a team (`reach_median_us`, `team_reach_median_us`); an
/// unbatched one carries none of them.
pub fn validate_kernel_line(v: &Value) -> Result<(), String> {
    want_version(v, KERNEL_SCHEMA_VERSION)?;
    let bench = want_str(v, "bench")?;
    if bench != "kernel" {
        return Err(format!("bench '{bench}', expected 'kernel'"));
    }
    if want_u64(v, "nproc")? == 0 {
        return Err("nproc must be at least 1".into());
    }
    want_u64(v, "runs")?;
    v.get("visited_ok")
        .and_then(Value::as_bool)
        .ok_or("missing or non-bool field 'visited_ok'")?;
    for (i, run) in want_arr(v, "results")?.iter().enumerate() {
        let check = || -> Result<(), String> {
            want_str(run, "graph")?;
            want_u64(run, "n")?;
            want_u64(run, "arcs")?;
            if want_u64(run, "visited")? == 0 {
                return Err("zero vertices visited".into());
            }
            let batched = run
                .get("batched")
                .and_then(Value::as_bool)
                .ok_or("missing or non-bool field 'batched'")?;
            let share = want_f64(run, "far_share")?;
            if !(0.0..=1.0).contains(&share) {
                return Err(format!("far_share {share} outside [0, 1]"));
            }
            let team = [
                "team_median_us",
                "team_min_us",
                "team_root_median_us",
                "reach_median_us",
                "team_reach_median_us",
                "team_joins",
            ];
            if !batched {
                if let Some(k) = team.iter().find(|k| run.get(k).is_some()) {
                    return Err(format!("unbatched graph with a team field '{k}'"));
                }
            }
            let times = if batched { &team[..5] } else { &[] };
            for k in ["median_us", "min_us", "root_median_us"]
                .iter()
                .chain(times)
            {
                let t = want_f64(run, k)?;
                if !t.is_finite() || t <= 0.0 {
                    return Err(format!("{k} {t} not positive"));
                }
            }
            if batched {
                want_u64(run, "team_joins")?;
            }
            want_f64(run, "mteps")?;
            Ok(())
        };
        check().map_err(|e| format!("results[{i}]: {e}"))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn serve_line() -> Value {
        Value::parse(
            r#"{"schema_version":2,"bench":"serve_load","mode":"closed",
                "workers":2,"clients":2,"seed":42,"write_frac":0,
                "graphs":["grid:8:8"],
                "runs":[{"requests":10,"ok":9,"expired":0,"rejected":0,
                         "errors":0,"failed":1,"wall_ms":5,
                         "throughput_rps":2000.0,"p50_us":10,"p90_us":20,
                         "p99_us":30,"p999_us":40,"max_us":40,
                         "cache_hit_rate":0.9,"steals":1,"digest":"abc"}],
                "deterministic":true,"rss_mb":12.5}"#,
        )
        .unwrap()
    }

    #[test]
    fn accepts_a_well_formed_serve_line() {
        validate_serve_line(&serve_line()).unwrap();
    }

    #[test]
    fn rejects_missing_fields_and_bad_sums() {
        let mut bad = serve_line();
        if let Value::Obj(fields) = &mut bad {
            fields.retain(|(k, _)| k != "write_frac");
        }
        assert!(validate_serve_line(&bad)
            .unwrap_err()
            .contains("write_frac"));

        let wrong_sum = Value::parse(
            &serve_line()
                .to_json()
                .replace("\"requests\":10", "\"requests\":11"),
        )
        .unwrap();
        assert!(validate_serve_line(&wrong_sum)
            .unwrap_err()
            .contains("sum to 10"));

        let text_rss = Value::parse(&serve_line().to_json().replace("12.5", "\"12.5\"")).unwrap();
        assert!(validate_serve_line(&text_rss)
            .unwrap_err()
            .contains("rss_mb"));
        let null_rss = Value::parse(&serve_line().to_json().replace("12.5", "null")).unwrap();
        validate_serve_line(&null_rss).unwrap();

        let wrong_version = Value::parse(
            &serve_line()
                .to_json()
                .replace("\"schema_version\":2", "\"schema_version\":9"),
        )
        .unwrap();
        assert!(validate_serve_line(&wrong_version)
            .unwrap_err()
            .contains("schema_version 9"));
    }

    #[test]
    fn validates_sim_lines() {
        let good = Value::parse(
            r#"{"schema_version":1,"bench":"sim","machine":"a100","seed":42,
                "graphs":["grid:8:8"],
                "runs":[{"graph":"grid:8:8","root":0,"cycles":100,
                         "visited":64,"mteps":12.5,
                         "sim_cycles_per_sec":1e6,
                         "steals_intra":3,"steals_inter":1}],
                "deterministic":true}"#,
        )
        .unwrap();
        validate_sim_line(&good).unwrap();
        let zero_cycles =
            Value::parse(&good.to_json().replace("\"cycles\":100", "\"cycles\":0")).unwrap();
        assert!(validate_sim_line(&zero_cycles)
            .unwrap_err()
            .contains("zero simulated cycles"));
    }

    #[test]
    fn validates_kernel_lines() {
        let good = Value::parse(
            r#"{"schema_version":4,"bench":"kernel","nproc":2,"runs":5,
                "results":[{"graph":"google","n":300000,"arcs":3600000,
                            "far_share":0.57,"batched":true,"visited":299000,
                            "median_us":40000.5,"min_us":39000.0,"mteps":90.0,
                            "root_median_us":41000.0,
                            "team_median_us":30000.0,"team_min_us":29000.0,
                            "team_root_median_us":31000.0,
                            "team_joins":5,"reach_median_us":900.0,
                            "team_reach_median_us":700.0},
                           {"graph":"grid:60:60","n":3600,"arcs":14160,
                            "far_share":0,"batched":false,"visited":3600,
                            "median_us":40.0,"min_us":39.0,"mteps":350.0,
                            "root_median_us":38.0}],
                "visited_ok":true}"#,
        )
        .unwrap();
        validate_kernel_line(&good).unwrap();
        let no_team = Value::parse(&good.to_json().replace("\"team_median_us\"", "\"x\"")).unwrap();
        assert!(validate_kernel_line(&no_team)
            .unwrap_err()
            .contains("team_median_us"));
        let no_reach =
            Value::parse(&good.to_json().replace("\"team_reach_median_us\"", "\"x\"")).unwrap();
        assert!(validate_kernel_line(&no_reach)
            .unwrap_err()
            .contains("team_reach_median_us"));
        let zero_reach = Value::parse(&good.to_json().replace(":900", ":0")).unwrap();
        assert!(validate_kernel_line(&zero_reach)
            .unwrap_err()
            .contains("reach_median_us 0 not positive"));
        // Every graph times its random roots, and only a batched one as
        // a team.
        let no_root = Value::parse(&good.to_json().replace(",\"root_median_us\":38", "")).unwrap();
        assert!(validate_kernel_line(&no_root)
            .unwrap_err()
            .contains("root_median_us"));
        let zero_root = Value::parse(&good.to_json().replace(":41000", ":0")).unwrap();
        assert!(validate_kernel_line(&zero_root)
            .unwrap_err()
            .contains("root_median_us 0 not positive"));
        let no_team_root =
            Value::parse(&good.to_json().replace("\"team_root_median_us\"", "\"x\"")).unwrap();
        assert!(validate_kernel_line(&no_team_root)
            .unwrap_err()
            .contains("team_root_median_us"));
        let unbatched_team_root = Value::parse(&good.to_json().replace(
            "\"root_median_us\":38",
            "\"root_median_us\":38,\"team_root_median_us\":1",
        ))
        .unwrap();
        assert!(validate_kernel_line(&unbatched_team_root)
            .unwrap_err()
            .contains("team_root_median_us"));
        let unbatched_reach = Value::parse(
            &good
                .to_json()
                .replace("\"mteps\":350", "\"reach_median_us\":1,\"mteps\":350"),
        )
        .unwrap();
        assert!(validate_kernel_line(&unbatched_reach)
            .unwrap_err()
            .contains("reach_median_us"));
        let v3 = Value::parse(
            &good
                .to_json()
                .replace("\"schema_version\":4", "\"schema_version\":3"),
        )
        .unwrap();
        assert!(validate_kernel_line(&v3)
            .unwrap_err()
            .contains("schema_version 3"));
        let unbatched_team = Value::parse(
            &good
                .to_json()
                .replace("\"mteps\":350", "\"team_joins\":1,\"mteps\":350"),
        )
        .unwrap();
        assert!(validate_kernel_line(&unbatched_team)
            .unwrap_err()
            .contains("team_joins"));
        let share = Value::parse(&good.to_json().replace("0.57", "1.5")).unwrap();
        assert!(validate_kernel_line(&share)
            .unwrap_err()
            .contains("far_share"));
        let no_batch =
            Value::parse(&good.to_json().replace("\"batched\":true", "\"batched\":1")).unwrap();
        assert!(validate_kernel_line(&no_batch)
            .unwrap_err()
            .contains("batched"));
    }

    #[test]
    fn validates_crash_lines() {
        let good = Value::parse(
            r#"{"schema_version":1,"bench":"crash_recover","seed":7,
                "requests":16,"fsync":"always","digest_ref":"abc",
                "epoch_ref":16,
                "points":[{"spec":"torn:wal@lsn=6","exit_code":86,
                           "acked":6,"durable":6,"replayed":6,"torn":true,
                           "zero_lost_acks":true,"digest_match":true}],
                "zero_lost_acks":true,"digest_match":true}"#,
        )
        .unwrap();
        validate_crash_line(&good).unwrap();
        // A lost ack must be both self-consistent and aggregated.
        let lost = Value::parse(
            &good
                .to_json()
                .replace("\"acked\":6", "\"acked\":9")
                .replace(
                    "\"zero_lost_acks\":true,\"digest_match\":true}],",
                    "\"zero_lost_acks\":false,\"digest_match\":true}],",
                )
                .replace(
                    "\"zero_lost_acks\":true,\"digest_match\":true}",
                    "\"zero_lost_acks\":false,\"digest_match\":true}",
                ),
        )
        .unwrap();
        validate_crash_line(&lost).unwrap();
        let contradiction =
            Value::parse(&good.to_json().replace("\"acked\":6", "\"acked\":9")).unwrap();
        assert!(validate_crash_line(&contradiction)
            .unwrap_err()
            .contains("contradicts"));
        let empty_digest = Value::parse(
            &good
                .to_json()
                .replace("\"digest_ref\":\"abc\"", "\"digest_ref\":\"\""),
        )
        .unwrap();
        assert!(validate_crash_line(&empty_digest)
            .unwrap_err()
            .contains("digest_ref"));
    }

    /// Every line of the committed report files must satisfy its own
    /// schema — the emitters validate before writing, and this pins the
    /// already-committed history to the same bar.
    #[test]
    fn committed_bench_files_pass_their_schemas() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        for (file, validate) in [
            (
                "BENCH_serve.json",
                validate_serve_line as fn(&Value) -> Result<(), String>,
            ),
            ("BENCH_store.json", validate_serve_line),
            (
                "BENCH_sim.json",
                validate_sim_line as fn(&Value) -> Result<(), String>,
            ),
            (
                "BENCH_kernel.json",
                validate_kernel_line as fn(&Value) -> Result<(), String>,
            ),
        ] {
            let path = root.join(file);
            let Ok(text) = std::fs::read_to_string(&path) else {
                continue; // not generated in this checkout
            };
            for (i, line) in text.lines().filter(|l| !l.trim().is_empty()).enumerate() {
                let v = Value::parse(line)
                    .unwrap_or_else(|e| panic!("{file} line {}: bad JSON: {e}", i + 1));
                validate(&v).unwrap_or_else(|e| panic!("{file} line {}: {e}", i + 1));
            }
        }
    }
}
