//! Seeded load generator for the `db-serve` service layer.
//!
//! Two modes:
//!
//! * **in-process** (default): starts a fresh [`Server`] per run,
//!   drives it through the in-process handle, and — when `--runs` ≥ 2 —
//!   asserts that every run produces identical response digests
//!   (outcome determinism across schedules).
//! * **TCP** (`--addr host:port`): drives an already-running
//!   `diggerbees serve` endpoint over newline-delimited JSON;
//!   `--shutdown` sends `{"op":"shutdown"}` afterwards.
//!
//! Load shapes: `--mode closed` (each client thread keeps one request
//! in flight) or `--mode open --rate R` (fixed-rate arrivals,
//! independent of completions).
//!
//! Write mode: `--write-frac F` turns a seeded fraction of the load
//! into commuting edge mutations against `delta:` corpora (reads stay
//! on the frozen keys) and appends post-drain fence queries that fold
//! the final epoch and graph state into the digest — so the usual
//! double-run digest check also proves the mutation path deterministic.
//! In-process only.
//!
//! Chaos mode: `--faults <spec>` runs the in-process server under a
//! deterministic fault plan (fresh injector per run, breaker disabled,
//! effectively unlimited worker respawns — the same policy as the
//! `chaos` integration suite, so double runs stay digest-identical even
//! while workers are being killed). `--allow-failed` tolerates
//! `failed`/`rejected` responses in the exit status — use it when
//! driving an external `diggerbees serve --faults` endpoint, where
//! breaker rejections and retry-exhausted failures are expected.
//!
//! Emits one JSON-lines report object (default `BENCH_serve.json`;
//! `--append` accumulates lines instead of truncating) with exact
//! client-side latency percentiles, throughput, cache hit rate, the
//! per-run outcome digest and, in-process, the resident set after the
//! last run (`rss_mb`). Exits nonzero on any error response,
//! any rejection or failure (unless chaos flags say otherwise), or a
//! cross-run digest mismatch.

use db_fault::{FaultPlan, Injector};
use db_serve::net::roundtrip_line;
use db_serve::{
    Durability, EngineKind, Request, Resilience, Response, ServeConfig, Server, Status, Workload,
};
use db_trace::json::Value;
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::sync::Mutex;
use std::time::{Duration, Instant};

struct Args {
    workers: usize,
    clients: usize,
    requests: usize,
    seed: u64,
    graphs: Vec<String>,
    mode: String,
    rate: f64,
    deadline_ms: Option<u64>,
    runs: usize,
    out: String,
    addr: Option<String>,
    shutdown: bool,
    faults: Option<FaultPlan>,
    allow_failed: bool,
    append: bool,
    dfs_only: bool,
    write_frac: f64,
    flight_dir: Option<String>,
    scrape_out: Option<String>,
    crash_recover: bool,
    crash_child: bool,
    wal_dir: Option<String>,
    fsync: String,
    crash_points: String,
    acked_file: Option<String>,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            workers: 4,
            clients: 8,
            requests: 10_000,
            seed: 42,
            graphs: ["grid:60:60", "path:5000", "dag:4000"]
                .map(String::from)
                .to_vec(),
            mode: "closed".into(),
            rate: 2000.0,
            deadline_ms: None,
            runs: 2,
            out: "BENCH_serve.json".into(),
            addr: None,
            shutdown: false,
            faults: None,
            allow_failed: false,
            append: false,
            dfs_only: false,
            write_frac: 0.0,
            flight_dir: None,
            scrape_out: None,
            crash_recover: false,
            crash_child: false,
            wal_dir: None,
            fsync: "always".into(),
            // Torn last: its half-written tail is the only point that
            // leaves garbage bytes behind for recovery to truncate.
            crash_points: "crash:wal@ckpt=pack,crash:wal@ckpt=manifest,\
                           crash:wal@ckpt=truncate,crash:wal@lsn=11,torn:wal@lsn=6"
                .into(),
            acked_file: None,
        }
    }
}

fn parse_args() -> Args {
    let mut a = Args::default();
    let mut it = std::env::args().skip(1);
    let die = |msg: String| -> ! {
        eprintln!("serve_load: {msg}");
        eprintln!(
            "usage: serve_load [--workers N] [--clients N] [--requests N] [--seed S] \
             [--graphs k1,k2,...] [--mode closed|open] [--rate R] [--deadline-ms MS] \
             [--runs N] [--out FILE] [--append] [--dfs-only] [--write-frac F] \
             [--addr HOST:PORT] [--shutdown] [--faults SPEC] [--allow-failed] \
             [--flight-dir DIR] [--scrape-out FILE] [--crash-recover] \
             [--wal-dir DIR] [--fsync always|group=N|never] [--crash-points SPECS]"
        );
        std::process::exit(2);
    };
    while let Some(flag) = it.next() {
        let mut val = |name: &str| -> String {
            it.next()
                .unwrap_or_else(|| die(format!("missing value for {name}")))
        };
        match flag.as_str() {
            "--workers" => {
                a.workers = val("--workers")
                    .parse()
                    .unwrap_or_else(|_| die("bad --workers".into()))
            }
            "--clients" => {
                a.clients = val("--clients")
                    .parse()
                    .unwrap_or_else(|_| die("bad --clients".into()))
            }
            "--requests" => {
                a.requests = val("--requests")
                    .parse()
                    .unwrap_or_else(|_| die("bad --requests".into()))
            }
            "--seed" => {
                a.seed = val("--seed")
                    .parse()
                    .unwrap_or_else(|_| die("bad --seed".into()))
            }
            "--graphs" => a.graphs = val("--graphs").split(',').map(str::to_string).collect(),
            "--mode" => a.mode = val("--mode"),
            "--rate" => {
                a.rate = val("--rate")
                    .parse()
                    .unwrap_or_else(|_| die("bad --rate".into()))
            }
            "--deadline-ms" => {
                a.deadline_ms = Some(
                    val("--deadline-ms")
                        .parse()
                        .unwrap_or_else(|_| die("bad --deadline-ms".into())),
                )
            }
            "--runs" => {
                a.runs = val("--runs")
                    .parse()
                    .unwrap_or_else(|_| die("bad --runs".into()))
            }
            "--out" => a.out = val("--out"),
            "--addr" => a.addr = Some(val("--addr")),
            "--shutdown" => a.shutdown = true,
            "--faults" => {
                let spec = val("--faults");
                a.faults = Some(
                    FaultPlan::parse(&spec)
                        .unwrap_or_else(|e| die(format!("bad --faults spec '{spec}': {e}"))),
                )
            }
            "--allow-failed" => a.allow_failed = true,
            "--flight-dir" => a.flight_dir = Some(val("--flight-dir")),
            "--scrape-out" => a.scrape_out = Some(val("--scrape-out")),
            "--append" => a.append = true,
            "--dfs-only" => a.dfs_only = true,
            "--crash-recover" => a.crash_recover = true,
            "--crash-child" => a.crash_child = true,
            "--wal-dir" => a.wal_dir = Some(val("--wal-dir")),
            "--fsync" => a.fsync = val("--fsync"),
            "--crash-points" => a.crash_points = val("--crash-points"),
            "--acked-file" => a.acked_file = Some(val("--acked-file")),
            "--write-frac" => {
                a.write_frac = val("--write-frac")
                    .parse()
                    .ok()
                    .filter(|f: &f64| (0.0..=1.0).contains(f))
                    .unwrap_or_else(|| die("bad --write-frac (want 0.0..=1.0)".into()))
            }
            other => die(format!("unknown flag '{other}'")),
        }
    }
    if a.graphs.is_empty() || a.requests == 0 || a.clients == 0 || a.workers == 0 {
        die("need nonzero --workers/--clients/--requests and at least one graph".into());
    }
    if a.mode != "closed" && a.mode != "open" {
        die(format!("unknown --mode '{}'", a.mode));
    }
    if a.write_frac > 0.0 && a.addr.is_some() {
        // A remote server's delta corpora persist across runs, so the
        // second run's epochs (and digests) could never match the first.
        die("--write-frac requires the in-process mode (fresh delta state per run)".into());
    }
    if (a.flight_dir.is_some() || a.scrape_out.is_some()) && a.addr.is_some() {
        // Against an external endpoint use `{"op":"flight"}` / the
        // metrics op instead; these flags configure the in-process server.
        die("--flight-dir/--scrape-out require the in-process mode".into());
    }
    if a.faults.is_some() && a.addr.is_some() {
        die(
            "--faults injects into the in-process server; against an external \
             endpoint start `diggerbees serve --faults ...` and pass \
             --allow-failed here instead"
                .into(),
        );
    }
    if (a.crash_recover || a.crash_child) && a.wal_dir.is_none() {
        die("--crash-recover/--crash-child need --wal-dir".into());
    }
    if a.crash_recover && a.addr.is_some() {
        die("--crash-recover spawns its own child processes; drop --addr".into());
    }
    if let Err(e) = db_wal::FsyncPolicy::parse(&a.fsync) {
        die(format!("bad --fsync: {e}"));
    }
    a
}

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    state.wrapping_mul(0x2545_f491_4f6c_dd1d)
}

/// Key metadata the generator needs: vertex count and directedness.
/// Resolved through [`db_serve::corpus::build_graph`], so `store:` keys
/// work the same as synthetic recipes (and the pack is touched once
/// here, not held — the server loads its own copy).
fn key_info(key: &str) -> (u32, bool) {
    db_serve::corpus::build_graph(key)
        .map(|g| (g.num_vertices() as u32, g.is_directed()))
        .unwrap_or_else(|e| {
            eprintln!("serve_load: {e}");
            std::process::exit(2);
        })
}

/// Deterministic request list: same seed + knobs → same requests.
///
/// With `--write-frac F`, roughly `F` of the requests become edge
/// mutations against the `delta:` view of their key while every read
/// stays on the frozen corpus — mid-run read results therefore never
/// depend on how the writes interleave. The writes themselves commute:
/// adds only connect even-numbered vertices and deletes only cut
/// odd-numbered pairs, so the two sets are disjoint and any schedule
/// lands on the same final graph (base ∪ adds ∖ dels). The post-drain
/// [`fence_requests`] digest that final state.
fn generate(a: &Args) -> Vec<Request> {
    let infos: Vec<(u32, bool)> = a.graphs.iter().map(|g| key_info(g)).collect();
    let mut rng = a.seed ^ 0x6a09_e667_f3bc_c908;
    let write_cut = (a.write_frac * (u32::MAX as u64 + 1) as f64) as u64;
    (0..a.requests as u64)
        .map(|id| {
            let gi = (xorshift(&mut rng) % a.graphs.len() as u64) as usize;
            let graph = a.graphs[gi].clone();
            let (n, directed) = infos[gi];
            let n = n.max(1);
            if write_cut > 0 && n >= 4 && xorshift(&mut rng) % (u32::MAX as u64 + 1) < write_cut {
                let half = (n / 2) as u64;
                let del = xorshift(&mut rng).is_multiple_of(4);
                let parity = if del { 1 } else { 0 };
                let batch = 1 + (xorshift(&mut rng) % 3) as usize;
                let edges: Vec<(u32, u32)> = (0..batch)
                    .map(|_| {
                        let u = (xorshift(&mut rng) % half) as u32 * 2 + parity;
                        let v = (xorshift(&mut rng) % half) as u32 * 2 + parity;
                        (u, v)
                    })
                    .collect();
                return Request {
                    id,
                    tenant: format!("tenant{}", xorshift(&mut rng) % 4),
                    graph: format!("delta:{graph}"),
                    workload: if del {
                        Workload::DelEdges { edges }
                    } else {
                        Workload::AddEdges { edges }
                    },
                    engine: EngineKind::Serial,
                    // Writes are applied unconditionally server-side;
                    // a deadline would only confuse the tally.
                    deadline_ms: None,
                };
            }
            let root = (xorshift(&mut rng) % n as u64) as u32;
            let target = (xorshift(&mut rng) % n as u64) as u32;
            let workload = match xorshift(&mut rng) % 10 {
                0..=5 => Workload::Dfs { root },
                6 | 7 => Workload::Reach { root, target },
                // --dfs-only drops the serial apps workloads (Tarjan at
                // pack scale would dominate wall clock): traversals only.
                _ if a.dfs_only => Workload::Reach { root, target },
                8 => {
                    if directed {
                        Workload::Scc
                    } else {
                        Workload::Articulation
                    }
                }
                _ => {
                    if directed {
                        Workload::Topo
                    } else {
                        Workload::Dfs { root }
                    }
                }
            };
            let engine = match xorshift(&mut rng) % 5 {
                0 | 1 => EngineKind::Native,
                2 => EngineKind::LockFree,
                3 => EngineKind::Partitioned,
                _ => EngineKind::Serial,
            };
            Request {
                id,
                tenant: format!("tenant{}", xorshift(&mut rng) % 4),
                graph,
                workload,
                engine,
                deadline_ms: a.deadline_ms,
            }
        })
        .collect()
}

/// Post-drain fence queries for write mode: one `epoch` probe plus a
/// full traversal and a reachability query per delta corpus. They are
/// submitted only after every mixed-phase response is in hand, so all
/// writes have been applied and the answers depend on nothing but the
/// seed-determined final graph — folding them into the combined digest
/// makes cross-run equality prove the *write* path deterministic, not
/// just the read path.
fn fence_requests(a: &Args, first_id: u64) -> Vec<Request> {
    if a.write_frac == 0.0 {
        return Vec::new();
    }
    let mut out = Vec::new();
    let mut id = first_id;
    for key in &a.graphs {
        let (n, _) = key_info(key);
        let n = n.max(1);
        let delta = format!("delta:{key}");
        for workload in [
            Workload::Epoch,
            Workload::Dfs { root: 0 },
            Workload::Reach {
                root: 0,
                target: n - 1,
            },
        ] {
            out.push(Request {
                id,
                tenant: "fence".into(),
                graph: delta.clone(),
                workload,
                engine: EngineKind::Serial,
                deadline_ms: None,
            });
            id += 1;
        }
    }
    out
}

/// FNV-1a over all digests in id order: one number per run to compare.
fn combined_digest(mut results: Vec<(u64, String)>) -> (u64, Vec<(u64, String)>) {
    results.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (_, d) in &results {
        for b in d.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    }
    (h, results)
}

struct RunReport {
    wall: Duration,
    latencies_us: Vec<u64>,
    /// Tail stats from the shared registry histogram type (the same
    /// power-of-two buckets the server's scrape endpoint exposes), so
    /// the report's tail agrees with a live `db_serve_request_latency_us`
    /// scrape up to the histogram's 2× bucket resolution.
    p999_us: u64,
    max_us: u64,
    ok: u64,
    expired: u64,
    rejected: u64,
    errors: u64,
    failed: u64,
    digest: u64,
    cache_hit_rate: f64,
    /// Write mode only: `(epochs_published, compactions)` read back
    /// from a parser-validated Prometheus scrape of the server.
    delta: Option<(u64, u64)>,
    /// In-process only: this process's `VmRSS` in MB once the run has
    /// drained, while its server still holds the corpora it loaded.
    rss_mb: Option<f64>,
}

fn quantile_exact(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

fn tally(responses: Vec<Response>, wall: Duration, hit_rate: f64) -> RunReport {
    let mut latencies: Vec<u64> = responses.iter().map(|r| r.latency_us).collect();
    latencies.sort_unstable();
    let hist = db_metrics::Histogram::default();
    for &us in &latencies {
        hist.observe(us);
    }
    let count = |s: Status| responses.iter().filter(|r| r.status == s).count() as u64;
    let (digest, _) = combined_digest(responses.iter().map(|r| (r.id, r.digest())).collect());
    RunReport {
        wall,
        latencies_us: latencies,
        p999_us: hist.quantile(0.999),
        max_us: hist.max_value(),
        ok: count(Status::Ok),
        expired: count(Status::Expired),
        rejected: count(Status::Rejected),
        errors: count(Status::Error),
        failed: count(Status::Failed),
        digest,
        cache_hit_rate: hit_rate,
        delta: None,
        rss_mb: None,
    }
}

/// This process's resident set (`VmRSS`) in MB; `None` off Linux.
fn vm_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb = status.lines().find_map(|l| l.strip_prefix("VmRSS:"))?;
    let kb: f64 = kb.trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kb / 1024.0)
}

/// One in-process run: fresh server, closed or open loop, drain,
/// then the write-mode fence queries (if any).
///
/// Only run 0 gets the flight dump dir and scrape file: the recorder
/// itself is always on (so the digest check covers it), but auto-dumps
/// from later runs would overwrite run 0's files with sequence-number
/// collisions, and one scrape frame is all `diggerbees top --file` needs.
fn run_in_process(a: &Args, reqs: &[Request], fence: &[Request], run: usize) -> RunReport {
    // Chaos mode mirrors the chaos integration suite's policy: a fresh
    // injector per run (so runs replay identically), breaker off and an
    // effectively unlimited respawn budget (so terminal outcomes depend
    // only on the plan, never on completion order or worker identity).
    let resilience = match &a.faults {
        Some(plan) => Resilience {
            faults: Some(Arc::new(Injector::new(plan.clone()))),
            breaker_threshold: 0,
            restart_budget: 1_000_000,
            retry_base_ms: 1,
            retry_cap_ms: 8,
            ..Resilience::default()
        },
        None => Resilience::default(),
    };
    let mut cfg = ServeConfig {
        workers: a.workers,
        queue_capacity: reqs.len() + a.clients + 1,
        tenant_quota: None,
        resilience,
        ..ServeConfig::default()
    };
    if run == 0 {
        if let Some(dir) = &a.flight_dir {
            cfg.flight.dump_dir = Some(std::path::PathBuf::from(dir));
        }
    }
    let server = Server::start(cfg);
    let h = server.handle();
    let start = Instant::now();
    let responses: Vec<Response> = if a.mode == "closed" {
        let next = AtomicUsize::new(0);
        let out = Mutex::new(Vec::with_capacity(reqs.len()));
        std::thread::scope(|s| {
            for _ in 0..a.clients {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= reqs.len() {
                            break;
                        }
                        mine.push(h.run(reqs[i].clone()));
                    }
                    out.lock().unwrap().append(&mut mine);
                });
            }
        });
        out.into_inner().unwrap()
    } else {
        let gap = Duration::from_secs_f64(1.0 / a.rate.max(1.0));
        let mut rxs = Vec::with_capacity(reqs.len());
        let mut due = Instant::now();
        for r in reqs {
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            rxs.push(h.submit(r.clone()));
            due += gap;
        }
        rxs.into_iter()
            .map(|rx| {
                rx.recv()
                    .unwrap_or_else(|_| Response::failure(0, Status::Error, "server died"))
            })
            .collect()
    };
    let mut responses = responses;
    // Every in-flight response has been collected above, so all writes
    // have landed: the fence runs against the final delta state.
    for r in fence {
        responses.push(h.run(r.clone()));
    }
    let wall = start.elapsed();
    // Write mode reads the delta counters back through the Prometheus
    // text format and the shared parser, so the report's numbers are
    // exactly what a monitoring scrape of this server would have seen.
    let delta = (a.write_frac > 0.0).then(|| {
        let exp = db_metrics::parse_exposition(&h.prometheus()).unwrap_or_else(|e| {
            eprintln!("serve_load: metrics scrape failed exposition parsing: {e}");
            std::process::exit(1);
        });
        let get = |n: &str| {
            exp.samples
                .iter()
                .find(|s| s.name == n)
                .map_or(0.0, |s| s.value) as u64
        };
        (
            get("db_delta_epochs_published_total"),
            get("db_delta_compactions_total"),
        )
    });
    if run == 0 {
        if let Some(path) = &a.scrape_out {
            // Post-drain scrape: every request (and its SLO observation)
            // has landed, so the `db_slo_*` series reflect the full run.
            std::fs::write(path, h.prometheus()).unwrap_or_else(|e| {
                eprintln!("serve_load: cannot write scrape to {path}: {e}");
                std::process::exit(2);
            });
        }
        if a.flight_dir.is_some() {
            if let Err(e) = h.flight_write(std::path::Path::new(a.flight_dir.as_deref().unwrap())) {
                eprintln!("serve_load: flight dump failed: {e}");
                std::process::exit(2);
            }
        }
    }
    let rss_mb = vm_rss_mb();
    let m = server.shutdown();
    let mut report = tally(responses, wall, m.cache_hit_rate());
    report.delta = delta;
    report.rss_mb = rss_mb;
    report
}

/// One TCP run against an external endpoint; closed loop only.
fn run_tcp(a: &Args, reqs: &[Request], addr: &str) -> RunReport {
    let next = AtomicUsize::new(0);
    let out = Mutex::new(Vec::with_capacity(reqs.len()));
    let start = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..a.clients {
            s.spawn(|| {
                let stream = TcpStream::connect(addr).unwrap_or_else(|e| {
                    eprintln!("serve_load: cannot connect to {addr}: {e}");
                    std::process::exit(2);
                });
                let mut writer = stream.try_clone().expect("clone stream");
                let mut reader = BufReader::new(stream);
                let mut mine = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= reqs.len() {
                        break;
                    }
                    let line = reqs[i].to_value().to_json();
                    let reply = roundtrip_line(&mut reader, &mut writer, &line)
                        .expect("request round trip");
                    let doc = Value::parse(&reply).expect("response JSON");
                    mine.push(Response::from_value(&doc).expect("response shape"));
                }
                out.lock().unwrap().append(&mut mine);
            });
        }
    });
    let wall = start.elapsed();
    let responses = out.into_inner().unwrap();
    // The cache hit rate comes from the remote metrics op.
    let hit_rate = std::net::ToSocketAddrs::to_socket_addrs(addr)
        .ok()
        .and_then(|mut it| it.next())
        .and_then(|sa| db_serve::net::fetch_metrics(&sa).ok())
        .map_or(f64::NAN, |m| m.cache_hit_rate());
    tally(responses, wall, hit_rate)
}

fn report_value(a: &Args, reports: &[RunReport], deterministic: bool) -> Value {
    let runs: Vec<Value> = reports
        .iter()
        .map(|r| {
            let total = r.ok + r.expired + r.rejected + r.errors + r.failed;
            Value::Obj(
                vec![
                    ("requests".into(), Value::u64(total)),
                    ("ok".into(), Value::u64(r.ok)),
                    ("expired".into(), Value::u64(r.expired)),
                    ("rejected".into(), Value::u64(r.rejected)),
                    ("errors".into(), Value::u64(r.errors)),
                    ("failed".into(), Value::u64(r.failed)),
                    ("wall_ms".into(), Value::u64(r.wall.as_millis() as u64)),
                    (
                        "throughput_rps".into(),
                        Value::Num(total as f64 / r.wall.as_secs_f64().max(1e-9)),
                    ),
                    (
                        "p50_us".into(),
                        Value::u64(quantile_exact(&r.latencies_us, 0.50)),
                    ),
                    (
                        "p90_us".into(),
                        Value::u64(quantile_exact(&r.latencies_us, 0.90)),
                    ),
                    (
                        "p99_us".into(),
                        Value::u64(quantile_exact(&r.latencies_us, 0.99)),
                    ),
                    ("p999_us".into(), Value::u64(r.p999_us)),
                    ("max_us".into(), Value::u64(r.max_us)),
                    ("cache_hit_rate".into(), Value::Num(r.cache_hit_rate)),
                    ("digest".into(), Value::str(format!("{:016x}", r.digest))),
                ]
                .into_iter()
                .chain(r.delta.into_iter().flat_map(|(epochs, compactions)| {
                    [
                        ("delta_epochs_published".into(), Value::u64(epochs)),
                        ("delta_compactions".into(), Value::u64(compactions)),
                    ]
                }))
                .collect(),
            )
        })
        .collect();
    // Packed-store provenance: size and residency of every `store:` key
    // in the mix, so the report proves what scale it actually served.
    let stores: Vec<Value> = a
        .graphs
        .iter()
        .filter_map(|k| k.strip_prefix("store:").map(|p| (k, p)))
        .filter_map(|(key, path)| db_store::load(path).ok().map(|s| (key, s)))
        .map(|(key, s)| {
            Value::Obj(vec![
                ("key".into(), Value::str(key)),
                ("n".into(), Value::u64(s.header().n as u64)),
                ("arcs".into(), Value::u64(s.header().arcs)),
                ("file_bytes".into(), Value::u64(s.file_bytes())),
                ("compressed".into(), Value::Bool(s.header().compressed())),
                ("mmap".into(), Value::Bool(s.is_mmap())),
            ])
        })
        .collect();
    let mut fields = vec![
        // Bump on any incompatible change to this line format; entries
        // without the field predate versioning (see EXPERIMENTS.md).
        (
            "schema_version".into(),
            Value::u64(db_bench::SERVE_SCHEMA_VERSION),
        ),
        ("bench".into(), Value::str("serve_load")),
        ("mode".into(), Value::str(&a.mode)),
        ("workers".into(), Value::u64(a.workers as u64)),
        ("clients".into(), Value::u64(a.clients as u64)),
        ("seed".into(), Value::u64(a.seed)),
        ("write_frac".into(), Value::Num(a.write_frac)),
        (
            "graphs".into(),
            Value::Arr(a.graphs.iter().map(Value::str).collect()),
        ),
    ];
    if !stores.is_empty() {
        fields.push(("stores".into(), Value::Arr(stores)));
    }
    fields.push(("runs".into(), Value::Arr(runs)));
    fields.push(("deterministic".into(), Value::Bool(deterministic)));
    let rss_mb = reports.last().and_then(|r| r.rss_mb);
    fields.push(("rss_mb".into(), rss_mb.map_or(Value::Null, Value::Num)));
    Value::Obj(fields)
}

/// Corpus driven by the crash-recovery harness: small enough that the
/// compaction threshold trips (and with it the checkpoint protocol)
/// within a 16-request smoke run.
const CRASH_CORPUS: &str = "delta:path:64";

/// Deterministic per-index edge for the crash write mix (splitmix64 of
/// `(seed, i)`). Write `i` inserts the same arc no matter which process
/// incarnation issues it, so a restarted child resuming at the durable
/// count regenerates exactly the suffix the crashed incarnation never
/// finished — sequential RNG state would desynchronise across the kill.
fn crash_edge(seed: u64, i: u64) -> (u32, u32) {
    let mut x = seed ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    let u = (x as u32) % 64;
    let mut v = ((x >> 32) as u32) % 64;
    if v == u {
        v = (v + 1) % 64;
    }
    (u, v)
}

/// `--crash-child`: one incarnation of the crash-recovery write mix.
///
/// Opens the WAL dir (recovering whatever a previous incarnation left),
/// resumes the seeded single-edge write sequence at the recovered durable
/// count, rewrites `--acked-file` *after* every acknowledged write — so
/// the file can only undercount, and `acked ≤ durable` is exactly the
/// zero-lost-acks invariant — then runs Epoch/DFS/Reach fences and prints
/// one JSON outcome line. Exits 0 on success, 3 on startup failure, 4 on
/// an unacknowledged write; an injected `crash:`/`torn:` fault exits with
/// [`db_wal::CRASH_EXIT_CODE`] from inside the WAL.
fn crash_child_main(a: &Args) -> ! {
    let policy = db_wal::FsyncPolicy::parse(&a.fsync).unwrap();
    let resilience = match &a.faults {
        // Same policy as chaos mode: breaker off, outcome depends only
        // on the plan.
        Some(plan) => Resilience {
            faults: Some(Arc::new(Injector::new(plan.clone()))),
            breaker_threshold: 0,
            restart_budget: 1_000_000,
            retry_base_ms: 1,
            retry_cap_ms: 8,
            ..Resilience::default()
        },
        None => Resilience::default(),
    };
    let cfg = ServeConfig {
        workers: 1,
        queue_capacity: a.requests + 4,
        tenant_quota: None,
        resilience,
        durability: Durability {
            wal_dir: Some(std::path::PathBuf::from(a.wal_dir.as_ref().unwrap())),
            fsync: policy,
        },
        ..ServeConfig::default()
    };
    let server = match Server::try_start(cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("serve_load: crash child startup: {e}");
            std::process::exit(3);
        }
    };
    let h = server.handle();
    let rec = h.recovery().unwrap_or_default();
    let durable = rec
        .durable_writes
        .iter()
        .find(|(k, _)| k == CRASH_CORPUS)
        .map_or(0, |&(_, n)| n);
    let run = |id: u64, workload: Workload| {
        h.run(Request {
            id,
            tenant: "crash".into(),
            graph: CRASH_CORPUS.into(),
            workload,
            engine: EngineKind::Serial,
            deadline_ms: None,
        })
    };
    let mut acked = durable;
    for i in durable..a.requests as u64 {
        let (u, v) = crash_edge(a.seed, i);
        let resp = run(
            i,
            Workload::AddEdges {
                edges: vec![(u, v)],
            },
        );
        if resp.status != Status::Ok {
            eprintln!(
                "serve_load: write {i} not acked ({:?}: {})",
                resp.status,
                resp.error.as_deref().unwrap_or("")
            );
            std::process::exit(4);
        }
        acked = i + 1;
        if let Some(f) = &a.acked_file {
            if let Err(e) = std::fs::write(f, format!("{acked}\n")) {
                eprintln!("serve_load: acked file: {e}");
                std::process::exit(4);
            }
        }
    }
    // Read fences: epoch counter plus two traversals fold the final
    // graph state into one digest comparable against the reference run.
    let mut epoch = 0;
    let mut results = Vec::new();
    for (j, w) in [
        Workload::Epoch,
        Workload::Dfs { root: 0 },
        Workload::Reach {
            root: 0,
            target: 63,
        },
    ]
    .into_iter()
    .enumerate()
    {
        let resp = run(1_000_000 + j as u64, w);
        if resp.status != Status::Ok {
            eprintln!("serve_load: fence {j} failed ({:?})", resp.status);
            std::process::exit(4);
        }
        if let Some(e) = resp.payload.get("epoch").and_then(Value::as_u64) {
            epoch = e;
        }
        results.push((resp.id, resp.digest()));
    }
    let (digest, _) = combined_digest(results);
    if let Some(path) = &a.scrape_out {
        std::fs::write(path, h.prometheus()).unwrap();
    }
    server.shutdown();
    println!(
        "{{\"acked\":{acked},\"durable\":{durable},\"replayed\":{},\"skipped\":{},\
         \"torn\":{},\"epoch\":{epoch},\"digest\":\"{digest:016x}\"}}",
        rec.replayed, rec.skipped, rec.torn_truncated
    );
    std::process::exit(0);
}

/// Outcome line printed by a crash child, parsed by the orchestrator.
struct ChildOutcome {
    acked: u64,
    durable: u64,
    replayed: u64,
    torn: bool,
    epoch: u64,
    digest: String,
}

fn parse_child_line(stdout: &[u8]) -> Option<ChildOutcome> {
    let line = std::str::from_utf8(stdout).ok()?.lines().last()?;
    let v = Value::parse(line).ok()?;
    Some(ChildOutcome {
        acked: v.get("acked")?.as_u64()?,
        durable: v.get("durable")?.as_u64()?,
        replayed: v.get("replayed")?.as_u64()?,
        torn: v.get("torn")?.as_bool()?,
        epoch: v.get("epoch")?.as_u64()?,
        digest: v.get("digest")?.as_str()?.to_string(),
    })
}

/// `--crash-recover`: the kill-and-recover harness.
///
/// Fixes the expected outcome with a fault-free reference run, then for
/// every `--crash-points` spec spawns a child that must die at the
/// injected point (exit [`db_wal::CRASH_EXIT_CODE`]), restarts it
/// fault-free, and asserts the two durability guarantees: **zero lost
/// acks** (every write acknowledged before the kill is in the recovered
/// durable prefix) and **bit-identical state** (post-recovery fence
/// digest and epoch equal the reference). Recovery metrics are checked
/// through a parser-validated Prometheus scrape. Writes one JSON report
/// line (validated by [`db_bench::schema::validate_crash_line`]) and
/// exits nonzero on any violation.
fn crash_recover_main(a: &Args) -> ! {
    let fail = |msg: String| -> ! {
        eprintln!("serve_load: crash-recover: {msg}");
        std::process::exit(1);
    };
    let base = std::path::PathBuf::from(a.wal_dir.as_ref().unwrap());
    if let Err(e) = std::fs::create_dir_all(&base) {
        fail(format!("create {}: {e}", base.display()));
    }
    let exe = std::env::current_exe().unwrap();
    let spawn = |dir: &std::path::Path,
                 faults: Option<&str>,
                 acked: Option<&std::path::Path>,
                 scrape: Option<&std::path::Path>|
     -> (i32, Vec<u8>, Vec<u8>) {
        let mut cmd = std::process::Command::new(&exe);
        cmd.arg("--crash-child")
            .arg("--wal-dir")
            .arg(dir)
            .arg("--requests")
            .arg(a.requests.to_string())
            .arg("--seed")
            .arg(a.seed.to_string())
            .arg("--fsync")
            .arg(&a.fsync);
        if let Some(f) = faults {
            cmd.arg("--faults").arg(format!("seed={};{f}", a.seed));
        }
        if let Some(p) = acked {
            cmd.arg("--acked-file").arg(p);
        }
        if let Some(p) = scrape {
            cmd.arg("--scrape-out").arg(p);
        }
        match cmd.output() {
            Ok(out) => (out.status.code().unwrap_or(-1), out.stdout, out.stderr),
            Err(e) => fail(format!("spawn child: {e}")),
        }
    };
    // Reference: a fault-free run in its own subdir fixes the digest and
    // epoch every recovered run must reproduce bit-identically.
    let refdir = base.join("ref");
    let (code, stdout, stderr) = spawn(&refdir, None, None, None);
    if code != 0 {
        std::io::stderr().write_all(&stderr).ok();
        fail(format!("reference run exited {code}"));
    }
    let reference = parse_child_line(&stdout)
        .unwrap_or_else(|| fail("reference run printed no outcome".into()));
    if reference.acked != a.requests as u64 {
        fail(format!(
            "reference acked {} of {} writes",
            reference.acked, a.requests
        ));
    }
    let specs: Vec<&str> = a
        .crash_points
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .collect();
    if specs.is_empty() {
        fail("no --crash-points".into());
    }
    let mut points = Vec::new();
    let mut agg_zero_lost = true;
    let mut agg_digest = true;
    let mut saw_replay_metric = false;
    let mut saw_torn_metric = false;
    for (pi, spec) in specs.iter().enumerate() {
        let dir = base.join(format!("p{pi}"));
        let ackp = dir.join("acked");
        let scrapep = dir.join("scrape.prom");
        // First incarnation must die at the injected point — anything
        // else means the fault never fired and the point proves nothing.
        let (c1, _o1, e1) = spawn(&dir, Some(spec), Some(&ackp), None);
        if c1 != db_wal::CRASH_EXIT_CODE {
            std::io::stderr().write_all(&e1).ok();
            fail(format!("point '{spec}': child exited {c1}, expected crash"));
        }
        // Missing file ⇒ the kill landed before the first ack: 0 acked.
        let acked: u64 = std::fs::read_to_string(&ackp)
            .ok()
            .and_then(|s| s.trim().parse().ok())
            .unwrap_or(0);
        // Second incarnation recovers and finishes the mix fault-free.
        let (c2, o2, e2) = spawn(&dir, None, None, Some(&scrapep));
        if c2 != 0 {
            std::io::stderr().write_all(&e2).ok();
            fail(format!("point '{spec}': recovery child exited {c2}"));
        }
        let out = parse_child_line(&o2)
            .unwrap_or_else(|| fail(format!("point '{spec}': no outcome line")));
        let zero_lost = acked <= out.durable;
        let digest_match = out.digest == reference.digest && out.epoch == reference.epoch;
        agg_zero_lost &= zero_lost;
        agg_digest &= digest_match;
        if spec.starts_with("torn:") && !out.torn {
            fail(format!("point '{spec}': torn tail not detected"));
        }
        // The scrape must round-trip the shared parser and carry the
        // recovery counters the monitoring story advertises.
        let text = std::fs::read_to_string(&scrapep)
            .unwrap_or_else(|e| fail(format!("point '{spec}': read scrape: {e}")));
        let exp = db_metrics::parse_exposition(&text)
            .unwrap_or_else(|e| fail(format!("point '{spec}': scrape parse: {e}")));
        let metric = |n: &str| {
            exp.samples
                .iter()
                .find(|s| s.name == n)
                .map_or(0.0, |s| s.value)
        };
        if metric("db_wal_recovery_replayed_total") > 0.0 {
            saw_replay_metric = true;
        }
        if metric("db_wal_torn_truncated_total") > 0.0 {
            saw_torn_metric = true;
        }
        eprintln!(
            "point '{spec}': acked={acked} durable={} replayed={} torn={} \
             zero_lost_acks={zero_lost} digest_match={digest_match}",
            out.durable, out.replayed, out.torn
        );
        points.push(Value::Obj(vec![
            ("spec".into(), Value::Str((*spec).into())),
            ("exit_code".into(), Value::u64(c1 as u64)),
            ("acked".into(), Value::u64(acked)),
            ("durable".into(), Value::u64(out.durable)),
            ("replayed".into(), Value::u64(out.replayed)),
            ("torn".into(), Value::Bool(out.torn)),
            ("zero_lost_acks".into(), Value::Bool(zero_lost)),
            ("digest_match".into(), Value::Bool(digest_match)),
        ]));
    }
    if !saw_replay_metric {
        fail("no kill point exercised db_wal_recovery_replayed_total".into());
    }
    if specs.iter().any(|s| s.starts_with("torn:")) && !saw_torn_metric {
        fail("torn point did not surface db_wal_torn_truncated_total".into());
    }
    let report = Value::Obj(vec![
        (
            "schema_version".into(),
            Value::u64(db_bench::schema::CRASH_SCHEMA_VERSION),
        ),
        ("bench".into(), Value::Str("crash_recover".into())),
        ("seed".into(), Value::u64(a.seed)),
        ("requests".into(), Value::u64(a.requests as u64)),
        ("fsync".into(), Value::Str(a.fsync.clone())),
        ("digest_ref".into(), Value::Str(reference.digest.clone())),
        ("epoch_ref".into(), Value::u64(reference.epoch)),
        ("points".into(), Value::Arr(points)),
        ("zero_lost_acks".into(), Value::Bool(agg_zero_lost)),
        ("digest_match".into(), Value::Bool(agg_digest)),
    ]);
    if let Err(e) = db_bench::schema::validate_crash_line(&report) {
        fail(format!("report failed schema validation: {e}"));
    }
    std::fs::write(&a.out, report.to_json() + "\n")
        .unwrap_or_else(|e| fail(format!("write {}: {e}", a.out)));
    eprintln!(
        "crash_recover: {} point(s), zero_lost_acks={agg_zero_lost} digest_match={agg_digest} \
         -> {}",
        specs.len(),
        a.out
    );
    if !(agg_zero_lost && agg_digest) {
        std::process::exit(1);
    }
    std::process::exit(0);
}

fn main() {
    let a = parse_args();
    if a.crash_child {
        crash_child_main(&a);
    }
    if a.crash_recover {
        crash_recover_main(&a);
    }
    let reqs = generate(&a);
    let fence = fence_requests(&a, reqs.len() as u64);
    let mut reports = Vec::new();
    if let Some(addr) = &a.addr {
        for run in 0..a.runs.max(1) {
            eprintln!("serve_load: TCP run {} against {addr}...", run + 1);
            reports.push(run_tcp(&a, &reqs, addr));
        }
        if a.shutdown {
            if let Ok(stream) = TcpStream::connect(addr.as_str()) {
                let mut writer = stream.try_clone().expect("clone stream");
                let mut reader = BufReader::new(stream);
                let _ = roundtrip_line(&mut reader, &mut writer, r#"{"op":"shutdown"}"#);
            }
        }
    } else {
        for run in 0..a.runs.max(1) {
            eprintln!(
                "serve_load: in-process run {} ({} requests, {} workers)...",
                run + 1,
                a.requests,
                a.workers
            );
            reports.push(run_in_process(&a, &reqs, &fence, run));
        }
    }
    let deterministic = reports.windows(2).all(|w| w[0].digest == w[1].digest);
    let doc = report_value(&a, &reports, deterministic);
    // The emitter validates its own line before writing it: a harness
    // bug fails the bench run rather than corrupting the report file.
    if let Err(e) = db_bench::schema::validate_serve_line(&doc) {
        eprintln!("serve_load: BUG — emitted line violates its own schema: {e}");
        std::process::exit(1);
    }
    // --append adds this report as one more NDJSON line, so one file
    // can accumulate several configurations (e.g. the baseline corpus
    // run plus a packed-store run).
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .write(true)
        .append(a.append)
        .truncate(!a.append)
        .open(&a.out)
        .unwrap_or_else(|e| {
            eprintln!("serve_load: cannot write {}: {e}", a.out);
            std::process::exit(2);
        });
    f.write_all(doc.to_json().as_bytes()).expect("write report");
    f.write_all(b"\n").expect("write report");
    for (i, r) in reports.iter().enumerate() {
        eprintln!(
            "run {}: {} ok / {} expired / {} rejected / {} errors / {} failed; \
             p50 {} us, p99 {} us, p99.9 {} us, max {} us, {:.0} req/s, \
             hit rate {:.3}, digest {:016x}",
            i + 1,
            r.ok,
            r.expired,
            r.rejected,
            r.errors,
            r.failed,
            quantile_exact(&r.latencies_us, 0.50),
            quantile_exact(&r.latencies_us, 0.99),
            r.p999_us,
            r.max_us,
            (r.ok + r.expired + r.rejected + r.errors + r.failed) as f64
                / r.wall.as_secs_f64().max(1e-9),
            r.cache_hit_rate,
            r.digest,
        );
    }
    // Under chaos, retry-exhausted failures and breaker rejections are
    // the fault plan doing its job; invalid-request errors never are.
    let tolerate = a.faults.is_some() || a.allow_failed;
    let bad = reports
        .iter()
        .any(|r| r.errors > 0 || (!tolerate && (r.rejected > 0 || r.failed > 0)));
    if bad {
        eprintln!("serve_load: FAILED — unexpected error/rejected/failed responses present");
        std::process::exit(1);
    }
    if !deterministic {
        eprintln!("serve_load: FAILED — outcome digests differ across runs");
        std::process::exit(1);
    }
    // Write mode also gates on the scrape: a run that claimed to mix in
    // writes but published no epochs means the delta path never ran.
    if a.write_frac > 0.0
        && reports
            .iter()
            .any(|r| r.delta.is_none_or(|(epochs, _)| epochs == 0))
    {
        eprintln!("serve_load: FAILED — write mode but db_delta_epochs_published_total is 0");
        std::process::exit(1);
    }
    eprintln!("serve_load: OK — report written to {}", a.out);
}
