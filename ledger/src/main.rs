//! `ledger` — the repository's benchmark: end-to-end and per-layer
//! numbers for the served DFS and the GPU simulator.
//!
//! ```text
//! cargo run --release --offline --manifest-path ledger/Cargo.toml -- \
//!     --workload small-mix-tcp --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` sets up the workload five times (the median is
//! `setup_s`), then drives it in a closed loop for `--seconds` and prints
//! the end-to-end metrics. `--trace 1` prints the per-layer metrics
//! instead (see `layers.rs`). Every answer is checked; the last stdout
//! line is one JSON object, and any wrong answer makes the exit code 1.
//! See README.md for the workloads and what each metric should move.

mod alloc;
mod layers;
mod reference;
mod stats;
mod workload;

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use workload::{check, check_fence, drive, setup, Kind, Live, Pass, Stop};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Default flight-recorder ring per worker (the program's default).
const FLIGHT_DEFAULT: usize = 4096;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Args {
    let die = |msg: &str| -> ! {
        eprintln!("ledger: {msg}");
        eprintln!(
            "usage: ledger --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
            Kind::ALL.map(Kind::name).join("|")
        );
        std::process::exit(2);
    };
    let mut kind = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10.0f64, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it
            .next()
            .unwrap_or_else(|| die(&format!("missing value for {flag}")));
        match flag.as_str() {
            "--workload" => {
                kind = Some(
                    Kind::parse(&val).unwrap_or_else(|| die(&format!("unknown workload '{val}'"))),
                )
            }
            "--seed" => seed = val.parse().unwrap_or_else(|_| die("bad --seed")),
            "--seconds" => {
                seconds = val
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .unwrap_or_else(|| die("bad --seconds"))
            }
            "--trace" => {
                trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => die("bad --trace (want 0 or 1)"),
                }
            }
            other => die(&format!("unknown flag '{other}'")),
        }
    }
    Args {
        kind: kind.unwrap_or_else(|| die("missing --workload")),
        seed,
        seconds,
        trace,
    }
}

/// Scratch directory inside the working directory (packs, WAL dirs),
/// removed when the run ends.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new(kind: Kind) -> WorkDir {
        let root = std::env::current_dir()
            .expect("working directory")
            .join(".bench_work");
        let dir = root.join(format!("{}-{}", kind.name(), std::process::id()));
        std::fs::create_dir_all(&dir).expect("create the scratch directory");
        WorkDir(dir)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Only succeeds once no concurrent run still uses it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// One metric of the result line.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// What produced a result: host, toolchain, code and inputs.
fn fingerprint(args: &Args) {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let run = |cmd: &str, args: &[&str]| {
        std::process::Command::new(cmd)
            .args(args)
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into())
    };
    let commit = run("git", &["rev-parse", "--short=12", "HEAD"]);
    let rustc = run("rustc", &["-V"]);
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!(
        "# fingerprint: workload={} seed={} seconds={} trace={} nproc={nproc} \
         commit={commit} source={:016x} rustc=\"{rustc}\" profile={profile}",
        args.kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        source_digest(Path::new("crates")),
    );
}

/// FNV-1a over every file under `dir` (path and bytes, sorted by path):
/// identifies the program's code where no git metadata exists.
fn source_digest(dir: &Path) -> u64 {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else {
            return;
        };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(dir, &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let bytes = std::fs::read(&f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    }
    h
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Prints `name value unit` plus the tail's percentile and sample counts.
fn latency_lines(label: &str, lats: &[f64]) -> (f64, f64) {
    let s = stats::sorted(lats.iter().copied());
    let (p50, t) = (stats::p50(&s), stats::tail(&s));
    println!("{label}_p50_ms {p50:.4} ms (n={})", s.len());
    println!(
        "{label}_tail_ms {:.4} ms (p{:.1}, {} samples beyond, n={})",
        t.value,
        t.pct,
        t.beyond,
        s.len()
    );
    (p50, t.value)
}

/// Read latencies (ms) of a pass: every request that is not a write.
pub fn read_lats(pass: &Pass) -> Vec<f64> {
    pass.samples
        .iter()
        .filter(|s| !s.is_write())
        .map(|s| ms(s.lat))
        .collect()
}

/// sim-rep6 outputs recorded from earlier runs, one `graph root cycles
/// visited tree_digest` line per graph. The roots do not depend on the
/// seed, so every run must reproduce them exactly.
const SIM_REFERENCE: &str = include_str!("../sim_reference.txt");

fn sim_line(live: &Live, s: &workload::Sample) -> String {
    let (cycles, digest) = s.sim.expect("sim sample");
    let visited = s
        .resp
        .payload
        .get("visited")
        .and_then(|v| v.as_u64())
        .unwrap_or(0);
    let root = live.corpus(&s.req.graph).roots[0];
    format!("{} {root} {cycles} {visited} {digest:016x}", s.req.graph)
}

fn check_sim_record(live: &Live, pass: &Pass) -> u64 {
    let mut wrong = 0;
    for s in &pass.samples {
        let mine = sim_line(live, s);
        let prefix = format!("{} ", s.req.graph);
        match SIM_REFERENCE.lines().find(|l| l.starts_with(&prefix)) {
            Some(line) if line.trim() == mine => {}
            other => {
                wrong += 1;
                eprintln!("ledger: sim output '{mine}' differs from the record {other:?}");
            }
        }
    }
    wrong
}

/// The untraced run: end-to-end metrics.
fn untraced(args: &Args, work: &Path) -> (Vec<Metric>, u64, u64) {
    let mut setups = Vec::new();
    let mut live = None;
    for rep in 0..SETUPS {
        let t = Instant::now();
        let l = setup(args.kind, args.seed, work, FLIGHT_DEFAULT);
        setups.push(t.elapsed().as_secs_f64());
        if rep + 1 < SETUPS {
            l.stop();
        } else {
            live = Some(l);
        }
    }
    let mut live = live.expect("at least one set-up");
    live.prepare();
    if let Some((n, arcs, bytes)) = live.pack {
        println!("# pack: vertices={n} arcs={arcs} bytes={bytes}");
    }
    if !alloc::reset_peak_rss() {
        println!("# peak_rss_mb includes the set-ups: the peak mark cannot be reset here");
    }
    let pass = drive(
        &mut live,
        Stop::Window(Duration::from_secs_f64(args.seconds)),
    );
    let mut wrong = check(&live, &pass);
    let mut attempted = pass.samples.len() as u64;
    match args.kind {
        Kind::DeltaRwWal => {
            let (fence, bad) = check_fence(&live, &pass);
            wrong += bad;
            attempted += fence.len() as u64;
            let w: Vec<f64> = pass
                .samples
                .iter()
                .filter(|s| s.is_write())
                .map(|s| ms(s.lat))
                .collect();
            latency_lines("write", &w);
        }
        Kind::SimRep6 => {
            wrong += check_sim_record(&live, &pass);
            let cycles: u64 = pass.samples.iter().filter_map(|s| s.sim).map(|s| s.0).sum();
            let sim_wall: f64 = pass.samples.iter().map(|s| s.lat.as_secs_f64()).sum();
            println!(
                "sim_mcycles_per_s {:.4} Mcycles/s",
                cycles as f64 / sim_wall / 1e6
            );
            for s in &pass.samples {
                println!("# sim: {} wall_ms={:.1}", sim_line(&live, s), ms(s.lat));
            }
        }
        Kind::SmallMixTcp | Kind::Social1m => {}
    }
    let (lats, throughput) = if args.kind == Kind::SimRep6 {
        let per_graph = workload::sim_graph_lats(&pass);
        let pass_s = per_graph.iter().sum::<f64>() / 1e3;
        let rate = per_graph.len() as f64 / pass_s;
        (per_graph, rate)
    } else {
        (read_lats(&pass), pass.throughput())
    };
    let (p50, tail) = latency_lines("read", &lats);
    println!(
        "failed_frac {:.6} ratio ({wrong} of {attempted})",
        wrong as f64 / attempted.max(1) as f64
    );
    if let Some(s) = &live.server {
        let m = s.handle().metrics();
        println!(
            "# server: cache hits={} misses={} steals={} completed={}",
            m.cache_hits, m.cache_misses, m.steals, m.completed
        );
    }
    live.stop();
    let lines = vec![
        metric(
            "setup_s",
            stats::p50(&stats::sorted(setups.iter().copied())),
            "s",
        ),
        metric("throughput_rps", throughput, "req/s"),
        metric("read_p50_ms", p50, "ms"),
        metric("read_tail_ms", tail, "ms"),
        metric("peak_rss_mb", alloc::peak_rss_mb(), "MB"),
    ];
    println!(
        "# setups: {}",
        setups
            .iter()
            .map(|s| format!("{s:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    (lines, attempted, wrong)
}

fn main() {
    let args = parse_args();
    let work = WorkDir::new(args.kind);
    fingerprint(&args);
    let (metrics, attempted, failed) = if args.trace {
        layers::traced(args.kind, args.seed, args.seconds, &work.0)
    } else {
        untraced(&args, &work.0)
    };
    let finite = metrics.iter().all(|m| m.value.is_finite());
    let correct = failed == 0 && finite && attempted > 0;
    let mut body = Vec::new();
    for m in &metrics {
        if !m.value.is_finite() {
            eprintln!("ledger: metric {} is not finite", m.name);
        }
        println!("{} {} {}", m.name, m.value, m.unit);
        body.push(format!(
            "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
            m.name,
            if m.value.is_finite() { m.value } else { 0.0 },
            m.unit
        ));
    }
    drop(work);
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        body.join(",")
    );
    if !correct {
        std::process::exit(1);
    }
}
