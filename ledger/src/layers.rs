//! The traced run: per-layer numbers for one workload.
//!
//! 1. Pass A serves the workload untraced for half of `--seconds`.
//! 2. Pass B serves the same requests again on a fresh server whose
//!    flight recorder is sized so no span is dropped, and reads the
//!    spans (`flight_dump`) and counters (`prometheus`) the program
//!    already emits. Its digests must match pass A's. For sim-rep6,
//!    pass B reruns the traversals under a `CycleProfiler`, and a
//!    served pass of the same traversals (sim engine) supplies the pool
//!    spans.
//! 3. A replay calls each layer's public functions on pass A's first
//!    requests, one at a time, for another half of `--seconds`.
//! 4. On small-mix-tcp and delta-rw-wal, delta-rw-wal's request stream
//!    is replayed through `DeltaRegistry::execute` with a WAL.
//! 5. Probes time packing, loading, cold resolves and the apps calls on
//!    each graph of the workload.
//!
//! Every JSON metric is measured on every workload, on that workload's
//! own requests and graphs. What only some workloads reach (the delta
//! write path, the WAL, per-graph and per-engine splits) is printed as
//! `#` lines above the result.

use crate::reference::reach_csr;
use crate::workload::{
    check, check_fence, drive, setup, sim_config, tree_digest, Corpus, Kind, Live, Pass, Sample,
    Stop,
};
use crate::{alloc, metric, read_lats, stats, Metric};
use db_core::native::{NativeConfig, NativeEngine};
use db_core::native_lockfree::LockFreeEngine;
use db_core::CancelToken;
use db_gpu_sim::{CycleProfiler, MachineModel, SimPhase};
use db_serve::{CorpusCache, EngineKind, Request, Response, Status, TcpServer, Workload};
use db_span::{FlightDump, SpanKind};
use db_trace::json::Value;
use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::time::{Duration, Instant};

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn p50_of(xs: impl IntoIterator<Item = f64>) -> f64 {
    stats::p50(&stats::sorted(xs))
}

fn tail_of(xs: impl IntoIterator<Item = f64>) -> f64 {
    stats::tail(&stats::sorted(xs)).value
}

/// Flight spans of one served pass, by kind: durations in µs.
struct Spans {
    by_kind: HashMap<SpanKind, Vec<f64>>,
    dropped: u64,
}

impl Spans {
    fn of(dump: &FlightDump) -> Spans {
        let mut by_kind: HashMap<SpanKind, Vec<f64>> = HashMap::new();
        for s in &dump.spans {
            by_kind
                .entry(s.kind)
                .or_default()
                .push(s.t1_ns.saturating_sub(s.t0_ns) as f64 / 1e3);
        }
        Spans {
            by_kind,
            dropped: dump.dropped,
        }
    }

    fn p50(&self, k: SpanKind) -> f64 {
        self.by_kind
            .get(&k)
            .map_or(0.0, |v| p50_of(v.iter().copied()))
    }

    fn tail(&self, k: SpanKind) -> f64 {
        self.by_kind
            .get(&k)
            .map_or(0.0, |v| tail_of(v.iter().copied()))
    }

    fn count(&self, k: SpanKind) -> usize {
        self.by_kind.get(&k).map_or(0, Vec::len)
    }

    /// Execution on the worker: an engine attempt on a frozen corpus,
    /// or the pinned read / epoch publish on a delta corpus.
    fn exec(&self) -> Vec<f64> {
        [SpanKind::Attempt, SpanKind::EpochPin, SpanKind::DeltaWrite]
            .iter()
            .filter_map(|k| self.by_kind.get(k))
            .flatten()
            .copied()
            .collect()
    }
}

/// Counter values from a parser-validated Prometheus scrape (summed
/// over label sets).
fn scrape(h: &db_serve::ServeHandle) -> HashMap<String, f64> {
    let exp = db_metrics::parse_exposition(&h.prometheus()).expect("scrape parses");
    let mut out: HashMap<String, f64> = HashMap::new();
    for s in exp.samples {
        *out.entry(s.name).or_default() += s.value;
    }
    out
}

/// What a served traced pass yields.
struct Served {
    pass: Pass,
    spans: Spans,
    counters: HashMap<String, f64>,
    /// Client round trip minus server-side latency, µs.
    wire: Vec<f64>,
    fence: Vec<Sample>,
}

/// Serves requests `0..n` on a fresh server with a large flight ring.
fn served_pass(
    kind: Kind,
    seed: u64,
    work: &Path,
    n: u64,
    refs: Vec<Corpus>,
) -> (Served, u64, Vec<Corpus>) {
    // Each request leaves at most ~8 spans on the ring of the worker
    // that ran it; sized for all of them on one worker.
    let cap = 8 * n as usize + 4096;
    let mut live = setup(kind, seed, work, cap);
    adopt(&mut live, refs);
    let pass = drive(&mut live, Stop::Count(n));
    let mut wrong = check(&live, &pass);
    let mut fence = Vec::new();
    if kind == Kind::DeltaRwWal {
        let (f, bad) = check_fence(&live, &pass);
        wrong += bad;
        fence = f;
    }
    let h = live.handle();
    let dump = h.flight_dump();
    let counters = scrape(&h);
    let mut wire: Vec<f64> = if kind == Kind::SmallMixTcp {
        pass.samples
            .iter()
            .map(|s| us(s.lat) - s.resp.latency_us as f64)
            .collect()
    } else {
        Vec::new()
    };
    if wire.is_empty() {
        let reads: Vec<&Request> = pass
            .samples
            .iter()
            .filter(|s| !s.is_write())
            .map(|s| &s.req)
            .take(4)
            .collect();
        let (w, bad) = wire_probe(&h, &reads);
        wire = w;
        wrong += bad;
    }
    let spans = Spans::of(&dump);
    live.stop_server();
    let refs = std::mem::take(&mut live.corpora);
    (
        Served {
            pass,
            spans,
            counters,
            wire,
            fence,
        },
        wrong,
        refs,
    )
}

/// In-process workloads: a few of their own reads over a loopback
/// connection to the same server, for what the wire would add (client
/// round trip minus server-side latency, µs). Returns (samples, wrong).
fn wire_probe(h: &db_serve::ServeHandle, reqs: &[&Request]) -> (Vec<f64>, u64) {
    let tcp = TcpServer::bind(h.clone(), "127.0.0.1:0").expect("bind loopback");
    let mut conn = crate::workload::Conn::open(tcp.addr());
    let mut wire = Vec::new();
    let mut wrong = 0;
    for req in reqs {
        let t = Instant::now();
        let resp = conn.call(req);
        let lat = us(t.elapsed());
        if resp.status != Status::Ok {
            wrong += 1;
        }
        wire.push(lat - resp.latency_us as f64);
    }
    (wire, wrong)
}

/// Moves root pools and reference answers from an earlier set-up.
fn adopt(live: &mut Live, refs: Vec<Corpus>) {
    for (c, old) in live.corpora.iter_mut().zip(refs) {
        c.roots = old.roots;
        c.refs = old.refs;
        c.apps = old.apps;
    }
}

fn digests(samples: &[Sample]) -> BTreeMap<u64, String> {
    samples
        .iter()
        .map(|s| (s.req.id, s.resp.digest()))
        .collect()
}

/// Per-request layer timings from the replay.
#[derive(Default)]
struct Replay {
    codec: Vec<f64>,
    line_bytes: Vec<f64>,
    resolve: Vec<f64>,
    validate: Vec<f64>,
    execute: Vec<f64>,
    overhead: Vec<f64>,
    allocs: Vec<f64>,
    alloc_bytes_per_vertex: Vec<f64>,
    /// engine → (arcs, µs) per call.
    kernel: BTreeMap<&'static str, Vec<(f64, f64)>>,
    sim_cycles: u64,
    sim_walls: Vec<f64>,
    phases: [u64; SimPhase::COUNT],
    /// Per-graph splits, printed as `# ` lines: (graph, what) → µs.
    split: BTreeMap<(String, String), Vec<f64>>,
    wrong: u64,
    done: u64,
}

const ENGINES: [(&str, EngineKind); 4] = [
    ("native", EngineKind::Native),
    ("lockfree", EngineKind::LockFree),
    ("partitioned", EngineKind::Partitioned),
    ("serial", EngineKind::Serial),
];

/// Million arcs scanned per second over `(arcs, µs)` calls. Arcs are
/// the out-degrees of the visited vertices (the reference's count), the
/// same for every engine, so engines compare on equal work.
fn mteps(calls: &[(f64, f64)]) -> f64 {
    let (arcs, t) = calls
        .iter()
        .fold((0.0, 0.0), |(a, b), &(x, y)| (a + x, b + y));
    arcs / t.max(1e-9)
}

/// One traversal through an engine's public entry, as `exec` calls it;
/// returns the visited count.
fn kernel(e: EngineKind, g: &db_graph::CsrGraph, root: u32) -> u64 {
    let count = |v: &[bool]| v.iter().filter(|&&b| b).count() as u64;
    let token = CancelToken::new();
    match e {
        EngineKind::Native => count(
            &NativeEngine::new(NativeConfig::default())
                .run_cancellable(g, root, &token)
                .visited,
        ),
        EngineKind::LockFree => count(
            &LockFreeEngine::new(NativeConfig::default())
                .run_cancellable(g, root, &token)
                .visited,
        ),
        EngineKind::Partitioned => {
            let spec = db_store::partition_by_arcs(g, 4);
            let (v, _, _) =
                db_store::run_partitioned(g, &spec, root, &db_trace::tracer::NullTracer, &|| false);
            count(&v)
        }
        EngineKind::Serial => {
            count(&db_baselines::serial::run(g, root, &MachineModel::a100()).visited)
        }
        EngineKind::Sim => unreachable!("the simulator is timed through run_sim_profiled"),
    }
}

fn replay(
    live: &Live,
    reqs: &[Request],
    budget: Duration,
    with_sim: bool,
    cache_keys: &HashMap<String, String>,
) -> Replay {
    let mut r = Replay::default();
    let cache = CorpusCache::new(256 << 20);
    let (cfg, m) = sim_config();
    let start = Instant::now();
    for req in reqs.iter().filter(|q| !q.workload.is_write()) {
        if r.done > 0 && start.elapsed() >= budget {
            break;
        }
        r.done += 1;
        let c = live.corpus(&req.graph);
        let g = &c.graph;
        // Codec: what the NDJSON path does to a request and its reply.
        let t = Instant::now();
        let line = req.to_value().to_json();
        let back = Request::from_value(&Value::parse(&line).expect("request JSON"));
        let codec_req = t.elapsed();
        assert!(back.is_ok(), "request round-trips");
        let token = CancelToken::new();
        let t = Instant::now();
        db_core::validate_graph(g).expect("served graphs are valid");
        let validate = us(t.elapsed());
        r.validate.push(validate);
        r.split
            .entry((c.name.clone(), "exec.validate_us".into()))
            .or_default()
            .push(validate);
        let ((resp, exec_t), allocs, bytes) = alloc::measure(|| {
            let t = Instant::now();
            let resp = db_serve::exec::execute(req, g, &token);
            (resp, t.elapsed())
        });
        r.execute.push(us(exec_t));
        r.allocs.push(allocs as f64);
        r.alloc_bytes_per_vertex
            .push(bytes as f64 / g.num_vertices().max(1) as f64);
        let t = Instant::now();
        let rline = resp.to_value().to_json();
        let back = Response::from_value(&Value::parse(&rline).expect("response JSON"));
        r.codec.push(us(codec_req + t.elapsed()));
        assert!(back.is_ok(), "response round-trips");
        r.line_bytes.push((line.len() + rline.len() + 2) as f64);
        if resp.status != Status::Ok {
            r.wrong += 1;
        }
        // Corpus: warm resolve of the frozen key this request reads.
        if let Some(key) = cache_keys.get(&req.graph) {
            let _ = cache.resolve(key).expect("corpus key resolves");
            let t = Instant::now();
            let _ = cache.resolve(key).expect("corpus key resolves");
            r.resolve.push(us(t.elapsed()));
        }
        let root = match req.workload {
            Workload::Dfs { root } | Workload::Reach { root, .. } => root,
            _ => continue,
        };
        let t = Instant::now();
        let reference = reach_csr(g, root);
        let ref_us = us(t.elapsed());
        r.overhead.push(us(exec_t) - ref_us);
        r.kernel
            .entry("reference")
            .or_default()
            .push((reference.arcs as f64, ref_us));
        for (name, e) in ENGINES {
            let t = Instant::now();
            let visited = kernel(e, g, root);
            let call = us(t.elapsed());
            if visited != reference.visited {
                r.wrong += 1;
                eprintln!(
                    "ledger: {name} visited {visited} from {root} on {}, reference {}",
                    c.name, reference.visited
                );
            }
            r.kernel
                .entry(name)
                .or_default()
                .push((reference.arcs as f64, call));
            r.split
                .entry((c.name.clone(), format!("kernel.{name}.call_us")))
                .or_default()
                .push(call);
        }
        if with_sim {
            let prof = CycleProfiler::new(cfg.blocks as usize);
            let t = Instant::now();
            let out =
                db_core::run_sim_profiled(g, root, &cfg, &m, &db_trace::tracer::NullTracer, &prof);
            let wall = t.elapsed().as_secs_f64();
            r.sim_cycles += out.stats.cycles;
            r.sim_walls.push(wall * 1e3);
            for (k, p) in SimPhase::ALL.iter().enumerate() {
                r.phases[k] += prof.total_cycles(*p);
            }
        }
        r.split
            .entry((
                c.name.clone(),
                format!("exec.execute_us.{}", req.engine.name()),
            ))
            .or_default()
            .push(us(exec_t));
    }
    r
}

/// Per-graph probes: packing, loading, apps.
struct Probes {
    pack_s: f64,
    load_ms: f64,
    bytes: u64,
    arcs: u64,
    apps: Vec<f64>,
    cold_ms: Vec<f64>,
    /// Request graph key → frozen corpus key for resolve timing.
    cache_keys: HashMap<String, String>,
}

fn probes(live: &Live, work: &Path) -> Probes {
    let mut p = Probes {
        pack_s: 0.0,
        load_ms: 0.0,
        bytes: 0,
        arcs: 0,
        apps: Vec::new(),
        cold_ms: Vec::new(),
        cache_keys: HashMap::new(),
    };
    let cache = CorpusCache::new(256 << 20);
    for c in &live.corpora {
        let g = &c.graph;
        let path = work.join(format!("probe-{}.dbsg", c.name));
        let t = Instant::now();
        let sum = db_store::pack_graph(g, &path, db_store::PackOptions::default()).expect("pack");
        p.pack_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let loaded = db_store::load(&path).expect("load");
        p.load_ms += t.elapsed().as_secs_f64() * 1e3;
        p.bytes += loaded.file_bytes();
        p.arcs += sum.arcs;
        drop(loaded);
        // The key a server resolves for this graph: its own for frozen
        // corpora, the pack for sim graphs (a suite name would rebuild
        // the graph), the base key under a delta corpus.
        let key = match live.kind {
            Kind::SimRep6 => format!("store:{}", path.display()),
            Kind::DeltaRwWal => c.key.trim_start_matches(db_serve::DELTA_PREFIX).to_string(),
            _ => c.key.clone(),
        };
        let t = Instant::now();
        let _ = cache.resolve(&key).expect("corpus key resolves");
        p.cold_ms.push(t.elapsed().as_secs_f64() * 1e3);
        p.cache_keys.insert(c.key.clone(), key);
        let apps: &[&str] = if g.is_directed() {
            &["scc", "topo"]
        } else {
            &["articulation"]
        };
        for name in apps {
            let t = Instant::now();
            match *name {
                "scc" => drop(db_apps::scc::scc(g)),
                "topo" => drop(db_apps::topo::topo_sort(g)),
                _ => drop(db_apps::articulation::articulation_points(g)),
            }
            let call = us(t.elapsed());
            p.apps.push(call);
            println!("# apps: {name} on {}: {call:.1} us", c.name);
        }
        println!(
            "# store: {} packed {} arcs into {} bytes; cold resolve {:.3} ms",
            c.name,
            sum.arcs,
            sum.file_bytes,
            p.cold_ms.last().copied().unwrap_or(0.0)
        );
    }
    p
}

/// sim-rep6's traced pass: the same traversals under a cycle profiler.
fn profiled(live: &Live, pass: &Pass) -> (Vec<f64>, u64, [u64; SimPhase::COUNT], u64) {
    let (cfg, m) = sim_config();
    let mut walls = Vec::new();
    let mut cycles = 0;
    let mut phases = [0u64; SimPhase::COUNT];
    let mut wrong = 0;
    for s in &pass.samples {
        let c = live.corpus(&s.req.graph);
        let prof = CycleProfiler::new(cfg.blocks as usize);
        let t = Instant::now();
        let out = db_core::run_sim_profiled(
            &c.graph,
            c.roots[0],
            &cfg,
            &m,
            &db_trace::tracer::NullTracer,
            &prof,
        );
        walls.push(t.elapsed().as_secs_f64() * 1e3);
        // Profiling is observational: outputs must equal the plain run's.
        if Some((out.stats.cycles, tree_digest(&out.parent))) != s.sim {
            wrong += 1;
            eprintln!(
                "ledger: profiled sim of {} differs from the plain run",
                c.name
            );
        }
        cycles += out.stats.cycles;
        for (k, p) in SimPhase::ALL.iter().enumerate() {
            phases[k] += prof.total_cycles(*p);
        }
        println!(
            "# sim: {} mcycles_per_s {:.4} wall_ms {:.3}",
            c.name,
            out.stats.cycles as f64 / walls.last().unwrap() / 1e3,
            walls.last().unwrap()
        );
    }
    (walls, cycles, phases, wrong)
}

/// Serves sim-rep6's traversals (sim engine) through a 2-worker server
/// over the probe packs, for the pool's spans.
fn sim_served(pass: &Pass, keys: &HashMap<String, String>) -> (Served, u64) {
    let server = db_serve::Server::start(db_serve::ServeConfig {
        workers: crate::workload::WORKERS,
        flight: db_span::FlightConfig {
            per_worker_capacity: 64 * pass.samples.len() + 4096,
            ..db_span::FlightConfig::default()
        },
        ..db_serve::ServeConfig::default()
    });
    let h = server.handle();
    let mut samples = Vec::new();
    let mut wrong = 0;
    let start = Instant::now();
    for s in &pass.samples {
        let mut req = s.req.clone();
        req.graph = keys[&s.req.graph].clone();
        let t = Instant::now();
        let resp = h.run(req.clone());
        let lat = t.elapsed();
        if resp.payload.get("visited") != s.resp.payload.get("visited") || resp.status != Status::Ok
        {
            wrong += 1;
        }
        samples.push(Sample {
            req,
            resp,
            lat,
            done: start.elapsed().as_secs_f64(),
            sim: None,
        });
    }
    let dump = h.flight_dump();
    let counters = scrape(&h);
    // The wire probe sends the cheapest traversal twice: each costs a
    // full simulation.
    let cheapest = samples
        .iter()
        .min_by_key(|s| s.lat)
        .map(|s| s.req.clone())
        .expect("at least one traversal");
    let (wire, bad) = wire_probe(&h, &[&cheapest, &cheapest]);
    wrong += bad;
    server.shutdown();
    (
        Served {
            pass: Pass { samples },
            spans: Spans::of(&dump),
            counters,
            wire,
            fence: Vec::new(),
        },
        wrong,
    )
}

pub fn traced(kind: Kind, seed: u64, seconds: f64, work: &Path) -> (Vec<Metric>, u64, u64) {
    let half = Duration::from_secs_f64(seconds / 2.0);
    let t = Instant::now();
    let mut live = setup(kind, seed, work, crate::FLIGHT_DEFAULT);
    let setup_s = t.elapsed().as_secs_f64();
    if let Some((n, arcs, bytes)) = live.pack {
        println!("# pack: vertices={n} arcs={arcs} bytes={bytes}");
    }
    live.prepare();
    // sim-rep6: one pass (six traversals) is already several seconds.
    let pass_a = match kind {
        Kind::SimRep6 => {
            let one_pass = Stop::Count(live.corpora.len() as u64);
            drive(&mut live, one_pass)
        }
        _ => drive(&mut live, Stop::Window(half)),
    };
    let mut wrong = check(&live, &pass_a);
    let mut attempted = pass_a.samples.len() as u64;
    let n = attempted;
    let mut fence_a = Vec::new();
    if kind == Kind::DeltaRwWal {
        let (f, bad) = check_fence(&live, &pass_a);
        wrong += bad;
        attempted += f.len() as u64;
        fence_a = f;
    }
    let a_p50 = p50_of(read_lats(&pass_a));
    let probes = probes(&live, work);
    live.stop_server();

    // The served traced pass.
    let (served, served_p50, overhead_ratio, sim_figures);
    if kind == Kind::SimRep6 {
        let (walls, cycles, phases, bad) = profiled(&live, &pass_a);
        wrong += bad;
        let plain: f64 = pass_a
            .samples
            .iter()
            .map(|s| s.lat.as_secs_f64() * 1e3)
            .sum();
        overhead_ratio = walls.iter().sum::<f64>() / plain;
        sim_figures = Some((walls, cycles, phases));
        let (s, bad) = sim_served(&pass_a, &probes.cache_keys);
        wrong += bad;
        attempted += s.pass.samples.len() as u64;
        served_p50 = p50_of(read_lats(&s.pass));
        served = s;
    } else {
        let refs = std::mem::take(&mut live.corpora);
        let (s, bad, refs) = served_pass(kind, seed, work, n, refs);
        live.corpora = refs;
        wrong += bad;
        attempted += s.pass.samples.len() as u64 + s.fence.len() as u64;
        // Same requests, same answers: delta reads race the writes, so
        // there the post-drain fences are compared instead.
        let (da, db) = if kind == Kind::DeltaRwWal {
            (digests(&fence_a), digests(&s.fence))
        } else {
            (digests(&pass_a.samples), digests(&s.pass.samples))
        };
        if da != db {
            wrong += 1;
            eprintln!("ledger: traced pass digests differ from the untraced pass");
        }
        served_p50 = p50_of(read_lats(&s.pass));
        overhead_ratio = served_p50 / a_p50;
        served = s;
        sim_figures = None;
    }

    let reqs: Vec<Request> = pass_a.samples.iter().map(|s| s.req.clone()).collect();
    // sim-rep6's profiled pass already covers the simulator.
    let with_sim = kind != Kind::SimRep6;
    let r = replay(&live, &reqs, half, with_sim, &probes.cache_keys);
    wrong += r.wrong;
    for ((graph, what), v) in &r.split {
        println!(
            "# {graph}: {what} {:.1} us (p50 of {})",
            p50_of(v.iter().copied()),
            v.len()
        );
    }
    // The delta layer and the WAL: delta-rw-wal's own stream, and on
    // small-mix-tcp the delta stream over the same three graphs, so the
    // layer is measured on a workload BENCHMARK.json lists.
    let delta_reqs: Vec<Request> = match kind {
        Kind::DeltaRwWal => {
            delta_served_lines(&served);
            reqs.iter().take(DELTA_REPLAY as usize).cloned().collect()
        }
        Kind::SmallMixTcp => {
            let d = Live::small_offline(Kind::DeltaRwWal, seed);
            (0..DELTA_REPLAY).map(|i| d.request(i)).collect()
        }
        Kind::Social1m | Kind::SimRep6 => Vec::new(),
    };
    if !delta_reqs.is_empty() {
        wrong += delta_replay(&delta_reqs, work);
    }

    let sp = &served.spans;
    let queue = sp.p50(SpanKind::Queue);
    let attempt = p50_of(sp.exec());
    let store = sp.p50(SpanKind::StoreLoad);
    let wire_p50 = p50_of(served.wire.iter().copied());
    let on_path_wire = if kind == Kind::SmallMixTcp {
        wire_p50
    } else {
        0.0
    };
    let requests = served.pass.samples.len().max(1) as f64;
    println!(
        "# flight: spans recorded, dropped={} (queue {} exec {} store {})",
        sp.dropped,
        sp.count(SpanKind::Queue),
        sp.exec().len(),
        sp.count(SpanKind::StoreLoad)
    );
    if sp.dropped > 0 {
        wrong += 1;
        eprintln!("ledger: the flight recorder dropped {} spans", sp.dropped);
    }
    println!(
        "# net: wire samples {} ({} the request path)",
        served.wire.len(),
        if kind == Kind::SmallMixTcp {
            "on"
        } else {
            "off"
        }
    );
    let c = &served.counters;
    let get = |k: &str| c.get(k).copied().unwrap_or(0.0);
    println!(
        "# corpus: server cache hits={} misses={}",
        get("db_serve_cache_hits_total"),
        get("db_serve_cache_misses_total")
    );
    println!("# served pass: read p50 {served_p50:.4} ms, untraced {a_p50:.4} ms, n={n}");

    let p50 = |v: &[f64]| p50_of(v.iter().copied());
    let (walls, cycles, phases) =
        sim_figures.unwrap_or_else(|| (r.sim_walls.clone(), r.sim_cycles, r.phases));
    let sim_s = walls.iter().sum::<f64>() / 1e3;
    let mut out = vec![
        metric("gen.graphs_s", live.gen_s, "s"),
        metric("store.pack_s", probes.pack_s, "s"),
        metric("store.load_ms", probes.load_ms, "ms"),
        metric(
            "store.bytes_per_arc",
            probes.bytes as f64 / probes.arcs.max(1) as f64,
            "B/arc",
        ),
        metric("corpus.cold_ms", p50(&probes.cold_ms), "ms"),
        metric("corpus.resolve_us", p50(&r.resolve), "us"),
        metric("exec.validate_us", p50(&r.validate), "us"),
        metric("exec.execute_us", p50(&r.execute), "us"),
        metric("exec.overhead_us", p50(&r.overhead), "us"),
        metric(
            "exec.alloc_bytes_per_vertex",
            p50(&r.alloc_bytes_per_vertex),
            "B/vertex",
        ),
        metric("exec.allocs_per_req", p50(&r.allocs), "count"),
    ];
    for name in ["native", "lockfree", "partitioned", "serial", "reference"] {
        let calls = r.kernel.get(name).map(Vec::as_slice).unwrap_or(&[]);
        out.push(metric(
            format!("kernel.{name}.mteps"),
            mteps(calls),
            "MTEPS",
        ));
        if name != "reference" {
            let call_us: Vec<f64> = calls.iter().map(|c| c.1).collect();
            out.push(metric(
                format!("kernel.{name}.call_us"),
                p50(&call_us),
                "us",
            ));
        }
    }
    // The request path's layers, p50 each: wire (NDJSON workloads only),
    // queue wait, corpus resolve and the execution attempt.
    let path_ms = (on_path_wire + queue + store + attempt) / 1e3;
    out.extend([
        metric("apps.call_us", p50(&probes.apps), "us"),
        metric("pool.queue_wait_us.p50", queue, "us"),
        metric("pool.queue_wait_us.tail", sp.tail(SpanKind::Queue), "us"),
        metric("pool.attempt_us", attempt, "us"),
        metric(
            "pool.steals_per_req",
            get("db_serve_steals_total") / requests,
            "ratio",
        ),
        metric("net.wire_us.p50", wire_p50, "us"),
        metric(
            "net.wire_us.tail",
            tail_of(served.wire.iter().copied()),
            "us",
        ),
        metric("net.codec_us", p50(&r.codec), "us"),
        metric("net.line_bytes", p50(&r.line_bytes), "B"),
        metric(
            "sim.mcycles_per_s",
            cycles as f64 / sim_s.max(1e-9) / 1e6,
            "Mcycles/s",
        ),
        metric("sim.wall_ms", p50(&walls), "ms"),
        metric("trace.unattributed_ms", served_p50 - path_ms, "ms"),
        metric("trace.overhead_ratio", overhead_ratio, "ratio"),
    ]);
    let total: u64 = phases.iter().sum();
    for (k, p) in SimPhase::ALL.iter().enumerate() {
        out.push(metric(
            format!("sim.phase_share.{}", p.name()),
            phases[k] as f64 / total.max(1) as f64,
            "ratio",
        ));
    }
    println!("# setup: {setup_s:.4} s (one set-up; untraced runs report the median of five)");
    (out, attempted, wrong)
}

/// delta-rw-wal's served pass: client-observed write latency and the
/// `Wal` spans.
fn delta_served_lines(served: &Served) {
    let writes: Vec<f64> = served
        .pass
        .samples
        .iter()
        .filter(|s| s.is_write())
        .map(|s| s.lat.as_secs_f64() * 1e3)
        .collect();
    println!(
        "# delta.write_p50_ms {:.4} ms (served, client-observed)",
        p50_of(writes.iter().copied())
    );
    println!(
        "# delta.write_tail_ms {:.4} ms",
        tail_of(writes.iter().copied())
    );
    println!(
        "# wal.span_us {:.1} us (p50 of Wal spans)",
        served.spans.p50(SpanKind::Wal)
    );
}

/// The delta write path and the WAL: `reqs` (delta-rw-wal's stream)
/// replayed one request at a time through `DeltaRegistry::execute`
/// with a fsync-always WAL. The counters are the registry's own
/// `db_delta_*` and `db_wal_*` series. Prints `#` lines; returns the
/// number of requests that failed.
fn delta_replay(reqs: &[Request], work: &Path) -> u64 {
    let dir = work.join("replay-wal");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("replay WAL dir");
    let metrics = db_metrics::Registry::new();
    let reg = db_serve::DeltaRegistry::with_durability(
        &metrics,
        &db_serve::Durability {
            wal_dir: Some(dir),
            fsync: db_wal::FsyncPolicy::parse("always").expect("fsync policy"),
        },
        None,
    )
    .expect("replay registry");
    let token = CancelToken::new();
    let (mut writes, mut reads) = (Vec::new(), Vec::new());
    let (mut reach, mut user_bytes, mut wrong) = (0.0f64, 0.0f64, 0);
    for q in reqs {
        let t = Instant::now();
        let (resp, _) = reg.execute(q, None, &token);
        let d = us(t.elapsed());
        if resp.status != Status::Ok {
            wrong += 1;
        }
        match &q.workload {
            Workload::AddEdges { edges } | Workload::DelEdges { edges } => {
                writes.push(d);
                user_bytes += 8.0 * edges.len() as f64;
            }
            Workload::Reach { .. } => {
                reach += 1.0;
                reads.push(d);
            }
            _ => reads.push(d),
        }
    }
    let exp = db_metrics::parse_exposition(&metrics.render_prometheus()).expect("scrape parses");
    let get = |k: &str| {
        exp.samples
            .iter()
            .filter(|s| s.name == k)
            .map(|s| s.value)
            .sum::<f64>()
    };
    let w = (writes.len() as f64).max(1.0);
    println!(
        "# delta.write_us {:.1} us (DeltaRegistry::execute, p50 of {})",
        p50_of(writes.iter().copied()),
        writes.len()
    );
    println!(
        "# delta.pin_read_us {:.1} us (p50 of {})",
        p50_of(reads.iter().copied()),
        reads.len()
    );
    println!("# delta.epochs {}", get("db_delta_epochs_published_total"));
    println!("# delta.compactions {}", get("db_delta_compactions_total"));
    println!(
        "# delta.reach_hit_rate {:.4} ratio",
        get("db_delta_incremental_hits_total") / reach.max(1.0)
    );
    println!(
        "# wal.fsyncs_per_write {:.4}",
        get("db_wal_fsyncs_total") / w
    );
    println!(
        "# wal.bytes_per_user_byte {:.4}",
        get("db_wal_appended_bytes_total") / user_bytes.max(1.0)
    );
    println!("# wal.checkpoints {}", get("db_wal_checkpoints_total"));
    wrong
}

/// Requests replayed through the delta layer in one traced run.
const DELTA_REPLAY: u64 = 2000;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mteps_counts_arcs_of_visited_vertices() {
        // 0 → 1 → 2 plus an unreachable 3 → 0 arc: 2 arcs scanned from 0.
        let g = db_graph::CsrGraph::from_sorted_parts(4, vec![0, 1, 2, 2, 3], vec![1, 2, 0], true);
        let r = reach_csr(&g, 0);
        assert_eq!((r.visited, r.arcs), (3, 2));
        for (_, e) in ENGINES {
            assert_eq!(kernel(e, &g, 0), 3, "{e:?}");
        }
        // 2 arcs in 1 µs plus 4 arcs in 2 µs: 2 MTEPS.
        assert_eq!(mteps(&[(2.0, 1.0), (4.0, 2.0)]), 2.0);
    }
}
