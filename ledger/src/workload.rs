//! The four workloads: seeded inputs, set-up, the closed-loop clients,
//! and the answer checks.

use crate::reference::{reach, reach_csr, Reach};
use db_core::{run_sim, CancelToken, DiggerBeesConfig};
use db_gpu_sim::MachineModel;
use db_graph::CsrGraph;
use db_serve::net::roundtrip_line;
use db_serve::{
    Durability, EngineKind, Request, Response, ServeConfig, Server, Status, TcpServer, Workload,
};
use db_span::FlightConfig;
use db_trace::json::Value;
use std::collections::HashMap;
use std::io::BufReader;
use std::net::TcpStream;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Server threads; the reference host has 2 cores.
pub const WORKERS: usize = 2;
/// Vertices of the `social-1m-dfs` graph.
const SOCIAL_N: u32 = 1_000_000;
/// Seeded roots per served graph; their reference answers are computed
/// before the timed window.
const ROOTS_SMALL: u64 = 64;
const ROOTS_SOCIAL: u64 = 8;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// serve_load's default mix over loopback NDJSON, 2 connections.
    SmallMixTcp,
    /// dfs/reach on a packed 1M-vertex social graph, 1 in-process client.
    Social1m,
    /// Writes and reads on delta corpora with a fsync-always WAL.
    DeltaRwWal,
    /// The DES over the six representative graphs.
    SimRep6,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::SmallMixTcp,
        Kind::Social1m,
        Kind::DeltaRwWal,
        Kind::SimRep6,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::SmallMixTcp => "small-mix-tcp",
            Kind::Social1m => "social-1m-dfs",
            Kind::DeltaRwWal => "delta-rw-wal",
            Kind::SimRep6 => "sim-rep6",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// Closed-loop callers: each waits for its reply before the next send.
    fn clients(self) -> usize {
        match self {
            // The per-request 8-thread native engine makes two clients on
            // the 1M graph spread throughput by ±9%; one is steady.
            Kind::Social1m | Kind::SimRep6 => 1,
            Kind::SmallMixTcp | Kind::DeltaRwWal => 2,
        }
    }
}

/// splitmix64 of `(seed, stream, i)`: every input is a pure function of
/// the seed and its index, whichever client thread draws it.
pub fn mix64(seed: u64, stream: u64, i: u64) -> u64 {
    let mut z =
        seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03) ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Slot of request `i` in a seeded permutation of `0..period`, fresh per
/// block of `period` requests. Mix proportions are then exact in every
/// block, which keeps short runs (the 1M graph does ~60 requests) from
/// drawing a lopsided engine mix.
fn slot(seed: u64, stream: u64, i: u64, period: u64) -> u64 {
    let block = i / period;
    let mut perm: Vec<u64> = (0..period).collect();
    for k in (1..period as usize).rev() {
        let j = (mix64(seed, stream, block * 16 + k as u64) % (k as u64 + 1)) as usize;
        perm.swap(k, j);
    }
    perm[(i % period) as usize]
}

/// native:lockfree:partitioned:serial at 2:1:1:1.
fn engine(seed: u64, i: u64) -> EngineKind {
    match slot(seed, 3, i, 5) {
        0 | 1 => EngineKind::Native,
        2 => EngineKind::LockFree,
        3 => EngineKind::Partitioned,
        _ => EngineKind::Serial,
    }
}

/// One graph a workload serves, with its seeded root pool and the
/// reference answer for each root.
pub struct Corpus {
    /// Short name used in metric lines (`grid`, `social`, `euro_osm`, …).
    pub name: String,
    /// The key requests name (`grid:60:60`, `store:<path>`, `delta:…`).
    pub key: String,
    pub graph: CsrGraph,
    pub roots: Vec<u32>,
    pub refs: Vec<Reach>,
    /// Expected payloads of the apps workloads (`scc`, `topo`,
    /// `articulation`) keyed by workload kind.
    pub apps: HashMap<&'static str, String>,
}

impl Corpus {
    fn new(name: &str, key: String, graph: CsrGraph) -> Corpus {
        Corpus {
            name: name.into(),
            key,
            graph,
            roots: Vec::new(),
            refs: Vec::new(),
            apps: HashMap::new(),
        }
    }

    pub fn n(&self) -> u32 {
        self.graph.num_vertices() as u32
    }

    /// `count` seeded roots with their reference answers.
    fn pick_roots(&mut self, seed: u64, stream: u64, count: u64) {
        let n = u64::from(self.n().max(1));
        self.roots = (0..count)
            .map(|k| (mix64(seed, stream, k) % n) as u32)
            .collect();
        self.refs = self
            .roots
            .iter()
            .map(|&r| reach_csr(&self.graph, r))
            .collect();
    }

    /// A seeded root whose reach is at least a quarter of the graph (the
    /// best of eight draws otherwise), so every seed simulates a
    /// traversal of similar size rather than a stray small component.
    fn pick_big_root(&mut self, seed: u64, stream: u64) {
        let n = u64::from(self.n().max(1));
        let mut best: Option<(u32, Reach)> = None;
        for k in 0..8 {
            let root = (mix64(seed, stream, k) % n) as u32;
            let r = reach_csr(&self.graph, root);
            let big = r.visited * 4 >= n;
            if best.as_ref().is_none_or(|(_, b)| r.visited > b.visited) {
                best = Some((root, r));
            }
            if big {
                break;
            }
        }
        let (root, r) = best.expect("at least one draw");
        self.roots = vec![root];
        self.refs = vec![r];
    }

    /// A root from the pool.
    fn root(&self, pick: u64) -> u32 {
        self.roots[(pick % self.roots.len() as u64) as usize]
    }
}

/// Everything a set-up produces.
pub struct Live {
    pub kind: Kind,
    pub seed: u64,
    pub corpora: Vec<Corpus>,
    pub server: Option<Server>,
    pub tcp: Option<TcpServer>,
    /// Open client connections (small-mix-tcp only).
    pub conns: Vec<Conn>,
    /// Pack facts of the social graph: (vertices, arcs, file bytes).
    pub pack: Option<(u64, u64, u64)>,
    /// Epoch of each delta corpus right after set-up.
    pub base_epochs: Vec<u64>,
    /// Seconds spent generating the graphs during set-up.
    pub gen_s: f64,
}

pub struct Conn {
    pub reader: BufReader<TcpStream>,
    pub writer: TcpStream,
}

impl Conn {
    pub fn open(addr: std::net::SocketAddr) -> Conn {
        let stream = TcpStream::connect(addr).expect("connect to the loopback server");
        let writer = stream.try_clone().expect("clone the client socket");
        Conn {
            reader: BufReader::new(stream),
            writer,
        }
    }

    /// One NDJSON round trip through the program's own client helper.
    pub fn call(&mut self, req: &Request) -> Response {
        let line = req.to_value().to_json();
        let reply =
            roundtrip_line(&mut self.reader, &mut self.writer, &line).expect("NDJSON round trip");
        let doc = Value::parse(&reply).expect("response line is JSON");
        Response::from_value(&doc).expect("response line has the response shape")
    }
}

impl Live {
    /// Closes the connections and drains the server; keeps the corpora.
    pub fn stop_server(&mut self) {
        self.conns.clear();
        if let Some(mut t) = self.tcp.take() {
            t.stop();
        }
        if let Some(s) = self.server.take() {
            s.shutdown();
        }
    }

    pub fn stop(mut self) {
        self.stop_server();
    }

    pub fn handle(&self) -> db_serve::ServeHandle {
        self.server.as_ref().expect("served workload").handle()
    }
}

fn server(flight_cap: usize, durability: Durability) -> Server {
    Server::try_start(ServeConfig {
        workers: WORKERS,
        queue_capacity: 1024,
        tenant_quota: None,
        flight: FlightConfig {
            per_worker_capacity: flight_cap,
            ..FlightConfig::default()
        },
        durability,
        ..ServeConfig::default()
    })
    .unwrap_or_else(|e| panic!("server start: {e}"))
}

/// Loads a corpus into the server and runs one traversal on each of
/// `engines`, so the timed window starts warm.
fn warm(h: &db_serve::ServeHandle, key: &str, engines: &[EngineKind]) {
    for &e in engines {
        let r = h.run(request(u64::MAX, key, Workload::Dfs { root: 0 }, e));
        assert_eq!(r.status, Status::Ok, "warming {key}: {:?}", r.error);
    }
}

pub fn request(id: u64, graph: &str, workload: Workload, engine: EngineKind) -> Request {
    Request {
        id,
        tenant: "bench".into(),
        graph: graph.into(),
        workload,
        engine,
        deadline_ms: None,
    }
}

const ALL_ENGINES: [EngineKind; 4] = [
    EngineKind::Serial,
    EngineKind::Native,
    EngineKind::LockFree,
    EngineKind::Partitioned,
];

const SMALL: [(&str, &str); 3] = [
    ("grid", "grid:60:60"),
    ("path", "path:5000"),
    ("dag", "dag:4000"),
];

/// `f()` and the seconds it took.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// One timed set-up: generate (and for `social-1m-dfs` pack) the inputs,
/// start the server, warm each corpus. Root pools and reference answers
/// are the benchmark's own work and come after, in [`Live::prepare`].
pub fn setup(kind: Kind, seed: u64, work: &Path, flight_cap: usize) -> Live {
    let mut live = Live {
        kind,
        seed,
        corpora: Vec::new(),
        server: None,
        tcp: None,
        conns: Vec::new(),
        pack: None,
        base_epochs: Vec::new(),
        gen_s: 0.0,
    };
    match kind {
        Kind::SmallMixTcp => {
            let (corpora, gen_s) = timed(|| {
                SMALL.map(|(name, key)| {
                    let g = db_serve::corpus::build_graph(key).expect("small corpus key");
                    Corpus::new(name, key.into(), g)
                })
            });
            live.corpora = corpora.into();
            live.gen_s = gen_s;
            let s = server(flight_cap, Durability::default());
            let h = s.handle();
            for c in &live.corpora {
                warm(&h, &c.key, &ALL_ENGINES);
            }
            let tcp = TcpServer::bind(h, "127.0.0.1:0").expect("bind loopback");
            for _ in 0..kind.clients() {
                let mut conn = Conn::open(tcp.addr());
                let r = conn.call(&request(
                    u64::MAX,
                    &live.corpora[0].key,
                    Workload::Dfs { root: 0 },
                    EngineKind::Serial,
                ));
                assert_eq!(r.status, Status::Ok, "warming a connection");
                live.conns.push(conn);
            }
            live.server = Some(s);
            live.tcp = Some(tcp);
        }
        Kind::Social1m => {
            let (g, gen_s) = timed(|| db_gen::social::social(SOCIAL_N, seed));
            live.gen_s = gen_s;
            let path = work.join("social.dbsg");
            let sum = db_store::pack_graph(&g, &path, db_store::PackOptions::default())
                .expect("pack the social graph");
            live.pack = Some((u64::from(sum.n), sum.arcs, sum.file_bytes));
            let key = format!("store:{}", path.display());
            let s = server(flight_cap, Durability::default());
            // One traversal loads the pack and touches every page; a
            // warm-up per engine would add seconds of set-up and no insight.
            warm(&s.handle(), &key, &[EngineKind::Serial]);
            live.corpora.push(Corpus::new("social", key, g));
            live.server = Some(s);
        }
        Kind::DeltaRwWal => {
            let wal = work.join("wal");
            let _ = std::fs::remove_dir_all(&wal);
            std::fs::create_dir_all(&wal).expect("create the WAL dir");
            let s = server(
                flight_cap,
                Durability {
                    wal_dir: Some(wal),
                    fsync: db_wal::FsyncPolicy::parse("always").expect("fsync policy"),
                },
            );
            let h = s.handle();
            for (name, key) in SMALL {
                let (g, gen_s) = timed(|| db_serve::corpus::build_graph(key));
                let g = g.expect("small corpus key");
                live.gen_s += gen_s;
                let key = format!("{}{key}", db_serve::DELTA_PREFIX);
                warm(&h, &key, &ALL_ENGINES);
                let e = h.run(request(u64::MAX, &key, Workload::Epoch, EngineKind::Serial));
                live.base_epochs.push(
                    e.payload
                        .get("epoch")
                        .and_then(Value::as_u64)
                        .expect("epoch reply"),
                );
                live.corpora.push(Corpus::new(name, key, g));
            }
            live.server = Some(s);
        }
        Kind::SimRep6 => {
            let (corpora, gen_s) = timed(|| {
                db_gen::Suite::representative6()
                    .into_iter()
                    .map(|spec| Corpus::new(spec.name, spec.name.into(), spec.build()))
                    .collect()
            });
            live.corpora = corpora;
            live.gen_s = gen_s;
        }
    }
    live
}

impl Live {
    /// Root pools, reference answers and expected apps payloads.
    pub fn prepare(&mut self) {
        let seed = self.seed;
        for (gi, c) in self.corpora.iter_mut().enumerate() {
            let stream = 100 + gi as u64;
            match self.kind {
                Kind::SmallMixTcp => c.pick_roots(seed, stream, ROOTS_SMALL),
                Kind::Social1m => c.pick_roots(seed, stream, ROOTS_SOCIAL),
                // Mid-run delta reads race the writes; only the fences
                // after the drain have fixed answers (see `check_fence`).
                Kind::DeltaRwWal => {}
                // Seed-independent roots: on this host the root alone
                // moved a graph's simulation wall time by up to 30%, more
                // than the benchmark's bound. The seed orders each pass.
                Kind::SimRep6 => c.pick_big_root(0, stream),
            }
            if self.kind == Kind::SmallMixTcp {
                let apps: &[(&'static str, Workload)] = if c.graph.is_directed() {
                    &[("scc", Workload::Scc), ("topo", Workload::Topo)]
                } else {
                    &[("articulation", Workload::Articulation)]
                };
                for (name, w) in apps {
                    let r = db_serve::exec::execute(
                        &request(0, &c.key, w.clone(), EngineKind::Serial),
                        &c.graph,
                        &CancelToken::new(),
                    );
                    c.apps.insert(name, r.payload.to_json());
                }
            }
        }
    }

    /// Request `i` of this workload's seeded stream.
    pub fn request(&self, i: u64) -> Request {
        let seed = self.seed;
        let ci = match self.kind {
            Kind::Social1m => 0,
            _ => slot(seed, 1, i, self.corpora.len() as u64) as usize,
        };
        let c = &self.corpora[ci];
        let n = u64::from(c.n().max(1));
        let tenant = format!("tenant{}", mix64(seed, 6, i) % 4);
        let target = (mix64(seed, 5, i) % n) as u32;
        let (workload, engine) = match self.kind {
            Kind::SmallMixTcp => {
                let root = c.root(mix64(seed, 4, i));
                let directed = c.graph.is_directed();
                let w = match slot(seed, 2, i, 10) {
                    0..=5 => Workload::Dfs { root },
                    6 | 7 => Workload::Reach { root, target },
                    8 if directed => Workload::Scc,
                    8 => Workload::Articulation,
                    _ if directed => Workload::Topo,
                    _ => Workload::Dfs { root },
                };
                (w, engine(seed, i))
            }
            Kind::Social1m => {
                let root = c.root(mix64(seed, 4, i));
                let w = match slot(seed, 2, i, 10) {
                    0..=5 => Workload::Dfs { root },
                    _ => Workload::Reach { root, target },
                };
                (w, engine(seed, i))
            }
            Kind::DeltaRwWal => {
                let root = (mix64(seed, 4, i) % n) as u32;
                match slot(seed, 2, i, 10) {
                    0..=4 => (write_batch(seed, i, c.n()), EngineKind::Serial),
                    5..=7 => (Workload::Dfs { root }, engine(seed, i)),
                    _ => (Workload::Reach { root, target }, engine(seed, i)),
                }
            }
            Kind::SimRep6 => (Workload::Dfs { root: c.roots[0] }, EngineKind::Sim),
        };
        let graph = c.key.clone();
        Request {
            id: i,
            tenant,
            graph,
            workload,
            engine,
            deadline_ms: None,
        }
    }

    /// The request stream of `small-mix-tcp` or `delta-rw-wal` without
    /// a server: for replays through single layers, and for tests.
    pub fn small_offline(kind: Kind, seed: u64) -> Live {
        let prefix = match kind {
            Kind::DeltaRwWal => db_serve::DELTA_PREFIX,
            _ => "",
        };
        let mut live = Live {
            kind,
            seed,
            corpora: SMALL
                .iter()
                .map(|&(name, key)| {
                    let g = db_serve::corpus::build_graph(key).expect("small corpus key");
                    Corpus::new(name, format!("{prefix}{key}"), g)
                })
                .collect(),
            server: None,
            tcp: None,
            conns: Vec::new(),
            pack: None,
            base_epochs: Vec::new(),
            gen_s: 0.0,
        };
        live.prepare();
        live
    }

    pub fn corpus(&self, key: &str) -> &Corpus {
        self.corpora
            .iter()
            .find(|c| c.key == key)
            .expect("request names a corpus of this workload")
    }
}

/// serve_load's commuting write generator: adds connect even vertices,
/// deletes (one batch in four) cut odd pairs, 1–3 edges a batch. The two
/// sets are disjoint, so every schedule ends at base ∪ adds ∖ dels.
fn write_batch(seed: u64, i: u64, n: u32) -> Workload {
    let half = u64::from(n / 2).max(1);
    let del = mix64(seed, 7, i).is_multiple_of(4);
    let parity = u32::from(del);
    let batch = 1 + mix64(seed, 8, i) % 3;
    let edges = (0..batch)
        .map(|k| {
            let u = (mix64(seed, 9 + 2 * k, i) % half) as u32 * 2 + parity;
            let v = (mix64(seed, 10 + 2 * k, i) % half) as u32 * 2 + parity;
            (u, v)
        })
        .collect();
    if del {
        Workload::DelEdges { edges }
    } else {
        Workload::AddEdges { edges }
    }
}

/// One answered request.
pub struct Sample {
    pub req: Request,
    pub resp: Response,
    /// Client-observed latency: send to reply.
    pub lat: Duration,
    /// When the reply arrived, seconds after the pass started.
    pub done: f64,
    /// Sim workload: (simulated cycles, DFS-tree digest).
    pub sim: Option<(u64, u64)>,
}

impl Sample {
    pub fn is_write(&self) -> bool {
        self.req.workload.is_write()
    }
}

/// One closed-loop pass.
pub struct Pass {
    pub samples: Vec<Sample>,
}

/// How long a pass runs.
#[derive(Clone, Copy)]
pub enum Stop {
    /// Issue requests until the window closes (each caller finishes the
    /// request it holds).
    Window(Duration),
    /// Exactly requests `0..n`.
    Count(u64),
}

/// Drives the workload's requests through its public entry point: the
/// NDJSON endpoint (small-mix-tcp), the in-process handle (social,
/// delta) or `run_sim` directly (sim-rep6).
pub fn drive(live: &mut Live, stop: Stop) -> Pass {
    if live.kind == Kind::SimRep6 {
        return drive_sim(live, stop);
    }
    let next = AtomicU64::new(0);
    let out = Mutex::new(Vec::new());
    let start = Instant::now();
    let take = || {
        let i = next.fetch_add(1, Ordering::Relaxed);
        match stop {
            Stop::Window(w) => (start.elapsed() < w).then_some(i),
            Stop::Count(n) => (i < n).then_some(i),
        }
    };
    let mut conns = std::mem::take(&mut live.conns);
    let live_ref: &Live = live;
    std::thread::scope(|s| {
        let take = &take;
        let out = &out;
        if conns.is_empty() {
            for _ in 0..live_ref.kind.clients() {
                let h = live_ref.handle();
                s.spawn(move || {
                    let mut mine = Vec::new();
                    while let Some(i) = take() {
                        let req = live_ref.request(i);
                        let t = Instant::now();
                        let resp = h.run(req.clone());
                        mine.push(Sample {
                            req,
                            resp,
                            lat: t.elapsed(),
                            done: start.elapsed().as_secs_f64(),
                            sim: None,
                        });
                    }
                    out.lock().expect("sample sink").append(&mut mine);
                });
            }
        } else {
            for conn in conns.iter_mut() {
                s.spawn(move || {
                    let mut mine = Vec::new();
                    while let Some(i) = take() {
                        let req = live_ref.request(i);
                        let t = Instant::now();
                        let resp = conn.call(&req);
                        mine.push(Sample {
                            req,
                            resp,
                            lat: t.elapsed(),
                            done: start.elapsed().as_secs_f64(),
                            sim: None,
                        });
                    }
                    out.lock().expect("sample sink").append(&mut mine);
                });
            }
        }
    });
    live.conns = conns;
    let mut samples = out.into_inner().expect("sample sink");
    samples.sort_by_key(|s| s.req.id);
    Pass { samples }
}

impl Pass {
    /// Completed requests per second ([`crate::stats::rate`]).
    pub fn throughput(&self) -> f64 {
        crate::stats::rate(
            0.0,
            &crate::stats::sorted(self.samples.iter().map(|s| s.done)),
        )
    }
}

/// Digest of a DFS tree's parent array (FNV-1a).
pub fn tree_digest(parent: &[u32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in parent.iter().flat_map(|p| p.to_le_bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

pub fn sim_config() -> (DiggerBeesConfig, MachineModel) {
    (DiggerBeesConfig::default(), MachineModel::h100())
}

/// sim-rep6 runs whole passes over the six graphs, at least two, so
/// every run weighs the graphs equally and each has a median.
fn drive_sim(live: &Live, stop: Stop) -> Pass {
    let (cfg, m) = sim_config();
    let per_pass = live.corpora.len() as u64;
    let start = Instant::now();
    let mut samples = Vec::new();
    for i in 0.. {
        let done = match stop {
            Stop::Window(w) => i % per_pass == 0 && i >= 2 * per_pass && start.elapsed() >= w,
            Stop::Count(n) => i >= n,
        };
        if done {
            break;
        }
        let req = live.request(i);
        let c = live.corpus(&req.graph);
        let t = Instant::now();
        let r = run_sim(&c.graph, c.roots[0], &cfg, &m);
        let lat = t.elapsed();
        let visited = r.visited.iter().filter(|&&v| v).count() as u64;
        samples.push(Sample {
            resp: Response {
                id: i,
                status: Status::Ok,
                error: None,
                payload: Value::Obj(vec![
                    ("visited".into(), Value::u64(visited)),
                    ("completed".into(), Value::Bool(true)),
                ]),
                latency_us: lat.as_micros() as u64,
                deadline_missed: false,
                trace_id: 0,
            },
            req,
            lat,
            done: start.elapsed().as_secs_f64(),
            sim: Some((r.stats.cycles, tree_digest(&r.parent))),
        });
    }
    Pass { samples }
}

/// sim-rep6 latencies (ms): per graph, the median of its passes. A
/// deterministic simulation only ever runs slower than its cost, when
/// another process takes the core, so the median is its steady time.
pub fn sim_graph_lats(pass: &Pass) -> Vec<f64> {
    let mut by_graph: HashMap<&str, Vec<f64>> = HashMap::new();
    for s in &pass.samples {
        by_graph
            .entry(s.req.graph.as_str())
            .or_default()
            .push(s.lat.as_secs_f64() * 1e3);
    }
    let mut out: Vec<f64> = by_graph
        .into_values()
        .map(|v| crate::stats::p50(&crate::stats::sorted(v)))
        .collect();
    out.sort_by(f64::total_cmp);
    out
}

/// Checks every answer of a pass; returns the number of wrong ones and
/// prints the first few.
pub fn check(live: &Live, pass: &Pass) -> u64 {
    let mut wrong = 0;
    let mut first_sim: HashMap<&str, (u64, u64)> = HashMap::new();
    for s in &pass.samples {
        let verdict = check_one(live, s, &mut first_sim);
        if let Err(why) = verdict {
            wrong += 1;
            if wrong <= 5 {
                eprintln!("ledger: wrong answer to request {}: {why}", s.req.id);
            }
        }
    }
    wrong
}

fn check_one<'a>(
    live: &Live,
    s: &'a Sample,
    first_sim: &mut HashMap<&'a str, (u64, u64)>,
) -> Result<(), String> {
    if s.resp.status != Status::Ok {
        return Err(format!("status {:?}: {:?}", s.resp.status, s.resp.error));
    }
    let c = live.corpus(&s.req.graph);
    let p = &s.resp.payload;
    let get_u = |k: &str| p.get(k).and_then(Value::as_u64);
    let get_b = |k: &str| p.get(k).and_then(Value::as_bool);
    let expect_ref = |root: u32| -> Option<&Reach> {
        c.roots.iter().position(|&r| r == root).map(|k| &c.refs[k])
    };
    match (&s.req.workload, live.kind) {
        (Workload::AddEdges { edges } | Workload::DelEdges { edges }, _) => {
            match get_u("applied") {
                Some(a) if a == edges.len() as u64 => Ok(()),
                other => Err(format!("applied {other:?} of {} edges", edges.len())),
            }
        }
        // Mid-run delta reads race the writes: check shape and range.
        (Workload::Dfs { .. }, Kind::DeltaRwWal) => match get_u("visited") {
            Some(v) if v >= 1 && v <= u64::from(c.n()) => Ok(()),
            other => Err(format!("visited {other:?} out of range")),
        },
        (Workload::Reach { .. }, Kind::DeltaRwWal) => get_b("reachable")
            .map(|_| ())
            .ok_or("no reachable flag".into()),
        (Workload::Dfs { root }, _) => {
            let r = expect_ref(*root).ok_or("root outside the pool")?;
            if get_u("visited") != Some(r.visited) || get_b("completed") != Some(true) {
                return Err(format!(
                    "visited {:?}, reference {}",
                    get_u("visited"),
                    r.visited
                ));
            }
            if let Some(sim) = s.sim {
                // The DES is deterministic: every pass over a graph must
                // reproduce the first one's cycles and DFS tree.
                let first = *first_sim.entry(s.req.graph.as_str()).or_insert(sim);
                if first != sim {
                    return Err(format!("sim outputs {sim:?} differ from {first:?}"));
                }
            }
            Ok(())
        }
        (Workload::Reach { root, target }, _) => {
            let r = expect_ref(*root).ok_or("root outside the pool")?;
            match get_b("reachable") {
                Some(b) if b == r.contains(*target) => Ok(()),
                other => Err(format!(
                    "reachable {other:?}, reference {}",
                    r.contains(*target)
                )),
            }
        }
        (w, _) => {
            let want = c.apps.get(w.kind()).ok_or("unexpected workload")?;
            if *want == p.to_json() {
                Ok(())
            } else {
                Err(format!("payload {} != {want}", p.to_json()))
            }
        }
    }
}

/// Post-drain fence for delta-rw-wal: per corpus the epoch, a full
/// traversal and a reachability query, checked against the reference
/// reach on base ∪ adds ∖ dels built from the acknowledged writes.
/// Returns (fence samples, wrong answers).
pub fn check_fence(live: &Live, pass: &Pass) -> (Vec<Sample>, u64) {
    let h = live.handle();
    let mut fence = Vec::new();
    let mut wrong = 0;
    for (ci, c) in live.corpora.iter().enumerate() {
        let n = c.n() as usize;
        let mut adj: Vec<Vec<u32>> = (0..n as u32)
            .map(|u| c.graph.neighbors(u).to_vec())
            .collect();
        let mut writes = 0;
        let mut add = |u: u32, v: u32| {
            if !adj[u as usize].contains(&v) {
                adj[u as usize].push(v);
            }
        };
        let mut dels = Vec::new();
        for s in pass.samples.iter().filter(|s| s.req.graph == c.key) {
            if s.resp.status != Status::Ok {
                continue;
            }
            match &s.req.workload {
                Workload::AddEdges { edges } => {
                    writes += 1;
                    for &(u, v) in edges {
                        add(u, v);
                        if !c.graph.is_directed() {
                            add(v, u);
                        }
                    }
                }
                Workload::DelEdges { edges } => {
                    writes += 1;
                    dels.extend_from_slice(edges);
                }
                _ => {}
            }
        }
        for (u, v) in dels {
            adj[u as usize].retain(|&w| w != v);
            if !c.graph.is_directed() {
                adj[v as usize].retain(|&w| w != u);
            }
        }
        let want = reach(n, 0, |u| &adj[u as usize]);
        let last = c.n() - 1;
        let base = 1_000_000_000 + 10 * ci as u64;
        let checks = [
            (
                Workload::Epoch,
                "epoch",
                Value::u64(live.base_epochs[ci] + writes),
            ),
            (
                Workload::Dfs { root: 0 },
                "visited",
                Value::u64(want.visited),
            ),
            (
                Workload::Reach {
                    root: 0,
                    target: last,
                },
                "reachable",
                Value::Bool(want.contains(last)),
            ),
        ];
        for (k, (w, field, value)) in checks.into_iter().enumerate() {
            let req = request(base + k as u64, &c.key, w, EngineKind::Serial);
            let t = Instant::now();
            let resp = h.run(req.clone());
            let lat = t.elapsed();
            if resp.status != Status::Ok || resp.payload.get(field) != Some(&value) {
                wrong += 1;
                eprintln!(
                    "ledger: fence {} on {} answered {} (reference: {} acked writes, {} visited)",
                    req.workload.kind(),
                    c.key,
                    resp.payload.to_json(),
                    writes,
                    want.visited
                );
            }
            fence.push(Sample {
                req,
                resp,
                lat,
                done: 0.0,
                sim: None,
            });
        }
    }
    (fence, wrong)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn offline(kind: Kind, seed: u64) -> Live {
        Live::small_offline(kind, seed)
    }

    fn digest(live: &Live, n: u64) -> Vec<String> {
        (0..n)
            .map(|i| live.request(i).to_value().to_json())
            .collect()
    }

    #[test]
    fn same_seed_same_requests() {
        for kind in [Kind::SmallMixTcp, Kind::DeltaRwWal] {
            let a = digest(&offline(kind, 7), 200);
            assert_eq!(a, digest(&offline(kind, 7), 200), "{kind:?}");
            assert_ne!(a, digest(&offline(kind, 8), 200), "{kind:?}");
        }
    }

    #[test]
    fn mix_proportions_are_exact_per_block() {
        let live = offline(Kind::SmallMixTcp, 3);
        let reqs: Vec<Request> = (0..30).map(|i| live.request(i)).collect();
        let native = reqs
            .iter()
            .filter(|r| r.engine == EngineKind::Native)
            .count();
        let serial = reqs
            .iter()
            .filter(|r| r.engine == EngineKind::Serial)
            .count();
        assert_eq!((native, serial), (12, 6));
        let reach = reqs
            .iter()
            .filter(|r| matches!(r.workload, Workload::Reach { .. }))
            .count();
        assert_eq!(reach, 6);
        for key in ["grid:60:60", "path:5000", "dag:4000"] {
            assert_eq!(reqs.iter().filter(|r| r.graph == key).count(), 10);
        }
        let delta = offline(Kind::DeltaRwWal, 3);
        let writes = (0..20)
            .filter(|&i| delta.request(i).workload.is_write())
            .count();
        assert_eq!(writes, 10);
    }

    #[test]
    fn writes_commute() {
        // Adds join even vertices, deletes cut odd ones: disjoint sets.
        for i in 0..500 {
            match write_batch(11, i, 4000) {
                Workload::AddEdges { edges } => {
                    assert!(edges
                        .iter()
                        .all(|&(u, v)| u % 2 == 0 && v % 2 == 0 && v < 4000))
                }
                Workload::DelEdges { edges } => {
                    assert!(edges
                        .iter()
                        .all(|&(u, v)| u % 2 == 1 && v % 2 == 1 && u < 4000))
                }
                w => panic!("not a write: {w:?}"),
            }
        }
    }
}
