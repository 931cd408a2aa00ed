//! Tier-1 guard for the serving path. An in-process two-worker server
//! answers a fixed request list, one request at a time: dfs, reach,
//! scc, topo and articulation over synthetic corpora and a freshly
//! packed `store:` corpus, plus add/del writes and reads on a durable
//! `delta:` corpus. Every dfs/reach answer is checked against the
//! reference BFS, a second fresh server must agree digest for digest,
//! the flight dump must validate, and a server restarted on the first
//! run's WAL directory must recover the delta corpus and answer its
//! fences identically. The first run's scrape must also agree with its
//! flight dump on every span-derived `db_serve_*` series. Two more
//! tests hold a dfs to its deadline: a `serial` one on a path, which
//! runs the one-at-a-time kernel, and a `native` one on `google`, which
//! runs it batched, as a team with the idle second worker.

#[path = "../crates/serve/tests/common/mod.rs"]
mod common;

use db_graph::traversal::reachable_set;
use db_graph::{CsrGraph, GraphBuilder};
use db_serve::corpus::build_graph;
use db_serve::{
    Durability, EngineKind, Request, Response, ServeConfig, ServeHandle, Server, Status, Workload,
};
use db_span::validate_dump;
use db_store::{pack_graph, PackOptions};
use db_wal::FsyncPolicy;
use std::collections::{BTreeSet, HashMap};
use std::path::Path;

/// Synthetic corpora, each served as-is.
const GRAPHS: [&str; 3] = ["grid:60:60", "path:5000", "dag:4000"];
/// The graph packed into the `store:` corpus (directed, so the pack
/// also serves scc/topo).
const PACKED: &str = "dag:3000";
/// The delta corpus: an undirected path of `DELTA_N` vertices.
const DELTA_KEY: &str = "delta:path:300";
const DELTA_N: u32 = 300;
/// Delta writes in the list: enough to cross the compaction threshold,
/// so the first run also checkpoints.
const WRITES: u64 = 12;
/// The list ends with two delta fences (epoch, dfs from 0).
const FENCES: usize = 2;

const ENGINES: [EngineKind; 4] = [
    EngineKind::Native,
    EngineKind::LockFree,
    EngineKind::Partitioned,
    EngineKind::Serial,
];

fn request(id: u64, graph: &str, workload: Workload) -> Request {
    Request {
        id,
        tenant: format!("t{}", id % 3),
        graph: graph.into(),
        workload,
        engine: ENGINES[id as usize % ENGINES.len()],
        deadline_ms: None,
    }
}

/// The fixed request list: six dfs, four reach and the applicable
/// analytics per frozen corpus, then the delta write stream with a read
/// after every write, then the delta fences.
fn request_list(store_key: &str, frozen: &HashMap<String, CsrGraph>) -> Vec<Request> {
    let mut reqs = Vec::new();
    let mut id = 0u64;
    let mut push = |reqs: &mut Vec<Request>, graph: &str, w: Workload| {
        reqs.push(request(id, graph, w));
        id += 1;
    };
    for key in GRAPHS.iter().copied().chain([store_key]) {
        let g = &frozen[key];
        let n = g.num_vertices() as u64;
        for k in 0..10u64 {
            let root = ((k * 7919) % n) as u32;
            let target = ((k * 104_729 + 1) % n) as u32;
            let w = if k < 6 {
                Workload::Dfs { root }
            } else {
                Workload::Reach { root, target }
            };
            push(&mut reqs, key, w);
        }
        if g.is_directed() {
            push(&mut reqs, key, Workload::Scc);
            push(&mut reqs, key, Workload::Topo);
        } else {
            push(&mut reqs, key, Workload::Articulation);
        }
    }
    for k in 0..WRITES as u32 {
        // Even writes cut path edge (20k+9, 20k+10); odd writes bridge
        // vertex 0 to the far side of the previous cut.
        let w = if k % 2 == 0 {
            Workload::DelEdges {
                edges: vec![(20 * k + 9, 20 * k + 10)],
            }
        } else {
            Workload::AddEdges {
                edges: vec![(0, 20 * k + 1)],
            }
        };
        push(&mut reqs, DELTA_KEY, w);
        let read = if k % 3 == 0 {
            Workload::Reach {
                root: 0,
                target: DELTA_N - 1,
            }
        } else {
            Workload::Dfs { root: 10 * k }
        };
        push(&mut reqs, DELTA_KEY, read);
    }
    push(&mut reqs, DELTA_KEY, Workload::Epoch);
    push(&mut reqs, DELTA_KEY, Workload::Dfs { root: 0 });
    reqs
}

fn start(wal_dir: &Path) -> Server {
    Server::start(ServeConfig {
        workers: 2,
        durability: Durability {
            wal_dir: Some(wal_dir.to_path_buf()),
            fsync: FsyncPolicy::Always,
        },
        ..ServeConfig::default()
    })
}

fn run_all(h: &ServeHandle, reqs: &[Request]) -> Vec<Response> {
    reqs.iter()
        .map(|r| {
            let resp = h.run(r.clone());
            assert_eq!(
                resp.status,
                Status::Ok,
                "req {} on {}: {:?}",
                r.id,
                r.graph,
                resp.error
            );
            resp
        })
        .collect()
}

fn digests(resps: &[Response]) -> Vec<String> {
    resps.iter().map(Response::digest).collect()
}

/// Checks every dfs/reach answer against `reachable_set` on the graph
/// the request saw. Requests run one at a time, so a delta read sees
/// exactly the writes listed before it; an edge-set model replays them.
fn check_traversals(reqs: &[Request], resps: &[Response], frozen: &HashMap<String, CsrGraph>) {
    let mut delta_edges: BTreeSet<(u32, u32)> = (0..DELTA_N - 1).map(|i| (i, i + 1)).collect();
    let mut checked = 0;
    for (req, resp) in reqs.iter().zip(resps) {
        let delta_graph;
        let g = if req.graph == DELTA_KEY {
            match &req.workload {
                Workload::AddEdges { edges } => delta_edges.extend(edges),
                Workload::DelEdges { edges } => {
                    for e in edges {
                        delta_edges.remove(e);
                    }
                }
                _ => {}
            }
            delta_graph = GraphBuilder::undirected(DELTA_N)
                .edges(delta_edges.iter().copied())
                .build();
            &delta_graph
        } else {
            &frozen[&req.graph]
        };
        let field = |k: &str| {
            resp.payload
                .get(k)
                .unwrap_or_else(|| panic!("req {}: no {k}", req.id))
        };
        match req.workload {
            Workload::Dfs { root } => {
                let want = reachable_set(g, root).iter().filter(|&&r| r).count() as u64;
                assert_eq!(field("visited").as_u64(), Some(want), "dfs req {}", req.id);
                checked += 1;
            }
            Workload::Reach { root, target } => {
                let want = reachable_set(g, root)[target as usize];
                assert_eq!(
                    field("reachable").as_bool(),
                    Some(want),
                    "reach req {}",
                    req.id
                );
                checked += 1;
            }
            _ => {}
        }
    }
    assert_eq!(checked, 4 * 10 + WRITES as usize + 1);
}

#[test]
fn served_answers_digests_spans_and_recovery_hold() {
    let dir = std::env::temp_dir().join(format!("serve-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let pack = dir.join("packed.dbsg");
    let packed = build_graph(PACKED).unwrap();
    pack_graph(&packed, &pack, PackOptions::default()).expect("pack");
    let store_key = format!("store:{}", pack.display());

    let mut frozen: HashMap<String, CsrGraph> = GRAPHS
        .iter()
        .map(|k| (k.to_string(), build_graph(k).unwrap()))
        .collect();
    frozen.insert(store_key.clone(), packed);
    let reqs = request_list(&store_key, &frozen);

    // First run: answers checked, spans validated.
    let wal_a = dir.join("wal-a");
    let server = start(&wal_a);
    let h = server.handle();
    let first = run_all(&h, &reqs);
    let scrape = h.prometheus();
    let dump = h.flight_dump();
    server.shutdown();
    check_traversals(&reqs, &first, &frozen);
    let trees = validate_dump(&dump).expect("first run's flight dump validates");
    assert_eq!(dump.dropped, 0);
    assert_eq!(
        trees.iter().filter(|t| t.is_complete()).count(),
        reqs.len(),
        "one complete trace per request"
    );
    let counted = common::assert_scrape_matches_dump(&scrape, &dump);
    assert_eq!(counted["db_serve_admitted_total"], reqs.len() as u64);

    // A fresh server on a fresh WAL gives the same answers.
    let server = start(&dir.join("wal-b"));
    let second = run_all(&server.handle(), &reqs);
    server.shutdown();
    assert_eq!(digests(&first), digests(&second));

    // Restart on the first run's WAL: the delta corpus comes back with
    // every acknowledged write, and its fences answer as before.
    let server = start(&wal_a);
    let h = server.handle();
    let info = h.recovery().expect("durable server reports recovery");
    assert_eq!(info.corpora, 1);
    assert_eq!(info.durable_writes, vec![(DELTA_KEY.to_string(), WRITES)]);
    let fences = &reqs[reqs.len() - FENCES..];
    let recovered = run_all(&h, fences);
    server.shutdown();
    assert_eq!(digests(&recovered), digests(&first[first.len() - FENCES..]));
    assert_eq!(
        recovered[0].payload.get("epoch").unwrap().as_u64(),
        Some(WRITES)
    );

    std::fs::remove_dir_all(&dir).ok();
}

/// Every served dfs obeys its deadline, whatever engine it names: a
/// `serial` dfs over a warm million-vertex path with a 1 ms budget stops
/// at a kernel poll and reports the partial prefix.
#[test]
fn serial_dfs_stops_at_its_deadline() {
    const KEY: &str = "path:1000000";
    let server = Server::start(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });
    let h = server.handle();
    let serial = |id, deadline_ms| Request {
        engine: EngineKind::Serial,
        deadline_ms,
        ..request(id, KEY, Workload::Dfs { root: 0 })
    };
    assert_eq!(h.run(serial(0, None)).status, Status::Ok, "warm-up");
    let r = h.run(serial(1, Some(1)));
    server.shutdown();
    assert_eq!(r.status, Status::Expired, "{:?}", r.error);
    assert_eq!(r.payload.get("completed").unwrap().as_bool(), Some(false));
    let partial = r.payload.get("visited").unwrap().as_u64().unwrap();
    assert!((1..1_000_000).contains(&partial), "partial count {partial}");
}

/// The same on the batched kernel: `google`'s arcs are scattered, so
/// its proof batches, and a `native` dfs with a 1 ms budget over the
/// warm corpus stops at a poll counted per batch.
#[test]
fn native_dfs_on_a_batched_graph_stops_at_its_deadline() {
    const KEY: &str = "google";
    let g = build_graph(KEY).unwrap();
    assert!(db_core::ValidCsr::new(&g).unwrap().batches());
    let n = g.num_vertices() as u64;
    let server = Server::start(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });
    let h = server.handle();
    let native = |id, deadline_ms| Request {
        engine: EngineKind::Native,
        deadline_ms,
        ..request(id, KEY, Workload::Dfs { root: 0 })
    };
    let full = reachable_set(&g, 0).iter().filter(|&&r| r).count() as u64;
    let visited = |r: &Response| r.payload.get("visited").unwrap().as_u64().unwrap();
    let joins = |h: &ServeHandle| {
        h.prometheus()
            .lines()
            .find_map(|l| l.strip_prefix("db_serve_team_joins_total "))
            .map(|v| v.parse::<f64>().unwrap())
            .unwrap()
    };
    // The other worker is idle, so the search runs as a team; the full
    // count is exact whether or not the helper joined in time, and one
    // of the first few searches has it join.
    let mut id = 0;
    while joins(&h) == 0.0 {
        assert!(id < 20, "no helper joined in {id} searches");
        let warm = h.run(native(id, None));
        assert_eq!(warm.status, Status::Ok, "warm-up {id}");
        assert_eq!(visited(&warm), full);
        id += 1;
    }
    let r = h.run(native(id, Some(1)));
    assert_eq!(r.status, Status::Expired, "{:?}", r.error);
    assert_eq!(r.payload.get("completed").unwrap().as_bool(), Some(false));
    let partial = visited(&r);
    assert!((1..n).contains(&partial), "partial count {partial}");
    // The expired search left no state behind: the next one is whole.
    let again = h.run(native(id + 1, None));
    server.shutdown();
    assert_eq!(again.status, Status::Ok);
    assert_eq!(visited(&again), full);
}
