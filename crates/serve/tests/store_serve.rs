//! Serving packed graphs: `store:` corpus keys resolve through
//! `db-store`'s loader into two heap arrays, the corpus cache charges
//! each graph exactly its heap bytes, and the `store` fault domain
//! degrades per-request, never per-server.

use db_fault::{FaultPlan, Injector};
use db_serve::corpus::CorpusCache;
use db_serve::{EngineKind, Request, Resilience, Response, ServeConfig, Server, Status, Workload};
use db_store::{pack_graph, PackOptions};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dbstore-serve-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir.join(format!("{tag}.dbsg"))
}

/// Packs a deterministic social graph and returns its `store:` key.
fn packed_social(tag: &str, n: u32) -> (PathBuf, String) {
    let g = db_gen::SocialGraph::new(n, 0xd1995, db_gen::SocialParams::default()).build();
    let path = scratch(tag);
    pack_graph(&g, &path, PackOptions::default()).unwrap();
    let key = format!("store:{}", path.display());
    (path, key)
}

fn dfs(id: u64, key: &str, engine: EngineKind) -> Request {
    Request {
        id,
        tenant: "store".into(),
        graph: key.into(),
        workload: Workload::Dfs { root: 0 },
        engine,
        deadline_ms: None,
    }
}

#[test]
fn store_key_serves_dfs_on_every_engine() {
    let (path, key) = packed_social("engines", 4_000);
    let server = Server::start(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });
    let h = server.handle();
    let engines = [
        EngineKind::Native,
        EngineKind::LockFree,
        EngineKind::Sim,
        EngineKind::Serial,
        EngineKind::Partitioned,
    ];
    let mut digests = Vec::new();
    for (i, &e) in engines.iter().enumerate() {
        // Same id on purpose: digests must agree across engines.
        let r = h.run(dfs(1, &key, e));
        assert_eq!(r.status, Status::Ok, "engine {i}: {:?}", r.error);
        let visited = r.payload.get("visited").unwrap().as_u64().unwrap();
        assert!(visited > 0, "engine {i} visited nothing");
        digests.push(r.digest());
    }
    assert!(
        digests.windows(2).all(|w| w[0] == w[1]),
        "engines disagree on a packed graph: {digests:?}"
    );
    let m = h.metrics();
    assert_eq!(m.completed, engines.len() as u64);
    server.shutdown();
    std::fs::remove_file(path).unwrap();
}

#[test]
fn store_requests_are_digest_deterministic_across_servers() {
    let (path, key) = packed_social("double", 3_000);
    let run = || {
        let server = Server::start(ServeConfig {
            workers: 3,
            ..ServeConfig::default()
        });
        let h = server.handle();
        let rxs: Vec<_> = (0..24u64)
            .map(|i| {
                let e = match i % 3 {
                    0 => EngineKind::Native,
                    1 => EngineKind::Partitioned,
                    _ => EngineKind::Serial,
                };
                h.submit(dfs(i, &key, e))
            })
            .collect();
        let digests: Vec<String> = rxs
            .into_iter()
            .map(|rx| rx.recv_timeout(Duration::from_secs(120)).unwrap().digest())
            .collect();
        server.shutdown();
        digests
    };
    assert_eq!(run(), run(), "double run must be digest-identical");
    std::fs::remove_file(path).unwrap();
}

#[test]
fn missing_or_truncated_store_is_a_typed_rejection() {
    let server = Server::start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let h = server.handle();

    let r = h.run(dfs(1, "store:/no/such/pack.dbsg", EngineKind::Native));
    assert_eq!(r.status, Status::Error);
    assert!(r.error.as_deref().unwrap().contains("open"), "{r:?}");

    // A half-written pack (payload truncated) must bounce, not panic.
    let (path, key) = packed_social("trunc", 500);
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
    let r = h.run(dfs(2, &key, EngineKind::Native));
    assert_eq!(r.status, Status::Error);

    let m = h.metrics();
    assert_eq!(m.errors, 2);
    server.shutdown();
    std::fs::remove_file(path).unwrap();
}

#[test]
fn store_fault_domain_degrades_per_request() {
    let (path, key) = packed_social("fault", 2_000);
    let inj = Arc::new(Injector::new(
        FaultPlan::parse("corrupt:store@always").unwrap(),
    ));
    let server = Server::start(ServeConfig {
        workers: 2,
        resilience: Resilience {
            faults: Some(Arc::clone(&inj)),
            breaker_threshold: 0,
            ..Resilience::default()
        },
        ..ServeConfig::default()
    });
    let h = server.handle();

    // Every store-backed request is struck: the flipped byte is caught
    // by a pack checksum and only that request fails.
    for id in 0..4u64 {
        let r = h.run(dfs(id, &key, EngineKind::Native));
        assert_eq!(r.status, Status::Failed, "{r:?}");
        assert!(
            r.error.as_deref().unwrap().contains("store load corrupted"),
            "{r:?}"
        );
    }
    // Non-store corpus keys don't hit the store-load site at all.
    let r = h.run(dfs(100, "grid:8:8", EngineKind::Native));
    assert_eq!(r.status, Status::Ok, "{r:?}");

    let m = h.metrics();
    assert_eq!(m.failed, 4);
    assert_eq!(m.completed, 1);
    let scrape = h.prometheus();
    let exp = db_metrics::parse_exposition(&scrape).unwrap();
    let get = |n: &str| {
        exp.samples
            .iter()
            .find(|s| s.name == n)
            .map(|s| s.value)
            .unwrap_or(0.0)
    };
    assert_eq!(get("db_store_corruptions_detected_total"), 4.0);
    assert_eq!(get("db_store_load_failures_total"), 4.0);
    assert!(inj.injected() >= 4, "strikes must land in the fault log");
    server.shutdown();
    std::fs::remove_file(path).unwrap();
}

#[test]
fn store_faults_strike_loads_not_keys() {
    // The draw is keyed on the request id, so `p=0.5` fails about half
    // of one pack's loads, the same ones on every server.
    let (path, key) = packed_social("per-load", 2_000);
    let run = || {
        let inj = Injector::new(FaultPlan::parse("seed=1;corrupt:store@p=0.5").unwrap());
        let server = Server::start(ServeConfig {
            workers: 2,
            resilience: Resilience {
                faults: Some(Arc::new(inj)),
                breaker_threshold: 0,
                ..Resilience::default()
            },
            ..ServeConfig::default()
        });
        let h = server.handle();
        let answers: Vec<_> = (0..40)
            .map(|id| h.run(dfs(id, &key, EngineKind::Native)))
            .collect();
        server.shutdown();
        answers
    };
    let (a, b) = (run(), run());
    let failed = a.iter().filter(|r| r.status == Status::Failed).count();
    let ok = a.iter().filter(|r| r.status == Status::Ok).count();
    assert_eq!(ok + failed, 40);
    assert!(ok > 0 && failed > 0, "{failed} of 40 loads failed");
    let digests = |rs: &[Response]| rs.iter().map(Response::digest).collect::<Vec<_>>();
    assert_eq!(digests(&a), digests(&b), "double run digests differ");
    std::fs::remove_file(path).unwrap();
}

#[test]
fn charged_bytes_accounting_on_store_keys() {
    let (path, key) = packed_social("budget", 6_000);
    let full = db_serve::corpus::build_graph(&key).unwrap();
    let g_bytes = full.memory_bytes();

    // A loaded store charges exactly its two arrays: `row_ptr` and the
    // columns, allocated to size, so a budget of its CSR footprint
    // holds it.
    let cache = CorpusCache::new(g_bytes);
    let (s1, i1) = cache.resolve(&key).unwrap();
    assert!(!i1.hit);
    assert_eq!(
        s1.heap_bytes(),
        (s1.num_vertices() + 1) * 8 + s1.num_arcs() * 4
    );
    assert_eq!(s1.heap_bytes(), g_bytes);
    let (_, bytes) = cache.resident();
    assert_eq!(bytes, g_bytes);

    // Same key hits; eviction on store keys releases their charge.
    let (_, i2) = cache.resolve(&key).unwrap();
    assert!(i2.hit);
    let small = CorpusCache::new(1);
    small.resolve(&key).unwrap();
    small.resolve("grid:8:8").unwrap();
    assert_eq!(small.evictions(), 1, "store entry must be evictable");
    let (n, _) = small.resident();
    assert_eq!(n, 1);
    std::fs::remove_file(path).unwrap();
}

/// Eviction decisions follow the exact heap bytes of each graph: a
/// budget of the pack's bytes plus both fillers' keeps all three, and
/// one byte less evicts the pack, the least recently used.
#[test]
fn eviction_order_follows_exact_heap_bytes() {
    let edges: Vec<(u32, u32)> = (0..40_000).step_by(16).map(|u| (u, u + 1)).collect();
    let g = db_graph::builder::from_edge_list(40_001, &edges, true);
    let path = scratch("charged-order");
    pack_graph(&g, &path, PackOptions::default()).unwrap();
    let key = format!("store:{}", path.display());

    let pack = db_serve::corpus::build_graph(&key).unwrap().heap_bytes();
    assert_eq!(pack, 40_002 * 8 + g.num_arcs() * 4);
    let filler = |k: &str| db_serve::corpus::build_graph(k).unwrap().heap_bytes();
    let fillers = filler("path:1000") + filler("path:1001");

    let budget = pack + fillers;
    let cache = CorpusCache::new(budget);
    cache.resolve(&key).unwrap(); // oldest — first in LRU order
    cache.resolve("path:1000").unwrap();
    cache.resolve("path:1001").unwrap();
    assert_eq!(cache.evictions(), 0, "all three fit the budget exactly");
    assert_eq!(cache.resident(), (3, budget));
    let (_, info) = cache.resolve(&key).unwrap();
    assert!(info.hit, "the LRU pack survives a budget that fits it");

    // One byte less: the pack really is evicted first, in LRU order.
    let tight = CorpusCache::new(budget - 1);
    tight.resolve(&key).unwrap();
    tight.resolve("path:1000").unwrap();
    tight.resolve("path:1001").unwrap(); // must push the pack out
    assert_eq!(tight.evictions(), 1);
    assert_eq!(tight.resident(), (2, fillers));
    let (_, info) = tight.resolve("path:1000").unwrap();
    assert!(info.hit, "newer RAM graph stays");
    let (_, info) = tight.resolve(&key).unwrap();
    assert!(!info.hit, "the pack was the LRU eviction victim");
    std::fs::remove_file(path).unwrap();
}
