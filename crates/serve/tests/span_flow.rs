//! End-to-end span-flow tests for the flight recorder: a request that
//! is stolen, retried, or degraded must still reconstruct as exactly
//! one root span with every decision hanging off it, an explicit dump
//! must round-trip through the on-disk `.dbfr` format, and the
//! `db_serve_*` series a scrape reports must equal their counts over
//! the flight dump.

mod common;

use db_fault::{FaultPlan, Injector};
use db_serve::{
    Durability, EngineKind, Request, Resilience, ServeConfig, Server, Status, Workload,
};
use db_span::span::ROOT_SPAN;
use db_span::{
    validate_dump, FlightConfig, FlightDump, SpanKind, TraceCtx, TraceTree, ADMISSION_WORKER,
};
use db_wal::FsyncPolicy;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn req(id: u64, engine: EngineKind) -> Request {
    Request {
        id,
        tenant: "flow".into(),
        graph: "grid:12:12".into(),
        workload: Workload::Dfs { root: 0 },
        engine,
        deadline_ms: None,
    }
}

fn chaos_config(spec: &str, workers: usize, retry_max: u32) -> ServeConfig {
    ServeConfig {
        workers,
        resilience: Resilience {
            retry_max,
            retry_base_ms: 1,
            retry_cap_ms: 4,
            restart_budget: 100_000,
            breaker_threshold: 0,
            faults: Some(Arc::new(Injector::new(FaultPlan::parse(spec).unwrap()))),
            ..Resilience::default()
        },
        ..ServeConfig::default()
    }
}

/// The tree whose root records request `id`, or a panic listing what
/// the dump actually holds.
fn trace_of(trees: &[TraceTree], id: u64) -> TraceTree {
    trees
        .iter()
        .find(|t| {
            t.root
                .is_some_and(|r| t.spans[r].kind == SpanKind::Request && t.spans[r].value == id)
        })
        .unwrap_or_else(|| {
            panic!(
                "no complete trace for req {id}; roots: {:?}",
                trees
                    .iter()
                    .filter_map(|t| t.root.map(|r| t.spans[r].value))
                    .collect::<Vec<_>>()
            )
        })
        .clone()
}

/// A killed request retries, and the whole story — fault, panicked
/// attempt, retry, succeeding attempt — reconstructs under a single
/// root. Only a `sim` request degrades: its final attempt runs the
/// served kernel under `serial`. A `native` request already runs the
/// kernel, so it retries under its own name with no `degrade` span.
#[test]
fn killed_request_retries_and_degrades_under_one_root() {
    // retry_max=1 → two attempts; `req=` strikes spend on attempt 0,
    // so the final attempt runs clean.
    let server = Server::start(chaos_config(
        "kill:worker=*@req=3;kill:worker=*@req=5",
        2,
        1,
    ));
    let h = server.handle();
    for id in 0..8u64 {
        let engine = if id == 3 {
            EngineKind::Sim
        } else {
            EngineKind::Native
        };
        let r = h.run(req(id, engine));
        assert_eq!(r.status, Status::Ok, "req {id}: {:?}", r.error);
        // Responses carry the seed-deterministic trace id.
        assert_eq!(r.trace_id, TraceCtx::derive(id, "flow").trace_id());
    }
    let dump = h.flight_dump();
    server.shutdown();
    let trees = validate_dump(&dump).expect("dump validates");

    // (request, engine index of the final attempt, degrade spans).
    for (id, last_engine, degrades) in [(3u64, 3u64, vec![2u64]), (5, 0, vec![])] {
        let t = trace_of(&trees, id);
        let roots = t.spans.iter().filter(|s| s.parent == 0).count();
        assert_eq!(roots, 1, "req {id}: exactly one root span");
        let kind_codes: Vec<(SpanKind, u32)> = t.spans.iter().map(|s| (s.kind, s.code)).collect();
        let has = |k: SpanKind, c: u32| kind_codes.contains(&(k, c));
        assert!(
            has(SpanKind::Fault, 0),
            "req {id}: kill fault recorded: {kind_codes:?}"
        );
        assert!(
            has(SpanKind::Attempt, 1),
            "req {id}: panicked attempt: {kind_codes:?}"
        );
        assert!(
            has(SpanKind::Retry, 0),
            "req {id}: retry recorded: {kind_codes:?}"
        );
        let degrade: Vec<u64> = t
            .spans
            .iter()
            .filter(|s| s.kind == SpanKind::Degrade)
            .map(|s| s.value)
            .collect();
        assert_eq!(degrade, degrades, "req {id}: degrade spans (from engine)");
        assert!(
            t.spans
                .iter()
                .any(|s| s.kind == SpanKind::Attempt && s.code == 0 && s.value == last_engine),
            "req {id}: final attempt ok on engine {last_engine}: {kind_codes:?}"
        );
    }
    // The unkilled neighbours stay single-attempt.
    let clean = trace_of(&trees, 4);
    assert_eq!(
        clean
            .spans
            .iter()
            .filter(|s| s.kind == SpanKind::Attempt)
            .count(),
        1
    );
    assert!(!clean.spans.iter().any(|s| s.kind == SpanKind::Retry));
}

/// While one worker is stalled on request 0, the other drains the
/// stalled worker's queue through steal_half — and every stolen
/// request's spans land in its own trace with one root, recorded on
/// the thief.
#[test]
fn stolen_requests_keep_their_parentage_across_workers() {
    // 200 ms stall: long enough that the free worker provably drains
    // everything else, short enough to keep the suite fast.
    let server = Server::start(chaos_config("stall=200000:worker=*@req=0", 2, 0));
    let h = server.handle();
    let rxs: Vec<_> = (0..20u64)
        .map(|id| h.submit(req(id, EngineKind::Serial)))
        .collect();
    for (id, rx) in rxs.into_iter().enumerate() {
        let r = rx.recv().expect("response");
        assert_eq!(r.status, Status::Ok, "req {id}: {:?}", r.error);
    }
    let dump = h.flight_dump();
    server.shutdown();
    let trees = validate_dump(&dump).expect("dump validates");
    let steals: Vec<(u64, TraceTree)> = trees
        .iter()
        .filter_map(|t| {
            t.spans
                .iter()
                .find(|s| s.kind == SpanKind::Steal)
                .map(|s| (s.value, t.clone()))
        })
        .collect();
    assert!(!steals.is_empty(), "the stall forced at least one steal");
    for (victim, t) in steals {
        assert_eq!(
            t.spans.iter().filter(|s| s.parent == 0).count(),
            1,
            "stolen trace {:#x} has exactly one root",
            t.trace_id
        );
        let root = &t.spans[t.root.expect("drained requests are complete")];
        let steal = t.spans.iter().find(|s| s.kind == SpanKind::Steal).unwrap();
        // The steal is recorded by the thief — the worker that then
        // finishes the request — and names a different worker as victim.
        assert_eq!(steal.worker, root.worker, "thief finishes what it stole");
        assert_ne!(u64::from(steal.worker), victim, "victim is another worker");
    }
}

/// `ServeHandle::flight_write` produces a `.dbfr` file that decodes to
/// the same spans an in-memory dump reports.
#[test]
fn explicit_dump_round_trips_through_disk() {
    let dir = std::env::temp_dir().join(format!("dbfr-flow-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let server = Server::start(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });
    let h = server.handle();
    for id in 0..6u64 {
        assert_eq!(h.run(req(id, EngineKind::Serial)).status, Status::Ok);
    }
    let mem = h.flight_dump();
    let path = h.flight_write(&dir).expect("dump written");
    server.shutdown();
    let disk = FlightDump::decode(&std::fs::read(&path).unwrap()).expect("file decodes");
    assert_eq!(disk.spans, mem.spans);
    assert_eq!(disk.tenants, mem.tenants);
    validate_dump(&disk).expect("decoded dump validates");
    std::fs::remove_dir_all(&dir).ok();
}

/// A sim request records its `attempt` span before the `sim_phase`
/// children, so a small ring evicts the parent and keeps the children.
/// The overflowed dump still validates (its drop count says the parent
/// may be gone); the same spans claiming no drops do not.
#[test]
fn overflowed_dump_tolerates_evicted_parents() {
    let server = Server::start(ServeConfig {
        workers: 1,
        flight: FlightConfig {
            per_worker_capacity: 64,
            ..FlightConfig::default()
        },
        ..ServeConfig::default()
    });
    let h = server.handle();
    assert_eq!(h.run(req(0, EngineKind::Sim)).status, Status::Ok);
    let dump = h.flight_dump();
    server.shutdown();
    assert!(dump.dropped > 0, "sim phase spans overflow a 64-span ring");
    let ids: HashSet<u32> = dump.spans.iter().map(|s| s.span_id).collect();
    assert!(
        dump.spans
            .iter()
            .any(|s| s.parent > ROOT_SPAN && !ids.contains(&s.parent)),
        "a child outlived its evicted parent"
    );
    validate_dump(&dump).expect("overflowed dump validates");
    let strict = FlightDump { dropped: 0, ..dump };
    assert!(validate_dump(&strict)
        .unwrap_err()
        .contains("missing parent"));
}

/// An admission refusal leaves an `admit` span with the reject reason
/// and a `rejected` root, both on the admission lane.
#[test]
fn admission_refusal_is_recorded_on_the_admission_lane() {
    let server = Server::start(ServeConfig {
        workers: 1,
        tenant_quota: Some(0),
        ..ServeConfig::default()
    });
    let h = server.handle();
    assert_eq!(h.run(req(0, EngineKind::Serial)).status, Status::Rejected);
    let dump = h.flight_dump();
    server.shutdown();
    let t = trace_of(&validate_dump(&dump).unwrap(), 0);
    let admit = t.spans.iter().find(|s| s.kind == SpanKind::Admit).unwrap();
    assert_eq!(SpanKind::admit_name(admit.code), "tenant_quota");
    let root = &t.spans[t.root.unwrap()];
    assert_eq!(SpanKind::status_name(root.code), "rejected");
    assert!(t.spans.iter().all(|s| s.worker == ADMISSION_WORKER));
}

/// The first request on a corpus records a `store_load` miss, the next
/// one a cache hit.
#[test]
fn corpus_cache_miss_then_hit() {
    let server = Server::start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let h = server.handle();
    for id in 0..2u64 {
        assert_eq!(h.run(req(id, EngineKind::Serial)).status, Status::Ok);
    }
    let dump = h.flight_dump();
    server.shutdown();
    let trees = validate_dump(&dump).unwrap();
    let load_code = |id| {
        trace_of(&trees, id)
            .spans
            .iter()
            .find(|s| s.kind == SpanKind::StoreLoad)
            .expect("store_load span")
            .code
    };
    assert_eq!(load_code(0), 1, "first request misses");
    assert_eq!(load_code(1), 0, "second request hits");
}

/// A durable write stream on a `delta:` corpus: every write records its
/// `delta_write` and `wal` spans under its root, and the writes whose
/// publish folded the layer backlog also record a `compact` span
/// (outcome 0 = folded, value = layers folded).
#[test]
fn delta_writes_record_wal_and_compaction_spans() {
    let dir = std::env::temp_dir().join(format!("span-flow-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let server = Server::start(ServeConfig {
        workers: 1,
        durability: Durability {
            wal_dir: Some(dir.clone()),
            fsync: FsyncPolicy::Always,
        },
        ..ServeConfig::default()
    });
    let h = server.handle();
    let writes = 12u64;
    for id in 0..writes {
        let mut r = req(id, EngineKind::Serial);
        r.graph = "delta:path:64".into();
        r.workload = Workload::AddEdges {
            edges: vec![(0, id as u32 + 2)],
        };
        assert_eq!(h.run(r).status, Status::Ok);
    }
    let dump = h.flight_dump();
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
    let trees = validate_dump(&dump).unwrap();
    let mut folds = 0;
    for id in 0..writes {
        let t = trace_of(&trees, id);
        let under_root = |k| {
            t.spans
                .iter()
                .filter(|s| s.kind == k && s.parent == ROOT_SPAN)
                .count()
        };
        assert_eq!(under_root(SpanKind::DeltaWrite), 1, "req {id}");
        assert!(under_root(SpanKind::Wal) >= 1, "req {id}");
        for c in t.spans.iter().filter(|s| s.kind == SpanKind::Compact) {
            assert_eq!(c.parent, ROOT_SPAN);
            assert_eq!(c.code, 0, "compaction folded");
            assert!(c.value > 0, "at least one layer folded");
            folds += 1;
        }
    }
    assert!(folds > 0, "{writes} writes cross the compaction threshold");
}

/// One server serves a killed-then-retried request, a stall that forces
/// a steal of several requests at once, an admission refusal, a dfs
/// whose deadline has already passed and an unknown graph key. Every
/// span-derived series in its scrape then equals its count over the
/// flight dump, steals included: the counter counts requests moved, one
/// per `steal` span, not steal batches.
#[test]
fn scrape_counts_equal_the_flight_dump() {
    // Requests 0 and 1 stall their workers for 100 ms and 600 ms, and
    // request 10 is killed on its first attempt.
    let plan = "stall=100000:worker=*@req=0;stall=600000:worker=*@req=1;kill:worker=*@req=10";
    let server = Server::start(ServeConfig {
        write_quota: Some(0),
        ..chaos_config(plan, 2, 1)
    });
    let h = server.handle();
    let stalled: Vec<_> = (0..2)
        .map(|id| h.submit(req(id, EngineKind::Serial)))
        .collect();
    let t0 = Instant::now();
    while h.metrics().busy_workers < 2 {
        assert!(t0.elapsed() < Duration::from_secs(10), "both workers stall");
        std::thread::sleep(Duration::from_millis(1));
    }
    // With both workers stalled, requests 2..10 alternate between their
    // queues. The first worker to wake drains its own queue, then steals
    // the back half of the other's: two requests in one steal.
    let queued: Vec<_> = (2..10)
        .map(|id| h.submit(req(id, EngineKind::Serial)))
        .collect();
    for (id, rx) in stalled.into_iter().chain(queued).enumerate() {
        let r = rx.recv().expect("response");
        assert_eq!(r.status, Status::Ok, "req {id}: {:?}", r.error);
    }
    assert_eq!(h.run(req(10, EngineKind::Native)).status, Status::Ok);
    let write = Request {
        graph: "delta:path:16".into(),
        workload: Workload::AddEdges {
            edges: vec![(0, 2)],
        },
        ..req(11, EngineKind::Serial)
    };
    assert_eq!(h.run(write).status, Status::Rejected);
    let late = Request {
        deadline_ms: Some(0),
        ..req(12, EngineKind::Serial)
    };
    assert_eq!(h.run(late).status, Status::Expired);
    let unknown = Request {
        graph: "nope".into(),
        ..req(13, EngineKind::Serial)
    };
    assert_eq!(h.run(unknown).status, Status::Error);
    // Team searches: a dfs on a batched graph, repeated until the idle
    // worker has joined one.
    let mut teamed = 0;
    while !h.prometheus().contains("db_serve_team_joins_total 1") {
        assert!(teamed < 20, "no helper joined in {teamed} searches");
        let team = Request {
            graph: "google".into(),
            ..req(14 + teamed, EngineKind::Native)
        };
        assert_eq!(h.run(team).status, Status::Ok);
        teamed += 1;
    }
    let scrape = h.prometheus();
    let dump = h.flight_dump();
    server.shutdown();

    let n = common::assert_scrape_matches_dump(&scrape, &dump);
    assert_eq!(n["db_serve_admitted_total"], 13 + teamed);
    assert_eq!(n[r#"db_serve_rejected_total{reason="write_quota"}"#], 1);
    assert_eq!(n[r#"db_serve_requests_total{status="ok"}"#], 11 + teamed);
    assert_eq!(n[r#"db_serve_requests_total{status="expired"}"#], 1);
    assert_eq!(n[r#"db_serve_requests_total{status="error"}"#], 1);
    assert_eq!(n["db_serve_request_latency_us_count"], 13 + teamed);
    assert_eq!(n["db_serve_team_joins_total"], 1);
    // The helper's span hangs off the owner's attempt, on the other
    // worker.
    let team = dump
        .spans
        .iter()
        .find(|s| s.kind == SpanKind::Team)
        .unwrap();
    let attempt = dump
        .spans
        .iter()
        .find(|s| s.trace_id == team.trace_id && s.span_id == team.parent)
        .unwrap();
    assert_eq!(attempt.kind, SpanKind::Attempt);
    assert_ne!(attempt.worker, team.worker);
    assert!(team.value > 0, "the helper expanded entries");
    assert_eq!(
        n["db_serve_faults_injected_total"], 3,
        "two stalls, one kill"
    );
    assert_eq!(n["db_serve_worker_panics_total"], 1);
    assert_eq!(n["db_serve_retries_total"], 1);
    // The spans of one steal share its thief and timestamp.
    let mut moved: HashMap<(u32, u64), u64> = HashMap::new();
    for s in dump.spans.iter().filter(|s| s.kind == SpanKind::Steal) {
        *moved.entry((s.worker, s.t0_ns)).or_default() += 1;
    }
    assert!(moved.values().any(|&m| m >= 2), "steals: {moved:?}");
}

/// A killed request's panic dump is on disk by the time its caller has
/// the answer: the worker writes it after the root span closes and
/// before the reply, so an explicit dump the caller takes next gets
/// the following file number. Earlier requests fill the ring first, so
/// a dump written after the reply would still be merging its spans
/// when the caller looks.
#[test]
fn panic_dump_is_written_before_the_reply() {
    let dir = std::env::temp_dir().join(format!("dbfr-panic-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let mut cfg = chaos_config("kill:worker=*@req=0", 1, 1);
    cfg.flight.dump_dir = Some(dir.clone());
    let server = Server::start(cfg);
    let h = server.handle();
    for id in 1..=600u64 {
        assert_eq!(h.run(req(id, EngineKind::Serial)).status, Status::Ok);
    }
    let r = h.run(req(0, EngineKind::Native));
    let panic_dumps: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|name| name.ends_with("-panic.dbfr"))
        .collect();
    let explicit = h.flight_write(&dir).expect("explicit dump written");
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(r.status, Status::Ok, "the retry answers: {:?}", r.error);
    assert_eq!(panic_dumps, ["flight-0000-panic.dbfr"]);
    assert!(
        explicit.ends_with("flight-0001-explicit.dbfr"),
        "{}",
        explicit.display()
    );
}
