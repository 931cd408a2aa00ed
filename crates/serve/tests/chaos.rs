//! Chaos suite for the serve layer: deterministic fault plans drive
//! worker panics, stalls, and result corruption, and the tests assert
//! the three resilience invariants from DESIGN.md:
//!
//! 1. **No request silently lost** — every admitted request ends in
//!    exactly one of `ok` / `rejected` / `expired` / `failed`.
//! 2. **Completed means correct** — every `ok` response is bit-identical
//!    (by [`Response::digest`]) to the fault-free run's response.
//! 3. **Determinism** — double runs under the same fault seed produce
//!    identical injection logs and identical per-request outcomes.

use db_fault::{FaultPlan, Injector};
use db_serve::{EngineKind, Request, Resilience, Response, ServeConfig, Server, Status, Workload};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

fn injector(spec: &str) -> Arc<Injector> {
    Arc::new(Injector::new(FaultPlan::parse(spec).unwrap()))
}

/// Chaos policy: breaker disabled (its state depends on completion
/// order, which is scheduling-dependent), restart budget effectively
/// unlimited so worker retirement never changes terminal statuses, and
/// near-zero backoff to keep the suite fast.
fn chaos_resilience(faults: Arc<Injector>) -> Resilience {
    Resilience {
        retry_max: 2,
        retry_base_ms: 1,
        retry_cap_ms: 4,
        restart_budget: 100_000,
        breaker_threshold: 0,
        breaker_cooldown_ms: 50,
        faults: Some(faults),
    }
}

fn req(id: u64, graph: &str, root: u32, engine: EngineKind) -> Request {
    Request {
        id,
        tenant: "chaos".into(),
        graph: graph.into(),
        workload: Workload::Dfs { root },
        engine,
        deadline_ms: None,
    }
}

fn request_set() -> Vec<Request> {
    (0..60u64)
        .map(|i| {
            let engine = match i % 3 {
                0 => EngineKind::Native,
                1 => EngineKind::LockFree,
                _ => EngineKind::Serial,
            };
            let graph = if i % 2 == 0 { "grid:12:12" } else { "dag:200" };
            req(i, graph, (i % 100) as u32, engine)
        })
        .collect()
}

/// Runs `reqs` to completion on `server`, asserting exactly one
/// response per submission, and returns them keyed by id.
fn run_all(server: &Server, reqs: &[Request]) -> HashMap<u64, Response> {
    let h = server.handle();
    let rxs: Vec<_> = reqs.iter().map(|r| (r.id, h.submit(r.clone()))).collect();
    let mut out = HashMap::new();
    for (id, rx) in rxs {
        let resp = rx
            .recv_timeout(Duration::from_secs(120))
            .expect("every admitted request must terminate");
        assert_eq!(resp.id, id);
        // Exactly one response: the channel must now be empty & closed.
        assert!(
            rx.try_recv().is_err(),
            "request {id} received a second response"
        );
        out.insert(id, resp);
    }
    out
}

#[test]
fn no_request_lost_and_ok_results_match_fault_free() {
    let reqs = request_set();

    // Fault-free baseline digests.
    let baseline = Server::start(ServeConfig {
        workers: 3,
        ..ServeConfig::default()
    });
    let expect = run_all(&baseline, &reqs);
    baseline.shutdown();
    for r in expect.values() {
        assert_eq!(r.status, Status::Ok, "baseline must be all-ok: {r:?}");
    }

    // The same workload under kills + stalls + corruption.
    let inj =
        injector("seed=42;kill:worker=*@p=0.25;stall=200:worker=*@p=0.2;corrupt:worker=*@p=0.25");
    let server = Server::start(ServeConfig {
        workers: 3,
        resilience: chaos_resilience(Arc::clone(&inj)),
        ..ServeConfig::default()
    });
    let got = run_all(&server, &reqs);
    let m = server.shutdown();

    assert_eq!(got.len(), reqs.len());
    let mut ok = 0u64;
    let mut failed = 0u64;
    for (id, resp) in &got {
        match resp.status {
            Status::Ok => {
                ok += 1;
                assert_eq!(
                    resp.digest(),
                    expect[id].digest(),
                    "request {id}: completed result must be bit-identical to fault-free"
                );
            }
            Status::Failed => failed += 1,
            other => panic!("request {id}: unexpected terminal {other:?}"),
        }
    }
    // Terminal accounting closes exactly: admitted = ok + failed.
    assert_eq!(m.admitted, reqs.len() as u64);
    assert_eq!(m.completed, ok);
    assert_eq!(m.failed, failed);
    assert_eq!(ok + failed, reqs.len() as u64);

    // The plan actually struck, and the isolation boundary actually
    // caught panicking workers (the "panic ≥ 1 serve worker" proof).
    assert!(inj.injected() > 0, "plan never struck");
    assert!(m.worker_panics >= 1, "no worker ever panicked");
    assert!(m.retries >= 1, "no retry ever happened");
    assert!(ok >= 1, "chaos at p<1 with retries should complete some");
}

#[test]
fn deadlines_still_expire_cleanly_under_chaos() {
    let inj = injector("seed=3;stall=5000:worker=*@p=0.9");
    let server = Server::start(ServeConfig {
        workers: 2,
        resilience: chaos_resilience(inj),
        ..ServeConfig::default()
    });
    let h = server.handle();
    let rxs: Vec<_> = (0..10u64)
        .map(|i| {
            let mut r = req(i, "grid:16:16", 0, EngineKind::Native);
            r.deadline_ms = Some(1);
            h.submit(r)
        })
        .collect();
    let mut seen = 0;
    for rx in rxs {
        let resp = rx.recv_timeout(Duration::from_secs(60)).unwrap();
        assert!(
            matches!(
                resp.status,
                Status::Ok | Status::Expired | Status::Failed | Status::Rejected
            ),
            "non-terminal status {:?}",
            resp.status
        );
        seen += 1;
    }
    assert_eq!(seen, 10);
    let m = server.shutdown();
    assert_eq!(m.admitted, m.completed + m.expired + m.errors + m.failed);
}

#[test]
fn same_seed_double_runs_replay_identically() {
    let reqs = request_set();
    let spec = "seed=1234;kill:worker=*@p=0.2;corrupt:worker=*@p=0.3";
    let mut logs = Vec::new();
    let mut outcomes = Vec::new();
    for _ in 0..2 {
        let inj = injector(spec);
        let server = Server::start(ServeConfig {
            workers: 3,
            resilience: chaos_resilience(Arc::clone(&inj)),
            ..ServeConfig::default()
        });
        let got = run_all(&server, &reqs);
        server.shutdown();
        // Worker scheduling may reorder strikes; the injection *set*
        // (site, request, kind — worker index excluded by design) must
        // be identical, so compare sorted.
        let mut log = inj.log_lines();
        log.sort();
        logs.push(log);
        let mut by_id: Vec<_> = got
            .into_iter()
            .map(|(id, r)| (id, r.status.as_str(), r.digest()))
            .collect();
        by_id.sort();
        outcomes.push(by_id);
    }
    assert!(!logs[0].is_empty(), "the plan must strike at least once");
    assert_eq!(logs[0], logs[1], "injection logs diverged across runs");
    assert_eq!(outcomes[0], outcomes[1], "outcomes diverged across runs");
}

#[test]
fn breaker_trips_sheds_load_and_half_opens() {
    // retry_max = 0: each killed request fails immediately.
    let inj = injector("kill:worker=*@req=1;kill:worker=*@req=2");
    let server = Server::start(ServeConfig {
        workers: 2,
        resilience: Resilience {
            retry_max: 0,
            restart_budget: 100,
            breaker_threshold: 2,
            breaker_cooldown_ms: 100,
            faults: Some(inj),
            ..Resilience::default()
        },
        ..ServeConfig::default()
    });
    let h = server.handle();

    assert_eq!(
        h.run(req(1, "grid:8:8", 0, EngineKind::Native)).status,
        Status::Failed
    );
    assert_eq!(
        h.run(req(2, "grid:8:8", 0, EngineKind::Native)).status,
        Status::Failed
    );

    // Two consecutive failures tripped the tenant's breaker: load shed.
    let shed = h.run(req(3, "grid:8:8", 0, EngineKind::Native));
    assert_eq!(shed.status, Status::Rejected);
    assert!(
        shed.error.as_deref().unwrap().contains("breaker"),
        "{shed:?}"
    );
    let m = h.metrics();
    assert_eq!(m.breaker_trips, 1);
    assert_eq!(m.rejected_breaker, 1);
    assert_eq!(m.breaker_open, 1);

    // After the cooldown the breaker half-opens; the (fault-free) probe
    // succeeds and closes it.
    std::thread::sleep(Duration::from_millis(150));
    assert_eq!(
        h.run(req(4, "grid:8:8", 0, EngineKind::Native)).status,
        Status::Ok
    );
    assert_eq!(
        h.run(req(5, "grid:8:8", 0, EngineKind::Native)).status,
        Status::Ok
    );
    let m = server.shutdown();
    assert_eq!(m.breaker_open, 0);
    assert_eq!(m.completed, 2);
    assert_eq!(m.failed, 2);
}

#[test]
fn restart_budget_exhaustion_retires_workers_without_losing_requests() {
    let inj = injector("kill:worker=*@req=1;kill:worker=*@req=2");
    let server = Server::start(ServeConfig {
        workers: 1,
        resilience: Resilience {
            retry_max: 0,
            restart_budget: 1,
            breaker_threshold: 0,
            faults: Some(inj),
            ..Resilience::default()
        },
        ..ServeConfig::default()
    });
    let h = server.handle();

    // First kill consumes the one respawn; second kill retires the
    // (only) worker.
    assert_eq!(
        h.run(req(1, "grid:8:8", 0, EngineKind::Native)).status,
        Status::Failed
    );
    assert_eq!(
        h.run(req(2, "grid:8:8", 0, EngineKind::Native)).status,
        Status::Failed
    );

    // The pool is dead, but clients still get a terminal answer —
    // either failed-at-admission (worker already marked dead) or failed
    // by the retirement drain; never a hang.
    let r = h
        .submit(req(3, "grid:8:8", 0, EngineKind::Native))
        .recv_timeout(Duration::from_secs(10))
        .expect("request against a dead pool must still terminate");
    assert_eq!(r.status, Status::Failed);
    assert!(
        r.error.as_deref().unwrap().contains("no live workers"),
        "{r:?}"
    );

    let m = server.shutdown();
    assert_eq!(m.worker_panics, 2);
    assert_eq!(m.worker_respawns, 1);
    assert_eq!(m.failed, 3);
}

/// Two workers and no respawns: request 1 kills its worker, which
/// retires. The survivor answers every later request, a dfs on the
/// batched `social_s` among them: with one live worker that search
/// runs alone instead of offering its team to the retired one.
#[test]
fn the_survivor_of_a_retirement_serves_every_later_request() {
    let server = Server::start(ServeConfig {
        workers: 2,
        resilience: Resilience {
            retry_max: 0,
            restart_budget: 0,
            breaker_threshold: 0,
            faults: Some(injector("kill:worker=*@req=1")),
            ..Resilience::default()
        },
        ..ServeConfig::default()
    });
    let h = server.handle();
    assert_eq!(
        h.run(req(1, "grid:8:8", 0, EngineKind::Native)).status,
        Status::Failed
    );
    let rxs: Vec<_> = (2..40u64)
        .map(|id| {
            let graph = if id == 20 { "social_s" } else { "grid:8:8" };
            (id, h.submit(req(id, graph, 0, EngineKind::Native)))
        })
        .collect();
    for (id, rx) in rxs {
        let r = rx
            .recv_timeout(Duration::from_secs(60))
            .expect("the survivor answers");
        assert_eq!(r.status, Status::Ok, "req {id}: {:?}", r.error);
    }
    let m = server.shutdown();
    assert_eq!((m.worker_panics, m.worker_respawns), (1, 0));
    assert_eq!((m.completed, m.failed), (38, 1));
}

#[test]
fn degradation_ladder_falls_back_to_serial() {
    // `always`-corrupt poisons every attempt but a retried request's
    // final one, so every engine name converges after two retries. Only
    // `sim` is relabelled on that attempt: every other name already
    // runs the served kernel, so only `sim` counts as degraded.
    for (id, engine, degraded) in [
        (1, EngineKind::Sim, 1),
        (2, EngineKind::Native, 0),
        (3, EngineKind::Serial, 0),
    ] {
        let inj = injector("corrupt:worker=*@always");
        let server = Server::start(ServeConfig {
            workers: 1,
            resilience: Resilience {
                retry_max: 2,
                retry_base_ms: 1,
                retry_cap_ms: 2,
                breaker_threshold: 0,
                faults: Some(inj),
                ..Resilience::default()
            },
            ..ServeConfig::default()
        });
        let resp = server.handle().run(req(id, "grid:10:10", 0, engine));
        assert_eq!(resp.status, Status::Ok, "{engine:?}: {resp:?}");
        assert_eq!(resp.payload.get("visited").unwrap().as_u64(), Some(100));
        let m = server.shutdown();
        assert_eq!(m.degraded, degraded, "{engine:?}: degraded count");
        assert_eq!(m.retries, 2, "{engine:?}");
        assert_eq!(m.completed, 1, "{engine:?}");
    }
}

/// The sim half of the chaos contract (the "kill ≥ 1 sim SM" proof):
/// a killed SM's work is re-stolen and the reachable set stays
/// bit-identical to the fault-free run. The full sim chaos matrix lives
/// in `db-core`'s `sim_faults` suite; this keeps the cross-layer
/// invariant visible from the serve-side suite too.
#[test]
fn sim_layer_kill_recovers_under_the_same_plan_grammar() {
    use db_graph::GraphBuilder;
    let mut b = GraphBuilder::undirected(1600);
    for y in 0..40u32 {
        for x in 0..40u32 {
            if x + 1 < 40 {
                b.edge(y * 40 + x, y * 40 + x + 1);
            }
            if y + 1 < 40 {
                b.edge(y * 40 + x, (y + 1) * 40 + x);
            }
        }
    }
    let g = b.build();
    let cfg = db_core::DiggerBeesConfig {
        blocks: 4,
        warps_per_block: 4,
        hot_size: 16,
        hot_cutoff: 4,
        cold_cutoff: 8,
        flush_batch: 8,
        ..Default::default()
    };
    let m = db_gpu_sim::MachineModel::h100();
    let baseline = db_core::run_sim(&g, 0, &cfg, &m);
    let inj = Injector::new(FaultPlan::parse("kill:sm=0@cycle=2000").unwrap());
    let r = db_core::run_sim_faulted(&g, 0, &cfg, &m, &db_trace::NullTracer, &inj);
    assert_eq!(r.stats.sms_killed, 1);
    assert!(r.stats.entries_recovered > 0);
    assert_eq!(r.visited, baseline.visited);
}
