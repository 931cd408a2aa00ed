//! Tier-1 guard for the serve tier's single emission stream. Every
//! scheduling decision is recorded once, as a span, and the
//! span-derived `db_serve_*` series a scrape reports are folded from
//! those spans. Each test drives one kind of decision: an admission
//! refusal for each reason, a failure with no live worker, a killed and
//! retried request, requests queued behind two stalled workers, an
//! expired and an unknown-graph answer.
//! It then checks the scrape against the flight dump and the count the
//! decision should leave. The queue-depth and open-breaker gauges are
//! read at scrape time, and every response's latency is its root span's
//! duration.

#[path = "../crates/serve/tests/common/mod.rs"]
mod common;

use db_fault::{FaultPlan, Injector};
use db_serve::{
    EngineKind, Request, Resilience, Response, ServeConfig, ServeHandle, Server, Status, Workload,
};
use db_span::{validate_dump, SpanKind, ADMISSION_WORKER};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn req(id: u64) -> Request {
    Request {
        id,
        tenant: "fold".into(),
        graph: "grid:12:12".into(),
        workload: Workload::Dfs { root: 0 },
        engine: EngineKind::Serial,
        deadline_ms: None,
    }
}

/// A one-edge write to the in-memory `delta:path:16` corpus.
fn write(id: u64) -> Request {
    Request {
        graph: "delta:path:16".into(),
        workload: Workload::AddEdges {
            edges: vec![(0, 2)],
        },
        ..req(id)
    }
}

/// A policy that runs the fault plan `spec` with a roomy restart budget
/// and no circuit breaker.
fn chaos(spec: &str, retry_max: u32) -> Resilience {
    Resilience {
        retry_max,
        retry_base_ms: 1,
        retry_cap_ms: 4,
        restart_budget: 100,
        breaker_threshold: 0,
        faults: Some(Arc::new(Injector::new(FaultPlan::parse(spec).unwrap()))),
        ..Resilience::default()
    }
}

/// Checks an idle server's scrape against its flight dump and returns
/// the span-derived counts.
fn folded(h: &ServeHandle) -> BTreeMap<&'static str, u64> {
    common::assert_scrape_matches_dump(&h.prometheus(), &h.flight_dump())
}

/// The value of the unlabelled series `name` in a scrape.
fn sample(scrape: &str, name: &str) -> f64 {
    scrape
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' '))
        .unwrap_or_else(|| panic!("no {name} in the scrape"))
        .trim()
        .parse()
        .unwrap()
}

/// Waits until `busy` workers are inside an attempt.
fn wait_busy(h: &ServeHandle, busy: u64) {
    let t0 = Instant::now();
    while h.metrics().busy_workers < busy {
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "{busy} workers stall"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn assert_status(r: &Response, want: Status) {
    assert_eq!(r.status, want, "req {}: {:?}", r.id, r.error);
}

#[test]
fn tenant_quota_refusal_is_counted_once() {
    let server = Server::start(ServeConfig {
        workers: 1,
        tenant_quota: Some(0),
        ..ServeConfig::default()
    });
    let h = server.handle();
    let r = h.run(req(0));
    assert_status(&r, Status::Rejected);
    assert!(r.error.as_deref().unwrap().contains("quota"), "{r:?}");
    let n = folded(&h);
    server.shutdown();
    assert_eq!(n[r#"db_serve_rejected_total{reason="tenant_quota"}"#], 1);
    assert_eq!(n["db_serve_admitted_total"], 0);
    // A refusal closed at admission is not a finished request.
    assert_eq!(n["db_serve_request_latency_us_count"], 0);
}

#[test]
fn write_quota_refusal_is_counted_once() {
    let server = Server::start(ServeConfig {
        workers: 1,
        write_quota: Some(0),
        ..ServeConfig::default()
    });
    let h = server.handle();
    let read = Request {
        graph: "delta:path:16".into(),
        ..req(0)
    };
    assert_status(&h.run(read), Status::Ok);
    assert_status(&h.run(write(1)), Status::Rejected);
    let n = folded(&h);
    server.shutdown();
    assert_eq!(n[r#"db_serve_rejected_total{reason="write_quota"}"#], 1);
    assert_eq!(n["db_serve_admitted_total"], 1);
    assert_eq!(n[r#"db_serve_requests_total{status="ok"}"#], 1);
}

/// A full queue refuses the next request, and a scrape taken meanwhile
/// reads the queue depth from the pool state.
#[test]
fn capacity_refusal_is_counted_once_and_depth_read_at_scrape() {
    let server = Server::start(ServeConfig {
        workers: 1,
        queue_capacity: 1,
        resilience: chaos("stall=200000:worker=*@req=0", 0),
        ..ServeConfig::default()
    });
    let h = server.handle();
    let stalled = h.submit(req(0));
    wait_busy(&h, 1);
    let queued = h.submit(req(1));
    assert_status(&h.run(req(2)), Status::Rejected);
    assert_eq!(sample(&h.prometheus(), "db_serve_queue_depth"), 1.0);
    assert_eq!(h.metrics().queue_depth, 1);
    for rx in [stalled, queued] {
        assert_status(&rx.recv().unwrap(), Status::Ok);
    }
    let n = folded(&h);
    assert_eq!(sample(&h.prometheus(), "db_serve_queue_depth"), 0.0);
    server.shutdown();
    assert_eq!(n[r#"db_serve_rejected_total{reason="capacity"}"#], 1);
    assert_eq!(n["db_serve_admitted_total"], 2);
    assert_eq!(n[r#"db_serve_requests_total{status="ok"}"#], 2);
    assert_eq!(n["db_serve_faults_injected_total"], 1, "one stall");
}

/// A handle that outlives its server's drain is refused as draining.
#[test]
fn draining_refusal_is_counted_once() {
    let server = Server::start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let h = server.handle();
    assert_status(&h.run(req(0)), Status::Ok);
    server.shutdown();
    let r = h.run(req(1));
    assert_status(&r, Status::Rejected);
    assert!(r.error.as_deref().unwrap().contains("draining"), "{r:?}");
    let n = folded(&h);
    assert_eq!(n[r#"db_serve_rejected_total{reason="draining"}"#], 1);
    assert_eq!(n["db_serve_admitted_total"], 1);
    assert_eq!(n[r#"db_serve_requests_total{status="ok"}"#], 1);
}

/// Two killed requests trip the tenant's breaker, which sheds the
/// third. The trip has no span and keeps its own counter; the
/// open-breaker gauge is read at scrape time.
#[test]
fn breaker_refusal_is_counted_once_and_open_breakers_read_at_scrape() {
    let server = Server::start(ServeConfig {
        workers: 2,
        resilience: Resilience {
            breaker_threshold: 2,
            breaker_cooldown_ms: 60_000,
            ..chaos("kill:worker=*@req=1;kill:worker=*@req=2", 0)
        },
        ..ServeConfig::default()
    });
    let h = server.handle();
    assert_status(&h.run(req(1)), Status::Failed);
    assert_status(&h.run(req(2)), Status::Failed);
    let shed = h.run(req(3));
    assert_status(&shed, Status::Rejected);
    assert!(
        shed.error.as_deref().unwrap().contains("breaker"),
        "{shed:?}"
    );
    let n = folded(&h);
    let scrape = h.prometheus();
    assert_eq!(sample(&scrape, "db_serve_breaker_open"), 1.0);
    assert_eq!(sample(&scrape, "db_serve_breaker_trips_total"), 1.0);
    assert_eq!(h.metrics().breaker_open, 1);
    server.shutdown();
    assert_eq!(n[r#"db_serve_rejected_total{reason="breaker"}"#], 1);
    assert_eq!(n[r#"db_serve_requests_total{status="failed"}"#], 2);
    assert_eq!(n["db_serve_faults_injected_total"], 2);
    assert_eq!(n["db_serve_worker_panics_total"], 2);
    assert_eq!(n["db_serve_retries_total"], 0);
}

/// Once the only worker has retired, a request fails without a worker,
/// at admission or in the retirement drain; either way its root span
/// is a finished answer, so it enters the latency histogram.
#[test]
fn failures_without_a_worker_enter_the_latency_histogram() {
    let server = Server::start(ServeConfig {
        workers: 1,
        resilience: Resilience {
            restart_budget: 0,
            ..chaos("kill:worker=*@req=1", 0)
        },
        ..ServeConfig::default()
    });
    let h = server.handle();
    assert_status(&h.run(req(1)), Status::Failed);
    let r = h
        .submit(req(2))
        .recv_timeout(Duration::from_secs(10))
        .expect("a request against a dead pool still terminates");
    assert_status(&r, Status::Failed);
    assert!(r.error.as_deref().unwrap().contains("no live workers"));
    let n = folded(&h);
    server.shutdown();
    assert_eq!(n[r#"db_serve_requests_total{status="failed"}"#], 2);
    assert_eq!(n["db_serve_request_latency_us_count"], 2);
    assert_eq!(n["db_serve_worker_panics_total"], 1);
}

#[test]
fn killed_request_counts_one_fault_one_panic_and_one_retry() {
    let server = Server::start(ServeConfig {
        workers: 2,
        resilience: chaos("kill:worker=*@req=3", 1),
        ..ServeConfig::default()
    });
    let h = server.handle();
    for id in 0..6 {
        assert_status(&h.run(req(id)), Status::Ok);
    }
    let n = folded(&h);
    server.shutdown();
    assert_eq!(n["db_serve_admitted_total"], 6);
    assert_eq!(n[r#"db_serve_requests_total{status="ok"}"#], 6);
    assert_eq!(n["db_serve_request_latency_us_count"], 6);
    assert_eq!(n["db_serve_faults_injected_total"], 1);
    assert_eq!(n["db_serve_worker_panics_total"], 1);
    assert_eq!(n["db_serve_retries_total"], 1);
}

/// Both workers stall, for 50 and 400 ms, while eight requests queue,
/// each with a deadline 10 ms earlier than the one before. The worker
/// that wakes first runs all eight, most urgent first, so their `queue`
/// spans end in deadline order: the reverse of their submission.
#[test]
fn queued_requests_run_in_deadline_order() {
    let server = Server::start(ServeConfig {
        workers: 2,
        resilience: chaos("stall=50000:worker=*@req=0;stall=400000:worker=*@req=1", 0),
        ..ServeConfig::default()
    });
    let h = server.handle();
    let stalled: Vec<_> = (0..2).map(|id| h.submit(req(id))).collect();
    wait_busy(&h, 2);
    let queued: Vec<_> = (2..10)
        .map(|id| {
            h.submit(Request {
                deadline_ms: Some(60_000 - 10 * id),
                ..req(id)
            })
        })
        .collect();
    let mut ids = HashMap::new();
    for rx in stalled.into_iter().chain(queued) {
        let r = rx.recv().unwrap();
        assert_status(&r, Status::Ok);
        ids.insert(r.trace_id, r.id);
    }
    let dump = h.flight_dump();
    common::assert_scrape_matches_dump(&h.prometheus(), &dump);
    server.shutdown();
    let mut dequeued: Vec<(u64, u64)> = dump
        .spans
        .iter()
        .filter(|s| s.kind == SpanKind::Queue)
        .map(|s| (s.t1_ns, ids[&s.trace_id]))
        .filter(|&(_, id)| id >= 2)
        .collect();
    dequeued.sort_unstable();
    let order: Vec<u64> = dequeued.into_iter().map(|(_, id)| id).collect();
    assert_eq!(order, (2..10).rev().collect::<Vec<u64>>(), "dequeue order");
}

#[test]
fn expired_and_unknown_graph_answers_count_under_their_status() {
    let server = Server::start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let h = server.handle();
    let late = Request {
        deadline_ms: Some(0),
        ..req(0)
    };
    assert_status(&h.run(late), Status::Expired);
    let unknown = Request {
        graph: "nope".into(),
        ..req(1)
    };
    assert_status(&h.run(unknown), Status::Error);
    assert_status(&h.run(req(2)), Status::Ok);
    let n = folded(&h);
    server.shutdown();
    assert_eq!(n["db_serve_admitted_total"], 3);
    for status in ["expired", "error", "ok"] {
        let key = format!("db_serve_requests_total{{status=\"{status}\"}}");
        assert_eq!(n[key.as_str()], 1, "{key}");
    }
    assert_eq!(n[r#"db_serve_requests_total{status="failed"}"#], 0);
    assert_eq!(n["db_serve_request_latency_us_count"], 3);
}

/// Every response, served or refused, reports its root span's duration
/// as its latency and that span's trace id.
#[test]
fn every_latency_is_its_root_span_duration() {
    let server = Server::start(ServeConfig {
        workers: 2,
        write_quota: Some(0),
        ..ServeConfig::default()
    });
    let h = server.handle();
    let late = Request {
        deadline_ms: Some(0),
        ..req(1)
    };
    let unknown = Request {
        graph: "nope".into(),
        ..req(2)
    };
    let resps: Vec<Response> = [req(0), late, unknown, write(3)]
        .into_iter()
        .map(|r| h.run(r))
        .collect();
    let statuses: Vec<Status> = resps.iter().map(|r| r.status).collect();
    assert_eq!(
        statuses,
        [Status::Ok, Status::Expired, Status::Error, Status::Rejected]
    );
    let dump = h.flight_dump();
    server.shutdown();
    validate_dump(&dump).expect("the dump validates");
    for r in &resps {
        let roots: Vec<_> = dump
            .spans
            .iter()
            .filter(|s| s.kind == SpanKind::Request && s.value == r.id)
            .collect();
        assert_eq!(roots.len(), 1, "req {}: one root span", r.id);
        let root = roots[0];
        assert_eq!(root.trace_id, r.trace_id, "req {}", r.id);
        assert_eq!(
            r.latency_us,
            (root.t1_ns - root.t0_ns) / 1_000,
            "req {}",
            r.id
        );
        assert_eq!(
            root.worker == ADMISSION_WORKER,
            r.status == Status::Rejected,
            "req {}: only the refusal closes on the admission lane",
            r.id
        );
    }
}
