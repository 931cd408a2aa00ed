//! End-to-end service tests: deadline cancellation freeing its worker,
//! cross-run outcome determinism, corpus-cache behavior under load,
//! and the NDJSON TCP front-end.

use db_serve::net::{fetch_metrics, fetch_prometheus, roundtrip_line};
use db_serve::{EngineKind, Request, Response, ServeConfig, Server, Status, TcpServer, Workload};
use db_span::SpanKind;
use db_trace::json::Value;
use std::io::BufReader;
use std::net::TcpStream;

fn dfs(id: u64, graph: &str, root: u32) -> Request {
    Request {
        id,
        tenant: "t0".into(),
        graph: graph.into(),
        workload: Workload::Dfs { root },
        engine: EngineKind::Native,
        deadline_ms: None,
    }
}

/// The acceptance test for deadline cancellation: a DFS whose deadline
/// has already passed when a worker picks it up must stop at a poll
/// point (consistent partial output, `completed:false`) and — with only
/// ONE worker in the pool — that worker must come back to serve the
/// next request to completion.
#[test]
fn expired_deadline_stops_dfs_and_frees_the_worker() {
    let server = Server::start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let h = server.handle();

    // A long path is the engine's worst case: serialized work, so a
    // full traversal takes far longer than the 1 ms budget.
    let mut doomed = dfs(1, "path:400000", 0);
    doomed.deadline_ms = Some(1);
    let rx_doomed = h.submit(doomed);
    let rx_next = h.submit(dfs(2, "grid:10:10", 0));

    let r1 = rx_doomed.recv().unwrap();
    assert_eq!(r1.status, Status::Expired, "{:?}", r1.error);
    assert_eq!(r1.payload.get("completed").unwrap().as_bool(), Some(false));
    let partial = r1.payload.get("visited").unwrap().as_u64().unwrap();
    assert!(
        partial < 400_000,
        "a cancelled DFS must not have finished (visited {partial})"
    );

    // The single worker survived the cancellation and serves on.
    let r2 = rx_next.recv().unwrap();
    assert_eq!(r2.status, Status::Ok);
    assert_eq!(r2.payload.get("visited").unwrap().as_u64(), Some(100));

    // The expiry is visible in the metrics and the request's spans: a
    // deadline-miss marker and a root closed as expired.
    let dump = h.flight_dump();
    let m = server.shutdown();
    assert_eq!(m.expired, 1);
    assert_eq!(m.completed, 1);
    let spans: Vec<_> = dump
        .spans
        .iter()
        .filter(|s| s.trace_id == r1.trace_id)
        .collect();
    assert!(spans.iter().any(|s| s.kind == SpanKind::DeadlineMiss));
    assert!(spans
        .iter()
        .any(|s| s.kind == SpanKind::Request && SpanKind::status_name(s.code) == "expired"));
}

/// Mid-run expiry: give the doomed request a deadline that elapses
/// while the traversal is in flight (not before it starts). The token's
/// poll points must stop it with a consistent prefix.
#[test]
fn mid_run_expiry_yields_consistent_partial_traversal() {
    let server = Server::start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let h = server.handle();
    // Warm the corpus so the deadline budget is spent inside the
    // engine, not inside the graph build.
    assert_eq!(h.run(dfs(0, "path:400000", 0)).status, Status::Ok);

    let mut doomed = dfs(1, "path:400000", 0);
    doomed.deadline_ms = Some(2);
    let r = h.run(doomed);
    // On an extremely fast machine the run could finish inside 2 ms;
    // accept Ok-with-missed-deadline but require the common case shape.
    if r.status == Status::Expired {
        assert_eq!(r.payload.get("completed").unwrap().as_bool(), Some(false));
        let partial = r.payload.get("visited").unwrap().as_u64().unwrap();
        assert!(partial >= 1, "the root is always visited before a poll");
        assert!(partial < 400_000);
    } else {
        assert_eq!(r.status, Status::Ok);
    }
    server.shutdown();
}

fn workload_mix(n: u64) -> Vec<Request> {
    // Deterministic mixed batch over 3+ graphs, every workload kind,
    // both cancellable engines plus the serial baseline.
    (0..n)
        .map(|i| {
            let graph = match i % 4 {
                0 => "grid:40:40",
                1 => "path:3000",
                2 => "dag:2500",
                _ => "ring:64",
            };
            let workload = match (i % 4, i % 7) {
                (2, _) | (3, 0) => {
                    if i % 2 == 0 {
                        Workload::Scc
                    } else {
                        Workload::Topo
                    }
                }
                (0, 1) => Workload::Articulation,
                (0, _) | (1, _) => Workload::Dfs {
                    root: (i * 37 % 1600) as u32,
                },
                _ => Workload::Reach {
                    root: (i % 64) as u32,
                    target: ((i * 13) % 64) as u32,
                },
            };
            Request {
                id: i,
                tenant: format!("t{}", i % 3),
                graph: graph.into(),
                workload,
                engine: match i % 5 {
                    0 | 3 => EngineKind::Native,
                    1 => EngineKind::LockFree,
                    _ => EngineKind::Serial,
                },
                deadline_ms: None,
            }
        })
        .collect()
}

fn run_batch(reqs: &[Request], workers: usize) -> (Vec<String>, db_serve::MetricsSnapshot) {
    let server = Server::start(ServeConfig {
        workers,
        queue_capacity: reqs.len() + 1,
        ..ServeConfig::default()
    });
    let h = server.handle();
    let rxs: Vec<_> = reqs.iter().map(|r| h.submit(r.clone())).collect();
    let mut digests: Vec<(u64, String)> = rxs
        .into_iter()
        .map(|rx| {
            let r = rx.recv().unwrap();
            assert_ne!(r.status, Status::Rejected);
            (r.id, r.digest())
        })
        .collect();
    digests.sort();
    let m = server.shutdown();
    (digests.into_iter().map(|(_, d)| d).collect(), m)
}

/// The same request batch, executed twice under different worker
/// counts (hence different schedules and steal patterns), must produce
/// identical response digests — payloads carry no scheduling state.
#[test]
fn outcomes_are_deterministic_across_runs_and_schedules() {
    let reqs = workload_mix(300);
    let (d1, m1) = run_batch(&reqs, 4);
    let (d2, m2) = run_batch(&reqs, 2);
    assert_eq!(d1, d2);
    assert_eq!(m1.errors, 0);
    assert_eq!(m2.errors, 0);
    // 300 requests over 4 graphs: at most 4 misses per run.
    assert!(
        m1.cache_hit_rate() > 0.98,
        "hit rate {}",
        m1.cache_hit_rate()
    );
}

/// NDJSON over TCP: requests, a malformed line, the metrics op, and
/// the shutdown op all round-trip on real sockets.
#[test]
fn tcp_endpoint_round_trips() {
    let server = Server::start(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });
    let mut tcp = TcpServer::bind(server.handle(), "127.0.0.1:0").unwrap();
    let addr = tcp.addr();

    let stream = TcpStream::connect(addr).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);

    // Two requests on one connection, in order.
    let line = dfs(5, "grid:9:9", 0).to_value().to_json();
    let reply = roundtrip_line(&mut reader, &mut writer, &line).unwrap();
    let resp = Response::from_value(&Value::parse(&reply).unwrap()).unwrap();
    assert_eq!(resp.id, 5);
    assert_eq!(resp.status, Status::Ok);
    assert_eq!(resp.payload.get("visited").unwrap().as_u64(), Some(81));

    let reply = roundtrip_line(
        &mut reader,
        &mut writer,
        r#"{"id":6,"graph":"ring:12","workload":{"kind":"scc"}}"#,
    )
    .unwrap();
    let resp = Response::from_value(&Value::parse(&reply).unwrap()).unwrap();
    assert_eq!(resp.payload.get("components").unwrap().as_u64(), Some(1));

    // Garbage gets an error response, not a dropped connection.
    let reply = roundtrip_line(&mut reader, &mut writer, "{not json").unwrap();
    let resp = Response::from_value(&Value::parse(&reply).unwrap()).unwrap();
    assert_eq!(resp.status, Status::Error);

    // Unknown graph key: typed error.
    let reply = roundtrip_line(
        &mut reader,
        &mut writer,
        r#"{"id":7,"graph":"nope","workload":{"kind":"dfs","root":0}}"#,
    )
    .unwrap();
    let resp = Response::from_value(&Value::parse(&reply).unwrap()).unwrap();
    assert_eq!(resp.status, Status::Error);
    assert!(resp.error.unwrap().contains("unknown corpus key"));

    // Metrics over a fresh connection.
    let m = fetch_metrics(&addr).unwrap();
    assert_eq!(m.completed, 2);
    assert_eq!(m.errors, 1);

    // Prometheus scrape over the NDJSON `prometheus` op: valid
    // exposition agreeing with the snapshot above.
    let text = fetch_prometheus(&addr).unwrap();
    let exp = db_metrics::validate_exposition(&text).unwrap();
    assert!(exp
        .samples
        .iter()
        .any(|s| s.name == "db_serve_requests_total"
            && s.label("status") == Some("ok")
            && s.value == 2.0));
    assert!(exp
        .samples
        .iter()
        .any(|s| s.name == "db_serve_request_latency_us_count" && s.value == 3.0));

    // The same body over the one-shot `GET /metrics` HTTP path.
    {
        use std::io::{Read, Write};
        let http = TcpStream::connect(addr).unwrap();
        let mut w = http.try_clone().unwrap();
        w.write_all(b"GET /metrics HTTP/1.0\r\nHost: x\r\n\r\n")
            .unwrap();
        let mut raw = String::new();
        BufReader::new(http).read_to_string(&mut raw).unwrap();
        assert!(raw.starts_with("HTTP/1.0 200 OK\r\n"), "{raw}");
        assert!(raw.contains("Content-Type: text/plain; version=0.0.4"));
        let body = raw.split("\r\n\r\n").nth(1).unwrap();
        db_metrics::validate_exposition(body).unwrap();
    }

    // Shutdown op flags the listener.
    assert!(!tcp.shutdown_requested());
    let reply = roundtrip_line(&mut reader, &mut writer, r#"{"op":"shutdown"}"#).unwrap();
    assert_eq!(reply, r#"{"ok":true}"#);
    assert!(tcp.shutdown_requested());

    tcp.stop();
    server.shutdown();
}

/// Tenant quotas bound *queued* requests per tenant while other
/// tenants keep flowing.
#[test]
fn tenant_quota_isolates_tenants() {
    let server = Server::start(ServeConfig {
        workers: 1,
        tenant_quota: Some(2),
        ..ServeConfig::default()
    });
    let h = server.handle();
    // Saturate tenant A's quota with slow requests, then verify the
    // over-quota submission bounces while tenant B is admitted.
    let mut slow = Vec::new();
    for i in 0..2 {
        let mut r = dfs(i, "grid:200:200", 0);
        r.tenant = "a".into();
        slow.push(h.submit(r));
    }
    let mut over = dfs(10, "grid:200:200", 0);
    over.tenant = "a".into();
    let mut ok_b = dfs(11, "grid:10:10", 0);
    ok_b.tenant = "b".into();
    let over_resp = h.submit(over).recv().unwrap();
    let b_resp = h.submit(ok_b).recv().unwrap();
    // Tenant a had 2 queued (maybe 1 if the worker already started one,
    // so accept either rejection or success for the third; what MUST
    // hold is that tenant b is never rejected).
    assert_ne!(b_resp.status, Status::Rejected);
    if over_resp.status == Status::Rejected {
        assert!(over_resp.error.unwrap().contains("quota"));
    }
    for rx in slow {
        assert_eq!(rx.recv().unwrap().status, Status::Ok);
    }
    server.shutdown();
}
