//! Property (c) of the ISSUE's property-test satellite: arbitrary byte
//! junk thrown at the NDJSON endpoint never panics the server and never
//! wedges the connection — after any amount of garbage, a well-formed
//! `dfs` request line still gets its `ok` answer.
//!
//! One shared server backs every case (leaked for process lifetime), so
//! the suite also exercises many hostile connections against the *same*
//! acceptor — a junk case that poisoned shared state would fail the
//! cases after it.

use db_serve::{Response, ServeConfig, Server, Status, TcpServer};
use db_trace::json::Value;
use proptest::prelude::*;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::OnceLock;
use std::time::Duration;

fn server_addr() -> SocketAddr {
    static ADDR: OnceLock<SocketAddr> = OnceLock::new();
    *ADDR.get_or_init(|| {
        let server = Server::start(ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        });
        let tcp = TcpServer::bind(server.handle(), "127.0.0.1:0").unwrap();
        let addr = tcp.addr();
        // Keep the listener and pool alive for the whole test process;
        // dropping TcpServer would stop the acceptor between cases.
        std::mem::forget(tcp);
        std::mem::forget(server);
        addr
    })
}

fn connect() -> (BufReader<TcpStream>, TcpStream) {
    let stream = TcpStream::connect(server_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let writer = stream.try_clone().unwrap();
    (BufReader::new(stream), writer)
}

/// The liveness probe: a small `dfs` request whose answer is `ok`.
const PROBE: &str = r#"{"id":4242,"graph":"grid:4:4","workload":{"kind":"dfs","root":0}}"#;

/// Whether `line` is the probe's `ok` answer.
fn is_probe_answer(line: &str) -> bool {
    Value::parse(line.trim_end())
        .ok()
        .and_then(|doc| Response::from_value(&doc).ok())
        .is_some_and(|r| r.id == 4242 && r.status == Status::Ok)
}

/// Sends `junk` (newline-terminated) followed by the probe on one
/// connection, then reads replies until the probe's answer arrives.
/// Returns false only if the server stopped answering.
fn junk_then_probe(junk: &[u8]) -> bool {
    let (mut reader, mut writer) = connect();
    writer.write_all(junk).unwrap();
    writer.write_all(b"\n").unwrap();
    writer.write_all(PROBE.as_bytes()).unwrap();
    writer.write_all(b"\n").unwrap();
    writer.flush().unwrap();
    // Embedded newlines split the junk into several request lines, each
    // earning one error reply before the probe's answer arrives; blank
    // lines earn none. Bound the reads accordingly.
    let max_replies = junk.iter().filter(|&&b| b == b'\n').count() + 2;
    for _ in 0..max_replies {
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => return false,
            Ok(_) => {}
        }
        if is_probe_answer(&line) {
            return true;
        }
    }
    false
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// (c) Arbitrary bytes — including embedded newlines, NULs, and
    /// invalid UTF-8 — never panic the server or wedge the connection.
    #[test]
    fn byte_junk_never_breaks_the_endpoint(junk in proptest::collection::vec(any::<u8>(), 0..512)) {
        // Random bytes can collide with the two line prefixes that
        // legitimately end or redirect the exchange; skip those.
        let text = String::from_utf8_lossy(&junk);
        prop_assume!(!text.contains("GET /metrics"));
        prop_assume!(!text.contains("shutdown"));
        prop_assert!(
            junk_then_probe(&junk),
            "endpoint stopped answering after junk {:?}",
            junk
        );
    }

    /// Near-miss JSON (truncated objects, wrong types) gets a
    /// structured error, never a panic or a dropped connection.
    #[test]
    fn truncated_json_gets_structured_errors(cut in 0usize..40, pad in any::<u8>()) {
        let full = format!(r#"{{"id":7,"tenant":"t","graph":"grid:4:4","workload":"dfs","root":{}}}"#, pad);
        let line = &full[..cut.min(full.len())];
        prop_assert!(junk_then_probe(line.as_bytes()));
    }
}

#[test]
fn oversized_line_is_rejected_and_connection_survives() {
    let (mut reader, mut writer) = connect();
    // 2 MiB of 'a' — double the bound; must come back as a structured
    // error, not an unbounded buffer or a dropped connection.
    let big = vec![b'a'; 2 * db_serve::net::MAX_LINE_BYTES];
    writer.write_all(&big).unwrap();
    writer.write_all(b"\n").unwrap();
    writer.flush().unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let doc = Value::parse(line.trim_end()).unwrap();
    assert_eq!(doc.get("status").and_then(Value::as_str), Some("error"));
    assert!(
        doc.get("error")
            .and_then(Value::as_str)
            .unwrap()
            .contains("exceeds"),
        "{line}"
    );
    // Same connection still serves real requests.
    let reply = db_serve::net::roundtrip_line(&mut reader, &mut writer, PROBE).unwrap();
    assert!(is_probe_answer(&reply), "{reply}");
}

#[test]
fn mid_request_disconnect_leaves_server_healthy() {
    for _ in 0..8 {
        let (_reader, mut writer) = connect();
        // An unterminated partial request, then a hard close: the
        // server must treat it as a disconnect, not a request.
        writer.write_all(br#"{"id":1,"tenant":"t","gra"#).unwrap();
        writer.flush().unwrap();
        drop(writer);
    }
    // Fresh connections still work after a burst of half-requests.
    let (mut reader, mut writer) = connect();
    let reply = db_serve::net::roundtrip_line(&mut reader, &mut writer, PROBE).unwrap();
    assert!(is_probe_answer(&reply), "{reply}");
}
