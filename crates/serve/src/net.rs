//! Newline-delimited-JSON TCP front-end over a [`ServeHandle`].
//!
//! Protocol: each line the client sends is either a [`Request`] object
//! or a control op:
//!
//! * `{"op":"shutdown"}` — replies `{"ok":true}` and flags shutdown;
//!   the process hosting the listener decides when to act on it
//!   (see [`TcpServer::shutdown_requested`]);
//! * `{"op":"flight"}` — replies with the flight recorder's summary
//!   counts, or with `"dir"` writes a `.dbfr` dump there.
//!
//! Any other op, `metrics` and `prometheus` among them, gets an
//! `unknown op` error line.
//!
//! A server's series leave it in one form: a line starting with
//! `GET /metrics` is answered with a one-shot HTTP/1.0 response
//! carrying the Prometheus text scrape ([`ServeHandle::prometheus`]),
//! after which the connection closes. That is enough HTTP for a stock
//! scraper (`curl`, Prometheus itself) without an HTTP server
//! dependency, and [`fetch_prometheus`] is the repository's own client
//! for it. The scrape's latency histogram bounds a quantile or the
//! largest latency to a bucket; the exact figures stay in-process
//! ([`ServeHandle::metrics`]).
//!
//! Every request line gets exactly one response line, in submission
//! order per connection (the connection thread blocks on each
//! response; pipelining across requests comes from opening several
//! connections, which is what the load generator does).
//!
//! Built on `std::net` only — no async runtime, matching the
//! workspace's no-external-deps rule. One thread per connection is
//! plenty for a benchmark-grade endpoint, and the threads are bounded:
//! the server holds at most [`MAX_CONNECTIONS`] connections open. The
//! accept loop answers a connection past that budget with one
//! `rejected` line and closes it without starting a thread, counted in
//! `db_serve_rejected_total{reason="connections"}`; the
//! `db_serve_connections` gauge shows the connections held. An idle
//! connection is not timed out: it holds its place until the client
//! closes it.
//!
//! ## One segment per reply
//!
//! Every reply line leaves in one `write_all` of the JSON text and its
//! `\n` together. Written as two calls, the body and then the `\n`,
//! Nagle's algorithm holds the one-byte `\n` until the client ACKs the
//! body, and a client still waiting for that `\n` delays its ACK by up
//! to 40 ms: one stall per reply. Accepted sockets also set
//! `TCP_NODELAY`, so a reply longer than one segment does not hold its
//! last part back the same way. The `GET /metrics` scrape is one write
//! too. The client helper [`roundtrip_line`] still writes a request as
//! two calls.
//!
//! ## Hardening
//!
//! The endpoint treats every byte from the wire as hostile:
//!
//! * line reads are bounded ([`MAX_LINE_BYTES`]); an oversized line is
//!   drained and answered with a structured `error` response instead of
//!   buffering without limit;
//! * invalid UTF-8 is replaced lossily (the JSON parser then reports a
//!   structured parse error) rather than killing the connection;
//! * request dispatch runs under `catch_unwind`, so no parser or
//!   handler panic can take the connection thread down silently;
//! * a mid-request disconnect (read or write error) closes the
//!   connection cleanly; the pool still delivers the orphaned response
//!   to a dropped channel, which is not an error.

use crate::pool::ServeHandle;
use crate::request::{Request, Response, Status};
use db_metrics::Gauge;
use db_trace::json::Value;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Upper bound on one NDJSON request line. Longer lines are drained
/// and rejected with a structured error instead of being buffered.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Connections the server holds open at once, one thread each: above
/// every client count the repository's load generators and smoke jobs
/// open.
pub const MAX_CONNECTIONS: u64 = 64;

/// How long the accept loop waits after a failed accept. A failure that
/// persists (`EMFILE`: the process is out of descriptors) would
/// otherwise spin the accept thread on a core.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(5);

/// A listening NDJSON endpoint bound to a running server.
#[derive(Debug)]
pub struct TcpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    shutdown_requested: Arc<AtomicBool>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl TcpServer {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and
    /// starts accepting connections, dispatching requests into
    /// `handle`'s server.
    pub fn bind(handle: ServeHandle, addr: &str) -> std::io::Result<TcpServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let shutdown_requested = Arc::new(AtomicBool::new(false));
        let accept_thread = {
            let stop = Arc::clone(&stop);
            let shutdown_requested = Arc::clone(&shutdown_requested);
            std::thread::Builder::new()
                .name("serve-accept".into())
                .spawn(move || {
                    let series = handle.series();
                    for conn in listener.incoming() {
                        if stop.load(Ordering::Acquire) {
                            break;
                        }
                        let Ok(mut stream) = conn else {
                            std::thread::sleep(ACCEPT_BACKOFF);
                            continue;
                        };
                        // Nagle off: a reply longer than one segment does
                        // not hold its last part back for the client's ACK.
                        let _ = stream.set_nodelay(true);
                        // Only this thread adds to the gauge, so a count
                        // read under the budget stays under it.
                        if series.connections.get() >= MAX_CONNECTIONS {
                            series.rejected_connections.inc();
                            let reply = Response::failure(
                                0,
                                Status::Rejected,
                                format!("server holds {MAX_CONNECTIONS} connections"),
                            );
                            let _ = write_line(&mut stream, reply.to_value().to_json());
                            continue;
                        }
                        let held = Held::open(&series.connections);
                        let handle = handle.clone();
                        let shutdown_requested = Arc::clone(&shutdown_requested);
                        // Connection threads detach; they exit when the
                        // client closes its end, and `held` leaves the
                        // gauge with them (or here, if the spawn fails).
                        let _ = std::thread::Builder::new().name("serve-conn".into()).spawn(
                            move || serve_connection(stream, handle, shutdown_requested, held),
                        );
                    }
                })?
        };
        Ok(TcpServer {
            addr: local,
            stop,
            shutdown_requested,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether some client sent `{"op":"shutdown"}`.
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown_requested.load(Ordering::Acquire)
    }

    /// Stops accepting new connections and joins the acceptor thread.
    /// In-flight connections finish on their own.
    pub fn stop(&mut self) {
        if let Some(t) = self.accept_thread.take() {
            self.stop.store(true, Ordering::Release);
            // Self-connect to unblock the accept() call.
            let _ = TcpStream::connect(self.addr);
            let _ = t.join();
        }
    }
}

impl Drop for TcpServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// One connection counted in the `db_serve_connections` gauge until it
/// drops.
struct Held(Gauge);

impl Held {
    fn open(gauge: &Gauge) -> Held {
        gauge.add(1);
        Held(gauge.clone())
    }
}

impl Drop for Held {
    fn drop(&mut self) {
        self.0.sub(1);
    }
}

/// Outcome of one bounded line read.
enum LineRead {
    /// A complete line (without the newline), lossily decoded.
    Line(String),
    /// The line exceeded the bound; its remainder was drained.
    Oversized,
    /// Clean end of stream (or EOF in the middle of an unterminated
    /// line — a mid-request disconnect either way).
    Eof,
}

/// Reads one `\n`-terminated line without ever holding more than
/// `max + 1` bytes of it. Invalid UTF-8 is replaced, not rejected, so
/// byte junk reaches the JSON parser and earns a structured parse error.
fn read_line_bounded(reader: &mut impl BufRead, max: usize) -> std::io::Result<LineRead> {
    let mut buf: Vec<u8> = Vec::new();
    let mut oversized = false;
    loop {
        // One byte past the bound tells a line that is too long from one
        // that fits; an oversized line is drained in reads of that size.
        reader
            .by_ref()
            .take(max as u64 + 1)
            .read_until(b'\n', &mut buf)?;
        match buf.pop() {
            Some(b'\n') if oversized => return Ok(LineRead::Oversized),
            Some(b'\n') => return Ok(LineRead::Line(String::from_utf8_lossy(&buf).into_owned())),
            Some(_) if buf.len() == max => {
                oversized = true;
                buf.clear();
            }
            // EOF. An unterminated partial line is a disconnect, not a
            // request; never dispatch it.
            _ => return Ok(LineRead::Eof),
        }
    }
}

/// Answers one connection's lines until it closes; `_held` counts it
/// in the connection gauge until then.
fn serve_connection(
    stream: TcpStream,
    handle: ServeHandle,
    shutdown_requested: Arc<AtomicBool>,
    _held: Held,
) {
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    loop {
        let line = match read_line_bounded(&mut reader, MAX_LINE_BYTES) {
            Ok(LineRead::Line(line)) => line,
            Ok(LineRead::Oversized) => {
                let reply = Response::failure(
                    0,
                    Status::Error,
                    format!("request line exceeds {MAX_LINE_BYTES} bytes"),
                )
                .to_value()
                .to_json();
                if write_line(&mut writer, reply).is_err() {
                    break;
                }
                continue;
            }
            Ok(LineRead::Eof) | Err(_) => break,
        };
        if line.trim().is_empty() {
            continue;
        }
        if line.starts_with("GET /metrics") {
            // One-shot HTTP-style scrape; remaining request headers are
            // never read — the response closes the connection.
            let body = handle.prometheus();
            let _ = writer.write_all(
                format!(
                    "HTTP/1.0 200 OK\r\n\
                     Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
                     Content-Length: {}\r\n\
                     Connection: close\r\n\r\n{body}",
                    body.len()
                )
                .as_bytes(),
            );
            break;
        }
        // Panic isolation: no parser or handler bug reachable from
        // client bytes may kill the connection thread without a reply.
        // guard: no shared state is held across dispatch; the
        // unwrap_or_else below synthesizes the error reply
        let reply = std::panic::catch_unwind(AssertUnwindSafe(|| {
            dispatch_line(&line, &handle, &shutdown_requested)
        }))
        .unwrap_or_else(|_| {
            Response::failure(0, Status::Error, "internal error handling request line")
                .to_value()
                .to_json()
        });
        if write_line(&mut writer, reply).is_err() {
            break;
        }
    }
}

/// Sends one reply line: `reply` and its `\n` in one `write_all`, so
/// the line never leaves as a body segment and a `\n` segment (see the
/// module docs).
fn write_line(writer: &mut impl Write, mut reply: String) -> std::io::Result<()> {
    reply.push('\n');
    writer.write_all(reply.as_bytes())
}

/// Handles one request line, returning one response line (no newline).
fn dispatch_line(line: &str, handle: &ServeHandle, shutdown_requested: &AtomicBool) -> String {
    let doc = match Value::parse(line.trim()) {
        Ok(doc) => doc,
        Err(e) => {
            return Response::failure(0, Status::Error, format!("bad request line: {e}"))
                .to_value()
                .to_json()
        }
    };
    match doc.get("op").and_then(Value::as_str) {
        Some("shutdown") => {
            shutdown_requested.store(true, Ordering::Release);
            Value::Obj(vec![("ok".into(), Value::Bool(true))]).to_json()
        }
        // Operator-triggered flight dump: with "dir", writes a `.dbfr`
        // file server-side and replies with its path; without, replies
        // with the dump's summary counts (a liveness probe for the
        // recorder).
        Some("flight") => match doc.get("dir").and_then(Value::as_str) {
            Some(dir) => match handle.flight_write(std::path::Path::new(dir)) {
                Ok(path) => Value::Obj(vec![
                    ("ok".into(), Value::Bool(true)),
                    ("path".into(), Value::Str(path.display().to_string())),
                ])
                .to_json(),
                Err(e) => Response::failure(0, Status::Error, e).to_value().to_json(),
            },
            None => {
                let dump = handle.flight_dump();
                Value::Obj(vec![
                    ("ok".into(), Value::Bool(true)),
                    ("spans".into(), Value::Num(dump.spans.len() as f64)),
                    ("dropped".into(), Value::Num(dump.dropped as f64)),
                    ("tenants".into(), Value::Num(dump.tenants.len() as f64)),
                ])
                .to_json()
            }
        },
        Some(other) => Response::failure(0, Status::Error, format!("unknown op '{other}'"))
            .to_value()
            .to_json(),
        None => match Request::from_value(&doc) {
            Ok(req) => handle.run(req).to_value().to_json(),
            Err(e) => Response::failure(
                doc.get("id").and_then(Value::as_u64).unwrap_or(0),
                Status::Error,
                e,
            )
            .to_value()
            .to_json(),
        },
    }
}

/// Client-side helper: sends one NDJSON line and reads one reply line.
/// Used by the load generator's TCP mode and the integration tests.
/// A peer that closes before replying is an
/// [`std::io::ErrorKind::UnexpectedEof`] error, never an empty reply.
///
/// It still writes the line and its `\n` as two calls, so the `\n`
/// waits for the server's delayed ACK of the line (unless the caller
/// set `TCP_NODELAY`): one stall of up to 40 ms per call.
pub fn roundtrip_line(
    reader: &mut impl BufRead,
    writer: &mut impl Write,
    line: &str,
) -> std::io::Result<String> {
    writer.write_all(line.as_bytes())?;
    writer.write_all(b"\n")?;
    writer.flush()?;
    let mut reply = String::new();
    if reader.read_line(&mut reply)? == 0 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "peer closed the connection before replying",
        ));
    }
    Ok(reply.trim_end().to_string())
}

/// Client-side helper: fetches a Prometheus text-format scrape over a
/// fresh connection to `addr`. It sends `GET /metrics` in one write,
/// reads the HTTP/1.0 response to EOF and returns its body; any status
/// other than 200 is an [`std::io::ErrorKind::InvalidData`] error.
pub fn fetch_prometheus(addr: &SocketAddr) -> std::io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.write_all(b"GET /metrics HTTP/1.0\r\n\r\n")?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let invalid = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidData, msg);
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .ok_or_else(|| invalid("scrape reply has no header end".into()))?;
    if !head.starts_with("HTTP/1.0 200") {
        let status = head.lines().next().unwrap_or_default();
        return Err(invalid(format!("scrape answered '{status}'")));
    }
    Ok(body.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_line_of_max_bytes_fits_and_a_longer_one_is_drained() {
        let mut r = std::io::Cursor::new(b"abcd\nabcde\nabcdefghijk\n\nab".to_vec());
        let mut lines = Vec::new();
        loop {
            match read_line_bounded(&mut r, 4).unwrap() {
                LineRead::Line(l) => lines.push(l),
                LineRead::Oversized => lines.push("<oversized>".into()),
                LineRead::Eof => break,
            }
        }
        // The 11-byte line takes three bounded reads to drain; the
        // unterminated "ab" is a disconnect, not a line.
        assert_eq!(lines, ["abcd", "<oversized>", "<oversized>", ""]);
    }

    #[test]
    fn roundtrip_reports_a_peer_that_hangs_up_as_unexpected_eof() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // Accept the connection, read the request, and hang up without
        // replying.
        let peer = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut line = String::new();
            BufReader::new(stream).read_line(&mut line).unwrap();
        });
        let stream = TcpStream::connect(addr).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        let line = r#"{"id":1,"graph":"grid:2:2","workload":{"kind":"dfs","root":0}}"#;
        let err = roundtrip_line(&mut reader, &mut writer, line).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
        peer.join().unwrap();
    }
}
