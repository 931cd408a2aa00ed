//! Typed request/response model and its NDJSON wire codec.
//!
//! One request is one line of JSON on the wire (see [`crate::net`]) or
//! one [`Request`] value through the in-process [`crate::ServeHandle`].
//! The codec goes through [`db_trace::json::Value`] — the workspace's
//! hand-rolled JSON — so the service builds fully offline.
//!
//! Responses separate *deterministic* content (id, status, payload)
//! from *timing* content (`latency_us`, `deadline_missed`):
//! [`Response::digest`] covers only the former, which is what the load
//! generator compares across runs to assert outcome determinism.

use db_trace::json::Value;

/// What to compute on the resolved graph — or, for `delta:` corpora,
/// which mutation/introspection op to apply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Workload {
    /// Single-root parallel DFS; payload reports the visited count.
    Dfs {
        /// Root vertex.
        root: u32,
    },
    /// Reachability query: is `target` reachable from `root`?
    Reach {
        /// Source vertex.
        root: u32,
        /// Destination vertex.
        target: u32,
    },
    /// Strongly connected components (directed graphs only).
    Scc,
    /// Topological sort / cycle detection (directed graphs only).
    Topo,
    /// Articulation points and bridges (undirected graphs only).
    Articulation,
    /// Insert a batch of arcs into a `delta:` corpus, published
    /// atomically as one new epoch (write op; undirected corpora get
    /// both directions).
    AddEdges {
        /// `(src, dst)` pairs to insert.
        edges: Vec<(u32, u32)>,
    },
    /// Delete a batch of arcs from a `delta:` corpus, published
    /// atomically as one new epoch (write op).
    DelEdges {
        /// `(src, dst)` pairs to delete.
        edges: Vec<(u32, u32)>,
    },
    /// Report a `delta:` corpus's current epoch and lifecycle counters
    /// (read op; also acts as a write fence — it observes every epoch
    /// published before it was admitted).
    Epoch,
}

impl Workload {
    /// Wire name of the workload kind.
    pub fn kind(&self) -> &'static str {
        match self {
            Workload::Dfs { .. } => "dfs",
            Workload::Reach { .. } => "reach",
            Workload::Scc => "scc",
            Workload::Topo => "topo",
            Workload::Articulation => "articulation",
            Workload::AddEdges { .. } => "add_edges",
            Workload::DelEdges { .. } => "del_edges",
            Workload::Epoch => "epoch",
        }
    }

    /// True for mutation ops (`add_edges`/`del_edges`) — the ops the
    /// per-tenant write quota gates.
    pub fn is_write(&self) -> bool {
        matches!(self, Workload::AddEdges { .. } | Workload::DelEdges { .. })
    }
}

/// The engine a request names for a `dfs`/`reach` workload.
///
/// The name is a hint: every engine but [`EngineKind::Sim`] is answered
/// by the served kernel ([`db_core::kernel`]), a single-thread bitset
/// search on the pool worker that obeys the request's deadline. `sim`
/// runs the GPU simulator. The answer is the same either way. The
/// engines `native` and `serial` name stay in the workspace for the CLI
/// and the figure binaries; `lockfree` and `partitioned` name engines
/// that are gone and stay accepted as wire names. The apps-layer
/// workloads (`scc`, `topo`, `articulation`) ignore this field.
///
/// ```
/// use db_serve::EngineKind;
///
/// // Wire names round-trip:
/// // {"id":1,"graph":"grid:8:8","engine":"partitioned",
/// //  "workload":{"kind":"dfs","root":0}}
/// assert_eq!(EngineKind::from_name("partitioned"), Some(EngineKind::Partitioned));
/// assert_eq!(EngineKind::Partitioned.name(), "partitioned");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineKind {
    /// Names the native DiggerBees engine ([`db_core::native`]).
    #[default]
    Native,
    /// The wire name of the native engine's former lock-free variant,
    /// now the native engine itself; still accepted from clients.
    LockFree,
    /// Runs the deterministic GPU simulator ([`db_core::run_sim`]).
    Sim,
    /// Names the paper's serial Algorithm-1 baseline.
    Serial,
    /// The wire name of the cross-partition DFS over store shards,
    /// which is gone; still accepted from clients.
    Partitioned,
}

impl EngineKind {
    /// Wire name.
    pub fn name(&self) -> &'static str {
        match self {
            EngineKind::Native => "native",
            EngineKind::LockFree => "lockfree",
            EngineKind::Sim => "sim",
            EngineKind::Serial => "serial",
            EngineKind::Partitioned => "partitioned",
        }
    }

    /// Inverse of [`EngineKind::name`].
    pub fn from_name(s: &str) -> Option<Self> {
        Some(match s {
            "native" => EngineKind::Native,
            "lockfree" => EngineKind::LockFree,
            "sim" => EngineKind::Sim,
            "serial" => EngineKind::Serial,
            "partitioned" => EngineKind::Partitioned,
            _ => return None,
        })
    }
}

/// A single service request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Client-chosen correlation id, echoed in the response.
    pub id: u64,
    /// Tenant name, for per-tenant admission quotas.
    pub tenant: String,
    /// Corpus key: a suite graph name or a synthetic recipe
    /// (see [`crate::corpus`]).
    pub graph: String,
    /// What to compute.
    pub workload: Workload,
    /// Engine for `dfs`/`reach` workloads.
    pub engine: EngineKind,
    /// Relative deadline in milliseconds from admission; `None` means
    /// run to completion.
    pub deadline_ms: Option<u64>,
}

impl Request {
    /// Serializes to a single-line JSON object.
    pub fn to_value(&self) -> Value {
        let mut w = vec![("kind".to_string(), Value::str(self.workload.kind()))];
        match &self.workload {
            Workload::Dfs { root } => w.push(("root".into(), Value::u64(*root as u64))),
            Workload::Reach { root, target } => {
                w.push(("root".into(), Value::u64(*root as u64)));
                w.push(("target".into(), Value::u64(*target as u64)));
            }
            Workload::AddEdges { edges } | Workload::DelEdges { edges } => {
                let arr = edges
                    .iter()
                    .map(|&(u, v)| Value::Arr(vec![Value::u64(u as u64), Value::u64(v as u64)]))
                    .collect();
                w.push(("edges".into(), Value::Arr(arr)));
            }
            _ => {}
        }
        let mut fields = vec![
            ("id".to_string(), Value::u64(self.id)),
            ("tenant".to_string(), Value::str(&self.tenant)),
            ("graph".to_string(), Value::str(&self.graph)),
            ("workload".to_string(), Value::Obj(w)),
            ("engine".to_string(), Value::str(self.engine.name())),
        ];
        if let Some(ms) = self.deadline_ms {
            fields.push(("deadline_ms".to_string(), Value::u64(ms)));
        }
        Value::Obj(fields)
    }

    /// Parses a request from a JSON document.
    pub fn from_value(v: &Value) -> Result<Request, String> {
        let id = v
            .get("id")
            .and_then(Value::as_u64)
            .ok_or("missing or non-integer 'id'")?;
        let tenant = v
            .get("tenant")
            .and_then(Value::as_str)
            .unwrap_or("default")
            .to_string();
        let graph = v
            .get("graph")
            .and_then(Value::as_str)
            .ok_or("missing 'graph'")?
            .to_string();
        let w = v.get("workload").ok_or("missing 'workload'")?;
        let kind = w
            .get("kind")
            .and_then(Value::as_str)
            .ok_or("missing 'workload.kind'")?;
        let vertex = |key: &str| -> Result<u32, String> {
            let x = w
                .get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("missing or non-integer 'workload.{key}'"))?;
            u32::try_from(x).map_err(|_| format!("'workload.{key}' exceeds u32"))
        };
        let workload = match kind {
            "dfs" => Workload::Dfs {
                root: vertex("root")?,
            },
            "reach" => Workload::Reach {
                root: vertex("root")?,
                target: vertex("target")?,
            },
            "scc" => Workload::Scc,
            "topo" => Workload::Topo,
            "articulation" => Workload::Articulation,
            "add_edges" | "del_edges" => {
                let arr = w
                    .get("edges")
                    .and_then(Value::as_array)
                    .ok_or("missing or non-array 'workload.edges'")?;
                let mut edges = Vec::with_capacity(arr.len());
                for (i, pair) in arr.iter().enumerate() {
                    let err = || format!("'workload.edges[{i}]' must be a [src, dst] u32 pair");
                    let p = pair.as_array().ok_or_else(err)?;
                    if p.len() != 2 {
                        return Err(err());
                    }
                    let end = |x: &Value| -> Result<u32, String> {
                        x.as_u64()
                            .and_then(|n| u32::try_from(n).ok())
                            .ok_or_else(err)
                    };
                    edges.push((end(&p[0])?, end(&p[1])?));
                }
                if kind == "add_edges" {
                    Workload::AddEdges { edges }
                } else {
                    Workload::DelEdges { edges }
                }
            }
            "epoch" => Workload::Epoch,
            other => return Err(format!("unknown workload kind '{other}'")),
        };
        let engine = match v.get("engine").and_then(Value::as_str) {
            None => EngineKind::default(),
            Some(s) => EngineKind::from_name(s).ok_or_else(|| format!("unknown engine '{s}'"))?,
        };
        let deadline_ms = match v.get("deadline_ms") {
            None | Some(Value::Null) => None,
            Some(x) => Some(x.as_u64().ok_or("non-integer 'deadline_ms'")?),
        };
        Ok(Request {
            id,
            tenant,
            graph,
            workload,
            engine,
            deadline_ms,
        })
    }

    /// Parses a request from its single-line JSON text.
    pub fn parse(line: &str) -> Result<Request, String> {
        let v = Value::parse(line.trim()).map_err(|e| e.to_string())?;
        Request::from_value(&v)
    }
}

/// Terminal disposition of a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Completed within its deadline.
    Ok,
    /// Refused at admission (queue full, tenant over quota, draining).
    Rejected,
    /// Deadline expired; a `dfs` payload describes the consistent
    /// partial traversal at the poll point that stopped it.
    Expired,
    /// The request itself was invalid (unknown graph, bad root,
    /// workload/graph mismatch).
    Error,
    /// The request exhausted its retry budget without completing
    /// (worker panics or injected faults on every attempt).
    Failed,
}

impl Status {
    /// Wire name.
    pub fn as_str(&self) -> &'static str {
        match self {
            Status::Ok => "ok",
            Status::Rejected => "rejected",
            Status::Expired => "expired",
            Status::Error => "error",
            Status::Failed => "failed",
        }
    }

    /// Inverse of [`Status::as_str`].
    pub fn from_str_name(s: &str) -> Option<Status> {
        Some(match s {
            "ok" => Status::Ok,
            "rejected" => Status::Rejected,
            "expired" => Status::Expired,
            "error" => Status::Error,
            "failed" => Status::Failed,
            _ => return None,
        })
    }
}

/// A completed (or refused) request.
#[derive(Debug, Clone)]
pub struct Response {
    /// Echo of [`Request::id`].
    pub id: u64,
    /// Disposition.
    pub status: Status,
    /// Human-readable reason for `rejected`/`error` statuses.
    pub error: Option<String>,
    /// Workload-specific result object. Deterministic for a given
    /// request: only quantities independent of scheduling (visited
    /// counts, component counts, flags) appear here.
    pub payload: Value,
    /// Wall-clock admission-to-completion latency in microseconds.
    /// Timing, not content: excluded from [`Response::digest`].
    pub latency_us: u64,
    /// `true` when a deadline was set and completion overshot it even
    /// though the result is complete (`sim` and the apps workloads,
    /// which are not preemptible).
    pub deadline_missed: bool,
    /// The request's trace id, correlating this response with its span
    /// tree in the flight recorder (`0` when untraced). Diagnostic
    /// identity, not content: excluded from [`Response::digest`].
    pub trace_id: u64,
}

impl Response {
    /// Builds a refusal/error response with an empty payload.
    pub fn failure(id: u64, status: Status, msg: impl Into<String>) -> Response {
        Response {
            id,
            status,
            error: Some(msg.into()),
            payload: Value::Obj(Vec::new()),
            latency_us: 0,
            deadline_missed: false,
            trace_id: 0,
        }
    }

    /// Serializes to a single-line JSON object.
    pub fn to_value(&self) -> Value {
        let mut fields = vec![
            ("id".to_string(), Value::u64(self.id)),
            ("status".to_string(), Value::str(self.status.as_str())),
        ];
        if let Some(e) = &self.error {
            fields.push(("error".to_string(), Value::str(e)));
        }
        fields.push(("payload".to_string(), self.payload.clone()));
        fields.push(("latency_us".to_string(), Value::u64(self.latency_us)));
        if self.deadline_missed {
            fields.push(("deadline_missed".to_string(), Value::Bool(true)));
        }
        if self.trace_id != 0 {
            fields.push(("trace_id".to_string(), Value::u64(self.trace_id)));
        }
        Value::Obj(fields)
    }

    /// Parses a response from a JSON document.
    pub fn from_value(v: &Value) -> Result<Response, String> {
        let id = v.get("id").and_then(Value::as_u64).ok_or("missing 'id'")?;
        let status = v
            .get("status")
            .and_then(Value::as_str)
            .and_then(Status::from_str_name)
            .ok_or("missing or unknown 'status'")?;
        Ok(Response {
            id,
            status,
            error: v.get("error").and_then(Value::as_str).map(str::to_string),
            payload: v.get("payload").cloned().unwrap_or(Value::Obj(Vec::new())),
            latency_us: v.get("latency_us").and_then(Value::as_u64).unwrap_or(0),
            deadline_missed: v
                .get("deadline_missed")
                .and_then(Value::as_bool)
                .unwrap_or(false),
            trace_id: v.get("trace_id").and_then(Value::as_u64).unwrap_or(0),
        })
    }

    /// Stable string over the deterministic subset of the response
    /// (id, status, error, payload) — the unit of cross-run comparison.
    pub fn digest(&self) -> String {
        let mut fields = vec![
            ("id".to_string(), Value::u64(self.id)),
            ("status".to_string(), Value::str(self.status.as_str())),
        ];
        if let Some(e) = &self.error {
            fields.push(("error".to_string(), Value::str(e)));
        }
        fields.push(("payload".to_string(), self.payload.clone()));
        Value::Obj(fields).to_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips_through_json() {
        let reqs = [
            Request {
                id: 7,
                tenant: "t0".into(),
                graph: "grid:60:60".into(),
                workload: Workload::Dfs { root: 5 },
                engine: EngineKind::Native,
                deadline_ms: Some(250),
            },
            Request {
                id: 8,
                tenant: "t1".into(),
                graph: "dag:4000".into(),
                workload: Workload::Reach {
                    root: 0,
                    target: 17,
                },
                engine: EngineKind::LockFree,
                deadline_ms: None,
            },
            Request {
                id: 9,
                tenant: "t1".into(),
                graph: "dag:4000".into(),
                workload: Workload::Scc,
                engine: EngineKind::Serial,
                deadline_ms: None,
            },
        ];
        for r in reqs {
            let line = r.to_value().to_json();
            assert_eq!(Request::parse(&line).unwrap(), r, "line: {line}");
        }
    }

    #[test]
    fn write_ops_round_trip_through_json() {
        let reqs = [
            Request {
                id: 20,
                tenant: "t2".into(),
                graph: "delta:path:100".into(),
                workload: Workload::AddEdges {
                    edges: vec![(3, 7), (0, 99)],
                },
                engine: EngineKind::Serial,
                deadline_ms: None,
            },
            Request {
                id: 21,
                tenant: "t2".into(),
                graph: "delta:path:100".into(),
                workload: Workload::DelEdges {
                    edges: vec![(1, 2)],
                },
                engine: EngineKind::Serial,
                deadline_ms: Some(50),
            },
            Request {
                id: 22,
                tenant: "default".into(),
                graph: "delta:path:100".into(),
                workload: Workload::Epoch,
                engine: EngineKind::Serial,
                deadline_ms: None,
            },
        ];
        for r in reqs {
            let line = r.to_value().to_json();
            assert_eq!(Request::parse(&line).unwrap(), r, "line: {line}");
        }
        assert!(Workload::AddEdges { edges: vec![] }.is_write());
        assert!(!Workload::Epoch.is_write());
    }

    #[test]
    fn malformed_edge_batches_rejected() {
        for bad in [
            r#"{"id":1,"graph":"g","workload":{"kind":"add_edges"}}"#,
            r#"{"id":1,"graph":"g","workload":{"kind":"add_edges","edges":7}}"#,
            r#"{"id":1,"graph":"g","workload":{"kind":"del_edges","edges":[[1]]}}"#,
            r#"{"id":1,"graph":"g","workload":{"kind":"add_edges","edges":[[1,2,3]]}}"#,
            r#"{"id":1,"graph":"g","workload":{"kind":"add_edges","edges":[[1,"x"]]}}"#,
            r#"{"id":1,"graph":"g","workload":{"kind":"add_edges","edges":[[1,4294967296]]}}"#,
        ] {
            assert!(Request::parse(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn request_defaults_engine_and_tenant() {
        let r = Request::parse(r#"{"id":1,"graph":"path:10","workload":{"kind":"dfs","root":0}}"#)
            .unwrap();
        assert_eq!(r.engine, EngineKind::Native);
        assert_eq!(r.tenant, "default");
        assert_eq!(r.deadline_ms, None);
    }

    #[test]
    fn malformed_requests_are_typed_errors() {
        for bad in [
            "{",
            "{}",
            r#"{"id":1}"#,
            r#"{"id":1,"graph":"g","workload":{"kind":"warp"}}"#,
            r#"{"id":1,"graph":"g","workload":{"kind":"dfs"}}"#,
            r#"{"id":1,"graph":"g","workload":{"kind":"dfs","root":0},"engine":"cuda"}"#,
        ] {
            assert!(Request::parse(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn response_digest_excludes_timing() {
        let mut a = Response {
            id: 3,
            status: Status::Ok,
            error: None,
            payload: Value::Obj(vec![("visited".into(), Value::u64(42))]),
            latency_us: 100,
            deadline_missed: false,
            trace_id: 0,
        };
        let mut b = a.clone();
        b.latency_us = 9_999;
        b.deadline_missed = true;
        b.trace_id = 0xdead_beef;
        assert_eq!(
            a.digest(),
            b.digest(),
            "timing and trace identity are not content"
        );
        a.payload = Value::Obj(vec![("visited".into(), Value::u64(43))]);
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn response_round_trips_through_json() {
        let r = Response {
            id: 11,
            status: Status::Expired,
            error: None,
            payload: Value::Obj(vec![
                ("visited".into(), Value::u64(12)),
                ("completed".into(), Value::Bool(false)),
            ]),
            latency_us: 512,
            deadline_missed: false,
            trace_id: 77,
        };
        let back = Response::from_value(&Value::parse(&r.to_value().to_json()).unwrap()).unwrap();
        assert_eq!(back.digest(), r.digest());
        assert_eq!(back.latency_us, 512);
        assert_eq!(back.trace_id, 77, "trace id rides the wire");
    }
}
