//! # db-serve — multi-tenant graph-traversal service layer
//!
//! The paper's thesis is that hierarchical work stealing keeps a GPU's
//! blocks busy on irregular DFS. This crate serves those traversals: a
//! long-lived service that queues whole requests and lets an idle
//! worker join a running search, layered on the workspace's engines:
//!
//! * [`corpus`] — graph registry: corpus keys resolve to
//!   `Arc<CsrGraph>`s — built in-RAM graphs or `store:`-keyed packs
//!   mmap-loaded through `db-store`, each checked once when it is built
//!   or loaded — cached under a charged-bytes budget with LRU eviction.
//! * [`delta`] — epoch-versioned dynamic graphs under `delta:` corpus
//!   keys (`db-delta`): `add_edges`/`del_edges` batches publish epochs,
//!   reads pin a snapshot (snapshot isolation) and run on it through
//!   [`exec`], so a `dfs`/`reach` runs the served kernel under its
//!   deadline, and compaction folds cold layers under the chaos plan's
//!   `compaction` trigger.
//! * [`request`] — the typed request/response model (`dfs`, `reach`,
//!   `scc`, `topo`, `articulation` over any engine) and its NDJSON
//!   codec.
//! * [`pool`] — the serving core: bounded admission with per-tenant
//!   quotas, one earliest-deadline-first queue that every idle worker
//!   pops, team searches that an idle worker joins (the paper's §3.4
//!   stealing, inside one search), deadline cancellation via
//!   [`db_core::CancelToken`] poll points inside the served kernel, one
//!   reused kernel scratch per worker, and graceful drain.
//! * [`resilience`] — the self-healing policy layer: per-request retry
//!   with deterministic jittered backoff, per-tenant circuit breakers
//!   (trip on consecutive failures, half-open on a timer), a capped
//!   worker-restart budget, and an optional [`db_fault::Injector`]
//!   driving deterministic chaos (see DESIGN.md "Fault model &
//!   resilience").
//! * [`exec`] — workload execution and payload shaping: `dfs`/`reach`
//!   run [`db_core::kernel`] on the calling worker (the simulator for
//!   `engine: "sim"`); payloads carry only scheduling-independent
//!   quantities so a request's outcome is deterministic under any
//!   interleaving.
//! * [`metrics`] — `db_serve_*` series (latency histogram, queue depth,
//!   occupancy, cache, rejections) in a per-instance
//!   [`db_metrics::Registry`], scraped by [`ServeHandle::prometheus`]
//!   with the process-global engine series. Each scheduling decision
//!   is one `db-span` span, folded into its series
//!   ([`metrics::Metrics::observe_span`]) and then kept by the flight
//!   recorder ([`ServeHandle::flight_dump`]), so a scrape and a dump of
//!   the same run agree.
//! * [`net`] — a `std::net` TCP endpoint speaking newline-delimited
//!   JSON (plus a one-shot `GET /metrics` scrape path), with client
//!   helpers.
//!
//! ## Quickstart
//!
//! ```
//! use db_serve::{Server, ServeConfig, Request, Workload, EngineKind, Status};
//!
//! let server = Server::start(ServeConfig { workers: 2, ..ServeConfig::default() });
//! let handle = server.handle();
//! let resp = handle.run(Request {
//!     id: 1,
//!     tenant: "docs".into(),
//!     graph: "grid:8:8".into(),
//!     workload: Workload::Dfs { root: 0 },
//!     engine: EngineKind::Native,
//!     deadline_ms: Some(5_000),
//! });
//! assert_eq!(resp.status, Status::Ok);
//! assert_eq!(resp.payload.get("visited").unwrap().as_u64(), Some(64));
//! server.shutdown();
//! ```

#![warn(missing_docs)]

pub mod corpus;
pub mod delta;
pub mod exec;
pub mod metrics;
pub mod net;
pub mod pool;
pub mod request;
pub mod resilience;

pub use corpus::CorpusCache;
pub use delta::{DeltaRegistry, Durability, RecoveryInfo, DELTA_PREFIX};
pub use metrics::MetricsSnapshot;
pub use net::TcpServer;
pub use pool::{ServeConfig, ServeHandle, Server};
pub use request::{EngineKind, Request, Response, Status, Workload};
pub use resilience::{backoff_delay, BreakerEvent, BreakerMap, Resilience};
