//! The serving core: bounded admission, per-worker EDF deques with
//! request-level stealing, deadline tokens, and graceful drain.
//!
//! This is the paper's hierarchical stealing transplanted one level up.
//! Inside an engine, *vertices* are the stolen unit (HotRing/ColdSeg);
//! here, *requests* are. Each worker owns a deque ordered by
//! earliest-deadline-first; the owner pops from the front (most urgent
//! work first), and an idle worker steals the **back half** of a
//! victim's deque — the least-urgent tail, the same
//! steal-far-from-the-owner heuristic the ColdSeg uses so thief and
//! victim don't contend on the same end. Victims are picked by
//! two-choice sampling on queue depth, the paper's §3.4 policy, with a
//! full scan as fallback so drain always terminates.
//!
//! Stealing also reaches one level down, into a running search. A
//! dfs/reach on a graph the kernel batches ([`db_core::ValidCsr::batches`])
//! starts as a team search when some other live worker is not running
//! a request. Its owner offers it through the pool's one offer slot once
//! its stack is deep enough, and a worker whose queue and steal both
//! come up empty joins it with its own scratch stack, taking the cold
//! half of the owner's stack whenever it runs dry
//! ([`db_core::kernel::team_search`]). The helper leaves at its next
//! poll once a request is queued, handing its entries back, and records
//! one `team` span under the owner's attempt. Elsewhere the
//! single-thread kernel runs unchanged.
//!
//! Everything synchronizes through one mutex + condvar: queue moves are
//! microseconds against multi-millisecond traversals, so lock
//! granularity is not the bottleneck here (DESIGN.md contrasts this
//! with the engines' fine-grained two-level stacks).
//!
//! Each scheduling decision is emitted once, as a `db-span` span,
//! through `ServerInner::record`: the span is folded into the
//! `db_serve_*` series ([`Metrics::observe_span`]) and then pushed on the
//! flight recorder, so a scrape and a flight dump of the same run
//! count the same decisions. Every response leaves through
//! `ServerInner::close`, which records the root span, stamps the
//! response's latency from it, and feeds the tenant's SLO. Only the
//! decisions without a span (respawns, breaker trips, storage
//! refusals, degraded completions) update a counter directly, and the
//! queue-depth and open-breaker gauges are read at scrape time.

use crate::corpus::CorpusCache;
use crate::delta::{DeltaEvent, DeltaRegistry, Durability, RecoveryInfo, DELTA_PREFIX};
use crate::exec;
use crate::metrics::{span_us, Metrics, MetricsSnapshot};
use crate::request::{EngineKind, Request, Response, Status, Workload};
use crate::resilience::{backoff_delay, BreakerEvent, BreakerMap, Resilience};
use db_core::kernel::{Crew, Scratch, Team};
use db_core::CancelToken;
use db_fault::FaultKind;
use db_metrics::{Gauge, SloConfig, SloTracker};
use db_span::{
    DumpReason, FlightConfig, FlightDump, FlightRecorder, SpanKind, SpanRecord, TraceCtx,
    ADMISSION_WORKER, NO_TENANT,
};
use std::cmp::Ordering as CmpOrdering;
use std::collections::{HashMap, VecDeque};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads (each owns one request deque).
    pub workers: usize,
    /// Total queued-request bound across all workers; submissions
    /// beyond it are rejected.
    pub queue_capacity: usize,
    /// Per-tenant bound on queued requests (`None` = unlimited).
    pub tenant_quota: Option<usize>,
    /// Per-tenant bound on queued *write* requests (`add_edges` /
    /// `del_edges`), checked in addition to `tenant_quota` so one
    /// tenant's mutation stream cannot monopolize a delta corpus's
    /// writer lock (`None` = unlimited).
    pub write_quota: Option<usize>,
    /// Corpus-cache budget in bytes.
    pub corpus_budget_bytes: usize,
    /// Self-healing policy: retries, circuit breakers, worker-restart
    /// budget, and the optional chaos fault plan.
    pub resilience: Resilience,
    /// Flight-recorder budget and dump policy. The recorder is always
    /// on; this only bounds its memory and says where `.dbfr` dumps go.
    pub flight: FlightConfig,
    /// Per-tenant latency/availability objectives feeding the
    /// `db_slo_*` burn-rate gauges.
    pub slo: SloConfig,
    /// Crash-consistent durability for `delta:` corpora: WAL directory
    /// and fsync policy. Off by default (in-memory deltas only).
    pub durability: Durability,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            queue_capacity: 1024,
            tenant_quota: None,
            write_quota: None,
            corpus_budget_bytes: 256 << 20,
            resilience: Resilience::default(),
            flight: FlightConfig::default(),
            slo: SloConfig::default(),
            durability: Durability::default(),
        }
    }
}

/// A queued request plus its bookkeeping.
#[derive(Debug)]
struct Job {
    req: Request,
    seq: u64,
    deadline: Option<Instant>,
    reply: mpsc::Sender<Response>,
    /// Request-scoped trace context; moves with the job across steals,
    /// which is what keeps cross-worker parentage intact.
    ctx: TraceCtx,
    /// Admission time on the span clock (ns since server start); the
    /// root span and the queue span both start here, so the root's
    /// duration is the request's latency.
    admit_ns: u64,
}

/// Stable status code for [`SpanKind::Request`] root spans
/// (see [`SpanKind::status_name`]).
fn status_code(s: Status) -> u32 {
    match s {
        Status::Ok => 0,
        Status::Rejected => 1,
        Status::Expired => 2,
        Status::Error => 3,
        Status::Failed => 4,
    }
}

/// Stable engine index for [`SpanKind::Attempt`] / [`SpanKind::Degrade`]
/// span values (wire-name order).
fn engine_index(e: EngineKind) -> u64 {
    match e {
        EngineKind::Native => 0,
        EngineKind::LockFree => 1,
        EngineKind::Sim => 2,
        EngineKind::Serial => 3,
        EngineKind::Partitioned => 4,
    }
}

/// Builds an admission-refusal response and closes its (two-span)
/// trace: an `Admit` span with the refusal code (see
/// [`SpanKind::admit_name`]) under a root that carries the terminal
/// status. Refusals count against the tenant's availability SLO — shed
/// load is still unserved load.
fn reject_response(
    inner: &ServerInner,
    ctx: &TraceCtx,
    req: &Request,
    code: u32,
    admit_ns: u64,
) -> Response {
    let (status, reason) = match code {
        1 => (Status::Rejected, "tenant circuit breaker open"),
        2 => (Status::Rejected, "server is draining"),
        3 => (Status::Rejected, "admission queue full"),
        4 => (Status::Rejected, "tenant over quota"),
        5 => (Status::Rejected, "tenant over write quota"),
        _ => (Status::Failed, NO_LIVE_WORKERS),
    };
    inner.span(ctx, SpanKind::Admit, code, 0, ADMISSION_WORKER, admit_ns);
    let resp = Response::failure(req.id, status, reason);
    inner.close(ctx, req, ADMISSION_WORKER, admit_ns, resp)
}

/// Why a request fails once every worker has retired.
const NO_LIVE_WORKERS: &str = "no live workers remain (restart budget exhausted)";

/// EDF order: earlier deadline first; no deadline sorts last; FIFO
/// (by admission sequence) within a class.
fn edf_cmp(a: &Job, b: &Job) -> CmpOrdering {
    match (a.deadline, b.deadline) {
        (Some(x), Some(y)) => x.cmp(&y).then(a.seq.cmp(&b.seq)),
        (Some(_), None) => CmpOrdering::Less,
        (None, Some(_)) => CmpOrdering::Greater,
        (None, None) => a.seq.cmp(&b.seq),
    }
}

#[derive(Debug)]
struct PoolState {
    queues: Vec<VecDeque<Job>>,
    queued_total: usize,
    per_tenant: HashMap<String, usize>,
    /// Queued write (`add_edges`/`del_edges`) requests per tenant, for
    /// the separate write quota.
    per_tenant_writes: HashMap<String, usize>,
    draining: bool,
    /// Workers that exhausted the restart budget and retired. Their
    /// queues take no new submissions; leftovers are stolen by
    /// survivors (or failed outright when the last worker dies).
    dead: Vec<bool>,
    /// The one team search on offer to an idle worker.
    offer: Option<Offer>,
}

/// A team search on offer, with the ids of the `team` span its helper
/// will record under the owner's attempt.
#[derive(Debug)]
struct Offer {
    team: Arc<Team>,
    trace_id: u64,
    span_id: u32,
    attempt: u32,
}

#[derive(Debug)]
struct ServerInner {
    cfg: ServeConfig,
    state: Mutex<PoolState>,
    cv: Condvar,
    cache: CorpusCache,
    /// Epoch-versioned corpora behind `delta:` keys.
    delta: DeltaRegistry,
    /// Instance-private registry holding every `db_serve_*` series;
    /// merged with the process-global registry at scrape time.
    registry: db_metrics::Registry,
    metrics: Metrics,
    seq: AtomicU64,
    started: Instant,
    breakers: BreakerMap,
    /// Worker respawns remaining pool-wide.
    restart_budget: AtomicU32,
    /// Always-on span rings; dumped on panic / fault / deadline miss.
    flight: FlightRecorder,
    /// Per-tenant burn-rate accounting behind the `db_slo_*` series.
    slo: SloTracker,
}

impl ServerInner {
    fn lock(&self) -> MutexGuard<'_, PoolState> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// The admission ladder for `req`: the locked pool state and the
    /// queue to place it on, or the `Admit` refusal code.
    fn admit(&self, req: &Request) -> Result<(MutexGuard<'_, PoolState>, usize), u32> {
        // Breaker check first (its own lock): an open breaker sheds the
        // tenant's load before it can take pool capacity.
        if !self.breakers.admit(&req.tenant) {
            return Err(1);
        }
        let st = self.lock();
        let over = |queued: &HashMap<String, usize>, quota: Option<usize>| {
            quota.is_some_and(|q| queued.get(&req.tenant).copied().unwrap_or(0) >= q)
        };
        if st.draining {
            return Err(2);
        }
        if st.queued_total >= self.cfg.queue_capacity {
            return Err(3);
        }
        if over(&st.per_tenant, self.cfg.tenant_quota) {
            return Err(4);
        }
        if req.workload.is_write() && over(&st.per_tenant_writes, self.cfg.write_quota) {
            return Err(5);
        }
        // The shallowest live queue (ties → lowest index): cheap load
        // balancing so stealing is the corrective, not the norm.
        // Retired workers' queues take no new work; with every worker
        // retired (restart budget exhausted) the request fails.
        let target = st
            .queues
            .iter()
            .zip(&st.dead)
            .enumerate()
            .filter(|(_, (_, &dead))| !dead)
            .min_by_key(|(_, (q, _))| q.len())
            .map(|(i, _)| i)
            .ok_or(6_u32)?;
        Ok((st, target))
    }

    /// Nanoseconds since the server started — the shared span clock.
    fn now_ns(&self) -> u64 {
        self.started.elapsed().as_nanos() as u64
    }

    /// Seconds since the server started — the SLO ring clock.
    fn now_s(&self) -> u64 {
        self.started.elapsed().as_secs()
    }

    /// The one emission point of the pool: folds `span` into the
    /// instance's `db_serve_*` series, then pushes it on its flight
    /// ring.
    fn record(&self, span: SpanRecord) {
        self.metrics.observe_span(&span);
        self.flight.record(span);
    }

    /// Records one root-parented span spanning `t0_ns..now`.
    fn span(&self, ctx: &TraceCtx, kind: SpanKind, code: u32, value: u64, worker: u32, t0_ns: u64) {
        self.record(SpanRecord {
            trace_id: ctx.trace_id(),
            span_id: ctx.next_span(),
            parent: ctx.root(),
            kind,
            code,
            value,
            worker,
            tenant: NO_TENANT,
            t0_ns,
            t1_ns: self.now_ns().max(t0_ns),
        });
    }

    /// Closes a trace; every response leaves through here. Records the
    /// root `Request` span (admission to now) carrying the terminal
    /// status and the interned tenant, stamps the response with that
    /// span's duration as its latency and with the trace id, and
    /// feeds the tenant's SLO.
    fn close(
        &self,
        ctx: &TraceCtx,
        req: &Request,
        worker: u32,
        admit_ns: u64,
        mut resp: Response,
    ) -> Response {
        let root = SpanRecord {
            trace_id: ctx.trace_id(),
            span_id: ctx.root(),
            parent: 0,
            kind: SpanKind::Request,
            code: status_code(resp.status),
            value: req.id,
            worker,
            tenant: self.flight.tenant_idx(&req.tenant),
            t0_ns: admit_ns,
            t1_ns: self.now_ns().max(admit_ns),
        };
        self.record(root);
        resp.latency_us = span_us(&root);
        resp.trace_id = ctx.trace_id();
        let ok = resp.status == Status::Ok;
        self.slo
            .observe(&req.tenant, resp.latency_us, ok, self.now_s());
        resp
    }

    fn snapshot(&self) -> MetricsSnapshot {
        let (resident_graphs, resident_bytes) = self.cache.resident();
        let queue_depth = self.lock().queued_total as u64;
        let m = &self.metrics;
        MetricsSnapshot {
            admitted: m.admitted.get(),
            rejected_capacity: m.rejected_capacity.get(),
            rejected_tenant: m.rejected_tenant.get(),
            rejected_draining: m.rejected_draining.get(),
            completed: m.completed.get(),
            expired: m.expired.get(),
            errors: m.errors.get(),
            rejected_breaker: m.rejected_breaker.get(),
            rejected_writes: m.rejected_writes.get(),
            rejected_storage: m.rejected_storage.get(),
            failed: m.failed.get(),
            steals: m.steals.get(),
            retries: m.retries.get(),
            worker_panics: m.worker_panics.get(),
            worker_respawns: m.worker_respawns.get(),
            breaker_trips: m.breaker_trips.get(),
            breaker_open: self.breakers.open_count(),
            degraded: m.degraded.get(),
            faults_injected: m.faults_injected.get(),
            cache_hits: self.cache.hits(),
            cache_misses: self.cache.misses(),
            cache_evictions: self.cache.evictions(),
            resident_graphs: resident_graphs as u64,
            resident_bytes: resident_bytes as u64,
            queue_depth,
            busy_workers: m.busy_workers.get(),
            latency_count: m.latency.count(),
            latency_mean_us: m.latency.mean(),
            p50_us: m.latency.quantile(0.50),
            p90_us: m.latency.quantile(0.90),
            p99_us: m.latency.quantile(0.99),
            p999_us: m.latency.quantile(0.999),
            max_us: m.latency.max_value(),
        }
    }
}

/// Clonable in-process client of a running [`Server`].
#[derive(Clone)]
pub struct ServeHandle {
    inner: Arc<ServerInner>,
}

impl std::fmt::Debug for ServeHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeHandle").finish_non_exhaustive()
    }
}

impl ServeHandle {
    /// Submits a request. Always returns a receiver that will yield
    /// exactly one [`Response`]; admission refusals are delivered
    /// through it immediately with [`Status::Rejected`].
    pub fn submit(&self, req: Request) -> Receiver<Response> {
        let (tx, rx) = mpsc::channel();
        let inner = &self.inner;
        let deadline = req
            .deadline_ms
            .map(|ms| Instant::now() + Duration::from_millis(ms));
        let ctx = TraceCtx::derive(req.id, &req.tenant);
        let admit_ns = inner.now_ns();
        let (mut st, target) = match inner.admit(&req) {
            Ok(placed) => placed,
            Err(code) => {
                let _ = tx.send(reject_response(inner, &ctx, &req, code, admit_ns));
                return rx;
            }
        };
        *st.per_tenant.entry(req.tenant.clone()).or_insert(0) += 1;
        if req.workload.is_write() {
            *st.per_tenant_writes.entry(req.tenant.clone()).or_insert(0) += 1;
        }
        let job = Job {
            // relaxed-ok: unique id allocation; only atomicity matters
            seq: inner.seq.fetch_add(1, Ordering::Relaxed),
            deadline,
            reply: tx,
            req,
            ctx,
            admit_ns,
        };
        let depth_after = (st.queued_total + 1) as u64;
        inner.span(
            &job.ctx,
            SpanKind::Admit,
            0,
            depth_after,
            ADMISSION_WORKER,
            admit_ns,
        );
        let q = &mut st.queues[target];
        let pos = q
            .binary_search_by(|j| edf_cmp(j, &job))
            .unwrap_or_else(|p| p);
        q.insert(pos, job);
        st.queued_total += 1;
        drop(st);
        inner.cv.notify_all();
        rx
    }

    /// Submits and blocks for the response (convenience for tests and
    /// the CLI). If the server dies mid-request, reports an error
    /// response rather than panicking.
    pub fn run(&self, req: Request) -> Response {
        let id = req.id;
        self.submit(req)
            .recv()
            .unwrap_or_else(|_| Response::failure(id, Status::Error, "server shut down"))
    }

    /// Current metrics (counters + gauges + latency quantiles).
    pub fn metrics(&self) -> MetricsSnapshot {
        self.inner.snapshot()
    }

    /// The startup WAL-recovery report, when the server was configured
    /// with a durable `wal_dir` (`None` otherwise).
    pub fn recovery(&self) -> Option<RecoveryInfo> {
        self.inner.delta.recovery().cloned()
    }

    /// Renders a Prometheus text-format scrape: this server instance's
    /// `db_serve_*` series merged with the process-global registry
    /// (`db_engine_*` engine counters, `db_sim_*` profiler gauges).
    pub fn prometheus(&self) -> String {
        // The queue-depth and open-breaker gauges are set here only,
        // from the authoritative state.
        let depth = self.inner.lock().queued_total as u64;
        self.inner.metrics.queue_depth.set(depth);
        self.inner
            .metrics
            .breaker_open
            .set(self.inner.breakers.open_count());
        // Burn-rate gauges are window aggregates; fold the rings into
        // them at scrape time so every scrape is current.
        self.inner.slo.refresh(self.inner.now_s());
        db_metrics::render(&[&self.inner.registry, db_metrics::global()])
    }

    /// Snapshots the flight recorder: every worker ring merged into one
    /// time-sorted [`FlightDump`] (the rings keep their contents).
    pub fn flight_dump(&self) -> FlightDump {
        self.inner.flight.dump(DumpReason::Explicit)
    }

    /// Writes an explicit `.dbfr` dump to `dir` (created if missing),
    /// ignoring the automatic-dump cap. Returns the file path.
    pub fn flight_write(&self, dir: &std::path::Path) -> Result<std::path::PathBuf, String> {
        self.inner.flight.dump_to(dir, DumpReason::Explicit)
    }

    /// Spans the flight recorder's rings evicted so far.
    pub fn flight_dropped(&self) -> u64 {
        self.inner.flight.dropped()
    }
}

/// A running multi-tenant traversal server.
///
/// Dropping a `Server` without calling [`Server::shutdown`] aborts the
/// worker threads' queues by draining them with rejections (the Drop
/// impl calls `shutdown` internally), so no client blocks forever.
#[derive(Debug)]
pub struct Server {
    inner: Arc<ServerInner>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Starts `cfg.workers` worker threads and returns the running
    /// server.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.workers == 0` or `cfg.queue_capacity == 0`, or if
    /// WAL recovery fails (use [`Server::try_start`] for a typed
    /// startup error).
    pub fn start(cfg: ServeConfig) -> Server {
        // unwrap-ok: infallible-signature compatibility shim; callers
        // that can handle startup errors use try_start
        Self::try_start(cfg).unwrap_or_else(|e| panic!("server startup: {e}"))
    }

    /// [`Server::start`] with a typed startup error instead of a
    /// panic: WAL-directory recovery (torn-tail truncation, manifest
    /// load, pack reload, tail replay) happens here, before any worker
    /// thread spawns or any request is admitted.
    pub fn try_start(cfg: ServeConfig) -> Result<Server, String> {
        assert!(cfg.workers > 0, "need at least one worker");
        assert!(cfg.queue_capacity > 0, "need a nonzero admission queue");
        let registry = db_metrics::Registry::new();
        let metrics = Metrics::register(&registry);
        let cache = CorpusCache::new_in(cfg.corpus_budget_bytes, &registry);
        let flight = FlightRecorder::new(cfg.workers, cfg.flight.clone());
        let slo = SloTracker::new(&cfg.slo, &registry);
        let delta = DeltaRegistry::with_durability(
            &registry,
            &cfg.durability,
            cfg.resilience.faults.clone(),
        )?;
        let inner = Arc::new(ServerInner {
            state: Mutex::new(PoolState {
                queues: (0..cfg.workers).map(|_| VecDeque::new()).collect(),
                queued_total: 0,
                per_tenant: HashMap::new(),
                per_tenant_writes: HashMap::new(),
                draining: false,
                dead: vec![false; cfg.workers],
                offer: None,
            }),
            cv: Condvar::new(),
            cache,
            delta,
            registry,
            metrics,
            seq: AtomicU64::new(0),
            started: Instant::now(),
            breakers: BreakerMap::new(&cfg.resilience),
            restart_budget: AtomicU32::new(cfg.resilience.restart_budget),
            flight,
            slo,
            cfg,
        });
        // Startup recovery is flight-recorded like any other work: one
        // Recovery span (value = replayed records, code 1 = a torn
        // tail was truncated) on a synthetic trace.
        if let Some(info) = inner.delta.recovery() {
            if info.replayed > 0 || info.torn_truncated {
                let ctx = TraceCtx::derive(0, "recovery");
                inner.span(
                    &ctx,
                    SpanKind::Recovery,
                    u32::from(info.torn_truncated),
                    info.replayed,
                    ADMISSION_WORKER,
                    0,
                );
            }
        }
        let workers = (0..inner.cfg.workers)
            .map(|idx| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("serve-worker-{idx}"))
                    .spawn(move || worker_entry(inner, idx))
                    // unwrap-ok: pool startup, before any request is admitted
                    .expect("spawn serve worker")
            })
            .collect();
        Ok(Server { inner, workers })
    }

    /// In-process client handle (clonable, sendable across threads).
    pub fn handle(&self) -> ServeHandle {
        ServeHandle {
            inner: Arc::clone(&self.inner),
        }
    }

    /// Graceful drain: stop admitting, finish everything queued, join
    /// the workers, and return the final metrics.
    pub fn shutdown(mut self) -> MetricsSnapshot {
        self.drain_and_join();
        self.inner.snapshot()
    }

    fn drain_and_join(&mut self) {
        {
            let mut st = self.inner.lock();
            st.draining = true;
        }
        self.inner.cv.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if !self.workers.is_empty() {
            self.drain_and_join();
        }
    }
}

/// Picks a steal victim among nonempty queues: two-choice sampling by
/// depth, falling back to the deepest queue overall. Returns `None`
/// when every other queue is empty.
fn pick_victim(st: &PoolState, thief: usize, rng: &mut u64) -> Option<usize> {
    let n = st.queues.len();
    if n <= 1 {
        return None;
    }
    let mut next = || {
        // xorshift64* — deterministic per-worker sequence.
        *rng ^= *rng << 13;
        *rng ^= *rng >> 7;
        *rng ^= *rng << 17;
        (*rng).wrapping_mul(0x2545_f491_4f6c_dd1d) as usize
    };
    let cand = |k: usize| {
        let mut v = k % (n - 1);
        if v >= thief {
            v += 1; // skip self
        }
        v
    };
    let a = cand(next());
    let b = cand(next());
    let best = if st.queues[a].len() >= st.queues[b].len() {
        a
    } else {
        b
    };
    if !st.queues[best].is_empty() {
        return Some(best);
    }
    // Fallback scan: guarantees progress during drain.
    (0..n)
        .filter(|&i| i != thief && !st.queues[i].is_empty())
        .max_by_key(|&i| st.queues[i].len())
}

/// Steals the back (least-urgent) half of `victim`'s queue into
/// `thief`'s. Both deques are EDF-sorted, and the thief only steals
/// when empty, so the moved tail is sorted in place.
fn steal_half(st: &mut PoolState, thief: usize, victim: usize) -> usize {
    let vq = &mut st.queues[victim];
    let take = vq.len().div_ceil(2);
    let tail = vq.split_off(vq.len() - take);
    debug_assert!(st.queues[thief].is_empty());
    st.queues[thief] = tail;
    take
}

/// Why a worker incarnation returned control to [`worker_entry`].
enum WorkerExit {
    /// Graceful drain finished; the thread can end.
    Drained,
    /// A job attempt panicked inside this incarnation. The response was
    /// still delivered (the per-attempt isolation boundary caught it),
    /// but the incarnation retires so the entry loop can respawn a
    /// fresh one from the restart budget.
    Poisoned,
}

/// Thread entry: runs worker incarnations, respawning after poisoning
/// panics until the pool-wide restart budget runs out, then retires the
/// worker slot.
fn worker_entry(inner: Arc<ServerInner>, idx: usize) {
    loop {
        // Belt and braces: run_job already catches per-attempt panics;
        // if the loop machinery itself panics, treat that as poisoned
        // too rather than silently losing the thread.
        // guard: per-job state is restored by ReplyGuard inside run_job,
        // and team membership by the kernel's Helper; the respawn arm
        // below restores pool capacity
        let exit = std::panic::catch_unwind(AssertUnwindSafe(|| worker_loop(&inner, idx)))
            .unwrap_or(WorkerExit::Poisoned);
        match exit {
            WorkerExit::Drained => return,
            WorkerExit::Poisoned => {
                let granted = inner
                    .restart_budget
                    // relaxed-ok: budget counter; the RMW is atomic and
                    // publishes nothing
                    .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |b| b.checked_sub(1))
                    .is_ok();
                if granted {
                    inner.metrics.worker_respawns.inc();
                    continue;
                }
                retire_worker(&inner, idx);
                return;
            }
        }
    }
}

/// Marks worker `idx` dead. If it was the last live worker, every
/// queued job is failed immediately — an admitted request must never be
/// silently lost, even when the pool can no longer execute anything.
fn retire_worker(inner: &ServerInner, idx: usize) {
    let orphans = {
        let mut st = inner.lock();
        st.dead[idx] = true;
        if st.dead.iter().all(|&d| d) {
            let orphans: Vec<Job> = st.queues.iter_mut().flat_map(|q| q.drain(..)).collect();
            st.queued_total = 0;
            st.per_tenant.clear();
            st.per_tenant_writes.clear();
            orphans
        } else {
            Vec::new()
        }
    };
    // Survivors must re-examine the queues (they can steal the retired
    // worker's leftovers).
    inner.cv.notify_all();
    for job in orphans {
        let resp = Response::failure(job.req.id, Status::Failed, NO_LIVE_WORKERS);
        let resp = inner.close(&job.ctx, &job.req, idx as u32, job.admit_ns, resp);
        let _ = job.reply.send(resp);
    }
}

fn worker_loop(inner: &Arc<ServerInner>, idx: usize) -> WorkerExit {
    let mut rng: u64 = 0x9e37_79b9_7f4a_7c15 ^ ((idx as u64 + 1) << 32 | 0xdead_beef);
    // One traversal scratch per incarnation: a poisoned worker drops it
    // with everything else the unwound attempt touched.
    let mut scratch = WorkerScratch::new(&inner.metrics.scratch_bytes);
    loop {
        let task = {
            let mut st = inner.lock();
            loop {
                if let Some(job) = st.queues[idx].pop_front() {
                    st.queued_total -= 1;
                    if let Some(c) = st.per_tenant.get_mut(&job.req.tenant) {
                        *c = c.saturating_sub(1);
                        if *c == 0 {
                            st.per_tenant.remove(&job.req.tenant);
                        }
                    }
                    if job.req.workload.is_write() {
                        if let Some(c) = st.per_tenant_writes.get_mut(&job.req.tenant) {
                            *c = c.saturating_sub(1);
                            if *c == 0 {
                                st.per_tenant_writes.remove(&job.req.tenant);
                            }
                        }
                    }
                    break Some(Task::Run(job));
                }
                if let Some(victim) = pick_victim(&st, idx, &mut rng) {
                    steal_half(&mut st, idx, victim);
                    // The thief's queue holds exactly the stolen tail
                    // (it only steals when empty); stamp each moved
                    // request so its trace shows the migration.
                    let t = inner.now_ns();
                    for j in &st.queues[idx] {
                        inner.span(&j.ctx, SpanKind::Steal, 0, victim as u64, idx as u32, t);
                    }
                    continue; // loop around to pop from our own queue
                }
                if let Some(offer) = st.offer.take() {
                    break Some(Task::Help(offer));
                }
                if st.draining && st.queued_total == 0 {
                    break None;
                }
                st = inner
                    .cv
                    .wait(st)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        match task {
            None => {
                // Wake siblings so they observe the drained state too.
                inner.cv.notify_all();
                return WorkerExit::Drained;
            }
            Some(Task::Run(job)) => {
                if run_job(inner, idx as u32, job, &mut scratch) {
                    return WorkerExit::Poisoned;
                }
            }
            Some(Task::Help(offer)) => help(inner, idx as u32, &offer, &mut scratch),
        }
    }
}

/// What an idle worker found to do.
enum Task {
    /// A request from its own queue (after a steal, perhaps).
    Run(Job),
    /// The team search on offer.
    Help(Offer),
}

/// Joins the offered team search as its helper, unless it has already
/// ended. Before leaving, the helper charges its scratch and records one
/// `team` span under the owner's attempt: `value` = entries it
/// expanded, `code` 1 if it left for a queued request, else 0.
fn help(inner: &ServerInner, worker: u32, offer: &Offer, scratch: &mut WorkerScratch) {
    let t0 = inner.now_ns();
    let Some(mut helper) = offer.team.join() else {
        return;
    };
    let queued = || inner.lock().queued_total > 0;
    let done = helper.run(&mut scratch.scratch, &queued);
    scratch.charge();
    inner.record(SpanRecord {
        trace_id: offer.trace_id,
        span_id: offer.span_id,
        parent: offer.attempt,
        kind: SpanKind::Team,
        code: u32::from(done.left_for_request),
        value: done.expanded,
        worker,
        tenant: NO_TENANT,
        t0_ns: t0,
        t1_ns: inner.now_ns(),
    });
    // The membership ends here, after the span, so the owner answers
    // only once its helper's span is on the ring.
    drop(helper);
}

/// The pool as a team search's owner sees it: one offer slot, and the
/// shared queue count.
struct PoolCrew<'a> {
    inner: &'a ServerInner,
    ctx: &'a TraceCtx,
    /// The owner's attempt span, parent of the helper's `team` span.
    attempt: u32,
}

impl Crew for PoolCrew<'_> {
    fn queued(&self) -> bool {
        self.inner.lock().queued_total > 0
    }

    fn offer(&self, team: &Arc<Team>) -> bool {
        let mut st = self.inner.lock();
        if st.queued_total > 0 || st.offer.is_some() {
            return false;
        }
        st.offer = Some(Offer {
            team: Arc::clone(team),
            trace_id: self.ctx.trace_id(),
            span_id: self.ctx.next_span(),
            attempt: self.attempt,
        });
        drop(st);
        self.inner.cv.notify_all();
        true
    }

    fn withdraw(&self, team: &Arc<Team>) {
        let mut st = self.inner.lock();
        if st
            .offer
            .as_ref()
            .is_some_and(|o| Arc::ptr_eq(&o.team, team))
        {
            st.offer = None;
        }
    }
}

/// Whether a search starting now would find a helper: some live worker
/// is not running a request (the caller's own request counts as one).
fn has_idle_worker(inner: &ServerInner) -> bool {
    let live = inner.lock().dead.iter().filter(|&&dead| !dead).count() as u64;
    inner.metrics.busy_workers.get() < live
}

/// A worker's reused traversal scratch, charged to the
/// `db_serve_scratch_bytes` gauge for as long as the worker holds it.
struct WorkerScratch<'a> {
    scratch: Scratch,
    gauge: &'a Gauge,
    charged: u64,
}

impl<'a> WorkerScratch<'a> {
    fn new(gauge: &'a Gauge) -> WorkerScratch<'a> {
        WorkerScratch {
            scratch: Scratch::default(),
            gauge,
            charged: 0,
        }
    }

    /// Moves the gauge by the scratch's change since the last charge.
    fn charge(&mut self) {
        let held = self.scratch.bytes() as u64;
        if held >= self.charged {
            self.gauge.add(held - self.charged);
        } else {
            self.gauge.sub(self.charged - held);
        }
        self.charged = held;
    }
}

impl Drop for WorkerScratch<'_> {
    fn drop(&mut self) {
        self.gauge.sub(self.charged);
    }
}

/// Decrements a gauge on drop, so a panicking traversal can never
/// leave `busy_workers` (or any other occupancy gauge) permanently
/// inflated.
struct GaugeGuard<'a>(&'a Gauge);

impl<'a> GaugeGuard<'a> {
    fn acquire(g: &'a Gauge) -> GaugeGuard<'a> {
        g.add(1);
        GaugeGuard(g)
    }
}

impl Drop for GaugeGuard<'_> {
    fn drop(&mut self) {
        self.0.sub(1);
    }
}

/// Guarantees exactly one [`Response`] per admitted job: the normal
/// path consumes the guard via [`ReplyGuard::send`]; if the worker
/// unwinds past it instead, the drop handler delivers a `failed`
/// response so no client blocks forever on a lost request. It also
/// holds the worker's `busy_workers` count, which it releases before
/// the reply goes out: a request its client sends next then sees this
/// worker as free, so it can find a helper here.
struct ReplyGuard<'a> {
    reply: Option<(mpsc::Sender<Response>, u64)>,
    busy: Option<GaugeGuard<'a>>,
}

impl<'a> ReplyGuard<'a> {
    fn new(reply: mpsc::Sender<Response>, id: u64, busy: GaugeGuard<'a>) -> ReplyGuard<'a> {
        ReplyGuard {
            reply: Some((reply, id)),
            busy: Some(busy),
        }
    }

    fn send(mut self, resp: Response) {
        self.busy = None;
        if let Some((tx, _)) = self.reply.take() {
            // The client may have hung up (e.g. a TCP connection
            // dropped); delivery failure is not a server error.
            let _ = tx.send(resp);
        }
    }
}

impl Drop for ReplyGuard<'_> {
    fn drop(&mut self) {
        if let Some((tx, id)) = self.reply.take() {
            let _ = tx.send(Response::failure(
                id,
                Status::Failed,
                "request lost to a worker crash",
            ));
        }
    }
}

/// Best-effort text of a caught panic payload.
fn panic_text(p: &(dyn std::any::Any + Send)) -> &str {
    p.downcast_ref::<&'static str>()
        .copied()
        .or_else(|| p.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("opaque panic payload")
}

/// Executes one dequeued job end to end: graph resolution, deadline
/// token, the retry/degradation attempt loop, response delivery,
/// breaker accounting, metrics and span emission.
///
/// Attempt semantics: only *crash-class* failures retry — a caught
/// panic or an injected fault. `error` (invalid request) and `expired`
/// (deadline) are terminal on their first occurrence; retrying them
/// could not change the outcome. The final attempt of a request whose
/// earlier attempts crashed is exempt from the chaos plan's `corrupt`
/// kind, so an `always` corrupt plan still converges. A `sim` request's
/// final attempt is relabelled `serial` (the degradation ladder): a
/// `dfs` or `reach` runs the same served kernel under every other
/// engine name, so `sim` is the only name whose relabelling changes
/// what runs.
///
/// Returns `true` if an attempt panicked: the caller's incarnation is
/// considered poisoned and respawns (heap state touched by the unwound
/// traversal, `scratch` included, is untrusted even though the response
/// was delivered).
fn run_job(inner: &ServerInner, worker: u32, job: Job, scratch: &mut WorkerScratch) -> bool {
    let busy = GaugeGuard::acquire(&inner.metrics.busy_workers);
    let reply = ReplyGuard::new(job.reply.clone(), job.req.id, busy);
    // The queue span covers admission to this dequeue — across any
    // steals, because the trace context moved with the job.
    inner.span(&job.ctx, SpanKind::Queue, 0, 0, worker, job.admit_ns);
    let token = match job.deadline {
        Some(d) => CancelToken::with_deadline(d),
        None => CancelToken::new(),
    };
    let policy = &inner.cfg.resilience;
    let mut poisoned = false;
    let mut fault_struck = false;

    // Delta corpora take their own execution path: writes go through
    // the epoch-publish pipeline and reads pin a snapshot, so neither
    // needs the frozen-corpus cache or the retry ladder (the delta
    // mutex serializes writers; a batch either publishes or returns a
    // typed error, and a pinned read is as crash-safe as a frozen one).
    if job.req.graph.starts_with(DELTA_PREFIX) {
        let t_exec = inner.now_ns();
        let (resp, events) = inner
            .delta
            .execute(&job.req, policy.faults.as_deref(), &token);
        for ev in events {
            let (kind, code, value) = match ev {
                DeltaEvent::Epoch { epoch, applied } => {
                    (SpanKind::DeltaWrite, applied, u64::from(epoch))
                }
                DeltaEvent::Compact { folded, outcome } => {
                    (SpanKind::Compact, outcome, u64::from(folded))
                }
                DeltaEvent::FaultInjected => {
                    fault_struck = true;
                    // Code 0 = kill, the only kind live at the
                    // compaction site.
                    (SpanKind::Fault, 0, 0)
                }
                DeltaEvent::Pinned { epoch } => (SpanKind::EpochPin, 0, u64::from(epoch)),
                DeltaEvent::Wal { lsn, .. } => (SpanKind::Wal, 0, lsn),
                DeltaEvent::Checkpoint { epoch } => (SpanKind::Wal, 1, u64::from(epoch)),
                DeltaEvent::StorageRejected => {
                    inner.metrics.rejected_storage.inc();
                    continue;
                }
            };
            inner.span(&job.ctx, kind, code, value, worker, t_exec);
        }
        let dump = fault_struck.then_some(DumpReason::Fault);
        finish_job(inner, worker, &job, reply, resp, false, dump);
        return false;
    }

    // Store-load fault site: a chaos plan targeting `store` strikes
    // this request's pack load, which then runs fresh and uncached with
    // one deterministic byte flipped. The pack checksum catches the
    // flip and only this request fails (`failed`, not `error`) — the
    // cached intact store keeps serving everyone else.
    let store_fault = policy.faults.as_ref().and_then(|inj| {
        job.req
            .graph
            .starts_with(crate::corpus::STORE_PREFIX)
            .then(|| inj.check_store(&job.req.graph, 0))
            .flatten()
    });
    let t_store = inner.now_ns();
    let resolved = match store_fault {
        Some(seed) => {
            fault_struck = true;
            inner.span(&job.ctx, SpanKind::Fault, 4, seed, worker, t_store);
            inner.cache.resolve_corrupted(&job.req.graph, seed)
        }
        None => inner.cache.resolve_valid(&job.req.graph),
    };
    let store = match resolved {
        Ok((store, info)) => {
            let code = if store_fault.is_some() {
                2
            } else {
                u32::from(!info.hit)
            };
            inner.span(
                &job.ctx,
                SpanKind::StoreLoad,
                code,
                info.resident as u64,
                worker,
                t_store,
            );
            store
        }
        Err(msg) => {
            let status = if store_fault.is_some() {
                Status::Failed
            } else {
                Status::Error
            };
            let code = if store_fault.is_some() { 2 } else { 1 };
            inner.span(&job.ctx, SpanKind::StoreLoad, code, 0, worker, t_store);
            finish_job(
                inner,
                worker,
                &job,
                reply,
                Response::failure(job.req.id, status, msg),
                false,
                fault_struck.then_some(DumpReason::Fault),
            );
            return false;
        }
    };
    let graph = store.view();
    // A dfs/reach on a batched graph runs as a team search when another
    // worker could help; everything else runs alone.
    let teams = matches!(
        job.req.workload,
        Workload::Dfs { .. } | Workload::Reach { .. }
    ) && graph.batches()
        && has_idle_worker(inner);

    let attempts = policy.attempts().max(1);
    let mut done: Option<Response> = None;
    let mut last_err = String::new();
    let mut degraded = false;
    for attempt in 0..attempts {
        let final_retry = attempt + 1 == attempts && attempt > 0;
        // Degradation ladder: a crashing `sim` request's last attempt
        // runs the served kernel.
        let degrade = final_retry && job.req.engine == EngineKind::Sim;
        let engine = if degrade {
            EngineKind::Serial
        } else {
            job.req.engine
        };

        let t_attempt = inner.now_ns();
        if degrade {
            inner.span(
                &job.ctx,
                SpanKind::Degrade,
                0,
                engine_index(job.req.engine),
                worker,
                t_attempt,
            );
        }

        // Consult the chaos plan (one branch when no plan is loaded).
        let mut kill = false;
        let mut corrupt = false;
        let mut stall = None;
        if let Some(inj) = &policy.faults {
            if let Some(kind) = inj.check_request(worker, job.req.id, attempt) {
                fault_struck = true;
                let fault_code = match kind {
                    FaultKind::Kill => 0,
                    FaultKind::CorruptResult => 1,
                    FaultKind::Stall { .. } => 2,
                    FaultKind::SlowDown { .. } => 3,
                    FaultKind::DropSteal
                    | FaultKind::Torn
                    | FaultKind::ShortWrite
                    | FaultKind::FsyncLie
                    | FaultKind::Crash => 0,
                };
                inner.span(&job.ctx, SpanKind::Fault, fault_code, 0, worker, t_attempt);
                match kind {
                    FaultKind::Kill => kill = true,
                    // Modeled as a checksum mismatch at result delivery.
                    // A retried request's final attempt is exempt, so an
                    // `always` corrupt plan still converges instead of
                    // failing forever.
                    FaultKind::CorruptResult => corrupt = !final_retry,
                    FaultKind::Stall { cycles } => stall = Some(Duration::from_micros(cycles)),
                    FaultKind::SlowDown { factor } => {
                        stall = Some(Duration::from_millis(factor.max(0.0).ceil() as u64))
                    }
                    // Steal-site only; check_request never yields it.
                    FaultKind::DropSteal => {}
                    // Storage kinds strike wal sites, never request
                    // execution; check_request never yields them.
                    FaultKind::Torn
                    | FaultKind::ShortWrite
                    | FaultKind::FsyncLie
                    | FaultKind::Crash => {}
                }
            }
        }

        let attempt_req;
        let req = if engine == job.req.engine {
            &job.req
        } else {
            attempt_req = Request {
                engine,
                ..job.req.clone()
            };
            &attempt_req
        };
        // Attempt span id is allocated up front so the sim's phase
        // spans (children) can attach underneath it.
        let attempt_span = job.ctx.next_span();
        let crew = PoolCrew {
            inner,
            ctx: &job.ctx,
            attempt: attempt_span,
        };
        let team = teams.then_some(exec::Teaming {
            graph: &store,
            crew: &crew,
        });
        let mut sim_spans: Vec<(u32, usize, u64)> = Vec::new();
        // guard: ReplyGuard at fn entry (exactly-one response, and the
        // busy_workers count it holds) survives this unwind
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            if kill {
                panic!("injected fault: kill");
            }
            if let Some(d) = stall {
                // blocking-ok: fault-injected stall; blocking is the point
                std::thread::sleep(d);
            }
            exec::execute_valid(
                req,
                graph,
                &token,
                &mut scratch.scratch,
                team,
                Some(&mut sim_spans),
            )
        }));
        let t_done = inner.now_ns();
        let attempt_code = match &outcome {
            Err(_) => 1,
            Ok(_) if corrupt => 2,
            Ok(_) => 0,
        };
        inner.record(SpanRecord {
            trace_id: job.ctx.trace_id(),
            span_id: attempt_span,
            parent: job.ctx.root(),
            kind: SpanKind::Attempt,
            code: attempt_code,
            value: engine_index(engine),
            worker,
            tenant: NO_TENANT,
            t0_ns: t_attempt,
            t1_ns: t_done,
        });
        for (sm, phase, cycles) in sim_spans {
            inner.record(SpanRecord {
                trace_id: job.ctx.trace_id(),
                span_id: job.ctx.next_span(),
                parent: attempt_span,
                kind: SpanKind::SimPhase,
                code: (sm << 8) | phase as u32,
                value: cycles,
                worker,
                tenant: NO_TENANT,
                t0_ns: t_attempt,
                t1_ns: t_done,
            });
        }
        match outcome {
            Err(p) => {
                poisoned = true;
                last_err = format!("attempt {attempt} panicked: {}", panic_text(p.as_ref()));
            }
            Ok(_) if corrupt => {
                last_err = format!("attempt {attempt}: result corrupted in transit");
            }
            Ok(resp) => {
                if degrade {
                    degraded = true;
                }
                done = Some(resp);
                break;
            }
        }
        if attempt + 1 < attempts {
            let t_backoff = inner.now_ns();
            std::thread::sleep(backoff_delay(policy, job.req.id, attempt + 1));
            inner.span(
                &job.ctx,
                SpanKind::Retry,
                0,
                (attempt + 1) as u64,
                worker,
                t_backoff,
            );
        }
    }

    // Charged before the reply goes out, so a client that scrapes after
    // its response sees the scratch this request grew.
    scratch.charge();
    let resp = done.unwrap_or_else(|| {
        Response::failure(
            job.req.id,
            Status::Failed,
            format!("failed after {attempts} attempts; {last_err}"),
        )
    });
    // Panic outranks fault: the kill's panic is the interesting artifact.
    let dump = if poisoned {
        Some(DumpReason::Panic)
    } else {
        fault_struck.then_some(DumpReason::Fault)
    };
    finish_job(inner, worker, &job, reply, resp, degraded, dump);
    poisoned
}

/// Delivery tail of every dequeued job: the degraded count, breaker
/// accounting, the deadline-miss marker, the closing root span, the
/// flight dumps (a deadline miss, then `dump` if any), and the
/// exactly-one-response send.
fn finish_job(
    inner: &ServerInner,
    worker: u32,
    job: &Job,
    reply: ReplyGuard,
    mut resp: Response,
    degraded: bool,
    dump: Option<DumpReason>,
) {
    resp.deadline_missed =
        resp.status == Status::Ok && job.deadline.is_some_and(|d| Instant::now() > d);
    if degraded && resp.status == Status::Ok {
        inner.metrics.degraded.inc();
    }
    // Breaker accounting: `error` and `failed` count against the
    // tenant's streak; `ok` and `expired` reset it (an expired deadline
    // says the request was slow, not that the service is broken).
    let failure = matches!(resp.status, Status::Error | Status::Failed);
    if inner.breakers.record(&job.req.tenant, !failure) == BreakerEvent::Opened {
        inner.metrics.breaker_trips.inc();
    }
    let missed = resp.deadline_missed || resp.status == Status::Expired;
    if missed {
        inner.span(
            &job.ctx,
            SpanKind::DeadlineMiss,
            0,
            job.req.id,
            worker,
            inner.now_ns(),
        );
    }
    let resp = inner.close(&job.ctx, &job.req, worker, job.admit_ns, resp);
    // Dumps fire after the root span closes, so a post-mortem holds the
    // whole request rather than a headless fragment, and before the
    // reply, so a caller that has its answer also has the dump it
    // caused.
    if missed {
        inner.flight.trigger(DumpReason::DeadlineMiss);
    }
    if let Some(reason) = dump {
        inner.flight.trigger(reason);
    }
    reply.send(resp);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(id: u64, graph: &str, root: u32) -> Request {
        Request {
            id,
            tenant: "t0".into(),
            graph: graph.into(),
            workload: Workload::Dfs { root },
            engine: EngineKind::Native,
            deadline_ms: None,
        }
    }

    #[test]
    fn serves_a_request_end_to_end() {
        let server = Server::start(ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        });
        let h = server.handle();
        let resp = h.run(req(1, "grid:8:8", 0));
        assert_eq!(resp.status, Status::Ok);
        assert_eq!(resp.payload.get("visited").unwrap().as_u64(), Some(64));
        assert!(resp.latency_us > 0);
        let m = server.shutdown();
        assert_eq!(m.admitted, 1);
        assert_eq!(m.completed, 1);
        assert_eq!(m.cache_misses, 1);
    }

    #[test]
    fn rejects_beyond_capacity_and_quota() {
        // Zero workers would hang; use one worker and saturate it with
        // a tiny queue instead: capacity 1 means the second concurrent
        // submission with a slow first job can be rejected. To keep the
        // test deterministic we only check the tenant quota (a pure
        // admission-time property) plus the draining rejection.
        let server = Server::start(ServeConfig {
            workers: 1,
            queue_capacity: 1024,
            tenant_quota: Some(0),
            ..ServeConfig::default()
        });
        let h = server.handle();
        let resp = h.run(req(1, "path:10", 0));
        assert_eq!(resp.status, Status::Rejected);
        assert!(resp.error.as_deref().unwrap().contains("quota"));
        let m = server.shutdown();
        assert_eq!(m.rejected_tenant, 1);
        assert_eq!(m.admitted, 0);
    }

    #[test]
    fn drain_completes_queued_work() {
        let server = Server::start(ServeConfig {
            workers: 3,
            ..ServeConfig::default()
        });
        let h = server.handle();
        let rxs: Vec<_> = (0..64)
            .map(|i| h.submit(req(i, "grid:12:12", (i % 144) as u32)))
            .collect();
        let m = server.shutdown();
        assert_eq!(m.completed, 64);
        assert_eq!(m.queue_depth, 0);
        for rx in rxs {
            let r = rx.recv().unwrap();
            assert_eq!(r.status, Status::Ok);
            assert_eq!(r.payload.get("visited").unwrap().as_u64(), Some(144));
        }
    }

    #[test]
    fn prometheus_scrape_merges_instance_and_global_series() {
        let server = Server::start(ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        });
        let h = server.handle();
        let sim = Request {
            engine: EngineKind::Sim,
            ..req(1, "grid:8:8", 0)
        };
        assert_eq!(h.run(sim).status, Status::Ok);
        let text = h.prometheus();
        let exp = db_metrics::validate_exposition(&text).unwrap();
        let get = |n: &str| exp.samples.iter().find(|s| s.name == n).map(|s| s.value);
        assert_eq!(get("db_serve_admitted_total"), Some(1.0));
        assert_eq!(get("db_serve_cache_misses_total"), Some(1.0));
        assert_eq!(get("db_serve_request_latency_us_count"), Some(1.0));
        assert_eq!(get("db_serve_queue_depth"), Some(0.0));
        // The request ran the simulator, which records into the
        // process-global registry; the merged scrape must carry it.
        let runs = exp
            .samples
            .iter()
            .find(|s| s.name == "db_engine_runs_total" && s.label("engine") == Some("sim"))
            .expect("global engine series in scrape");
        assert!(runs.value >= 1.0);
        // Per-instance isolation: a sibling server's scrape reports its
        // own zeroed serve counters.
        let other = Server::start(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        });
        let other_text = other.handle().prometheus();
        let other_exp = db_metrics::validate_exposition(&other_text).unwrap();
        let other_admitted = other_exp
            .samples
            .iter()
            .find(|s| s.name == "db_serve_admitted_total")
            .unwrap();
        assert_eq!(other_admitted.value, 0.0);
        other.shutdown();
        let m = server.shutdown();
        assert_eq!(m.latency_count, 1);
        assert!(m.max_us > 0, "exact max latency must be recorded");
        assert!(m.p999_us >= m.p50_us);
    }

    #[test]
    fn scratch_gauge_tracks_worker_scratch_until_the_workers_exit() {
        let server = Server::start(ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        });
        let h = server.handle();
        let scratch = |h: &ServeHandle| {
            let exp = db_metrics::validate_exposition(&h.prometheus()).unwrap();
            exp.samples
                .iter()
                .find(|s| s.name == "db_serve_scratch_bytes")
                .map(|s| s.value)
        };
        assert_eq!(scratch(&h), Some(0.0));
        assert_eq!(h.run(req(1, "path:5000", 0)).status, Status::Ok);
        // One worker holds 5000 visited bits and room for 5000 stack
        // entries.
        assert!(scratch(&h).unwrap() >= (5000 / 8 + 5000 * 4) as f64);
        // A batched graph runs as a team: its owner also holds a mark
        // byte per vertex, and a helper charges its stack when it
        // leaves.
        let n = crate::corpus::build_graph("social_s")
            .unwrap()
            .num_vertices();
        assert_eq!(h.run(req(2, "social_s", 0)).status, Status::Ok);
        assert!(scratch(&h).unwrap() >= (n + n * 4) as f64);
        server.shutdown();
        assert_eq!(scratch(&h), Some(0.0), "exited workers drop their scratch");
    }

    #[test]
    fn a_helper_leaves_its_team_for_a_queued_request() {
        // Worker 0 searches `social_l` with worker 1's help. A small
        // request queued meanwhile is answered before that search ends,
        // because the helper leaves for it (its `team` span, code 1).
        let server = Server::start(ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        });
        let h = server.handle();
        let g = crate::corpus::build_graph("social_l").unwrap();
        assert!(db_core::ValidCsr::new(&g).unwrap().batches());
        assert_eq!(h.run(req(0, "social_l", 0)).status, Status::Ok);
        for id in (1..=10).step_by(2) {
            let big = h.submit(req(id, "social_l", 0));
            std::thread::sleep(Duration::from_millis(30));
            assert_eq!(h.run(req(id + 1, "grid:8:8", 0)).status, Status::Ok);
            let answered_first = big.try_recv().is_err();
            let big = big.recv().unwrap();
            assert_eq!(big.status, Status::Ok);
            let left = h
                .flight_dump()
                .spans
                .iter()
                .any(|s| s.trace_id == big.trace_id && s.kind == SpanKind::Team && s.code == 1);
            if left {
                assert!(answered_first, "the small request waited for the team");
                server.shutdown();
                return;
            }
        }
        panic!("no helper left its team for a queued request");
    }

    #[test]
    fn edf_orders_jobs_and_stealing_keeps_workers_busy() {
        let server = Server::start(ServeConfig {
            workers: 4,
            ..ServeConfig::default()
        });
        let h = server.handle();
        let mut rxs = Vec::new();
        for i in 0..200u64 {
            let mut r = req(i, "grid:16:16", (i % 256) as u32);
            // Mixed deadline classes; generous enough to never expire.
            r.deadline_ms = if i % 3 == 0 { Some(60_000) } else { None };
            rxs.push(h.submit(r));
        }
        for rx in rxs {
            assert_eq!(rx.recv().unwrap().status, Status::Ok);
        }
        let m = server.shutdown();
        assert_eq!(m.completed, 200);
        // 200 requests over one cached graph: exactly one miss.
        assert_eq!(m.cache_misses, 1);
        assert_eq!(m.cache_hits, 199);
    }
}
