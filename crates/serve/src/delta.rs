//! Delta corpus registry: epoch-versioned dynamic graphs served under
//! `delta:`-prefixed corpus keys.
//!
//! A key `delta:<inner>` wraps the frozen corpus `<inner>` (any key
//! [`crate::corpus::build_graph`] accepts, including `store:` packs) in
//! a [`DeltaGraph`]. The wrapped graph accepts `add_edges` / `del_edges`
//! mutation batches — each batch publishes one epoch — while reads pin
//! the current epoch and hand the pinned snapshot to
//! [`crate::exec::execute`], so a traversal's outcome can never shear
//! across a concurrent publish. A `dfs` or `reach` therefore runs the
//! served kernel ([`db_core::kernel`]) exactly as on a frozen corpus:
//! a reach stops at its target, and both stop at their deadline. A pin
//! of the base epoch holds the base graph itself, so a read on
//! `delta:store:<pack>` before its first write runs on the loaded pack
//! and copies nothing.
//!
//! Write responses carry only the *requested batch size* (`applied`),
//! never the epoch number a batch landed at: epoch numbers depend on
//! arrival interleaving, and keeping them out of payloads is what lets
//! the load generator compare double-run digests under a read/write
//! mix. The `epoch` op reads the current epoch and is meant for fenced
//! (post-drain) use, where it is deterministic again.
//!
//! Compaction runs inside the writer's publish call; the chaos plan's
//! `compaction` trigger (a [`db_fault::Check::Compaction`] strike) can
//! abort an attempt at either hook point, modelling a worker killed
//! mid-compaction. An aborted attempt makes zero state changes, so no
//! epoch is lost — a later publish simply folds the backlog.
//!
//! # Durability
//!
//! With [`Durability::wal_dir`] set, the registry threads every
//! mutation batch through a `db-wal` write-ahead log before applying
//! it (*log → apply → ack*): a batch is acknowledged only after its
//! record is durable under the configured [`FsyncPolicy`], so a crash
//! can never lose an acknowledged write. Epoch compaction doubles as
//! the checkpoint trigger: the folded base is packed through
//! `db-store`, the manifest records `(pack, last-applied LSN)` via an
//! atomic temp + rename + dir-fsync swap, and the WAL drops every
//! record the checkpoint covers. [`DeltaRegistry::with_durability`]
//! runs recovery on startup — torn-tail truncation, pack reload,
//! tail replay with per-record epoch verification — and reports what
//! it did through [`DeltaRegistry::recovery`]. Storage faults from the
//! chaos plan's `wal` domain (`torn:` / `shortwrite:` / `fsynclie:` /
//! `crash:`) strike through [`WalFaultHook`]; an append rejected by a
//! short write surfaces as a typed [`Status::Failed`] response with
//! zero state change.

use crate::request::{Request, Response, Status, Workload};
use db_core::CancelToken;
use db_delta::{
    CompactAction, CompactOutcome, CompactPoint, DeltaGraph, DEFAULT_COMPACT_THRESHOLD,
};
use db_fault::{Check, CkptPhaseKind, FaultKind, Injector};
use db_metrics::{Counter, Gauge, Registry};
use db_trace::json::Value;
use db_wal::{
    AppendFault, CkptPhase, FsyncPolicy, Manifest, ManifestEntry, Wal, WalError, WalFaultHook,
    WalMetrics, WalRecord, MANIFEST_FILE, WAL_FILE,
};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Corpus-key prefix selecting the epoch-versioned delta wrapper.
pub const DELTA_PREFIX: &str = "delta:";

/// Durability configuration for the delta write path.
#[derive(Debug, Clone, Default)]
pub struct Durability {
    /// Directory holding the WAL, manifest, and checkpoint packs.
    /// `None` disables durability (in-memory deltas only).
    pub wal_dir: Option<PathBuf>,
    /// When appended WAL records are fsynced (`always|group=N|never`).
    pub fsync: FsyncPolicy,
}

/// What startup recovery found and did (see
/// [`DeltaRegistry::with_durability`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryInfo {
    /// WAL records replayed into graphs past their checkpoints.
    pub replayed: u64,
    /// WAL records skipped: covered by a checkpoint, or a validation
    /// failure that deterministically also failed (unacknowledged)
    /// before the crash.
    pub skipped: u64,
    /// Whether a torn WAL tail was truncated on open.
    pub torn_truncated: bool,
    /// Delta corpora reconstructed from the manifest and WAL.
    pub corpora: usize,
    /// Durable acknowledged-write count per corpus after recovery,
    /// sorted by corpus key.
    pub durable_writes: Vec<(String, u64)>,
}

/// Side-effects of a delta-path request, reported back to the pool so
/// it can record spans and fault metrics with worker provenance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaEvent {
    /// A mutation batch published this epoch (`applied` = batch size).
    Epoch {
        /// Low 32 bits of the published epoch.
        epoch: u32,
        /// Mutations in the batch.
        applied: u32,
    },
    /// A compaction attempt ran; `outcome` is the
    /// [`db_span::SpanKind::Compact`] code (0 = folded,
    /// 1 = aborted by the fault hook, 2 = lost the swap race).
    Compact {
        /// Layers folded (0 unless the outcome is "folded").
        folded: u32,
        /// Dense outcome code.
        outcome: u32,
    },
    /// The chaos plan struck this request's compaction attempt.
    FaultInjected,
    /// A read pinned this epoch's snapshot for the duration of its
    /// traversal (feeds the `EpochPin` span in the flight recorder).
    Pinned {
        /// Low 32 bits of the pinned epoch.
        epoch: u32,
    },
    /// A mutation batch was durably logged before being applied.
    Wal {
        /// LSN the record committed at.
        lsn: u64,
        /// Encoded frame bytes.
        bytes: u32,
    },
    /// Epoch compaction completed a checkpoint (pack + manifest swap +
    /// WAL truncation).
    Checkpoint {
        /// Low 32 bits of the checkpointed epoch.
        epoch: u32,
    },
    /// The WAL rejected the batch's append (short write / ENOSPC);
    /// the request failed with zero state change.
    StorageRejected,
}

/// `db_delta_*` series for one server instance.
#[derive(Debug, Clone)]
struct DeltaMetrics {
    epochs_published: Counter,
    compactions: Counter,
    compactions_aborted: Counter,
    delta_bytes: Gauge,
    delta_layers: Gauge,
    pins_high_water: Gauge,
    corpora: Gauge,
}

impl DeltaMetrics {
    fn register(reg: &Registry) -> DeltaMetrics {
        DeltaMetrics {
            epochs_published: reg.counter(
                "db_delta_epochs_published_total",
                "Mutation batches published as epochs across delta corpora",
                &[],
            ),
            compactions: reg.counter(
                "db_delta_compactions_total",
                "Delta compactions that folded layers into a new base",
                &[],
            ),
            compactions_aborted: reg.counter(
                "db_delta_compactions_aborted_total",
                "Delta compaction attempts aborted by the chaos fault hook",
                &[],
            ),
            delta_bytes: reg.gauge(
                "db_delta_bytes",
                "Heap bytes held by live (unfolded) delta layers",
                &[],
            ),
            delta_layers: reg.gauge(
                "db_delta_layers",
                "Live (unfolded) delta layers across delta corpora",
                &[],
            ),
            pins_high_water: reg.gauge(
                "db_delta_pins_high_water",
                "Largest number of simultaneously pinned epochs on any delta corpus",
                &[],
            ),
            corpora: reg.gauge(
                "db_delta_corpora",
                "Delta corpora currently registered",
                &[],
            ),
        }
    }
}

/// One registered delta corpus.
#[derive(Debug)]
struct DeltaEntry {
    graph: Arc<DeltaGraph>,
    /// Monotone compaction-attempt counter. The chaos plan keys its
    /// `compaction` trigger on `(corpus key, attempt index)`, so the
    /// n-th attempt for a corpus is struck identically across runs
    /// regardless of which worker or request carries it.
    compact_seq: AtomicU64,
    /// Serializes durable writers on this corpus so a WAL record's
    /// epoch prediction (`current_epoch + 1`) cannot shear across a
    /// concurrent publish. Uncontended (and irrelevant) when the
    /// registry has no durable state.
    write_gate: Mutex<()>,
    /// Acknowledged (durably logged and applied) writes.
    applied_writes: AtomicU64,
    /// LSN of the last applied record (0 before any durable write).
    last_lsn: AtomicU64,
}

impl DeltaEntry {
    fn new(graph: DeltaGraph, applied: u64, lsn: u64) -> Arc<DeltaEntry> {
        Arc::new(DeltaEntry {
            graph: Arc::new(graph),
            compact_seq: AtomicU64::new(0),
            write_gate: Mutex::new(()),
            applied_writes: AtomicU64::new(applied),
            last_lsn: AtomicU64::new(lsn),
        })
    }
}

/// Bridges `db-fault`'s seeded injector into the WAL's storage fault
/// hook. Site and kind gating live in the injector; this is a pure
/// vocabulary translation between the two crates.
struct InjectorHook(Arc<Injector>);

impl WalFaultHook for InjectorHook {
    fn on_append(&self, lsn: u64) -> AppendFault {
        match self.0.strike(Check::WalAppend { lsn }) {
            Some(FaultKind::Torn) => AppendFault::Torn,
            Some(FaultKind::ShortWrite) => AppendFault::ShortWrite,
            Some(FaultKind::Crash) => AppendFault::Crash,
            _ => AppendFault::None,
        }
    }

    fn on_fsync(&self) -> bool {
        self.0.strike(Check::WalFsync).is_some()
    }

    fn on_checkpoint(&self, phase: CkptPhase) -> bool {
        let phase = Check::WalCheckpoint(match phase {
            CkptPhase::Pack => CkptPhaseKind::Pack,
            CkptPhase::Manifest => CkptPhaseKind::Manifest,
            CkptPhase::Truncate => CkptPhaseKind::Truncate,
        });
        self.0.strike(phase).is_some()
    }
}

/// The registry's durable half: open WAL, in-memory manifest mirror,
/// and the recovery report from startup.
struct DurableState {
    dir: PathBuf,
    wal: Mutex<Wal>,
    manifest: Mutex<Manifest>,
    wal_metrics: WalMetrics,
    hook: Option<Arc<dyn WalFaultHook>>,
    report: RecoveryInfo,
}

impl std::fmt::Debug for DurableState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurableState")
            .field("dir", &self.dir)
            .field("report", &self.report)
            .finish_non_exhaustive()
    }
}

/// Keyed registry of [`DeltaGraph`]s, one per `delta:` corpus key,
/// created on first use and resident for the server's lifetime (delta
/// corpora hold writer state, so they are never LRU-evicted; the
/// `db_delta_corpora` gauge tracks the population).
#[derive(Debug)]
pub struct DeltaRegistry {
    map: Mutex<HashMap<String, Arc<DeltaEntry>>>,
    metrics: DeltaMetrics,
    durable: Option<DurableState>,
}

impl DeltaRegistry {
    /// Creates a registry whose `db_delta_*` series live in `reg`.
    pub fn new_in(reg: &Registry) -> DeltaRegistry {
        DeltaRegistry {
            map: Mutex::new(HashMap::new()),
            metrics: DeltaMetrics::register(reg),
            durable: None,
        }
    }

    /// Creates a registry with crash-consistent durability: recovers
    /// the WAL directory (torn-tail truncation, manifest load, pack
    /// reload, tail replay with epoch verification), then opens the
    /// log for appending. With `wal_dir` unset this is
    /// [`DeltaRegistry::new_in`].
    ///
    /// Replay rebuilds epoch state bit-identically: each record's
    /// logged epoch is checked against the epoch its replay publishes,
    /// and any mismatch is a hard startup error — recovery must not
    /// guess.
    pub fn with_durability(
        reg: &Registry,
        d: &Durability,
        injector: Option<Arc<Injector>>,
    ) -> Result<DeltaRegistry, String> {
        let Some(dir) = &d.wal_dir else {
            return Ok(Self::new_in(reg));
        };
        std::fs::create_dir_all(dir).map_err(|e| format!("wal dir {}: {e}", dir.display()))?;
        let wal_metrics = WalMetrics::register(reg);
        let hook: Option<Arc<dyn WalFaultHook>> =
            injector.map(|inj| Arc::new(InjectorHook(inj)) as Arc<dyn WalFaultHook>);
        let wal_path = dir.join(WAL_FILE);
        let scan = db_wal::recover_file(&wal_path, &wal_metrics).map_err(|e| e.to_string())?;
        let manifest = Manifest::load(&dir.join(MANIFEST_FILE))
            .map_err(|e| e.to_string())?
            .unwrap_or_default();
        let mut map = HashMap::new();
        let mut report = RecoveryInfo {
            torn_truncated: scan.tail.torn,
            ..RecoveryInfo::default()
        };
        // Rebuild every checkpointed corpus from its pack snapshot.
        for me in manifest.entries.values() {
            map.insert(me.corpus.clone(), Self::recovered_entry(dir, me)?);
        }
        // The next LSN must clear both the scanned tail and every
        // checkpoint: a truncated-to-empty WAL may not restart at an
        // LSN a manifest entry already covers, or recovery after the
        // next crash would wrongly skip the new records.
        let mut next_lsn = scan.next_lsn;
        for me in manifest.entries.values() {
            next_lsn = next_lsn.max(me.lsn + 1);
        }
        // Replay the tail strictly past each corpus's checkpoint.
        for rec in &scan.records {
            let covered = manifest
                .entries
                .get(&rec.corpus)
                .is_some_and(|me| rec.lsn <= me.lsn);
            if covered {
                report.skipped += 1;
                wal_metrics.recovery_skipped.inc();
                continue;
            }
            let entry = match map.get(&rec.corpus) {
                Some(e) => Arc::clone(e),
                None => {
                    let e = Self::fresh_entry(&rec.corpus)?;
                    map.insert(rec.corpus.clone(), Arc::clone(&e));
                    e
                }
            };
            let publish = match entry
                .graph
                .mutate(&rec.adds, &rec.dels, &rec.tombs, &mut |_| {
                    CompactAction::Continue
                }) {
                Ok(p) => p,
                Err(_) => {
                    // Graph state at this point is identical to the
                    // pre-crash state by induction, so this same
                    // validation failed (unacknowledged) before the
                    // crash; skipping reproduces that state.
                    report.skipped += 1;
                    wal_metrics.recovery_skipped.inc();
                    continue;
                }
            };
            if publish.epoch != rec.epoch {
                return Err(WalError::Replay {
                    corpus: rec.corpus.clone(),
                    detail: format!(
                        "lsn {} logged epoch {} but replay published {}",
                        rec.lsn, rec.epoch, publish.epoch
                    ),
                }
                .to_string());
            }
            // relaxed-ok: recovery is single-threaded; the counters are
            // published to workers by the registry handoff
            entry.applied_writes.fetch_add(1, Ordering::Relaxed);
            entry.last_lsn.store(rec.lsn, Ordering::Relaxed);
            report.replayed += 1;
            wal_metrics.recovery_replayed.inc();
        }
        report.corpora = map.len();
        // relaxed-ok: same single-threaded recovery phase as above
        let mut durable: Vec<(String, u64)> = map
            .iter()
            .map(|(k, e)| (k.clone(), e.applied_writes.load(Ordering::Relaxed)))
            .collect();
        durable.sort();
        report.durable_writes = durable;
        let wal = Wal::open_at(
            &wal_path,
            d.fsync,
            next_lsn,
            wal_metrics.clone(),
            hook.clone(),
        )
        .map_err(|e| e.to_string())?;
        let metrics = DeltaMetrics::register(reg);
        metrics.corpora.set(map.len() as u64);
        let registry = DeltaRegistry {
            map: Mutex::new(map),
            metrics,
            durable: Some(DurableState {
                dir: dir.clone(),
                wal: Mutex::new(wal),
                manifest: Mutex::new(manifest),
                wal_metrics,
                hook,
                report,
            }),
        };
        registry.refresh_gauges();
        Ok(registry)
    }

    /// The startup recovery report, when durability is on.
    pub fn recovery(&self) -> Option<&RecoveryInfo> {
        self.durable.as_ref().map(|ds| &ds.report)
    }

    /// Rebuilds a corpus from its manifest entry: the pack snapshot
    /// becomes the delta base at the checkpointed epoch. An entry
    /// without a pack (never produced by this writer, but legal in the
    /// format) rebuilds the frozen base corpus at that epoch.
    fn recovered_entry(dir: &Path, me: &ManifestEntry) -> Result<Arc<DeltaEntry>, String> {
        let base = match &me.pack {
            Some(p) => {
                let p = resolve_pack(dir, p);
                db_store::load(&p)
                    .map_err(|e| format!("checkpoint pack {}: {e}", p.display()))?
                    .into_graph()
            }
            None => {
                let inner = me.corpus.strip_prefix(DELTA_PREFIX).unwrap_or(&me.corpus);
                crate::corpus::build_graph(inner)?
            }
        };
        Ok(DeltaEntry::new(
            DeltaGraph::with_base_epoch(Arc::new(base), DEFAULT_COMPACT_THRESHOLD, me.epoch),
            me.applied,
            me.lsn,
        ))
    }

    /// Builds a never-checkpointed corpus from its frozen base, as
    /// [`DeltaRegistry::resolve`] would have on first use.
    fn fresh_entry(key: &str) -> Result<Arc<DeltaEntry>, String> {
        let inner = match key.strip_prefix(DELTA_PREFIX) {
            Some(inner) if !inner.is_empty() => inner,
            _ => return Err(format!("wal record names non-delta corpus '{key}'")),
        };
        let base = crate::corpus::build_graph(inner)?;
        Ok(DeltaEntry::new(DeltaGraph::from_csr(base), 0, 0))
    }

    fn lock(&self) -> MutexGuard<'_, HashMap<String, Arc<DeltaEntry>>> {
        self.map.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Resolves `key` (which must carry [`DELTA_PREFIX`]) to its entry,
    /// building the frozen base corpus on first use.
    fn resolve(&self, key: &str) -> Result<Arc<DeltaEntry>, String> {
        {
            let map = self.lock();
            if let Some(e) = map.get(key) {
                return Ok(Arc::clone(e));
            }
        }
        let entry = Self::fresh_entry(key).map_err(|e| {
            if key.strip_prefix(DELTA_PREFIX) == Some("") {
                format!("corpus key '{key}': missing inner corpus")
            } else if !key.starts_with(DELTA_PREFIX) {
                format!("corpus key '{key}': not a delta key")
            } else {
                e
            }
        })?;
        let mut map = self.lock();
        let entry = Arc::clone(map.entry(key.to_string()).or_insert(entry));
        self.metrics.corpora.set(map.len() as u64);
        Ok(entry)
    }

    /// Refreshes the aggregate gauges from every registered corpus.
    /// Called after each delta op; the map is small (one entry per
    /// distinct delta corpus), so the scan is cheap.
    fn refresh_gauges(&self) {
        let map = self.lock();
        let (mut bytes, mut layers, mut hw) = (0u64, 0u64, 0u64);
        for e in map.values() {
            let s = e.graph.stats();
            bytes += s.delta_bytes as u64;
            layers += s.layers as u64;
            hw = hw.max(s.pins_high_water);
        }
        drop(map);
        self.metrics.delta_bytes.set(bytes);
        self.metrics.delta_layers.set(layers);
        self.metrics.pins_high_water.set(hw);
    }

    /// Executes one request against its delta corpus: mutation batches
    /// publish epochs, `epoch` reads the current epoch, and every other
    /// workload pins the current epoch and runs on the pinned snapshot.
    ///
    /// Returns the response plus the [`DeltaEvent`]s the pool should
    /// record as spans (epoch publishes, compaction outcomes, injected
    /// faults).
    pub fn execute(
        &self,
        req: &Request,
        injector: Option<&Injector>,
        token: &CancelToken,
    ) -> (Response, Vec<DeltaEvent>) {
        let mut events = Vec::new();
        let entry = match self.resolve(&req.graph) {
            Ok(e) => e,
            Err(msg) => return (Response::failure(req.id, Status::Error, msg), events),
        };
        let resp = match &req.workload {
            Workload::AddEdges { edges } => {
                self.write(req, &entry, edges, &[], injector, &mut events)
            }
            Workload::DelEdges { edges } => {
                self.write(req, &entry, &[], edges, injector, &mut events)
            }
            Workload::Epoch => ok(
                req.id,
                vec![("epoch".into(), Value::u64(entry.graph.current_epoch()))],
            ),
            // Any read (dfs, reach or an analytics workload): pin the
            // current epoch and hand the frozen snapshot to the ordinary
            // executor, which runs the served kernel under the token.
            // The pin guard keeps the snapshot alive past any
            // concurrent publish or compaction.
            _ => {
                let pin = entry.graph.pin();
                events.push(DeltaEvent::Pinned {
                    epoch: pin.epoch() as u32,
                });
                crate::exec::execute(req, pin.graph(), token)
            }
        };
        self.refresh_gauges();
        (resp, events)
    }

    /// Mutation batch: durably log it first (when durability is on),
    /// publish one epoch, attempt compaction with the chaos hook wired
    /// in, checkpoint on a fold, and account metrics/events.
    ///
    /// The durable protocol is log → apply → ack: the record commits
    /// under the fsync policy *before* the graph mutates, and the
    /// response is built only after both — so an acknowledged write is
    /// always recoverable, and a storage-rejected write changes
    /// nothing.
    fn write(
        &self,
        req: &Request,
        entry: &DeltaEntry,
        adds: &[(u32, u32)],
        dels: &[(u32, u32)],
        injector: Option<&Injector>,
        events: &mut Vec<DeltaEvent>,
    ) -> Response {
        // Serialize durable writers per corpus: the logged epoch is a
        // prediction (`current_epoch + 1`) that must hold through the
        // apply below.
        let _gate = self.durable.as_ref().map(|_| {
            entry
                .write_gate
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
        });
        let mut logged = None;
        if let Some(ds) = &self.durable {
            // Empty batches publish no epoch, so they are not logged.
            if !(adds.is_empty() && dels.is_empty()) {
                let mut wal = ds.wal.lock().unwrap_or_else(PoisonError::into_inner);
                let rec = WalRecord {
                    lsn: wal.next_lsn(),
                    epoch: entry.graph.current_epoch() + 1,
                    tenant: req.tenant.clone(),
                    corpus: req.graph.clone(),
                    adds: adds.to_vec(),
                    dels: dels.to_vec(),
                    tombs: Vec::new(),
                };
                match wal.append(&rec) {
                    Ok(bytes) => {
                        events.push(DeltaEvent::Wal {
                            lsn: rec.lsn,
                            bytes,
                        });
                        logged = Some((rec.lsn, rec.epoch));
                    }
                    Err(e) => {
                        events.push(DeltaEvent::StorageRejected);
                        return Response::failure(req.id, Status::Failed, format!("storage: {e}"));
                    }
                }
            }
        }
        // relaxed-ok: monotone attempt counter; only uniqueness per
        // corpus matters, no other state is published through it
        let count = entry.compact_seq.fetch_add(1, Ordering::Relaxed);
        let key = &req.graph;
        let mut struck = false;
        let mut hook = |_: CompactPoint| {
            if struck {
                return CompactAction::Abort;
            }
            if injector.is_some_and(|inj| inj.strike(Check::Compaction { key, count }).is_some()) {
                struck = true;
                return CompactAction::Abort;
            }
            CompactAction::Continue
        };
        let publish = match entry.graph.mutate(adds, dels, &[], &mut hook) {
            Ok(p) => p,
            // A validation failure after a successful append leaves a
            // ghost record in the log; replay fails it identically (the
            // graph state matches by induction) and skips it, so the
            // unacknowledged record is harmless.
            Err(e) => return Response::failure(req.id, Status::Error, e.to_string()),
        };
        if struck {
            events.push(DeltaEvent::FaultInjected);
        }
        if let Some((lsn, epoch)) = logged {
            if publish.epoch != epoch {
                // Unreachable while the write gate serializes durable
                // writers; failing (unacked) is the safe direction.
                return Response::failure(
                    req.id,
                    Status::Failed,
                    format!(
                        "storage: logged epoch {epoch} but publish landed at {}",
                        publish.epoch
                    ),
                );
            }
            // relaxed-ok: counters snapshotted under the write gate at
            // checkpoint time; no cross-thread ordering is derived
            entry.applied_writes.fetch_add(1, Ordering::Relaxed);
            entry.last_lsn.store(lsn, Ordering::Relaxed);
        }
        if publish.applied > 0 {
            self.metrics.epochs_published.inc();
            events.push(DeltaEvent::Epoch {
                epoch: publish.epoch as u32,
                applied: publish.applied as u32,
            });
        }
        match publish.compaction {
            CompactOutcome::Folded(k) => {
                self.metrics.compactions.inc();
                events.push(DeltaEvent::Compact {
                    folded: k as u32,
                    outcome: 0,
                });
                if let Some(ds) = &self.durable {
                    if let Err(e) = self.checkpoint(ds, &req.graph, entry, events) {
                        // The write itself is durable and applied; only
                        // the checkpoint failed. Failing the response
                        // (unacked) is conservative: acked writes must
                        // survive, unacked ones merely may.
                        return Response::failure(
                            req.id,
                            Status::Failed,
                            format!("storage: checkpoint: {e}"),
                        );
                    }
                }
            }
            CompactOutcome::Aborted(_) => {
                self.metrics.compactions_aborted.inc();
                events.push(DeltaEvent::Compact {
                    folded: 0,
                    outcome: 1,
                });
            }
            CompactOutcome::Raced => events.push(DeltaEvent::Compact {
                folded: 0,
                outcome: 2,
            }),
            CompactOutcome::NotNeeded => {}
        }
        // The published epoch number is schedule-dependent under
        // concurrent writers; only the batch size goes in the payload
        // so double-run digests stay comparable.
        ok(
            req.id,
            vec![("applied".into(), Value::u64(publish.applied as u64))],
        )
    }

    /// Durable checkpoint, run after an epoch compaction folded the
    /// layers: pack the folded base, swap the manifest, truncate the
    /// WAL — in that order, so a crash at any boundary recovers to the
    /// same graph (the seeded `crash:wal@ckpt=…` points fire exactly
    /// at those boundaries).
    fn checkpoint(
        &self,
        ds: &DurableState,
        key: &str,
        entry: &DeltaEntry,
        events: &mut Vec<DeltaEvent>,
    ) -> Result<(), WalError> {
        let pin = entry.graph.pin();
        let epoch = pin.epoch();
        // The manifest records the bare file name: packs always live in
        // the WAL dir, and a name survives the process restarting from a
        // different working directory where a CWD-relative path would
        // dangle. Recovery resolves it against the dir it loaded from.
        let pack_name = format!("ckpt-{}-{epoch}.dbsg", sanitize(key));
        let pack_path = ds.dir.join(&pack_name);
        db_store::pack_graph(pin.graph(), &pack_path, db_store::PackOptions::default()).map_err(
            |e| WalError::Io {
                op: "pack",
                path: pack_path.clone(),
                source: std::io::Error::other(e.to_string()),
            },
        )?;
        if ds
            .hook
            .as_ref()
            .is_some_and(|h| h.on_checkpoint(CkptPhase::Pack))
        {
            // Crash point: pack durable, manifest still naming the old
            // snapshot — recovery replays the whole tail against it.
            std::process::exit(db_wal::CRASH_EXIT_CODE);
        }
        let (old_pack, manifest_snapshot) = {
            let mut manifest = ds.manifest.lock().unwrap_or_else(PoisonError::into_inner);
            let me = ManifestEntry {
                corpus: key.to_string(),
                epoch,
                // relaxed-ok: written by this thread under the write
                // gate; no concurrent durable writer exists
                lsn: entry.last_lsn.load(Ordering::Relaxed),
                applied: entry.applied_writes.load(Ordering::Relaxed),
                pack: Some(PathBuf::from(&pack_name)),
            };
            let old = manifest
                .entries
                .insert(key.to_string(), me)
                .and_then(|prev| prev.pack);
            manifest.store(&ds.dir.join(MANIFEST_FILE), ds.hook.as_ref())?;
            (old, manifest.clone())
        };
        if ds
            .hook
            .as_ref()
            .is_some_and(|h| h.on_checkpoint(CkptPhase::Truncate))
        {
            // Crash point: manifest swapped, WAL still holding covered
            // records — recovery must skip them, not double-apply.
            std::process::exit(db_wal::CRASH_EXIT_CODE);
        }
        {
            let mut wal = ds.wal.lock().unwrap_or_else(PoisonError::into_inner);
            wal.compact(|rec| {
                manifest_snapshot
                    .entries
                    .get(&rec.corpus)
                    .is_none_or(|me| rec.lsn > me.lsn)
            })?;
        }
        ds.wal_metrics.checkpoints.inc();
        events.push(DeltaEvent::Checkpoint {
            epoch: epoch as u32,
        });
        if let Some(prev) = old_pack {
            let prev = resolve_pack(&ds.dir, &prev);
            if prev != pack_path {
                // Best-effort: a stale snapshot is garbage, not state.
                let _ = std::fs::remove_file(&prev);
            }
        }
        Ok(())
    }
}

/// Resolves a manifest pack reference against the WAL directory it was
/// loaded from; absolute paths (hand-edited manifests) pass through.
fn resolve_pack(dir: &Path, pack: &Path) -> PathBuf {
    if pack.is_absolute() {
        pack.to_path_buf()
    } else {
        dir.join(pack)
    }
}

/// Corpus key → filesystem-safe checkpoint-pack name fragment.
fn sanitize(key: &str) -> String {
    key.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

fn ok(id: u64, payload: Vec<(String, Value)>) -> Response {
    Response {
        id,
        status: Status::Ok,
        error: None,
        payload: Value::Obj(payload),
        latency_us: 0,
        deadline_missed: false,
        trace_id: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::EngineKind;

    fn req(id: u64, graph: &str, workload: Workload) -> Request {
        Request {
            id,
            tenant: "t".into(),
            graph: graph.into(),
            workload,
            engine: EngineKind::Serial,
            deadline_ms: None,
        }
    }

    fn run(reg: &DeltaRegistry, r: Request) -> (Response, Vec<DeltaEvent>) {
        reg.execute(&r, None, &CancelToken::new())
    }

    #[test]
    fn write_then_read_sees_new_edge() {
        let reg = DeltaRegistry::new_in(&Registry::new());
        // path:4 = 0-1-2-3; vertex 3 unreachable from 0 once 1-2 is cut.
        let (r, _) = run(
            &reg,
            req(
                1,
                "delta:path:4",
                Workload::DelEdges {
                    edges: vec![(1, 2)],
                },
            ),
        );
        assert_eq!(r.status, Status::Ok, "{:?}", r.error);
        assert_eq!(r.payload.get("applied").unwrap().as_u64(), Some(1));
        let (r, _) = run(
            &reg,
            req(2, "delta:path:4", Workload::Reach { root: 0, target: 3 }),
        );
        assert_eq!(r.payload.get("reachable").unwrap().as_bool(), Some(false));
        // Reconnect through a fresh arc and re-query.
        let (r, ev) = run(
            &reg,
            req(
                3,
                "delta:path:4",
                Workload::AddEdges {
                    edges: vec![(0, 3)],
                },
            ),
        );
        assert_eq!(r.status, Status::Ok);
        assert!(matches!(ev[0], DeltaEvent::Epoch { applied: 1, .. }));
        let (r, _) = run(
            &reg,
            req(4, "delta:path:4", Workload::Reach { root: 0, target: 3 }),
        );
        assert_eq!(r.payload.get("reachable").unwrap().as_bool(), Some(true));
    }

    #[test]
    fn epoch_op_reads_current_epoch() {
        let reg = DeltaRegistry::new_in(&Registry::new());
        let (r, _) = run(&reg, req(1, "delta:grid:4:4", Workload::Epoch));
        assert_eq!(r.payload.get("epoch").unwrap().as_u64(), Some(0));
        run(
            &reg,
            req(
                2,
                "delta:grid:4:4",
                Workload::AddEdges {
                    edges: vec![(0, 5)],
                },
            ),
        );
        let (r, _) = run(&reg, req(3, "delta:grid:4:4", Workload::Epoch));
        assert_eq!(r.payload.get("epoch").unwrap().as_u64(), Some(1));
    }

    #[test]
    fn traversals_run_on_the_pinned_snapshot() {
        let reg = DeltaRegistry::new_in(&Registry::new());
        let reach_0_5 = Workload::Reach { root: 0, target: 5 };
        let (r, _) = run(&reg, req(1, "delta:path:6", Workload::Dfs { root: 0 }));
        assert_eq!(r.payload.get("visited").unwrap().as_u64(), Some(6));
        let (r, ev) = run(&reg, req(2, "delta:path:6", reach_0_5.clone()));
        assert_eq!(r.payload.get("reachable").unwrap().as_bool(), Some(true));
        assert_eq!(ev, vec![DeltaEvent::Pinned { epoch: 0 }]);
        run(
            &reg,
            req(
                3,
                "delta:path:6",
                Workload::DelEdges {
                    edges: vec![(2, 3)],
                },
            ),
        );
        let (r, _) = run(&reg, req(4, "delta:path:6", Workload::Dfs { root: 0 }));
        assert_eq!(r.payload.get("visited").unwrap().as_u64(), Some(3));
        let (r, _) = run(&reg, req(5, "delta:path:6", reach_0_5));
        assert_eq!(r.payload.get("reachable").unwrap().as_bool(), Some(false));
    }

    #[test]
    fn bad_keys_and_bad_batches_are_typed_errors() {
        let reg = DeltaRegistry::new_in(&Registry::new());
        let (r, _) = run(&reg, req(1, "delta:", Workload::Epoch));
        assert_eq!(r.status, Status::Error);
        let (r, _) = run(&reg, req(2, "delta:nope", Workload::Epoch));
        assert_eq!(r.status, Status::Error);
        let (r, _) = run(
            &reg,
            req(
                3,
                "delta:path:4",
                Workload::AddEdges {
                    edges: vec![(0, 99)],
                },
            ),
        );
        assert_eq!(r.status, Status::Error);
        assert!(r.error.as_deref().unwrap().contains("out of range"));
    }

    #[test]
    fn chaos_compaction_trigger_aborts_and_backlog_folds_later() {
        use db_fault::FaultPlan;
        let reg = DeltaRegistry::new_in(&Registry::new());
        let plan = FaultPlan::parse("seed=7;kill:worker=*@compaction").unwrap();
        let inj = Injector::new(plan);
        let key = "delta:path:50";
        // Push well past the compaction threshold with every attempt
        // struck: layers pile up, nothing folds, nothing is lost.
        for i in 0..12u32 {
            let r = req(
                i as u64,
                key,
                Workload::AddEdges {
                    edges: vec![(0, i % 50)],
                },
            );
            let (resp, ev) = reg.execute(&r, Some(&inj), &CancelToken::new());
            assert_eq!(resp.status, Status::Ok);
            assert!(!ev.contains(&DeltaEvent::Compact {
                folded: 0,
                outcome: 0
            }));
        }
        let entry = reg.resolve(key).unwrap();
        let s = entry.graph.stats();
        assert_eq!(s.current_epoch, 12, "no publish may be lost");
        assert_eq!(s.compactions, 0);
        assert!(s.compactions_aborted > 0);
        // Fault-free publish: the whole backlog folds in one attempt.
        let (resp, ev) = run(
            &reg,
            req(
                99,
                key,
                Workload::AddEdges {
                    edges: vec![(1, 3)],
                },
            ),
        );
        assert_eq!(resp.status, Status::Ok);
        assert!(ev
            .iter()
            .any(|e| matches!(e, DeltaEvent::Compact { outcome: 0, folded } if *folded == 13)));
        let s = entry.graph.stats();
        assert_eq!(s.current_epoch, 13);
        assert_eq!(s.layers, 0);
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("dbserve-delta-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).expect("mkdir");
        d
    }

    fn durable(dir: &Path) -> Durability {
        Durability {
            wal_dir: Some(dir.to_path_buf()),
            fsync: FsyncPolicy::Always,
        }
    }

    fn dfs_digest(reg: &DeltaRegistry, key: &str, id: u64) -> u64 {
        let (r, _) = run(reg, req(id, key, Workload::Dfs { root: 0 }));
        assert_eq!(r.status, Status::Ok, "{:?}", r.error);
        r.payload.get("visited").unwrap().as_u64().unwrap()
    }

    #[test]
    fn durable_writes_survive_restart_bit_identically() {
        let dir = tmpdir("restart");
        let key = "delta:path:8";
        let mreg = Registry::new();
        let reg = DeltaRegistry::with_durability(&mreg, &durable(&dir), None).unwrap();
        assert_eq!(reg.recovery().unwrap(), &RecoveryInfo::default());
        // Cut 2-3, bridge 0-7, cut 5-6: reachable-from-0 set is fixed
        // by the full sequence, so replay order/identity shows up in
        // the DFS visit count.
        for (i, w) in [
            Workload::DelEdges {
                edges: vec![(2, 3)],
            },
            Workload::AddEdges {
                edges: vec![(0, 7)],
            },
            Workload::DelEdges {
                edges: vec![(5, 6)],
            },
        ]
        .into_iter()
        .enumerate()
        {
            let (r, ev) = run(&reg, req(i as u64, key, w));
            assert_eq!(r.status, Status::Ok, "{:?}", r.error);
            assert!(
                ev.iter()
                    .any(|e| matches!(e, DeltaEvent::Wal { lsn, .. } if *lsn == i as u64)),
                "write {i} must be logged: {ev:?}"
            );
        }
        let epoch_before = reg.resolve(key).unwrap().graph.current_epoch();
        let digest_before = dfs_digest(&reg, key, 10);
        drop(reg);

        let reg2 = DeltaRegistry::with_durability(&Registry::new(), &durable(&dir), None).unwrap();
        let info = reg2.recovery().unwrap();
        assert_eq!(info.replayed, 3);
        assert_eq!(info.skipped, 0);
        assert!(!info.torn_truncated);
        assert_eq!(info.durable_writes, vec![(key.to_string(), 3)]);
        let entry = reg2.resolve(key).unwrap();
        assert_eq!(entry.graph.current_epoch(), epoch_before);
        assert_eq!(dfs_digest(&reg2, key, 11), digest_before);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_truncates_wal_and_restart_replays_only_the_tail() {
        let dir = tmpdir("ckpt");
        let key = "delta:path:32";
        let mreg = Registry::new();
        let reg = DeltaRegistry::with_durability(&mreg, &durable(&dir), None).unwrap();
        // DEFAULT_COMPACT_THRESHOLD single-edge writes trigger a fold,
        // which checkpoints; two more land in the WAL tail.
        let total = DEFAULT_COMPACT_THRESHOLD as u64 + 2;
        let mut saw_checkpoint = false;
        for i in 0..total {
            let (r, ev) = run(
                &reg,
                req(
                    i,
                    key,
                    Workload::AddEdges {
                        edges: vec![(0, 2 + i as u32)],
                    },
                ),
            );
            assert_eq!(r.status, Status::Ok, "{:?}", r.error);
            saw_checkpoint |= ev
                .iter()
                .any(|e| matches!(e, DeltaEvent::Checkpoint { .. }));
        }
        assert!(saw_checkpoint, "a fold must checkpoint");
        let epoch_before = reg.resolve(key).unwrap().graph.current_epoch();
        let digest_before = dfs_digest(&reg, key, 100);
        drop(reg);

        let reg2 = DeltaRegistry::with_durability(&Registry::new(), &durable(&dir), None).unwrap();
        let info = reg2.recovery().unwrap();
        assert!(
            info.replayed < total,
            "checkpoint must cover the folded prefix (replayed {})",
            info.replayed
        );
        // Checkpoint-covered records were *truncated*, not skipped.
        assert_eq!(info.skipped, 0);
        assert_eq!(info.durable_writes, vec![(key.to_string(), total)]);
        let entry = reg2.resolve(key).unwrap();
        assert_eq!(entry.graph.current_epoch(), epoch_before);
        assert_eq!(dfs_digest(&reg2, key, 101), digest_before);
        // A third generation: nothing to replay if no writes happened.
        drop(reg2);
        let reg3 = DeltaRegistry::with_durability(&Registry::new(), &durable(&dir), None).unwrap();
        assert_eq!(
            reg3.recovery().unwrap().durable_writes,
            vec![(key.to_string(), total)]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn short_write_rejects_typed_with_zero_state_change() {
        use db_fault::FaultPlan;
        let dir = tmpdir("shortwrite");
        let key = "delta:path:8";
        let plan = FaultPlan::parse("seed=3;shortwrite:wal@lsn=1").unwrap();
        let inj = Arc::new(Injector::new(plan));
        let reg =
            DeltaRegistry::with_durability(&Registry::new(), &durable(&dir), Some(inj)).unwrap();
        let write =
            |id: u64, e: (u32, u32)| run(&reg, req(id, key, Workload::AddEdges { edges: vec![e] }));
        let (r, _) = write(1, (0, 2));
        assert_eq!(r.status, Status::Ok, "{:?}", r.error);
        // LSN 1 is struck: typed Failed, storage-tagged, no epoch.
        let (r, ev) = write(2, (0, 3));
        assert_eq!(r.status, Status::Failed);
        assert!(r.error.as_deref().unwrap().starts_with("storage:"), "{r:?}");
        assert!(ev.contains(&DeltaEvent::StorageRejected));
        assert!(!ev.iter().any(|e| matches!(e, DeltaEvent::Epoch { .. })));
        let entry = reg.resolve(key).unwrap();
        assert_eq!(
            entry.graph.current_epoch(),
            1,
            "rejected batch must not publish"
        );
        // The lsn trigger is one-shot: the retried batch commits at
        // the same LSN the fault struck.
        let (r, ev) = write(3, (0, 3));
        assert_eq!(r.status, Status::Ok, "{:?}", r.error);
        assert!(ev
            .iter()
            .any(|e| matches!(e, DeltaEvent::Wal { lsn: 1, .. })));
        assert_eq!(entry.graph.current_epoch(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn metrics_series_move_in_the_registry() {
        let mreg = Registry::new();
        let reg = DeltaRegistry::new_in(&mreg);
        run(
            &reg,
            req(
                1,
                "delta:path:8",
                Workload::AddEdges {
                    edges: vec![(0, 2)],
                },
            ),
        );
        for id in 2..4 {
            run(
                &reg,
                req(id, "delta:path:8", Workload::Reach { root: 0, target: 7 }),
            );
        }
        let exp = db_metrics::parse_exposition(&mreg.render_prometheus()).unwrap();
        let get = |n: &str| exp.samples.iter().find(|s| s.name == n).unwrap().value;
        assert_eq!(get("db_delta_epochs_published_total"), 1.0);
        assert_eq!(get("db_delta_corpora"), 1.0);
        assert!(get("db_delta_bytes") > 0.0);
    }
}
