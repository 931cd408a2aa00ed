//! The always-on flight recorder: per-worker rings of recent spans,
//! snapshotted into a [`FlightDump`] on panic, fault, deadline miss or
//! explicit trigger.

use crate::dbfr::FlightDump;
use crate::span::{SpanRecord, ADMISSION_WORKER};
use std::collections::{HashMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;

/// Why a dump was taken. Encoded in the `.dbfr` header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DumpReason {
    /// A request attempt panicked (injected kill or a real bug).
    Panic,
    /// The chaos plan struck a request.
    Fault,
    /// A response completed past its deadline (or expired).
    DeadlineMiss,
    /// Operator-requested: the `{"op":"flight"}` wire op or the
    /// in-process [`crate::FlightRecorder::dump`] call.
    Explicit,
}

impl DumpReason {
    /// Stable wire code.
    pub fn code(self) -> u8 {
        match self {
            DumpReason::Panic => 1,
            DumpReason::Fault => 2,
            DumpReason::DeadlineMiss => 3,
            DumpReason::Explicit => 4,
        }
    }

    /// Inverse of [`DumpReason::code`].
    pub fn from_code(c: u8) -> Option<DumpReason> {
        Some(match c {
            1 => DumpReason::Panic,
            2 => DumpReason::Fault,
            3 => DumpReason::DeadlineMiss,
            4 => DumpReason::Explicit,
            _ => return None,
        })
    }

    /// Stable lowercase name (used in dump file names).
    pub fn name(self) -> &'static str {
        match self {
            DumpReason::Panic => "panic",
            DumpReason::Fault => "fault",
            DumpReason::DeadlineMiss => "deadline",
            DumpReason::Explicit => "explicit",
        }
    }
}

/// Flight-recorder configuration, embedded in the serve config.
#[derive(Debug, Clone)]
pub struct FlightConfig {
    /// Spans each worker ring retains (the admission path gets its own
    /// ring of the same size). The recorder is always on; this bounds
    /// its memory to `(workers + 1) × capacity × sizeof(SpanRecord)`.
    pub per_worker_capacity: usize,
    /// Directory `.dbfr` dumps are written to on panic / fault /
    /// deadline-miss triggers; `None` keeps dumps in memory only
    /// (explicit dumps via the API still work).
    pub dump_dir: Option<PathBuf>,
    /// Cap on automatically written dump files per recorder (explicit
    /// dumps are exempt): chaos runs panic thousands of times and must
    /// not fill the disk.
    pub max_dumps: u32,
}

impl Default for FlightConfig {
    fn default() -> Self {
        FlightConfig {
            per_worker_capacity: 4096,
            dump_dir: None,
            max_dumps: 8,
        }
    }
}

#[derive(Debug, Default)]
struct Ring {
    buf: VecDeque<SpanRecord>,
    dropped: u64,
}

#[derive(Debug, Default)]
struct Interner {
    names: Vec<String>,
    index: HashMap<String, u32>,
}

/// Fixed-budget per-worker span rings plus the tenant string interner.
///
/// Thread-safe: each ring has its own mutex, so workers never contend
/// with each other on the hot path, only with a concurrent dump.
#[derive(Debug)]
pub struct FlightRecorder {
    rings: Vec<Mutex<Ring>>,
    tenants: Mutex<Interner>,
    cfg: FlightConfig,
    /// Monotonic dump sequence (also names dump files).
    dump_seq: AtomicU32,
    /// Automatic (trigger-driven) dumps written so far.
    auto_dumps: AtomicU32,
}

impl FlightRecorder {
    /// Creates a recorder for `workers` workers plus the admission lane.
    pub fn new(workers: usize, cfg: FlightConfig) -> FlightRecorder {
        FlightRecorder {
            rings: (0..workers + 1)
                .map(|_| Mutex::new(Ring::default()))
                .collect(),
            tenants: Mutex::new(Interner::default()),
            cfg,
            dump_seq: AtomicU32::new(0),
            auto_dumps: AtomicU32::new(0),
        }
    }

    /// The recorder's configuration.
    pub fn config(&self) -> &FlightConfig {
        &self.cfg
    }

    /// Interns a tenant name, returning its dump string-table index.
    pub fn tenant_idx(&self, name: &str) -> u32 {
        let mut t = lock(&self.tenants);
        if let Some(&i) = t.index.get(name) {
            return i;
        }
        let i = t.names.len() as u32;
        t.names.push(name.to_string());
        t.index.insert(name.to_string(), i);
        i
    }

    /// Records one span into its worker's ring, evicting the oldest
    /// span when the ring is full.
    pub fn record(&self, span: SpanRecord) {
        if self.cfg.per_worker_capacity == 0 {
            return;
        }
        let idx = if span.worker == ADMISSION_WORKER {
            self.rings.len() - 1
        } else {
            (span.worker as usize).min(self.rings.len() - 1)
        };
        let mut ring = lock(&self.rings[idx]);
        if ring.buf.len() >= self.cfg.per_worker_capacity {
            ring.buf.pop_front();
            ring.dropped += 1;
        }
        ring.buf.push_back(span);
    }

    /// Spans currently held across all rings.
    pub fn recorded(&self) -> usize {
        self.rings.iter().map(|r| lock(r).buf.len()).sum()
    }

    /// Spans evicted by ring overflow so far.
    pub fn dropped(&self) -> u64 {
        self.rings.iter().map(|r| lock(r).dropped).sum()
    }

    /// Snapshots every ring into a dump: spans merged and sorted by
    /// `(t0, trace, span)` so the stream reads chronologically. The
    /// rings keep their contents (a dump is observational).
    pub fn dump(&self, reason: DumpReason) -> FlightDump {
        let mut spans: Vec<SpanRecord> = Vec::with_capacity(self.recorded());
        let mut dropped = 0u64;
        for r in &self.rings {
            let g = lock(r);
            spans.extend(g.buf.iter().copied());
            dropped += g.dropped;
        }
        spans.sort_by_key(|s| (s.t0_ns, s.trace_id, s.span_id));
        FlightDump {
            reason,
            dropped,
            tenants: lock(&self.tenants).names.clone(),
            spans,
        }
    }

    /// Writes an explicit dump to `dir` (created if missing), ignoring
    /// the automatic-dump cap. Returns the file path.
    pub fn dump_to(&self, dir: &Path, reason: DumpReason) -> Result<PathBuf, String> {
        let dump = self.dump(reason);
        // relaxed-ok: sequence allocation; only atomicity matters
        let seq = self.dump_seq.fetch_add(1, Ordering::Relaxed);
        // blocking-ok: dumps fire post-incident; capturing evidence
        // outweighs the one-off write latency
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let path = dir.join(format!("flight-{seq:04}-{}.dbfr", reason.name()));
        std::fs::write(&path, dump.encode()) // blocking-ok: post-incident dump
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        Ok(path)
    }

    /// Trigger-driven dump: writes a `.dbfr` file to the configured
    /// dump directory, bounded by `max_dumps`. Returns the path when a
    /// file was written; `None` when no directory is configured or the
    /// cap is reached. Write errors are swallowed — the recorder must
    /// never take down the serving path it observes.
    pub fn trigger(&self, reason: DumpReason) -> Option<PathBuf> {
        let dir = self.cfg.dump_dir.clone()?;
        let granted = self
            .auto_dumps
            // relaxed-ok: budget counter; the RMW is atomic and
            // publishes nothing
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                (n < self.cfg.max_dumps).then_some(n + 1)
            })
            .is_ok();
        if !granted {
            return None;
        }
        self.dump_to(&dir, reason).ok()
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{SpanKind, NO_TENANT};

    fn span(worker: u32, trace: u64, id: u32, t0: u64) -> SpanRecord {
        SpanRecord {
            trace_id: trace,
            span_id: id,
            parent: if id == 1 { 0 } else { 1 },
            kind: if id == 1 {
                SpanKind::Request
            } else {
                SpanKind::Attempt
            },
            code: 0,
            value: 0,
            worker,
            tenant: NO_TENANT,
            t0_ns: t0,
            t1_ns: t0 + 5,
        }
    }

    #[test]
    fn rings_bound_memory_and_count_drops() {
        let rec = FlightRecorder::new(
            2,
            FlightConfig {
                per_worker_capacity: 4,
                ..FlightConfig::default()
            },
        );
        for i in 0..10 {
            rec.record(span(0, 1, 1, i));
        }
        rec.record(span(1, 2, 1, 100));
        rec.record(span(ADMISSION_WORKER, 3, 1, 200));
        assert_eq!(rec.recorded(), 4 + 1 + 1);
        assert_eq!(rec.dropped(), 6);
        let d = rec.dump(DumpReason::Explicit);
        assert_eq!(d.spans.len(), 6);
        assert_eq!(d.dropped, 6);
        // Merged stream is time-sorted across rings.
        assert!(d.spans.windows(2).all(|w| w[0].t0_ns <= w[1].t0_ns));
    }

    #[test]
    fn tenant_interning_is_stable() {
        let rec = FlightRecorder::new(1, FlightConfig::default());
        let a = rec.tenant_idx("t0");
        let b = rec.tenant_idx("t1");
        assert_eq!(rec.tenant_idx("t0"), a);
        assert_ne!(a, b);
        let dump = rec.dump(DumpReason::Explicit);
        assert_eq!(dump.tenant(a), Some("t0"));
        assert_eq!(dump.tenant(b), Some("t1"));
        assert_eq!(dump.tenant(NO_TENANT), None);
    }

    #[test]
    fn trigger_respects_dir_and_cap() {
        let rec = FlightRecorder::new(1, FlightConfig::default());
        rec.record(span(0, 1, 1, 0));
        // No dump dir configured: triggers are inert.
        assert_eq!(rec.trigger(DumpReason::Panic), None);

        let dir = std::env::temp_dir().join(format!("dbfr-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let rec = FlightRecorder::new(
            1,
            FlightConfig {
                dump_dir: Some(dir.clone()),
                max_dumps: 2,
                ..FlightConfig::default()
            },
        );
        rec.record(span(0, 1, 1, 0));
        let p1 = rec.trigger(DumpReason::Panic).expect("first dump");
        let p2 = rec.trigger(DumpReason::Fault).expect("second dump");
        assert_eq!(rec.trigger(DumpReason::Panic), None, "cap reached");
        assert_ne!(p1, p2);
        let back = FlightDump::decode(&std::fs::read(&p1).unwrap()).unwrap();
        assert_eq!(back.reason, DumpReason::Panic);
        assert_eq!(back.spans.len(), 1);
        // Explicit dumps bypass the cap.
        assert!(rec.dump_to(&dir, DumpReason::Explicit).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
