//! Span records, span kinds, and the per-request trace context.

use std::sync::atomic::{AtomicU32, Ordering};

/// Sentinel worker index for spans emitted on the admission path
/// (before any worker owns the request).
pub const ADMISSION_WORKER: u32 = u32::MAX;

/// Sentinel tenant-table index for spans that carry no tenant.
pub const NO_TENANT: u32 = u32::MAX;

/// What a span describes. Each kind documents how its `code` and
/// `value` fields are used; unused fields are zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// Root span of a request: admission to terminal response.
    /// `code` = status (see [`SpanKind::status_name`]), `value` =
    /// request id, `tenant` = interned tenant name.
    Request,
    /// Admission decision. `code` 0 = admitted; 1..=6 = reject reason
    /// (see [`SpanKind::admit_name`]); `value` = queue depth after.
    Admit,
    /// Time spent in the pool's EDF queue: admission to dequeue on the
    /// executing worker.
    Queue,
    /// One execution attempt. `code` 0 = ok, 1 = panicked,
    /// 2 = corrupted; `value` = engine index (wire-name order:
    /// native, lockfree, sim, serial, partitioned).
    Attempt,
    /// A retry was scheduled; the span covers the backoff sleep.
    /// `value` = the attempt number about to run (1-based).
    Retry,
    /// The degradation ladder engaged: a crashing `sim` request's final
    /// attempt ran the served kernel under the `serial` engine name
    /// (every other engine name already runs that kernel, so only `sim`
    /// degrades). `value` = original engine index.
    Degrade,
    /// The chaos plan struck this attempt. `code` 0 = kill,
    /// 1 = corrupt, 2 = stall, 3 = slow, 4 = store-corrupt.
    Fault,
    /// Frozen-corpus resolution (pack mmap load or cache hit).
    /// `code` 0 = hit, 1 = miss, 2 = injected store fault;
    /// `value` = resident graphs after resolution.
    StoreLoad,
    /// A delta read pinned an epoch snapshot; `value` = epoch.
    EpochPin,
    /// A delta write published an epoch; `value` = epoch,
    /// `code` = mutations applied.
    DeltaWrite,
    /// The response completed past its deadline (or expired).
    DeadlineMiss,
    /// Sim-engine cycle attribution: `value` = simulated cycles the
    /// phase consumed, `code` = (sm << 8) | phase index
    /// (`db_gpu_sim::SimPhase::ALL` order).
    SimPhase,
    /// A durability event on the write path. `code` 0 = WAL append
    /// (`value` = LSN), 1 = checkpoint (`value` = epoch folded).
    Wal,
    /// Startup recovery replayed the WAL tail. `value` = records
    /// replayed, `code` 1 if a torn tail was truncated, else 0.
    Recovery,
    /// A delta write's compaction attempt. `code` 0 = folded,
    /// 1 = aborted by the fault hook, 2 = lost the swap race;
    /// `value` = layers folded.
    Compact,
    /// An idle worker helped another worker's search (one span per
    /// join), recorded by the helper under the owner's `attempt` span.
    /// `worker` = the helper, `value` = stack entries it expanded,
    /// `code` 0 = stayed to the end, 1 = left for a queued request.
    Team,
}

impl SpanKind {
    /// All kinds, in wire-code order (codes start at 1).
    pub const ALL: [SpanKind; 16] = [
        SpanKind::Request,
        SpanKind::Admit,
        SpanKind::Queue,
        SpanKind::Attempt,
        SpanKind::Retry,
        SpanKind::Degrade,
        SpanKind::Fault,
        SpanKind::StoreLoad,
        SpanKind::EpochPin,
        SpanKind::DeltaWrite,
        SpanKind::DeadlineMiss,
        SpanKind::SimPhase,
        SpanKind::Wal,
        SpanKind::Recovery,
        SpanKind::Compact,
        SpanKind::Team,
    ];

    /// Stable wire code (1-based; 0 is reserved as invalid). Code 4
    /// belonged to a kind that is gone (a request moved between
    /// per-worker queues) and stays unassigned, so no other kind's
    /// `.dbfr` code moves.
    pub fn code(self) -> u16 {
        match self {
            SpanKind::Request => 1,
            SpanKind::Admit => 2,
            SpanKind::Queue => 3,
            SpanKind::Attempt => 5,
            SpanKind::Retry => 6,
            SpanKind::Degrade => 7,
            SpanKind::Fault => 8,
            SpanKind::StoreLoad => 9,
            SpanKind::EpochPin => 10,
            SpanKind::DeltaWrite => 11,
            SpanKind::DeadlineMiss => 12,
            SpanKind::SimPhase => 13,
            SpanKind::Wal => 14,
            SpanKind::Recovery => 15,
            SpanKind::Compact => 16,
            SpanKind::Team => 17,
        }
    }

    /// Inverse of [`SpanKind::code`]; `None` for 0, 4 and codes past
    /// the last kind.
    pub fn from_code(c: u16) -> Option<SpanKind> {
        SpanKind::ALL.into_iter().find(|k| k.code() == c)
    }

    /// Stable lowercase name, used by the tree renderer.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Request => "request",
            SpanKind::Admit => "admit",
            SpanKind::Queue => "queue",
            SpanKind::Attempt => "attempt",
            SpanKind::Retry => "retry",
            SpanKind::Degrade => "degrade",
            SpanKind::Fault => "fault",
            SpanKind::StoreLoad => "store_load",
            SpanKind::EpochPin => "epoch_pin",
            SpanKind::DeltaWrite => "delta_write",
            SpanKind::DeadlineMiss => "deadline_miss",
            SpanKind::SimPhase => "sim_phase",
            SpanKind::Wal => "wal",
            SpanKind::Recovery => "recovery",
            SpanKind::Compact => "compact",
            SpanKind::Team => "team",
        }
    }

    /// Status name for a [`SpanKind::Request`] span's `code`.
    pub fn status_name(code: u32) -> &'static str {
        match code {
            0 => "ok",
            1 => "rejected",
            2 => "expired",
            3 => "error",
            4 => "failed",
            _ => "unknown",
        }
    }

    /// Reason name for a [`SpanKind::Admit`] span's `code`.
    pub fn admit_name(code: u32) -> &'static str {
        match code {
            0 => "admitted",
            1 => "breaker_open",
            2 => "draining",
            3 => "capacity",
            4 => "tenant_quota",
            5 => "write_quota",
            6 => "no_workers",
            _ => "unknown",
        }
    }

    /// Outcome name for an [`SpanKind::Attempt`] span's `code`.
    pub fn attempt_name(code: u32) -> &'static str {
        match code {
            0 => "ok",
            1 => "panicked",
            2 => "corrupted",
            _ => "unknown",
        }
    }
}

/// One recorded span: fixed width, copyable, safe to push on hot paths.
///
/// Timestamps are nanoseconds since the owning server started — an
/// arbitrary but shared epoch, so spans from different workers order
/// correctly within one dump.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// Trace this span belongs to (see [`TraceCtx::derive`]).
    pub trace_id: u64,
    /// Span id, unique within the trace (1 = root).
    pub span_id: u32,
    /// Parent span id; 0 marks the root.
    pub parent: u32,
    /// What the span describes.
    pub kind: SpanKind,
    /// Kind-specific code (status, reject reason, outcome, …).
    pub code: u32,
    /// Kind-specific value (request id, queue depth, engine, epoch, …).
    pub value: u64,
    /// Worker that recorded the span ([`ADMISSION_WORKER`] = admission).
    pub worker: u32,
    /// Interned tenant index in the dump's string table
    /// ([`NO_TENANT`] = none; only root spans carry a tenant).
    pub tenant: u32,
    /// Start, nanoseconds since server start.
    pub t0_ns: u64,
    /// End, nanoseconds since server start (`>= t0_ns`).
    pub t1_ns: u64,
}

/// Per-request trace context: the deterministic trace id plus a span-id
/// allocator. Lives inside the pool's job from admission to the worker
/// that runs it, which is what keeps every span of a request under its
/// one root.
#[derive(Debug)]
pub struct TraceCtx {
    trace_id: u64,
    next: AtomicU32,
}

/// Root span id every trace starts from.
pub const ROOT_SPAN: u32 = 1;

impl TraceCtx {
    /// Derives the context for a request: the trace id is a splitmix64
    /// finalizer over `(request id, fnv1a(tenant))` — a pure function
    /// of request identity, so double runs assign identical ids no
    /// matter which worker executes what.
    pub fn derive(req_id: u64, tenant: &str) -> TraceCtx {
        let mut x = req_id ^ fnv1a(tenant).rotate_left(17);
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^= x >> 31;
        TraceCtx {
            // Trace id 0 is reserved for "no trace" on the wire.
            trace_id: x | 1,
            next: AtomicU32::new(ROOT_SPAN + 1),
        }
    }

    /// The 64-bit trace id (never 0).
    pub fn trace_id(&self) -> u64 {
        self.trace_id
    }

    /// The root span id (always [`ROOT_SPAN`]).
    pub fn root(&self) -> u32 {
        ROOT_SPAN
    }

    /// Allocates the next child span id.
    pub fn next_span(&self) -> u32 {
        // relaxed-ok: unique id allocation; only atomicity matters
        self.next.fetch_add(1, Ordering::Relaxed)
    }
}

/// FNV-1a over a string — the order-free tenant identity the trace id
/// mixes in.
fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_codes_round_trip() {
        for k in SpanKind::ALL {
            assert_eq!(SpanKind::from_code(k.code()), Some(k), "{}", k.name());
        }
        // `ALL` is in code order, and no kind's code moved when code 4
        // was retired.
        let codes: Vec<u16> = SpanKind::ALL.iter().map(|k| k.code()).collect();
        assert_eq!(codes, (1..=17).filter(|&c| c != 4).collect::<Vec<_>>());
        for c in [0, 4, 18, 99] {
            assert_eq!(SpanKind::from_code(c), None, "code {c}");
        }
    }

    #[test]
    fn trace_ids_are_deterministic_and_tenant_scoped() {
        let a = TraceCtx::derive(7, "tenant0");
        let b = TraceCtx::derive(7, "tenant0");
        assert_eq!(a.trace_id(), b.trace_id());
        assert_ne!(a.trace_id(), 0);
        let c = TraceCtx::derive(7, "tenant1");
        assert_ne!(a.trace_id(), c.trace_id());
        let d = TraceCtx::derive(8, "tenant0");
        assert_ne!(a.trace_id(), d.trace_id());
    }

    #[test]
    fn span_ids_allocate_after_the_root() {
        let ctx = TraceCtx::derive(1, "t");
        assert_eq!(ctx.root(), 1);
        assert_eq!(ctx.next_span(), 2);
        assert_eq!(ctx.next_span(), 3);
    }
}
