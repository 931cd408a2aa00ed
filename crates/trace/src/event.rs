//! The typed event model.
//!
//! Every event carries full provenance — which block, which warp, at what
//! cycle — so a trace can be replayed onto a per-block / per-warp timeline.
//! The simulated engines stamp DES cycles; the native engines stamp
//! nanoseconds since kernel start. Both are monotone per warp lane, which
//! is the only property the exporters rely on.

/// Marks the boundaries of a traced kernel invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PhaseKind {
    Start,
    Finish,
}

/// What happened. Payloads carry the quantities the paper's figures are
/// built from: vertices for push/pop, entry counts for bulk transfers,
/// victim identity for steals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// A task (vertex) was pushed onto this warp's stack.
    Push { vertex: u32 },
    /// A task was popped and its expansion completed.
    Pop { vertex: u32 },
    /// HotRing overflow: `entries` tasks moved to the ColdSeg.
    Flush { entries: u32 },
    /// HotRing underflow: `entries` tasks moved back from the ColdSeg.
    Refill { entries: u32 },
    /// Intra-block steal from `victim_warp`'s HotRing tail.
    StealIntra { victim_warp: u32, entries: u32 },
    /// Inter-block steal from block `victim_block`'s ColdSeg bottom.
    StealInter { victim_block: u32, entries: u32 },
    /// A steal attempt that found no work or lost the race.
    StealFail { victim: u32 },
    /// The warp went idle (no local work, entering steal scan).
    WarpIdle,
    /// Kernel phase boundary.
    KernelPhase { phase: PhaseKind },
    /// An injected fault struck this warp's SM; `code` is the dense
    /// fault-kind index from `db-fault` (0 = kill, 1 = stall,
    /// 2 = slowdown, 3 = corrupt, 4 = dropsteal).
    Fault { code: u32 },
    /// A survivor recovered `entries` stranded tasks from killed SM
    /// `victim_block`'s stacks via the recovery steal path.
    Recover { victim_block: u32, entries: u32 },
}

impl EventKind {
    /// Number of distinct kinds (for counter arrays).
    pub const COUNT: usize = 11;

    /// Dense index for counter arrays; stable across releases only
    /// within one trace file (the name, not the index, is exported).
    pub fn index(&self) -> usize {
        match self {
            EventKind::Push { .. } => 0,
            EventKind::Pop { .. } => 1,
            EventKind::Flush { .. } => 2,
            EventKind::Refill { .. } => 3,
            EventKind::StealIntra { .. } => 4,
            EventKind::StealInter { .. } => 5,
            EventKind::StealFail { .. } => 6,
            EventKind::WarpIdle => 7,
            EventKind::KernelPhase { .. } => 8,
            EventKind::Fault { .. } => 9,
            EventKind::Recover { .. } => 10,
        }
    }

    /// Display name used by both exporters.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::Push { .. } => "Push",
            EventKind::Pop { .. } => "Pop",
            EventKind::Flush { .. } => "Flush",
            EventKind::Refill { .. } => "Refill",
            EventKind::StealIntra { .. } => "StealIntra",
            EventKind::StealInter { .. } => "StealInter",
            EventKind::StealFail { .. } => "StealFail",
            EventKind::WarpIdle => "WarpIdle",
            EventKind::KernelPhase { .. } => "KernelPhase",
            EventKind::Fault { .. } => "Fault",
            EventKind::Recover { .. } => "Recover",
        }
    }
}

/// One timestamped, located event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceEvent {
    /// DES cycle (sim engines) or nanoseconds since start (native engines).
    pub cycle: u64,
    /// Owning block (SM) — CPU baselines use one block per worker.
    pub block: u32,
    /// Warp lane within the block (0 for CPU workers).
    pub warp: u32,
    pub kind: EventKind,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_dense_and_named() {
        let kinds = [
            EventKind::Push { vertex: 0 },
            EventKind::Pop { vertex: 0 },
            EventKind::Flush { entries: 0 },
            EventKind::Refill { entries: 0 },
            EventKind::StealIntra {
                victim_warp: 0,
                entries: 0,
            },
            EventKind::StealInter {
                victim_block: 0,
                entries: 0,
            },
            EventKind::StealFail { victim: 0 },
            EventKind::WarpIdle,
            EventKind::KernelPhase {
                phase: PhaseKind::Start,
            },
            EventKind::Fault { code: 0 },
            EventKind::Recover {
                victim_block: 0,
                entries: 0,
            },
        ];
        assert_eq!(kinds.len(), EventKind::COUNT);
        for (i, k) in kinds.iter().enumerate() {
            assert_eq!(k.index(), i);
        }
    }
}
