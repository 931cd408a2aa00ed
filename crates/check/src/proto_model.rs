//! Step-level model of the DiggerBees work/steal handshake — the
//! visited-CAS discovery protocol and the `live`-counter termination
//! protocol shared by the native engine (`db_core::native`) and
//! `deque_dfs`.
//!
//! Workers run the engines' actual loop structure on a tiny graph: pop
//! an entry into hand (the native owner's pop-process-push), scan its
//! adjacency row, claim the first unvisited child with a CAS, bump the
//! `live` counter **before** publishing the continuation and the child
//! (the ordering the engines' regression comments insist on), and
//! decrement `live` on exhaustion, raising the global `done` flag when
//! it hits zero. Idle workers steal from the bottom of a victim's
//! stack. Each atomic access is one explorer step.
//!
//! The ring internals are verified separately by
//! [`crate::ring_model`]; here stacks are atomic push/pop/steal
//! regions, so the state space stays tiny while the *handshake* — the
//! part the Work Stealing Simulator literature shows silently diverges
//! — is explored exhaustively.
//!
//! Oracles:
//!
//! * **exactly-once visitation** — no vertex is discovered twice;
//! * **no lost block** — at termination every reachable vertex was
//!   visited and every stack is empty;
//! * **handshake soundness** — `live` never goes negative, and `done`
//!   is only ever raised on a truly quiescent system.
//!
//! [`ProtoMutation`] seeds the historical bug classes: publishing the
//! child before counting it, replacing the visited CAS with a plain
//! store, and stealing by copy instead of by transfer.

use crate::explore::{ActorId, Model, Violation};

/// A seeded handshake bug for the mutation tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtoMutation {
    /// Publish the continuation + child *before* incrementing `live` —
    /// the exact termination race the engines' "count BEFORE
    /// publishing" comments guard against.
    PublishBeforeLive,
    /// Replace the visited compare-exchange with a plain store (two
    /// workers can both claim the same vertex).
    SkipVisitedCas,
    /// The thief copies entries out of the victim's stack without
    /// removing them (every stolen block is executed twice).
    StealDuplicates,
}

impl ProtoMutation {
    /// Every mutation, for exhaustive mutation tests.
    pub const ALL: [ProtoMutation; 3] = [
        ProtoMutation::PublishBeforeLive,
        ProtoMutation::SkipVisitedCas,
        ProtoMutation::StealDuplicates,
    ];
}

/// Configuration of one handshake check.
#[derive(Debug, Clone)]
pub struct ProtoScenario {
    /// Tiny adjacency lists (vertex id → neighbors). Vertex 0 is the
    /// root; every vertex should be reachable from it.
    pub adj: Vec<Vec<u32>>,
    /// Number of workers (2–3).
    pub workers: usize,
    /// Minimum victim-stack length before a steal fires (cutoff).
    pub steal_cutoff: usize,
    /// The seeded bug, or `None` for the faithful protocol.
    pub mutation: Option<ProtoMutation>,
}

impl ProtoScenario {
    /// A 4-vertex path: deep, so continuations and steals both occur.
    pub fn path4(workers: usize) -> Self {
        ProtoScenario {
            adj: vec![vec![1], vec![0, 2], vec![1, 3], vec![2]],
            workers,
            steal_cutoff: 1,
            mutation: None,
        }
    }

    /// A 4-vertex star: the root fans out, so several children are in
    /// flight at once (maximum steal overlap).
    pub fn star4(workers: usize) -> Self {
        ProtoScenario {
            adj: vec![vec![1, 2, 3], vec![0], vec![0], vec![0]],
            workers,
            steal_cutoff: 1,
            mutation: None,
        }
    }

    /// A 4-vertex diamond (`0→{1,2}`, `{1,2}→3`): the only shape where
    /// two concurrently-live entries race to discover the same child,
    /// which is what the visited-CAS exists for.
    pub fn diamond4(workers: usize) -> Self {
        ProtoScenario {
            adj: vec![vec![1, 2], vec![3], vec![3], vec![]],
            workers,
            steal_cutoff: 1,
            mutation: None,
        }
    }

    /// Same scenario with a seeded bug.
    pub fn with_mutation(mut self, m: ProtoMutation) -> Self {
        self.mutation = Some(m);
        self
    }
}

/// Worker program counter; each variant boundary is one atomic access.
#[derive(Debug, Clone, Hash, PartialEq, Eq)]
enum WorkerPc {
    /// Check `done`, then pop own stack or go steal.
    Top,
    /// Load `visited[adj[u][i]]` (the test of test-and-test-and-set).
    ScanLoad {
        u: u32,
        i: u32,
    },
    /// Compare-exchange `visited[v]` 0 → 1.
    VisitCas {
        u: u32,
        i: u32,
        v: u32,
    },
    /// `live += 1` (counts the child before it is published).
    IncLive {
        u: u32,
        i: u32,
        v: u32,
    },
    /// Push the parent continuation `(u, i)`.
    PushCont {
        u: u32,
        i: u32,
        v: u32,
    },
    /// Push the child `(v, 0)`.
    PushChild {
        u: u32,
        i: u32,
        v: u32,
    },
    /// `live -= 1`; raise `done` when it hits zero.
    DecLive,
    Exit,
}

/// Full system state.
#[derive(Clone, Hash, PartialEq, Eq, Debug)]
pub struct ProtoState {
    visited: Vec<u8>,
    live: i32,
    done: bool,
    stacks: Vec<Vec<(u32, u32)>>,
    workers: Vec<WorkerPc>,
    /// Ghost: CAS-win count per vertex (exactly-once oracle).
    discoveries: Vec<u8>,
}

/// The checkable model: `scenario.workers` workers, worker 0 seeded
/// with the root.
#[derive(Debug, Clone)]
pub struct ProtoModel {
    /// The scenario being checked.
    pub scenario: ProtoScenario,
}

impl ProtoModel {
    /// Creates the model for a scenario.
    pub fn new(scenario: ProtoScenario) -> Self {
        ProtoModel { scenario }
    }

    fn deg(&self, u: u32) -> u32 {
        self.scenario.adj[u as usize].len() as u32
    }

    /// The steal step: scan victims in index order for a stack at or
    /// above the cutoff, transfer (or, mutated, copy) the bottom half.
    /// One atomic region, like the ColdSeg under its lock.
    fn try_steal(&self, s: &mut ProtoState, w: usize) -> bool {
        for v in 0..self.scenario.workers {
            if v == w || s.stacks[v].len() < self.scenario.steal_cutoff.max(1) {
                continue;
            }
            let take = s.stacks[v].len().div_ceil(2);
            let batch: Vec<(u32, u32)> =
                if self.scenario.mutation == Some(ProtoMutation::StealDuplicates) {
                    s.stacks[v][..take].to_vec()
                } else {
                    s.stacks[v].drain(..take).collect()
                };
            s.stacks[w].extend(batch);
            return true;
        }
        false
    }
}

impl Model for ProtoModel {
    type State = ProtoState;

    fn initial(&self) -> ProtoState {
        let n = self.scenario.adj.len();
        let mut visited = vec![0u8; n];
        visited[0] = 1;
        let mut discoveries = vec![0u8; n];
        discoveries[0] = 1;
        let mut stacks = vec![Vec::new(); self.scenario.workers];
        stacks[0].push((0u32, 0u32));
        ProtoState {
            visited,
            live: 1,
            done: false,
            stacks,
            workers: vec![WorkerPc::Top; self.scenario.workers],
            discoveries,
        }
    }

    fn actors(&self) -> usize {
        self.scenario.workers
    }

    fn done(&self, s: &ProtoState, a: ActorId) -> bool {
        s.workers[a] == WorkerPc::Exit
    }

    fn enabled(&self, s: &ProtoState, a: ActorId) -> bool {
        if self.done(s, a) {
            return false;
        }
        // A worker at Top with no local work, nothing stealable, and
        // `done` unset is spinning; stepping it would not change the
        // state (the dedup would prune it), so treat it as blocked
        // rather than letting every branch interleave no-ops.
        if s.workers[a] == WorkerPc::Top && !s.done && s.stacks[a].is_empty() {
            let mut probe = s.clone();
            if !self.try_steal(&mut probe, a) {
                return false;
            }
        }
        true
    }

    fn is_local(&self, _s: &ProtoState, _a: ActorId) -> bool {
        false
    }

    fn step(&self, s: &ProtoState, a: ActorId) -> Result<ProtoState, Violation> {
        let mut s = s.clone();
        match s.workers[a].clone() {
            WorkerPc::Top => {
                if s.done {
                    s.workers[a] = WorkerPc::Exit;
                } else if let Some((u, i)) = s.stacks[a].pop() {
                    s.workers[a] = WorkerPc::ScanLoad { u, i };
                } else {
                    // Steal (enabled() guarantees a victim exists).
                    let stole = self.try_steal(&mut s, a);
                    debug_assert!(stole, "enabled() promised a victim");
                }
            }
            WorkerPc::ScanLoad { u, i } => {
                if i >= self.deg(u) {
                    s.workers[a] = WorkerPc::DecLive;
                } else {
                    let v = self.scenario.adj[u as usize][i as usize];
                    s.workers[a] = if s.visited[v as usize] != 0 {
                        WorkerPc::ScanLoad { u, i: i + 1 }
                    } else {
                        WorkerPc::VisitCas { u, i, v }
                    };
                }
            }
            WorkerPc::VisitCas { u, i, v } => {
                let won = if self.scenario.mutation == Some(ProtoMutation::SkipVisitedCas) {
                    // Mutation: plain store, no claim check.
                    s.visited[v as usize] = 1;
                    true
                } else if s.visited[v as usize] == 0 {
                    s.visited[v as usize] = 1;
                    true
                } else {
                    false
                };
                if won {
                    s.discoveries[v as usize] = s.discoveries[v as usize].saturating_add(1);
                    if s.discoveries[v as usize] > 1 {
                        return Err(Violation::new(
                            "duplicate-visit",
                            format!("vertex {v} discovered twice"),
                        ));
                    }
                    s.workers[a] =
                        if self.scenario.mutation == Some(ProtoMutation::PublishBeforeLive) {
                            WorkerPc::PushCont { u, i: i + 1, v }
                        } else {
                            WorkerPc::IncLive { u, i: i + 1, v }
                        };
                } else {
                    s.workers[a] = WorkerPc::ScanLoad { u, i: i + 1 };
                }
            }
            WorkerPc::IncLive { u, i, v } => {
                s.live += 1;
                s.workers[a] = if self.scenario.mutation == Some(ProtoMutation::PublishBeforeLive) {
                    // Mutated order already published; expansion done.
                    WorkerPc::Top
                } else {
                    WorkerPc::PushCont { u, i, v }
                };
            }
            WorkerPc::PushCont { u, i, v } => {
                s.stacks[a].push((u, i));
                s.workers[a] = WorkerPc::PushChild { u, i, v };
            }
            WorkerPc::PushChild { u, i, v } => {
                s.stacks[a].push((v, 0));
                s.workers[a] = if self.scenario.mutation == Some(ProtoMutation::PublishBeforeLive) {
                    WorkerPc::IncLive { u, i, v }
                } else {
                    WorkerPc::Top
                };
            }
            WorkerPc::DecLive => {
                s.live -= 1;
                if s.live < 0 {
                    return Err(Violation::new(
                        "live-underflow",
                        "live counter went negative".to_string(),
                    ));
                }
                if s.live == 0 {
                    s.done = true;
                }
                s.workers[a] = WorkerPc::Top;
            }
            WorkerPc::Exit => unreachable!("stepping an exited worker"),
        }
        Ok(s)
    }

    fn check(&self, s: &ProtoState) -> Result<(), Violation> {
        // `done` raised while entries are still in flight is the
        // termination-handshake failure (it strands those entries).
        if s.done {
            let stacked: usize = s.stacks.iter().map(Vec::len).sum();
            let in_hand = s
                .workers
                .iter()
                .filter(|pc| !matches!(pc, WorkerPc::Top | WorkerPc::Exit | WorkerPc::DecLive))
                .count();
            if stacked + in_hand > 0 && s.live <= 0 {
                return Err(Violation::new(
                    "early-termination",
                    format!("done raised with {stacked} stacked and {in_hand} in-hand entries"),
                ));
            }
        }
        Ok(())
    }

    fn check_final(&self, s: &ProtoState) -> Result<(), Violation> {
        for (v, &d) in s.discoveries.iter().enumerate() {
            if d != 1 {
                return Err(Violation::new(
                    if d == 0 {
                        "lost-vertex"
                    } else {
                        "duplicate-visit"
                    },
                    format!("vertex {v} discovered {d} times"),
                ));
            }
        }
        let stacked: usize = s.stacks.iter().map(Vec::len).sum();
        if stacked > 0 {
            return Err(Violation::new(
                "lost-block",
                format!("{stacked} entries stranded on stacks at termination"),
            ));
        }
        if s.live != 0 {
            return Err(Violation::new(
                "handshake",
                format!("live = {} at termination", s.live),
            ));
        }
        Ok(())
    }
}
