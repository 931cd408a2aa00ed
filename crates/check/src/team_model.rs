//! Step-level model of the served kernel's team search
//! (`db_core::kernel::team_search`): one owner, at most one helper, a
//! hand-off buffer and a sticky end under the team mutex.
//!
//! The transcription follows the kernel's member loop on a tiny graph.
//! Each member marks with a relaxed load and a separate store (two
//! steps, so two members can both claim a vertex and push it twice),
//! polls before every pop (the kernel polls every `POLL_STRIDE` pops;
//! stride 1 explores every poll placement), and waits for a hand-off
//! when its stack runs dry. The locked regions are one step each:
//!
//! * **poll** — a cancelled token stops the search; an ended search
//!   makes the member leave; a helper with a request queued hands its
//!   stack back and leaves; a running member takes entries nobody waits
//!   for (a departed helper's) and gives the coldest
//!   `min(len / 2, grain)` entries to an idle member; the owner posts
//!   its one offer once its stack holds `offer_at` entries and no
//!   request is queued; then the member pops one entry;
//! * **refill / wait** — an idle member takes a hand-off, raises the
//!   end when every member is idle with nothing handed over, or (a
//!   helper only) leaves once a request is queued;
//! * **join** — refused once the search has ended;
//! * **claim** — marking the target ends the search;
//! * **depart** — the helper's membership (and its hold on the owner's
//!   marks) ends;
//! * the owner, after leaving, withdraws an untaken offer, waits until
//!   it is the only member, and then resets its marks for the next
//!   search.
//!
//! A client actor may queue a request and may cancel the token, each
//! at any point.
//!
//! Oracles:
//!
//! * **end only at quiescence or on a stop** — when the end is raised
//!   at quiescence, no entry is on a stack, in the hand-off buffer, or
//!   in a member's hand;
//! * **nothing expanded after a quiescent end** — no member pops an
//!   entry once the search ended with nothing left;
//! * **no lost entry** — a search that ended without a stop expanded
//!   every entry pushed and marked every reachable vertex;
//! * **both members exit** — a blocked member is a deadlock;
//! * **marks never cleared while held** — the owner resets its marks
//!   only when no helper is a member.
//!
//! [`TeamMutation`] seeds the bug classes the protocol guards against,
//! among them the non-sticky end that livelocked a prototype.

use crate::explore::{ActorId, Model, Violation};

/// A seeded team-protocol bug for the mutation tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TeamMutation {
    /// The end is not a flag: a member recomputes `idle == members`
    /// whenever it checks, and leaves when it holds without touching
    /// the idle count. The helper leaves; the owner then reads idle 2,
    /// members 1 and waits forever.
    NonStickyEnd,
    /// A join is accepted after the end, so a helper can become a member
    /// once the owner has stopped waiting for one.
    JoinAfterEnd,
    /// A helper leaving for a queued request drops its stack instead of
    /// handing it back.
    LeaveKeepsEntries,
    /// The owner resets its marks without waiting for its helper to
    /// leave.
    OwnerSkipsWait,
    /// The quiescence check ignores the hand-off buffer, so the search
    /// can end with entries in transit.
    EndIgnoresHandoff,
}

impl TeamMutation {
    /// Every mutation, for exhaustive mutation tests.
    pub const ALL: [TeamMutation; 5] = [
        TeamMutation::NonStickyEnd,
        TeamMutation::JoinAfterEnd,
        TeamMutation::LeaveKeepsEntries,
        TeamMutation::OwnerSkipsWait,
        TeamMutation::EndIgnoresHandoff,
    ];
}

/// Something the client actor does, once, at any point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClientEvent {
    /// A request is queued: the helper must leave, the owner must not
    /// offer.
    Queue,
    /// The token is cancelled: the search stops unanswered.
    Cancel,
}

/// Configuration of one team check.
#[derive(Debug, Clone)]
pub struct TeamScenario {
    /// Tiny adjacency lists (vertex id → neighbours); vertex 0 is the
    /// root.
    pub adj: Vec<Vec<u32>>,
    /// A reach's target, or `None` for a dfs.
    pub target: Option<u32>,
    /// Stack entries the owner holds before it offers the search.
    pub offer_at: usize,
    /// The most entries one hand-off moves.
    pub grain: usize,
    /// What the client does, in order.
    pub client: Vec<ClientEvent>,
    /// The seeded bug, or `None` for the faithful protocol.
    pub mutation: Option<TeamMutation>,
}

impl TeamScenario {
    /// A root with three children, two of which have children of their
    /// own (vertex 4 under both): the owner offers at two entries, so
    /// the helper joins while work remains, and hand-offs go both ways.
    pub fn star() -> Self {
        TeamScenario {
            adj: vec![vec![1, 2, 3], vec![4, 5], vec![4], vec![], vec![], vec![]],
            target: None,
            offer_at: 2,
            grain: 1,
            client: Vec::new(),
            mutation: None,
        }
    }

    /// [`TeamScenario::star`] with a request queued at any point: the
    /// helper leaves and hands its entries back.
    pub fn star_request() -> Self {
        TeamScenario {
            client: vec![ClientEvent::Queue],
            ..Self::star()
        }
    }

    /// A reach on the star whose target, vertex 5, is only reachable
    /// through vertex 1: whichever member marks it ends the search.
    pub fn star_reach() -> Self {
        TeamScenario {
            target: Some(5),
            ..Self::star()
        }
    }

    /// A diamond (`0 → {1, 2} → 3`) with the token cancelled at any
    /// point. The owner offers before its first pop, so the helper can
    /// take vertex 1 while the owner expands vertex 2 and both race to
    /// mark vertex 3; the stop can land anywhere.
    pub fn diamond_cancel() -> Self {
        TeamScenario {
            adj: vec![vec![1, 2], vec![3], vec![3], vec![]],
            target: None,
            offer_at: 1,
            grain: 1,
            client: vec![ClientEvent::Cancel],
            mutation: None,
        }
    }

    /// Same scenario with a seeded bug.
    pub fn with_mutation(mut self, m: TeamMutation) -> Self {
        self.mutation = Some(m);
        self
    }
}

/// A member's program counter; each variant boundary is one step.
#[derive(Debug, Clone, Copy, Hash, PartialEq, Eq)]
enum Pc {
    /// The helper, parked until the search is offered to it.
    Parked,
    /// The helper took the offer and asks to join.
    Join,
    /// The locked poll, then one pop.
    Poll,
    /// Load the mark of `adj[u][i]` (relaxed).
    Scan {
        u: u32,
        i: u32,
    },
    /// Store the mark of `v` (relaxed) and push it.
    Mark {
        u: u32,
        i: u32,
        v: u32,
    },
    /// The stack ran dry: become idle and check for work or the end.
    Refill,
    /// Idle, blocked until a hand-off, the end, quiescence, or (helper)
    /// a queued request.
    Wait,
    /// The helper saw a request queued while idle and re-locks to leave.
    Called,
    /// The owner left the search: withdraw an untaken offer.
    Withdraw,
    /// The owner waits until it is the only member.
    WaitAlone,
    /// The owner resets its marks for its next search.
    Clear,
    /// The helper's membership ends.
    Depart,
    Exit,
}

/// Full system state.
#[derive(Debug, Clone, Hash, PartialEq, Eq)]
pub struct TeamState {
    marks: Vec<u8>,
    ended: bool,
    claimed: bool,
    stopped: bool,
    members: u8,
    idle: u8,
    handoff: Vec<u32>,
    /// The pool's offer slot holds this search.
    offer: bool,
    /// The owner has posted its one offer.
    offered: bool,
    queued: bool,
    cancelled: bool,
    stacks: [Vec<u32>; 2],
    pcs: [Pc; 2],
    /// Client events applied so far.
    client: u8,
    /// Ghost: entries pushed and popped over the search.
    pushes: u8,
    pops: u8,
    /// Ghost: the end was raised at quiescence.
    quiescent: bool,
    /// Ghost: the helper is a member, holding the owner's marks.
    holds: bool,
}

const OWNER: ActorId = 0;
const HELPER: ActorId = 1;
const CLIENT: ActorId = 2;

/// The checkable model: the owner (actor 0), the helper (actor 1) and,
/// when the scenario has client events, the client (actor 2).
#[derive(Debug, Clone)]
pub struct TeamModel {
    /// The scenario being checked.
    pub scenario: TeamScenario,
}

impl TeamModel {
    /// Creates the model for a scenario.
    pub fn new(scenario: TeamScenario) -> Self {
        TeamModel { scenario }
    }

    fn mutated(&self, m: TeamMutation) -> bool {
        self.scenario.mutation == Some(m)
    }

    /// Whether every member is idle with nothing handed over: the
    /// quiescent end.
    fn quiescent(&self, s: &TeamState) -> bool {
        s.idle == s.members && s.handoff.is_empty()
    }

    /// Whether the search has ended, as a member sees it.
    fn ended(&self, s: &TeamState) -> bool {
        s.ended || (self.mutated(TeamMutation::NonStickyEnd) && self.quiescent(s))
    }

    /// Raises the end at quiescence, checking that nothing is left.
    fn end_quiescent(&self, s: &mut TeamState) -> Result<(), Violation> {
        let stacked: usize = s.stacks.iter().map(Vec::len).sum();
        let in_hand = s
            .pcs
            .iter()
            .filter(|pc| matches!(pc, Pc::Scan { .. } | Pc::Mark { .. }))
            .count();
        if stacked + s.handoff.len() + in_hand > 0 {
            return Err(Violation::new(
                "early-end",
                format!(
                    "quiescent end with {stacked} stacked, {} handed over, {in_hand} in hand",
                    s.handoff.len()
                ),
            ));
        }
        s.quiescent = true;
        if !self.mutated(TeamMutation::NonStickyEnd) {
            s.ended = true;
        }
        Ok(())
    }

    /// Ends the search on a stop: the target marked or the token
    /// cancelled.
    fn stop(s: &mut TeamState, claimed: bool) {
        if !s.ended {
            s.stopped = !claimed;
        }
        s.ended = true;
        s.claimed |= claimed;
    }

    /// Where member `a` goes when it leaves the search.
    fn leave(a: ActorId) -> Pc {
        if a == OWNER {
            Pc::Withdraw
        } else {
            Pc::Depart
        }
    }

    /// Vertices reachable from the root.
    fn reachable(&self) -> Vec<bool> {
        let adj = &self.scenario.adj;
        let mut seen = vec![false; adj.len()];
        let mut stack = vec![0usize];
        seen[0] = true;
        while let Some(u) = stack.pop() {
            for &v in &adj[u] {
                if !seen[v as usize] {
                    seen[v as usize] = true;
                    stack.push(v as usize);
                }
            }
        }
        seen
    }

    /// The locked poll, then one pop.
    fn poll(&self, s: &mut TeamState, a: ActorId) -> Result<(), Violation> {
        if s.cancelled {
            Self::stop(s, false);
            s.pcs[a] = Self::leave(a);
            return Ok(());
        }
        if self.ended(s) {
            s.pcs[a] = Self::leave(a);
            return Ok(());
        }
        if a == HELPER && s.queued {
            let mut stack = std::mem::take(&mut s.stacks[a]);
            if !self.mutated(TeamMutation::LeaveKeepsEntries) {
                s.handoff.append(&mut stack);
            }
            s.pcs[a] = Pc::Depart;
            return Ok(());
        }
        if s.idle == 0 && !s.handoff.is_empty() {
            let mut back = std::mem::take(&mut s.handoff);
            s.stacks[a].append(&mut back);
        }
        let len = s.stacks[a].len();
        let take = (len / 2).min(self.scenario.grain);
        if s.idle > 0 && s.handoff.is_empty() && take > 0 {
            let cold: Vec<u32> = s.stacks[a][..take].to_vec();
            s.handoff.extend_from_slice(&cold);
            s.stacks[a].copy_within(len - take.., 0);
            s.stacks[a].truncate(len - take);
        }
        if a == OWNER && !s.offered && s.stacks[a].len() >= self.scenario.offer_at && !s.queued {
            s.offer = true;
            s.offered = true;
        }
        match s.stacks[a].pop() {
            Some(u) => {
                if s.quiescent {
                    return Err(Violation::new(
                        "expanded-after-end",
                        format!("vertex {u} popped after a quiescent end"),
                    ));
                }
                s.pops += 1;
                s.pcs[a] = Pc::Scan { u, i: 0 };
            }
            None => s.pcs[a] = Pc::Refill,
        }
        Ok(())
    }

    /// An idle member's checks, in the kernel's order: the end, a
    /// hand-off, quiescence. Returns whether one of them moved it.
    fn idle_checks(&self, s: &mut TeamState, a: ActorId) -> Result<bool, Violation> {
        if self.ended(s) {
            // A recomputed end (the non-sticky mutation) is quiescent.
            s.quiescent |= !s.ended;
            s.pcs[a] = Self::leave(a);
            return Ok(true);
        }
        if self.mutated(TeamMutation::EndIgnoresHandoff) && s.idle == s.members {
            self.end_quiescent(s)?;
            s.pcs[a] = Self::leave(a);
            return Ok(true);
        }
        if !s.handoff.is_empty() {
            let mut got = std::mem::take(&mut s.handoff);
            s.stacks[a].append(&mut got);
            s.idle -= 1;
            s.pcs[a] = Pc::Poll;
            return Ok(true);
        }
        if self.quiescent(s) {
            self.end_quiescent(s)?;
            s.pcs[a] = Self::leave(a);
            return Ok(true);
        }
        Ok(false)
    }
}

impl Model for TeamModel {
    type State = TeamState;

    fn initial(&self) -> TeamState {
        let n = self.scenario.adj.len();
        let mut marks = vec![0u8; n];
        marks[0] = 1;
        TeamState {
            marks,
            ended: false,
            claimed: false,
            stopped: false,
            members: 1,
            idle: 0,
            handoff: Vec::new(),
            offer: false,
            offered: false,
            queued: false,
            cancelled: false,
            stacks: [vec![0], Vec::new()],
            pcs: [Pc::Poll, Pc::Parked],
            client: 0,
            pushes: 1,
            pops: 0,
            quiescent: false,
            holds: false,
        }
    }

    fn actors(&self) -> usize {
        if self.scenario.client.is_empty() {
            2
        } else {
            3
        }
    }

    fn done(&self, s: &TeamState, a: ActorId) -> bool {
        if a == CLIENT {
            usize::from(s.client) == self.scenario.client.len()
        } else {
            s.pcs[a] == Pc::Exit
        }
    }

    fn enabled(&self, s: &TeamState, a: ActorId) -> bool {
        if self.done(s, a) {
            return false;
        }
        if a == CLIENT {
            return true;
        }
        match s.pcs[a] {
            Pc::Parked => s.offer || s.pcs[OWNER] == Pc::Exit,
            Pc::Wait => {
                self.ended(s)
                    || !s.handoff.is_empty()
                    || self.quiescent(s)
                    || (a == HELPER && s.queued)
            }
            Pc::WaitAlone => s.members == 1 || self.mutated(TeamMutation::OwnerSkipsWait),
            _ => true,
        }
    }

    fn is_local(&self, s: &TeamState, a: ActorId) -> bool {
        // A scan that reaches the end of its row only moves the member's
        // own program counter.
        a != CLIENT
            && matches!(s.pcs[a], Pc::Scan { u, i }
                if i as usize >= self.scenario.adj[u as usize].len())
    }

    fn step(&self, s: &TeamState, a: ActorId) -> Result<TeamState, Violation> {
        let mut s = s.clone();
        if a == CLIENT {
            match self.scenario.client[usize::from(s.client)] {
                ClientEvent::Queue => s.queued = true,
                ClientEvent::Cancel => s.cancelled = true,
            }
            s.client += 1;
            return Ok(s);
        }
        match s.pcs[a] {
            Pc::Parked => {
                if s.offer {
                    s.offer = false;
                    s.pcs[a] = Pc::Join;
                } else {
                    s.pcs[a] = Pc::Exit;
                }
            }
            Pc::Join => {
                if s.ended && !self.mutated(TeamMutation::JoinAfterEnd) {
                    s.pcs[a] = Pc::Exit;
                } else {
                    s.members += 1;
                    s.holds = true;
                    s.pcs[a] = Pc::Poll;
                }
            }
            Pc::Poll => self.poll(&mut s, a)?,
            Pc::Scan { u, i } => {
                let row = &self.scenario.adj[u as usize];
                s.pcs[a] = match row.get(i as usize) {
                    None => Pc::Poll,
                    Some(&v) if s.marks[v as usize] != 0 => Pc::Scan { u, i: i + 1 },
                    Some(&v) => Pc::Mark { u, i, v },
                };
            }
            Pc::Mark { u, i, v } => {
                s.marks[v as usize] = 1;
                s.stacks[a].push(v);
                s.pushes += 1;
                if Some(v) == self.scenario.target {
                    Self::stop(&mut s, true);
                    s.pcs[a] = Self::leave(a);
                } else {
                    s.pcs[a] = Pc::Scan { u, i: i + 1 };
                }
            }
            Pc::Refill => {
                s.idle += 1;
                if !self.idle_checks(&mut s, a)? {
                    s.pcs[a] = Pc::Wait;
                }
            }
            Pc::Wait => {
                if !self.idle_checks(&mut s, a)? {
                    // Only a queued request woke it: re-lock to leave.
                    s.pcs[a] = Pc::Called;
                }
            }
            Pc::Called => {
                if s.ended {
                    s.pcs[a] = Pc::Depart;
                } else {
                    s.idle -= 1;
                    s.pcs[a] = Pc::Depart;
                }
            }
            Pc::Withdraw => {
                if s.offered {
                    s.offer = false;
                }
                s.pcs[a] = Pc::WaitAlone;
            }
            Pc::WaitAlone => {
                self.check_answer(&s)?;
                s.pcs[a] = Pc::Clear;
            }
            Pc::Clear => {
                if s.holds {
                    return Err(Violation::new(
                        "cleared-while-held",
                        "the owner reset its marks while a helper held them",
                    ));
                }
                s.marks.iter_mut().for_each(|m| *m = 0);
                s.pcs[a] = Pc::Exit;
            }
            Pc::Depart => {
                s.members -= 1;
                s.holds = false;
                s.pcs[a] = Pc::Exit;
            }
            Pc::Exit => unreachable!("stepping an exited member"),
        }
        Ok(s)
    }

    fn check(&self, _s: &TeamState) -> Result<(), Violation> {
        Ok(())
    }

    fn check_final(&self, s: &TeamState) -> Result<(), Violation> {
        if !s.ended && !s.quiescent {
            return Err(Violation::new(
                "no-end",
                "both members exited an unended search",
            ));
        }
        self.check_answer(s)
    }
}

impl TeamModel {
    /// The owner's count, once it is the only member: a search that
    /// ended without a stop expanded every entry it pushed and marked
    /// every reachable vertex, the target included.
    fn check_answer(&self, s: &TeamState) -> Result<(), Violation> {
        if s.stopped || s.claimed {
            return Ok(());
        }
        if s.pops != s.pushes {
            return Err(Violation::new(
                "lost-entry",
                format!("{} entries pushed, {} expanded", s.pushes, s.pops),
            ));
        }
        let reach = self.reachable();
        let cleared = s.pcs[OWNER] == Pc::Exit;
        if let Some(v) = (0..reach.len()).find(|&v| reach[v] && s.marks[v] == 0 && !cleared) {
            return Err(Violation::new(
                "lost-entry",
                format!("reachable vertex {v} never marked"),
            ));
        }
        match self.scenario.target {
            Some(t) if reach[t as usize] => Err(Violation::new(
                "lost-entry",
                format!("reachable target {t} never claimed"),
            )),
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// Every state reachable from the initial one without a step that
    /// trips an oracle.
    fn reachable_states(model: &TeamModel) -> Vec<TeamState> {
        let mut seen = HashSet::new();
        let mut todo = vec![model.initial()];
        let mut out = Vec::new();
        while let Some(s) = todo.pop() {
            if !seen.insert(s.clone()) {
                continue;
            }
            for a in 0..model.actors() {
                if model.enabled(&s, a) {
                    todo.extend(model.step(&s, a).ok());
                }
            }
            out.push(s);
        }
        out
    }

    #[test]
    fn a_non_sticky_end_strands_the_owner() {
        // The prototype's livelock, which the explorer reports behind
        // another oracle: the helper sees the recomputed end and leaves,
        // and the owner then reads idle 2, members 1 and waits forever.
        let model = TeamModel::new(TeamScenario::star().with_mutation(TeamMutation::NonStickyEnd));
        let stranded = |s: &TeamState| {
            s.pcs[HELPER] == Pc::Exit
                && s.pcs[OWNER] == Pc::Wait
                && (s.idle, s.members) == (2, 1)
                && !model.enabled(s, OWNER)
        };
        assert!(reachable_states(&model).iter().any(stranded));
    }

    #[test]
    fn the_configs_reach_joins_hand_offs_and_leaves() {
        let star = reachable_states(&TeamModel::new(TeamScenario::star()));
        assert!(star.iter().any(|s| s.members == 2 && !s.handoff.is_empty()));
        assert!(star
            .iter()
            .any(|s| s.members == 2 && !s.stacks[HELPER].is_empty()));
        // The helper's hand-off can also go back to an idle owner.
        assert!(star
            .iter()
            .any(|s| s.idle == 1 && s.pcs[OWNER] == Pc::Wait && !s.handoff.is_empty()));
        let left = reachable_states(&TeamModel::new(TeamScenario::star_request()));
        assert!(left
            .iter()
            .any(|s| s.pcs[HELPER] == Pc::Depart && !s.ended && !s.handoff.is_empty()));
        let reach = reachable_states(&TeamModel::new(TeamScenario::star_reach()));
        assert!(reach
            .iter()
            .any(|s| s.claimed && s.pcs[HELPER] == Pc::Depart));
        let cancel = reachable_states(&TeamModel::new(TeamScenario::diamond_cancel()));
        assert!(cancel.iter().any(|s| s.stopped && s.members == 2));
        // Two members can push one vertex.
        assert!(cancel.iter().any(|s| s.pushes > 4));
    }
}
