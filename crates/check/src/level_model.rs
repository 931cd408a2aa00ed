//! Step-level model of the served kernel's team search
//! (`db_core::kernel::team_search`, which runs the sweep loop): one
//! owner, at most one helper, a chunk cursor, and a fold between
//! sweeps. A sweep is one level of the cursor protocol.
//!
//! The transcription follows the kernel's sweep loop on a tiny graph,
//! with chunks of one vertex id. Every access to the cursor or the span
//! is a step of its own, so a member can read the cursor of one level
//! and the span of the next. The owner publishes a level by storing the
//! first and the last id of its span and then the cursor, `(level, next
//! chunk)`; a span runs from the first pending vertex to the end of the
//! map, so a later level can span more chunks than an earlier one. A
//! member polls before each chunk, loads the cursor and claims the
//! chunk with a compare-and-swap of the whole word (two steps, so the
//! cursor can move in between), expands the chunk's vertex if it is
//! pending, and then counts the chunk done. Each access of the expansion
//! is a step of its own, so the other member can mark in between: it
//! reads the vertex's `done` bit, its own mark and the other member's
//! mark (skipping a read whose value cannot change the outcome), sets
//! the `done` bit, and marks each neighbour, done or not, in its own
//! set; then it reads the chunk again, as the kernel does until a read
//! finds nothing pending. The steps are:
//!
//! * **poll** — a cancelled token stops the search; the owner posts its
//!   one offer at the first poll with no request queued (the kernel
//!   waits for `TEAM_GRAIN` expansions; offering at once lets the helper
//!   join at any step); a helper with a request queued leaves, holding
//!   no chunk;
//! * **load / claim** — an ended cursor makes the member leave; a spent
//!   level, or one the member is not on, sends the owner to close it
//!   and a helper to wait; otherwise the compare-and-swap takes the
//!   chunk, or fails and reloads;
//! * **expand / finish** — a member that marks the target ends the
//!   search once its row is marked (the kernel tests the target's bit
//!   in the member's own marks after each batch); a finished chunk is
//!   counted;
//! * **close** — the owner sets the spent cursor's chunk to `CLOSED`,
//!   past any level's last chunk; an ended cursor stays ended;
//! * **wait / fold / publish** — the owner waits until every chunk of the
//!   level is done (or the search has ended), then folds: it ends the
//!   search when no vertex is marked and not done, or stores the first
//!   such vertex's id, the end of the map, and then the cursor of the
//!   next level; a helper waits for the cursor to leave its level and
//!   then reads the cursor, the first id and the last id. Both waits
//!   poll the token;
//! * **join** — refused once the search has ended;
//! * **depart** — the helper's membership (and its hold on the owner's
//!   bitmaps) ends;
//! * the owner, after leaving, withdraws an untaken offer, waits until
//!   it is the only member, and then resets its bitmaps for the next
//!   search.
//!
//! A client actor may queue a request and may cancel the token, each
//! at any point.
//!
//! Oracles:
//!
//! * **no fold while a chunk is held** — the owner folds only when no
//!   member holds a chunk of the level;
//! * **no stale claim** — a member claims a chunk only when the level and
//!   span it read are the ones published with the cursor;
//! * **no lost vertex** — a search that ended without a stop expanded
//!   exactly the reachable set, the target included;
//! * **both members exit** — a blocked member is a deadlock;
//! * **bitmaps never cleared while held** — the owner resets its
//!   bitmaps only when no helper is a member.
//!
//! [`LevelMutation`] seeds the bug classes the protocol guards against.

use crate::explore::{ActorId, Model, Violation};

/// A seeded level-protocol bug for the mutation tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LevelMutation {
    /// The owner folds as soon as the cursor is spent, without waiting
    /// for a helper to finish the chunk it holds.
    FoldWhileHeld,
    /// A helper checks for a queued request after it claims a chunk and
    /// leaves holding it, so the chunk is never done.
    LeaveAbandonsChunk,
    /// The claim compares only the chunk index, not the level: a helper
    /// still on a spent level claims a chunk of the next one as if it
    /// were its own.
    StaleClaim,
    /// A join is accepted after the end, so a helper can become a member
    /// once the owner has stopped waiting for one.
    JoinAfterEnd,
    /// The owner folds and publishes without closing the spent level: a
    /// helper that read the spent cursor and then the next level's
    /// longer span claims a chunk of the next level as one of the old.
    NoClose,
    /// The fold looks for pending vertices in the owner's marks only, so
    /// a vertex only the helper marked, and nobody expanded, ends the
    /// search unexpanded.
    FoldOwnMarks,
}

impl LevelMutation {
    /// Every mutation, for exhaustive mutation tests.
    pub const ALL: [LevelMutation; 6] = [
        LevelMutation::FoldWhileHeld,
        LevelMutation::LeaveAbandonsChunk,
        LevelMutation::StaleClaim,
        LevelMutation::JoinAfterEnd,
        LevelMutation::NoClose,
        LevelMutation::FoldOwnMarks,
    ];
}

/// What the client actor does, at any point of the search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClientEvent {
    /// A request is queued: the helper must leave, the owner must not
    /// offer.
    Queue,
    /// The token is cancelled: the search stops unanswered.
    Cancel,
}

/// Configuration of one level check.
#[derive(Debug, Clone)]
pub struct LevelScenario {
    /// Tiny adjacency lists (vertex id → neighbours, at most 16
    /// vertices).
    pub adj: Vec<Vec<u32>>,
    /// The search's root.
    pub root: u32,
    /// A reach's target, or `None` for a dfs.
    pub target: Option<u32>,
    /// What the client does, in order.
    pub client: Vec<ClientEvent>,
    /// The seeded bug, or `None` for the faithful protocol.
    pub mutation: Option<LevelMutation>,
}

impl LevelScenario {
    /// A root in the middle of the map, vertex 2, with two children,
    /// which share one of their two grandchildren: 0 below the root,
    /// which waits for a second sweep, and 3 above it, which marks 4
    /// ahead of the cursor and the shared 1 behind it. The first sweep
    /// spans three chunks and the second five. The helper can join on
    /// any sweep, and the two members can race for every chunk and every
    /// mark.
    pub fn tree() -> Self {
        LevelScenario {
            adj: vec![vec![1], vec![], vec![0, 3], vec![4, 1], vec![]],
            root: 2,
            target: None,
            client: Vec::new(),
            mutation: None,
        }
    }

    /// [`LevelScenario::tree`] with a request queued at any point: the
    /// helper leaves between two chunks.
    pub fn tree_request() -> Self {
        LevelScenario {
            client: vec![ClientEvent::Queue],
            ..Self::tree()
        }
    }

    /// A reach on the tree whose target, vertex 4, is only reachable
    /// through vertex 3: whichever member expands vertex 3 ends the
    /// search.
    pub fn tree_reach() -> Self {
        LevelScenario {
            target: Some(4),
            ..Self::tree()
        }
    }

    /// The tree with the token cancelled at any point.
    pub fn tree_cancel() -> Self {
        LevelScenario {
            client: vec![ClientEvent::Cancel],
            ..Self::tree()
        }
    }

    /// Same scenario with a seeded bug.
    pub fn with_mutation(mut self, m: LevelMutation) -> Self {
        self.mutation = Some(m);
        self
    }
}

/// The level cursor: `(level, next chunk)`, or ended.
#[derive(Debug, Clone, Copy, Hash, PartialEq, Eq)]
enum Cursor {
    At { level: u8, chunk: u8 },
    Ended,
}

/// The chunk of a closed level's cursor, past any level's last chunk.
const CLOSED: u8 = u8::MAX;

/// A level as a member read it: its number and the ids it spans. The
/// three are read in three steps, so they may come from two levels.
#[derive(Debug, Clone, Copy, Hash, PartialEq, Eq, Default)]
struct View {
    level: u8,
    first: u8,
    last: u8,
}

impl View {
    fn chunks(&self) -> u8 {
        self.last.saturating_sub(self.first)
    }
}

/// A member's program counter; each variant boundary is one step.
#[derive(Debug, Clone, Copy, Hash, PartialEq, Eq)]
enum Pc {
    /// The helper, parked until the search is offered to it.
    Parked,
    /// The helper took the offer and asks to join.
    Join,
    /// The helper loads the cursor, for the level it is on.
    SyncCursor,
    /// The helper loads the first id of the published span.
    SyncFirst,
    /// The helper loads the last id of the published span.
    SyncLast,
    /// The poll before a chunk.
    Poll,
    /// Load the cursor.
    Load,
    /// Compare-and-swap the cursor from `(level, chunk)`, as loaded.
    Claim {
        level: u8,
        chunk: u8,
    },
    /// Read the `done` bit of the chunk's vertex `v`: the start of each
    /// read of the chunk.
    Expand {
        v: u8,
    },
    /// Read the member's own mark of `v`.
    Mine {
        v: u8,
    },
    /// Read the other member's mark of `v`.
    Theirs {
        v: u8,
    },
    /// Set `v`'s `done` bit.
    SetDone {
        v: u8,
    },
    /// Mark `v`'s `i`th neighbour in the member's own set.
    Mark {
        v: u8,
        i: u8,
    },
    /// Count the chunk done.
    Finish,
    /// The owner's level is spent: it closes the cursor.
    Close,
    /// The level is spent: the owner waits until every chunk is done,
    /// a helper until the cursor leaves the level.
    Wait,
    /// The owner folds the level.
    Fold,
    /// The owner stores the next level's first id.
    PublishFirst,
    /// The owner stores the next level's last id and resets `finished`.
    PublishLast,
    /// The owner stores the next level's cursor over the closed one.
    PublishCursor,
    /// The owner left the search: withdraw an untaken offer.
    Withdraw,
    /// The owner waits until it is the only member.
    WaitAlone,
    /// The owner resets its bitmaps for its next search.
    Clear,
    /// The helper's membership ends.
    Depart,
    Exit,
}

/// Full system state.
#[derive(Debug, Clone, Hash, PartialEq, Eq)]
pub struct LevelState {
    /// The vertices expanded.
    done: u16,
    /// One mark set per member.
    marks: [u16; 2],
    cursor: Cursor,
    /// The published span, stored one id at a time.
    first: u8,
    last: u8,
    /// Ghost: the level published with the cursor, and its span.
    published: View,
    /// Chunks of the level the members finished.
    finished: u8,
    ended: bool,
    claimed: bool,
    stopped: bool,
    members: u8,
    /// The pool's offer slot holds this search.
    offer: bool,
    /// The owner has posted its one offer.
    offered: bool,
    queued: bool,
    cancelled: bool,
    pcs: [Pc; 2],
    views: [View; 2],
    /// Client events applied so far.
    client: u8,
    /// Ghost: the helper is a member, holding the owner's bitmaps.
    holds: bool,
}

const OWNER: ActorId = 0;
const HELPER: ActorId = 1;
const CLIENT: ActorId = 2;

/// The checkable model: the owner (actor 0), the helper (actor 1) and,
/// when the scenario has client events, the client (actor 2).
#[derive(Debug, Clone)]
pub struct LevelModel {
    /// The scenario being checked.
    pub scenario: LevelScenario,
}

impl LevelModel {
    /// Creates the model for a scenario.
    pub fn new(scenario: LevelScenario) -> Self {
        assert!(scenario.adj.len() <= 16, "the model's bitmaps hold 16 ids");
        LevelModel { scenario }
    }

    fn mutated(&self, m: LevelMutation) -> bool {
        self.scenario.mutation == Some(m)
    }

    /// Ends the search on a stop: the target marked or the token
    /// cancelled.
    fn stop(s: &mut LevelState, claimed: bool) {
        if !s.ended {
            s.stopped = !claimed;
        }
        s.ended = true;
        s.cursor = Cursor::Ended;
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

    /// Whether member `a` holds a chunk: claimed and not yet done.
    fn holds_chunk(s: &LevelState, a: ActorId) -> bool {
        matches!(
            s.pcs[a],
            Pc::Expand { .. }
                | Pc::Mine { .. }
                | Pc::Theirs { .. }
                | Pc::SetDone { .. }
                | Pc::Mark { .. }
                | Pc::Finish
        )
    }

    /// The map's size, one chunk per id.
    fn ids(&self) -> u8 {
        self.scenario.adj.len() as u8
    }

    /// Vertices reachable from the root, as a mask.
    fn reachable(&self) -> u16 {
        let adj = &self.scenario.adj;
        let root = self.scenario.root as usize;
        let (mut seen, mut stack) = (1u16 << root, vec![root]);
        while let Some(u) = stack.pop() {
            for &v in &adj[u] {
                if seen & (1 << v) == 0 {
                    seen |= 1 << v;
                    stack.push(v as usize);
                }
            }
        }
        seen
    }

    /// The poll before a chunk.
    fn poll(&self, s: &mut LevelState, a: ActorId) {
        if s.cancelled {
            Self::stop(s, false);
            s.pcs[a] = Self::leave(a);
            return;
        }
        if a == OWNER && !s.offered && !s.queued {
            s.offer = true;
            s.offered = true;
        }
        let leaves_here = !self.mutated(LevelMutation::LeaveAbandonsChunk);
        s.pcs[a] = if a == HELPER && s.queued && leaves_here {
            Pc::Depart
        } else {
            Pc::Load
        };
    }

    /// The compare-and-swap of a claim.
    fn claim(&self, s: &mut LevelState, a: ActorId, level: u8, chunk: u8) -> Result<(), Violation> {
        let taken = match s.cursor {
            Cursor::At { level: l, chunk: c } if c == chunk => {
                l == level || self.mutated(LevelMutation::StaleClaim)
            }
            _ => false,
        };
        if !taken {
            s.pcs[a] = Pc::Load;
            return Ok(());
        }
        if s.views[a] != s.published {
            return Err(Violation::new(
                "stale-claim",
                format!(
                    "member {a} claimed chunk {chunk} on {:?}, published {:?}",
                    s.views[a], s.published
                ),
            ));
        }
        if let Cursor::At { level: l, .. } = s.cursor {
            s.cursor = Cursor::At {
                level: l,
                chunk: chunk + 1,
            };
        }
        s.pcs[a] = Pc::Expand {
            v: s.views[a].first + chunk,
        };
        Ok(())
    }

    /// Starts a read of the chunk holding vertex `v`: its `done` bit. A
    /// done vertex is not pending, whatever its marks.
    fn expand(&self, s: &mut LevelState, a: ActorId, v: u8) {
        if a == HELPER && s.queued && self.mutated(LevelMutation::LeaveAbandonsChunk) {
            s.pcs[a] = Pc::Depart;
            return;
        }
        s.pcs[a] = if s.done & (1 << v) != 0 {
            Pc::Finish
        } else {
            Pc::Mine { v }
        };
    }

    /// Sets `v`'s `done` bit: the member expands it.
    fn set_done(&self, s: &mut LevelState, a: ActorId, v: u8) {
        s.done |= 1 << v;
        s.pcs[a] = if self.scenario.adj[usize::from(v)].is_empty() {
            Pc::Expand { v }
        } else {
            Pc::Mark { v, i: 0 }
        };
    }

    /// Marks `v`'s `i`th neighbour in `a`'s own set. After the row's last
    /// mark the member tests the target in its own marks, and otherwise
    /// reads the chunk again.
    fn mark(&self, s: &mut LevelState, a: ActorId, v: u8, i: u8) {
        let row = &self.scenario.adj[usize::from(v)];
        s.marks[a] |= 1 << row[usize::from(i)];
        if usize::from(i) + 1 < row.len() {
            s.pcs[a] = Pc::Mark { v, i: i + 1 };
            return;
        }
        match self.scenario.target {
            Some(t) if s.marks[a] & (1 << t) != 0 => {
                Self::stop(s, true);
                s.pcs[a] = Self::leave(a);
            }
            _ => s.pcs[a] = Pc::Expand { v },
        }
    }

    /// The owner's fold: the next sweep, from the first vertex marked and
    /// not done to the end of the map, or the end of the search when
    /// there is none.
    fn fold(&self, s: &mut LevelState) -> Result<(), Violation> {
        if Self::holds_chunk(s, HELPER) {
            return Err(Violation::new(
                "fold-while-held",
                "the owner folded while the helper held a chunk of the level",
            ));
        }
        let marked = if self.mutated(LevelMutation::FoldOwnMarks) {
            s.marks[OWNER]
        } else {
            s.marks[OWNER] | s.marks[HELPER]
        };
        let pending = marked & !s.done;
        if pending == 0 {
            s.ended = true;
            s.cursor = Cursor::Ended;
            s.pcs[OWNER] = Pc::Withdraw;
            return Ok(());
        }
        s.views[OWNER] = View {
            level: s.views[OWNER].level + 1,
            first: pending.trailing_zeros() as u8,
            last: self.ids(),
        };
        s.pcs[OWNER] = Pc::PublishFirst;
        Ok(())
    }

    /// A member's wait on a spent level, once enabled: it leaves when
    /// the search ended or the token is cancelled (the wait polls it).
    fn wait(s: &mut LevelState, a: ActorId) -> bool {
        if s.cursor != Cursor::Ended && s.cancelled {
            Self::stop(s, false);
        }
        if s.cursor == Cursor::Ended {
            s.pcs[a] = Self::leave(a);
            return true;
        }
        false
    }

    /// The owner's answer, once it is the only member: a search that
    /// ended without a stop expanded exactly the reachable set, and a
    /// reachable target is always claimed.
    fn check_answer(&self, s: &LevelState) -> Result<(), Violation> {
        if s.stopped || s.claimed {
            return Ok(());
        }
        let reach = self.reachable();
        if s.done != reach {
            return Err(Violation::new(
                "lost-vertex",
                format!("done {:#b}, reachable {reach:#b}", s.done),
            ));
        }
        match self.scenario.target {
            Some(t) if reach & (1 << t) != 0 => Err(Violation::new(
                "lost-vertex",
                format!("reachable target {t} never claimed"),
            )),
            _ => Ok(()),
        }
    }
}

impl Model for LevelModel {
    type State = LevelState;

    fn initial(&self) -> LevelState {
        let root = self.scenario.root as u8;
        let first = View {
            level: 0,
            first: root,
            last: self.ids(),
        };
        LevelState {
            done: 0,
            marks: [1 << root, 0],
            cursor: Cursor::At { level: 0, chunk: 0 },
            first: first.first,
            last: first.last,
            published: first,
            finished: 0,
            ended: false,
            claimed: false,
            stopped: false,
            members: 1,
            offer: false,
            offered: false,
            queued: false,
            cancelled: false,
            pcs: [Pc::Poll, Pc::Parked],
            views: [first, View::default()],
            client: 0,
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

    fn done(&self, s: &LevelState, a: ActorId) -> bool {
        if a == CLIENT {
            usize::from(s.client) == self.scenario.client.len()
        } else {
            s.pcs[a] == Pc::Exit
        }
    }

    fn enabled(&self, s: &LevelState, a: ActorId) -> bool {
        if self.done(s, a) {
            return false;
        }
        if a == CLIENT {
            return true;
        }
        match s.pcs[a] {
            Pc::Parked => s.offer || s.pcs[OWNER] == Pc::Exit,
            Pc::Wait if a == OWNER => {
                s.cursor == Cursor::Ended
                    || s.cancelled
                    || s.finished == s.views[OWNER].chunks()
                    || self.mutated(LevelMutation::FoldWhileHeld)
            }
            Pc::Wait => match s.cursor {
                Cursor::Ended => true,
                Cursor::At { level, .. } => s.cancelled || level != s.views[a].level,
            },
            Pc::WaitAlone => s.members == 1,
            _ => true,
        }
    }

    fn is_local(&self, _s: &LevelState, _a: ActorId) -> bool {
        false
    }

    fn step(&self, s: &LevelState, a: ActorId) -> Result<LevelState, Violation> {
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
                if s.ended && !self.mutated(LevelMutation::JoinAfterEnd) {
                    s.pcs[a] = Pc::Exit;
                } else {
                    s.members += 1;
                    s.holds = true;
                    s.pcs[a] = Pc::SyncCursor;
                }
            }
            Pc::SyncCursor => match s.cursor {
                Cursor::Ended => s.pcs[a] = Pc::Depart,
                Cursor::At { level, .. } => {
                    s.views[a].level = level;
                    s.pcs[a] = Pc::SyncFirst;
                }
            },
            Pc::SyncFirst => {
                s.views[a].first = s.first;
                s.pcs[a] = Pc::SyncLast;
            }
            Pc::SyncLast => {
                s.views[a].last = s.last;
                s.pcs[a] = Pc::Poll;
            }
            Pc::Poll => self.poll(&mut s, a),
            Pc::Load => {
                let view = s.views[a];
                s.pcs[a] = match s.cursor {
                    Cursor::Ended => Self::leave(a),
                    Cursor::At { level, chunk } if level == view.level && chunk < view.chunks() => {
                        Pc::Claim { level, chunk }
                    }
                    Cursor::At { .. } if a == OWNER && !self.mutated(LevelMutation::NoClose) => {
                        Pc::Close
                    }
                    Cursor::At { .. } => Pc::Wait,
                };
            }
            Pc::Claim { level, chunk } => self.claim(&mut s, a, level, chunk)?,
            Pc::Expand { v } => self.expand(&mut s, a, v),
            Pc::Mine { v } => {
                s.pcs[a] = if s.marks[a] & (1 << v) != 0 {
                    Pc::SetDone { v }
                } else {
                    Pc::Theirs { v }
                };
            }
            Pc::Theirs { v } => {
                s.pcs[a] = if s.marks[1 - a] & (1 << v) != 0 {
                    Pc::SetDone { v }
                } else {
                    Pc::Finish
                };
            }
            Pc::SetDone { v } => self.set_done(&mut s, a, v),
            Pc::Mark { v, i } => self.mark(&mut s, a, v, i),
            Pc::Finish => {
                s.finished += 1;
                s.pcs[a] = Pc::Poll;
            }
            Pc::Close => {
                if let Cursor::At { level, .. } = s.cursor {
                    s.cursor = Cursor::At {
                        level,
                        chunk: CLOSED,
                    };
                }
                s.pcs[a] = Pc::Wait;
            }
            Pc::Wait => {
                if !Self::wait(&mut s, a) {
                    s.pcs[a] = if a == OWNER { Pc::Fold } else { Pc::SyncCursor };
                }
            }
            Pc::Fold => self.fold(&mut s)?,
            Pc::PublishFirst => {
                s.first = s.views[OWNER].first;
                s.pcs[a] = Pc::PublishLast;
            }
            Pc::PublishLast => {
                (s.last, s.finished) = (s.views[OWNER].last, 0);
                s.pcs[a] = Pc::PublishCursor;
            }
            // The kernel's compare-and-swap from the closed cursor,
            // which fails only once the search has ended.
            Pc::PublishCursor => match s.cursor {
                Cursor::Ended => s.pcs[a] = Pc::Withdraw,
                Cursor::At { .. } => {
                    let view = s.views[OWNER];
                    s.cursor = Cursor::At {
                        level: view.level,
                        chunk: 0,
                    };
                    s.published = view;
                    s.pcs[a] = Pc::Poll;
                }
            },
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
                        "the owner reset its bitmaps while a helper held them",
                    ));
                }
                (s.done, s.marks) = (0, [0, 0]);
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

    fn check(&self, _s: &LevelState) -> Result<(), Violation> {
        Ok(())
    }

    fn check_final(&self, s: &LevelState) -> Result<(), Violation> {
        if !s.ended {
            return Err(Violation::new(
                "no-end",
                "both members exited an unended search",
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// Every state reachable from the initial one without a step that
    /// trips an oracle.
    fn reachable_states(model: &LevelModel) -> Vec<LevelState> {
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
    fn the_configs_reach_joins_shared_levels_and_leaves() {
        let tree = reachable_states(&LevelModel::new(LevelScenario::tree()));
        // Both members hold chunks of one level at once.
        assert!(tree
            .iter()
            .any(|s| LevelModel::holds_chunk(s, OWNER) && LevelModel::holds_chunk(s, HELPER)));
        // The helper joins on every sweep.
        for level in 0..3 {
            assert!(
                tree.iter()
                    .any(|s| s.pcs[HELPER] == Pc::Poll && s.views[HELPER].level == level),
                "level {level}"
            );
        }
        // A helper waits on a spent level while the owner folds it.
        assert!(tree
            .iter()
            .any(|s| s.pcs[HELPER] == Pc::Wait && s.pcs[OWNER] == Pc::Fold));
        // A sweep leaves a vertex only the helper marked pending for the
        // next one, and the owner expands one the helper marked.
        assert!(tree.iter().any(|s| s.pcs[OWNER] == Pc::PublishFirst
            && (s.marks[HELPER] & !s.marks[OWNER] & !s.done) != 0));
        assert!(tree.iter().any(|s| matches!(s.pcs[OWNER], Pc::SetDone { v }
            if s.marks[HELPER] & !s.marks[OWNER] & (1 << v) != 0)));
        let left = reachable_states(&LevelModel::new(LevelScenario::tree_request()));
        assert!(left
            .iter()
            .any(|s| s.pcs[HELPER] == Pc::Depart && !s.ended && s.marks[HELPER] != 0));
        let reach = reachable_states(&LevelModel::new(LevelScenario::tree_reach()));
        assert!(reach
            .iter()
            .any(|s| s.claimed && s.pcs[HELPER] == Pc::Depart));
        let cancel = reachable_states(&LevelModel::new(LevelScenario::tree_cancel()));
        assert!(cancel.iter().any(|s| s.stopped && s.members == 2));
    }

    #[test]
    fn a_stale_claim_needs_the_cursor_to_come_back_to_its_index() {
        // The unmutated claim refuses what the mutated one takes: the
        // helper loaded (1, 1), and the owner has since moved the
        // cursor through level 1 to (2, 1).
        let model = LevelModel::new(LevelScenario::tree());
        let mut s = model.initial();
        s.views[HELPER] = View {
            level: 1,
            first: 0,
            last: 5,
        };
        s.pcs[HELPER] = Pc::Claim { level: 1, chunk: 1 };
        s.cursor = Cursor::At { level: 2, chunk: 1 };
        let faithful = model.step(&s, HELPER).unwrap();
        assert_eq!(faithful.pcs[HELPER], Pc::Load);
        let stale = LevelModel::new(LevelScenario::tree().with_mutation(LevelMutation::StaleClaim));
        assert_eq!(stale.step(&s, HELPER).unwrap_err().oracle, "stale-claim");
    }

    #[test]
    fn a_view_torn_across_two_levels_claims_nothing_once_the_level_is_closed() {
        // The helper read sweep 0's cursor and then sweep 1's span, which
        // the owner stored before its cursor: a view of five chunks on a
        // sweep of three, from the root to the end of the map.
        let model = LevelModel::new(LevelScenario::tree());
        let mut s = model.initial();
        assert_eq!(s.published.chunks(), 3);
        s.views[HELPER] = View {
            level: 0,
            first: 0,
            last: 5,
        };
        (s.first, s.last) = (0, 5);
        s.pcs[HELPER] = Pc::Load;
        s.pcs[OWNER] = Pc::PublishCursor;
        // Closed, the cursor's chunk is past the view's five.
        s.cursor = Cursor::At {
            level: 0,
            chunk: CLOSED,
        };
        assert_eq!(model.step(&s, HELPER).unwrap().pcs[HELPER], Pc::Wait);
        // Left spent at (0, 3), it reads as the view's fourth chunk.
        s.cursor = Cursor::At { level: 0, chunk: 3 };
        let s = model.step(&s, HELPER).unwrap();
        assert_eq!(s.pcs[HELPER], Pc::Claim { level: 0, chunk: 3 });
        assert_eq!(model.step(&s, HELPER).unwrap_err().oracle, "stale-claim");
    }

    #[test]
    fn a_vertex_the_other_member_marks_after_the_read_waits_for_the_next_sweep() {
        // The owner read vertex 4's `done` bit and its own mark, both
        // clear; the helper then marks 4 before the owner reads the
        // helper's mark, which the owner sees: 4 is expanded in this
        // sweep. Read before the helper's mark, it is left for the fold.
        let model = LevelModel::new(LevelScenario::tree());
        let mut s = model.initial();
        s.pcs[OWNER] = Pc::Theirs { v: 4 };
        let late = model.step(&s, OWNER).unwrap();
        assert_eq!(late.pcs[OWNER], Pc::Finish);
        s.marks[HELPER] |= 1 << 4;
        let seen = model.step(&s, OWNER).unwrap();
        assert_eq!(seen.pcs[OWNER], Pc::SetDone { v: 4 });
    }
}
