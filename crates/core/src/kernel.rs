//! The served traversal kernel: reachability from one root over an
//! explicit stack, on the calling thread or on a team of two.
//!
//! The service layer runs this for every `dfs`/`reach` that does not ask
//! for the simulator. The paper's engines ([`crate::native`],
//! [`crate::sim`]) spawn threads and fill parent arrays because they
//! model the GPU; a served answer only needs the visited set, which
//! every engine must produce identically. So the kernel keeps one mark
//! per vertex and one stack per member, in a [`Scratch`] the caller
//! reuses across requests, and it accepts only a [`ValidCsr`], so the
//! graph is never re-checked per call.
//!
//! A vertex is marked when it is pushed, so a lone searcher's stack
//! never holds more than `n` entries. The [`CancelToken`] is polled
//! before the first expansion and then every [`POLL_STRIDE`]
//! expansions. A search with a target returns as soon as it marks that
//! target.
//!
//! # Batching
//!
//! On a graph too big for the caches the loop is bound by memory
//! latency, not bandwidth: each popped vertex costs two dependent
//! misses, `row_ptr[u]` and then the head of its `col_idx` row. The
//! visited set does not depend on the order of expansion, so on such
//! graphs each step pops up to [`BATCH`] entries, reads all of their row
//! bounds and prefetches the head of each row, and only then expands
//! them; each vertex it pushes also has its `row_ptr` line prefetched,
//! ready for the next step. This is the AMAC pattern (Kocberber et al.,
//! "Asynchronous Memory Access Chaining", PVLDB 2015), the CPU
//! analogue of DiggerBees hiding stack-segment movement behind
//! traversal with TMA async copies.
//!
//! Batching costs time on graphs whose neighbours sit at nearby ids,
//! where the next rows are already cached: forced on, it takes 1.5–1.7×
//! as long on `path:1000000` and 1.2× on `delaunay` as the
//! one-at-a-time loop. So the choice is made once per graph, by
//! [`ValidCsr::new`], from a count its validation walk takes anyway:
//! the share of arcs whose endpoints are more than [`FAR_IDS`] ids
//! apart. A graph batches when at least [`BATCH_FAR_SHARE`] of its arcs
//! are far ([`ValidCsr::batches`]). Measured shares: 0.80 on
//! `social:1000000`, 0.96 on `ljournal`, 0.57 on `google`, 0.45 on
//! `citation`, 0.11 on `amazon`, and 0 on every grid, mesh, road, path
//! and dag graph. Batched, a full reach of `social:1000000` takes a
//! quarter to a third of the one-at-a-time time on one core. Graph size
//! alone is the wrong switch: a million-vertex path is big and still
//! has every neighbour one id away.
//!
//! Every search runs one generic loop, instantiated at batch 1 and at
//! [`BATCH`]. The poll countdown is charged a whole batch at a time, so
//! a batched search polls after [`POLL_STRIDE`] expansions rounded up to
//! a whole batch. The prefetch is the one `unsafe` site, in
//! `prefetch`; it is a no-op off x86-64.
//!
//! # Teams
//!
//! [`team_search`] applies the paper's stealing (§3.4) one level down,
//! inside one search: its caller, the *owner*, may be joined by one
//! *helper* thread, and an idle member takes the cold half of the
//! other's stack. The pool a search runs in is a [`Crew`]: the owner
//! offers the search to it once its stack holds [`TEAM_GRAIN`] entries,
//! and an idle thread of the crew joins with [`Team::join`].
//!
//! * **Marks.** One [`AtomicU8`] per vertex, tested with a relaxed load
//!   and set with a relaxed store, never a locked read-modify-write. Two
//!   members that race to one vertex both push it and expand it twice,
//!   which costs a little work and changes no answer. A shared bitset
//!   claimed with `fetch_or` measured 0.99–1.08× on reaches, and the
//!   locked RMW alone slows a one-thread reach to 0.76–0.80×; one
//!   single-writer bitset per member measured 0.55–1.03× from coherence
//!   traffic on shared lines. `visited` is the number of marked bytes,
//!   counted once after every member has left.
//! * **Hand-off.** Each member runs the batched loop on its own stack
//!   and polls every [`POLL_STRIDE`] expansions. A member whose stack
//!   runs dry waits; at its next poll the other copies its coldest
//!   `min(len / 2, TEAM_GRAIN)` entries into the team's hand-off
//!   buffer, and the hungry member copies them into its own stack.
//! * **End.** The search ends for both members when a member marks the
//!   target, when the token expires, or when both are idle with nothing
//!   handed over. The end is a sticky flag under the team mutex, and a
//!   join after it is refused.
//! * **Leaving.** A helper leaves at its next poll once
//!   [`Crew::queued`] says a request waits, handing its entries back, so
//!   a team never keeps a core from a queued request. The owner does
//!   not offer while a request waits, and withdraws an offer nobody
//!   took.
//! * **Memory.** The marks live in the owner's [`Scratch`] and are
//!   reused. The owner waits until the helper has left before it counts
//!   them, and the marks' lock makes any later reset wait for a helper
//!   that still holds them.
//!
//! `db_check::team_model` model-checks this protocol. On one thread the
//! byte marks run reaches at 0.87–0.91× of the bitset, and graphs that
//! do not batch lose with a team (`grid:1000:1000` 0.96×, `delaunay`
//! 0.98×), so a lone search keeps [`search`].

use crate::{CancelToken, ValidCsr};
use db_graph::{CsrGraph, GraphStore};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard};
use std::time::Duration;

/// Expansions between two cancellation polls. A poll reads the clock
/// when the token has a deadline; at this stride that cost stays out of
/// the profile, and a cancelled search still stops within microseconds.
pub const POLL_STRIDE: u32 = 1024;

/// Stack entries one batched step pops, bounds and prefetches before it
/// expands any of them.
pub const BATCH: usize = 16;

/// Endpoint distance, in vertex ids, beyond which an arc counts as far:
/// 4096 ids span 32 KiB of `row_ptr`, so a far neighbour's row bounds
/// are not on a line its source just loaded.
pub const FAR_IDS: u32 = 4096;

/// Share of far arcs from which a graph is searched in batches of
/// [`BATCH`]: one arc in twenty. `amazon`, at 0.11 the lowest share
/// measured off zero, already runs 1.6× faster batched.
pub const BATCH_FAR_SHARE: f64 = 0.05;

/// Stack entries a team's owner holds before it offers the search, and
/// the most entries one hand-off moves. A parked helper joined 56–174 µs
/// after an offer; one core expands 4096 entries of `social:1000000`
/// (about 60 ns each) in about that time, so a smaller search is over
/// before a helper could start on it.
pub const TEAM_GRAIN: usize = 4096;

/// How long a hungry helper waits for a hand-off before it asks its
/// crew again whether a request is queued.
const HUNGRY_WAIT: Duration = Duration::from_micros(200);

/// Whether a graph with `far` far arcs out of `arcs` is searched in
/// batches; [`ValidCsr::new`] asks once per graph.
pub(crate) fn batches(far: u64, arcs: usize) -> bool {
    far > 0 && far as f64 >= BATCH_FAR_SHARE * arcs as f64
}

/// A team's visited marks, one byte per vertex. Members hold the read
/// side while they search; the owner takes the write side to reset and
/// count them, which waits for any member still holding them.
type Marks = RwLock<Vec<AtomicU8>>;

/// Reusable kernel memory: one visited bit per vertex, the explicit
/// stack, and the byte marks of team searches. [`search`] and
/// [`team_search`] clear it for each graph but keep its capacity, so a
/// long-lived owner stops allocating after its first requests.
#[derive(Debug, Default)]
pub struct Scratch {
    bits: Vec<u64>,
    stack: Vec<u32>,
    marks: Arc<Marks>,
}

impl Scratch {
    /// Heap bytes held (capacity, not length).
    pub fn bytes(&self) -> usize {
        self.bits.capacity() * std::mem::size_of::<u64>()
            + self.stack.capacity() * std::mem::size_of::<u32>()
            + read(&self.marks).capacity()
    }

    /// Clears the visited bits of an `n`-vertex graph and empties the
    /// stack, reserving room for all `n` vertices up front.
    fn reset(&mut self, n: usize) {
        self.bits.clear();
        self.bits.resize(n.div_ceil(64), 0);
        self.stack.clear();
        self.stack.reserve(n);
    }
}

/// What one search found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Search {
    /// Vertices marked, the root included. A completed search that
    /// claimed no target marked exactly the root's reachable set.
    pub visited: u64,
    /// Whether the target was marked; the search stopped there.
    pub claimed: bool,
    /// `false` only when the token stopped the search before it had
    /// its answer.
    pub completed: bool,
}

/// Searches `g` from `root` on the calling thread, stopping early once
/// `target` (if any) is marked or once `token` is cancelled. The search
/// runs in batches of [`BATCH`] when the proof says the graph pays for
/// it ([`ValidCsr::batches`]).
///
/// # Panics
///
/// Panics if `root` is not a vertex of `g`.
pub fn search(
    g: ValidCsr<&CsrGraph>,
    root: u32,
    target: Option<u32>,
    token: &CancelToken,
    scratch: &mut Scratch,
) -> Search {
    let n = g.graph().num_vertices();
    assert!((root as usize) < n, "root {root} out of range (n = {n})");
    scratch.reset(n);
    let Scratch { bits, stack, .. } = scratch;
    // index-ok: root < n was asserted and `bits` holds n bits
    bits[root as usize >> 6] |= 1 << (root & 63);
    let mut solo = Solo {
        bits,
        token,
        found: Search {
            visited: 1,
            claimed: target == Some(root),
            completed: true,
        },
    };
    if !solo.found.claimed {
        stack.push(root);
        // Vertex ids are below n <= u32::MAX, so u32::MAX never matches.
        let target = target.unwrap_or(u32::MAX);
        if g.batches() {
            walk::<BATCH, _>(g.graph(), target, stack, &mut solo);
        } else {
            walk::<1, _>(g.graph(), target, stack, &mut solo);
        }
    }
    solo.found
}

/// The pool a team search draws its helper from, as the owner sees it.
pub trait Crew {
    /// Whether a request is waiting for a worker. The owner does not
    /// offer while one waits.
    fn queued(&self) -> bool;
    /// Offers `team` to one idle thread, which joins it with
    /// [`Team::join`]. Returns whether the offer was posted; the owner
    /// tries again at a later poll if not.
    fn offer(&self, team: &Arc<Team>) -> bool;
    /// Takes back the offer of `team` if nobody took it.
    fn withdraw(&self, team: &Arc<Team>);
}

/// One team search as its members share it: the graph, the token, the
/// target, the owner's marks, and the hand-off state under the team
/// mutex.
pub struct Team {
    graph: ValidCsr<Arc<dyn GraphStore>>,
    token: CancelToken,
    target: u32,
    marks: Arc<Marks>,
    state: Mutex<TeamState>,
    cv: Condvar,
}

impl std::fmt::Debug for Team {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Team")
            .field("target", &self.target)
            .finish_non_exhaustive()
    }
}

/// The hand-off and membership state of a [`Team`].
#[derive(Debug, Default)]
struct TeamState {
    /// Sticky: once set, a join is refused and each member leaves at
    /// its next poll.
    ended: bool,
    /// A member marked the target.
    claimed: bool,
    /// The token stopped the search before it had its answer.
    stopped: bool,
    /// The owner plus a helper that has joined and not yet left.
    members: u32,
    /// Members waiting, with empty stacks, for a hand-off.
    idle: u32,
    /// Entries on their way from one member to the other.
    handoff: Vec<u32>,
}

/// What a helper did in one team search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Help {
    /// Stack entries it expanded.
    pub expanded: u64,
    /// Whether it left for a queued request rather than staying to the
    /// end.
    pub left_for_request: bool,
}

/// A helper's membership in a team search, from [`Team::join`] until it
/// drops. It holds the owner's marks, so the owner cannot count or
/// reset them before the membership ends.
pub struct Helper<'a> {
    team: &'a Team,
    marks: RwLockReadGuard<'a, Vec<AtomicU8>>,
}

impl std::fmt::Debug for Helper<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Helper").field("team", self.team).finish()
    }
}

/// Searches `g` from `root` like [`search`], as the owner of a team:
/// once its stack holds [`TEAM_GRAIN`] entries it offers the search to
/// `crew`, and a helper that joins shares the work (see the module docs
/// for the protocol). Always batched, and returns only after the helper
/// has left. Same answers as [`search`]: a completed dfs counts exactly
/// the reachable set, and a reach claims exactly when the target is
/// reachable.
///
/// # Panics
///
/// Panics if `root` is not a vertex of `g`.
pub fn team_search(
    g: &ValidCsr<Arc<dyn GraphStore>>,
    root: u32,
    target: Option<u32>,
    token: &CancelToken,
    scratch: &mut Scratch,
    crew: &dyn Crew,
) -> Search {
    let n = g.graph().num_vertices();
    assert!((root as usize) < n, "root {root} out of range (n = {n})");
    if target == Some(root) {
        return Search {
            visited: 1,
            claimed: true,
            completed: true,
        };
    }
    {
        // Waits for a helper of an earlier search that still holds them.
        let mut marks = write(&scratch.marks);
        marks.truncate(n);
        marks.iter_mut().for_each(|m| *m.get_mut() = 0);
        marks.resize_with(n, AtomicU8::default);
        // index-ok: root < n was asserted and the marks hold n bytes
        *marks[root as usize].get_mut() = 1;
    }
    scratch.stack.clear();
    scratch.stack.reserve(n);
    scratch.stack.push(root);
    let team = Arc::new(Team {
        graph: g.clone(),
        token: token.clone(),
        // Vertex ids are below n <= u32::MAX, so u32::MAX never matches.
        target: target.unwrap_or(u32::MAX),
        marks: Arc::clone(&scratch.marks),
        state: Mutex::new(TeamState {
            members: 1,
            ..TeamState::default()
        }),
        cv: Condvar::new(),
    });
    let offered = {
        let marks = read(&team.marks);
        let _unwind = EndOnUnwind(&team);
        let mut owner = Member {
            team: &team,
            marks: &marks,
            role: Role::Owner {
                crew,
                shared: &team,
                offered: false,
            },
            gone: false,
        };
        walk::<BATCH, _>(g.graph(), team.target, &mut scratch.stack, &mut owner);
        matches!(owner.role, Role::Owner { offered: true, .. })
    };
    if offered {
        crew.withdraw(&team);
    }
    let (claimed, stopped) = {
        let mut st = team.lock();
        while st.members > 1 {
            st = team.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        (st.claimed, st.stopped)
    };
    let visited = write(&scratch.marks)
        .iter_mut()
        .map(|m| u64::from(*m.get_mut()))
        .sum();
    Search {
        visited,
        claimed,
        completed: claimed || !stopped,
    }
}

impl Team {
    fn lock(&self) -> MutexGuard<'_, TeamState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Ends the search for every member: `claimed` when a member marked
    /// the target, otherwise because the token stopped it.
    fn stop(&self, claimed: bool) {
        let mut st = self.lock();
        if !st.ended {
            st.stopped = !claimed;
        }
        st.ended = true;
        st.claimed |= claimed;
        drop(st);
        self.cv.notify_all();
    }

    /// Joins the search as its helper. `None` once the search has ended:
    /// a join after the end is refused.
    pub fn join(&self) -> Option<Helper<'_>> {
        let marks = read(&self.marks);
        let mut st = self.lock();
        if st.ended {
            return None;
        }
        st.members += 1;
        drop(st);
        Some(Helper { team: self, marks })
    }
}

/// Ends a team search if its owner unwinds, so a waiting helper leaves
/// instead of waiting for hand-offs that cannot come.
struct EndOnUnwind<'a>(&'a Team);

impl Drop for EndOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.stop(false);
        }
    }
}

impl Helper<'_> {
    /// Searches with `scratch`'s stack, starting hungry, until the
    /// search ends or `queued` says a request waits; then it hands its
    /// entries back. The membership ends when the `Helper` drops.
    pub fn run(&mut self, scratch: &mut Scratch, queued: &dyn Fn() -> bool) -> Help {
        let team = self.team;
        scratch.stack.clear();
        let mut member = Member {
            team,
            marks: &self.marks,
            role: Role::Helper { queued },
            gone: false,
        };
        let expanded = walk::<BATCH, _>(
            team.graph.graph(),
            team.target,
            &mut scratch.stack,
            &mut member,
        );
        scratch.stack.clear();
        Help {
            expanded,
            left_for_request: member.gone,
        }
    }
}

impl Drop for Helper<'_> {
    fn drop(&mut self) {
        let mut st = self.team.lock();
        if std::thread::panicking() {
            // Its entries are lost: the answer would be short, so the
            // search ends unanswered instead.
            st.stopped |= !st.ended;
            st.ended = true;
        }
        st.members -= 1;
        drop(st);
        self.team.cv.notify_all();
    }
}

/// A search loop's decisions: how a vertex is marked, what happens at a
/// poll and when the stack runs dry. [`walk`] is generic over it, so a
/// lone search and a team member share one loop.
trait Walker {
    /// Starts loading the marks of `row`, before a batched step expands
    /// it. Marks another thread writes would otherwise miss one by one,
    /// each behind a branch that waits for it.
    fn prefetch_marks(&self, _row: &[u32]) {}
    /// Marks `v`; whether it was unmarked.
    fn mark(&mut self, v: u32) -> bool;
    /// The target was just marked; the walk returns.
    fn claim(&mut self);
    /// The poll every [`POLL_STRIDE`] expansions, which may move entries
    /// into or out of `stack`. Returns whether the walk stops.
    fn poll(&mut self, stack: &mut Vec<u32>) -> bool;
    /// `stack` is empty: refills it and returns `true`, or returns
    /// `false` when the walk is over.
    fn refill(&mut self, stack: &mut Vec<u32>) -> bool;
}

/// The search loop, popping up to `B` stack entries per step. `g` must
/// have passed validation, and `stack` holds marked vertices. Returns
/// the entries it expanded.
fn walk<const B: usize, W: Walker>(
    g: &CsrGraph,
    target: u32,
    stack: &mut Vec<u32>,
    w: &mut W,
) -> u64 {
    let (row_ptr, col_idx) = (g.row_ptr(), g.col_idx());
    let mut countdown = 0;
    let mut expanded = 0u64;
    let mut rows = [(0usize, 0usize); B];
    loop {
        if countdown == 0 {
            if w.poll(stack) {
                return expanded;
            }
            countdown = POLL_STRIDE;
        }
        // Pop up to B entries and read their row bounds, prefetching
        // the head of each row.
        let mut k = 0;
        while k < B {
            let Some(u) = stack.pop() else { break };
            let u = u as usize;
            // index-ok: u < n (the root or a column entry), and ValidCsr
            // proves row_ptr is monotone and ends at col_idx.len()
            let (start, end) = (row_ptr[u] as usize, row_ptr[u + 1] as usize);
            if B > 1 {
                prefetch(col_idx.as_ptr().wrapping_add(start));
            }
            // index-ok: k < B, the loop bound
            rows[k] = (start, end);
            k += 1;
        }
        if k == 0 {
            if w.refill(stack) {
                continue;
            }
            return expanded;
        }
        countdown = countdown.saturating_sub(k as u32);
        expanded += k as u64;
        if B > 1 {
            // index-ok: k <= B, and each row lies within col_idx (below)
            for &(start, end) in &rows[..k] {
                w.prefetch_marks(&col_idx[start..end]);
            }
        }
        // index-ok: k <= B
        for &(start, end) in &rows[..k] {
            // index-ok: the bounds came from row_ptr, so the row lies
            // within col_idx
            for &v in &col_idx[start..end] {
                if w.mark(v) {
                    if v == target {
                        w.claim();
                        return expanded;
                    }
                    if B > 1 {
                        prefetch(row_ptr.as_ptr().wrapping_add(v as usize));
                    }
                    stack.push(v);
                }
            }
        }
    }
}

/// A lone search over a bitset.
struct Solo<'a> {
    bits: &'a mut [u64],
    token: &'a CancelToken,
    found: Search,
}

impl Walker for Solo<'_> {
    #[inline(always)]
    fn mark(&mut self, v: u32) -> bool {
        // index-ok: ValidCsr proves every column entry is below n, and
        // `bits` holds n bits
        let word = &mut self.bits[v as usize >> 6];
        let bit = 1u64 << (v & 63);
        if *word & bit != 0 {
            return false;
        }
        *word |= bit;
        self.found.visited += 1;
        true
    }

    fn claim(&mut self) {
        self.found.claimed = true;
    }

    fn poll(&mut self, _: &mut Vec<u32>) -> bool {
        let stop = self.token.is_cancelled();
        self.found.completed = !stop;
        stop
    }

    fn refill(&mut self, _: &mut Vec<u32>) -> bool {
        false
    }
}

/// What a team member does beyond searching.
enum Role<'a> {
    /// Offers the search (`shared`) to `crew` once, when its stack is
    /// deep enough.
    Owner {
        crew: &'a dyn Crew,
        shared: &'a Arc<Team>,
        offered: bool,
    },
    /// Leaves once `queued` says a request waits.
    Helper { queued: &'a dyn Fn() -> bool },
}

/// One member of a team search.
struct Member<'a> {
    team: &'a Team,
    marks: &'a [AtomicU8],
    role: Role<'a>,
    /// The helper left for a queued request, handing its entries back.
    gone: bool,
}

impl Member<'_> {
    /// Whether this member is a helper with a request waiting for it.
    fn called_away(&self) -> bool {
        matches!(self.role, Role::Helper { queued } if queued())
    }
}

impl Walker for Member<'_> {
    #[inline(always)]
    fn prefetch_marks(&self, row: &[u32]) {
        for &v in row {
            prefetch(self.marks.as_ptr().wrapping_add(v as usize));
        }
    }

    /// A relaxed load, then a relaxed store: a mark publishes nothing.
    /// Two members that both read 0 both push the vertex, and a vertex
    /// expanded twice changes no answer; hand-offs and the final count
    /// synchronize through the team mutex and the marks' lock.
    #[inline(always)]
    fn mark(&mut self, v: u32) -> bool {
        // index-ok: ValidCsr proves every column entry is below n, and
        // the marks hold n bytes
        let m = &self.marks[v as usize];
        // relaxed-ok: see above; a lost race costs one duplicate push
        if m.load(Ordering::Relaxed) != 0 {
            return false;
        }
        // relaxed-ok: as the load above
        m.store(1, Ordering::Relaxed);
        true
    }

    fn claim(&mut self) {
        self.team.stop(true);
    }

    fn poll(&mut self, stack: &mut Vec<u32>) -> bool {
        let team = self.team;
        if team.token.is_cancelled() {
            team.stop(false);
            return true;
        }
        let called_away = self.called_away();
        let mut st = team.lock();
        if st.ended {
            return true;
        }
        if called_away {
            st.handoff.append(stack);
            self.gone = true;
            drop(st);
            team.cv.notify_all();
            return true;
        }
        if st.idle == 0 && !st.handoff.is_empty() {
            // Nobody waits for these: a helper left them behind.
            stack.append(&mut st.handoff);
        }
        if st.idle > 0 && st.handoff.is_empty() {
            let take = (stack.len() / 2).min(TEAM_GRAIN);
            if take > 0 {
                // The coldest entries go; the hottest fill their slots,
                // so a hand-off copies `take` entries, not the stack.
                let len = stack.len();
                // index-ok: take <= len / 2
                st.handoff.extend_from_slice(&stack[..take]);
                stack.copy_within(len - take.., 0);
                stack.truncate(len - take);
                drop(st);
                team.cv.notify_all();
            }
        } else {
            drop(st);
        }
        if let Role::Owner {
            crew,
            shared,
            offered,
        } = &mut self.role
        {
            if !*offered && stack.len() >= TEAM_GRAIN && !crew.queued() {
                *offered = crew.offer(shared);
            }
        }
        false
    }

    fn refill(&mut self, stack: &mut Vec<u32>) -> bool {
        let team = self.team;
        let mut st = team.lock();
        st.idle += 1;
        loop {
            if st.ended {
                return false;
            }
            if !st.handoff.is_empty() {
                stack.append(&mut st.handoff);
                st.idle -= 1;
                return true;
            }
            if st.idle == st.members {
                st.ended = true;
                drop(st);
                team.cv.notify_all();
                return false;
            }
            if let Role::Owner { .. } = self.role {
                st = team.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
                continue;
            }
            st = team
                .cv
                .wait_timeout(st, HUNGRY_WAIT)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
            if st.ended || !st.handoff.is_empty() {
                continue;
            }
            drop(st);
            let called_away = self.called_away();
            st = team.lock();
            if called_away && !st.ended {
                // Anything handed over meanwhile stays for the owner.
                st.idle -= 1;
                self.gone = true;
                drop(st);
                team.cv.notify_all();
                return false;
            }
        }
    }
}

fn read(marks: &Marks) -> RwLockReadGuard<'_, Vec<AtomicU8>> {
    marks.read().unwrap_or_else(PoisonError::into_inner)
}

fn write(marks: &Marks) -> std::sync::RwLockWriteGuard<'_, Vec<AtomicU8>> {
    marks.write().unwrap_or_else(PoisonError::into_inner)
}

/// A parked thread that joins every team search offered to it: the
/// second member of a team outside a serve pool, for benchmarks and
/// tests. It has no queue of its own, so it stays in each search to the
/// end.
#[derive(Debug)]
pub struct ParkedHelper {
    shared: Arc<Parked>,
    thread: Option<std::thread::JoinHandle<()>>,
}

#[derive(Debug, Default)]
struct Parked {
    slot: Mutex<Slot>,
    cv: Condvar,
}

#[derive(Debug, Default)]
struct Slot {
    offer: Option<Arc<Team>>,
    quit: bool,
    joins: u64,
}

impl Parked {
    fn lock(&self) -> MutexGuard<'_, Slot> {
        self.slot.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl ParkedHelper {
    /// Starts the helper thread, parked until a search is offered.
    pub fn spawn() -> ParkedHelper {
        let shared = Arc::new(Parked::default());
        let parked = Arc::clone(&shared);
        let thread = std::thread::Builder::new()
            .name("team-helper".into())
            .spawn(move || {
                let mut scratch = Scratch::default();
                loop {
                    let team = {
                        let mut slot = parked.lock();
                        loop {
                            if slot.quit {
                                return;
                            }
                            if let Some(team) = slot.offer.take() {
                                break team;
                            }
                            slot = parked.cv.wait(slot).unwrap_or_else(PoisonError::into_inner);
                        }
                    };
                    if let Some(mut helper) = team.join() {
                        helper.run(&mut scratch, &|| false);
                        parked.lock().joins += 1;
                    };
                }
            })
            // unwrap-ok: a benchmark or test cannot run without its helper
            .expect("spawn team helper");
        ParkedHelper {
            shared,
            thread: Some(thread),
        }
    }

    /// Searches joined so far.
    pub fn joins(&self) -> u64 {
        self.shared.lock().joins
    }
}

impl Crew for ParkedHelper {
    fn queued(&self) -> bool {
        false
    }

    fn offer(&self, team: &Arc<Team>) -> bool {
        self.shared.lock().offer = Some(Arc::clone(team));
        self.shared.cv.notify_all();
        true
    }

    fn withdraw(&self, team: &Arc<Team>) {
        let mut slot = self.shared.lock();
        if slot.offer.as_ref().is_some_and(|t| Arc::ptr_eq(t, team)) {
            slot.offer = None;
        }
    }
}

impl Drop for ParkedHelper {
    fn drop(&mut self) {
        self.shared.lock().quit = true;
        self.shared.cv.notify_all();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Asks the CPU to start loading the cache line holding `p`, without
/// waiting for it.
#[inline(always)]
fn prefetch<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `_mm_prefetch` is only a hint. It reads nothing the
    // program can observe and never faults, whatever the address, and
    // SSE, which it needs, is part of the x86-64 baseline.
    unsafe {
        std::arch::x86_64::_mm_prefetch::<{ std::arch::x86_64::_MM_HINT_T0 }>(p.cast::<i8>());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}
