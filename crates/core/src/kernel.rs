//! The served traversal kernel: reachability from one root, on the
//! calling thread or on a team of two, by one of two loops.
//!
//! The service layer runs this for every `dfs`/`reach` that does not ask
//! for the simulator. The paper's engines ([`crate::native`],
//! [`crate::sim`]) spawn threads and fill parent arrays because they
//! model the GPU; a served answer only needs the visited set, which
//! every engine must produce identically, so the kernel may expand
//! vertices in any order. It keeps its marks in a [`Scratch`] the
//! caller reuses across requests. A [`CsrGraph`] is checked when it is
//! built, so the kernel indexes its arrays without checking them again.
//!
//! # Two loops, one switch
//!
//! * **Stack** — an explicit stack over one visited bit per vertex. A
//!   vertex is marked when it is pushed, so the stack never holds more
//!   than `n` entries.
//! * **Sweep** — id-order sweeps over bitmaps, one bit per vertex each:
//!   `done`, the vertices expanded, and one mark bitmap per member. A
//!   sweep walks the map in vertex-id order, in chunks of [`CHUNK_IDS`]
//!   ids, and expands every vertex that either member has marked and
//!   that is not yet done: it sets the vertex's `done` bit and marks
//!   every neighbour, done or not, in the member's own bitmap. A chunk
//!   is read again until nothing in it is pending, so a vertex marked
//!   ahead of the cursor is expanded later in the same sweep, and only
//!   one marked behind it waits for the next. The next sweep runs from
//!   the first word holding a pending vertex to the end of the map, and
//!   a sweep that leaves nothing pending ends the search. A served
//!   answer is only the visited set, so no expansion waits at a level
//!   barrier, as none does in DiggerBees, where only the
//!   level-synchronous baselines pay per level. The rows of
//!   consecutive ids sit back to back in `col_idx`, so each run of
//!   consecutive pending ids in a bitmap word, up to all 64, is scanned
//!   as one column range, the CPU form of the paper's warps scanning a
//!   vertex's edges in 32-wide chunks rather than edge by edge: one
//!   column load and one mark read-modify-write per arc. On a graph too
//!   big for the caches a search is bound by memory latency, not
//!   bandwidth: each run costs two dependent misses, `row_ptr[u]` and
//!   then the head of its range. Sweeps read fewer, denser ranges: a
//!   full search of `social:1000000` reads 175K–272K ranges in 3–4
//!   sweeps, where a level-by-level loop read 557K–577K in 11–12
//!   levels. The loop reads the bounds of [`BATCH`] ranges and
//!   prefetches the head of each before it scans any of them. This is the AMAC pattern (Kocberber
//!   et al., "Asynchronous Memory Access Chaining", PVLDB 2015), the
//!   CPU analogue of DiggerBees hiding stack-segment movement behind
//!   traversal with TMA async copies; in id order the `row_ptr` reads
//!   are a forward stream, and the mark bitmap the scan writes, n/8
//!   bytes, stays in cache. The bitmaps are Beamer et al.'s
//!   ("Direction-Optimizing Breadth-First Search", SC'12), top-down
//!   only, without their level barrier.
//!
//! [`batches`] picks the loop from a count the CSR check takes when the
//! graph is built ([`CsrGraph::far_arcs`]): the arcs whose endpoints are
//! more than [`FAR_IDS`](db_graph::csr::FAR_IDS) ids apart. A graph runs
//! the sweep loop when at least [`BATCH_FAR_SHARE`] of its arcs are
//! far. Measured shares: 0.80 on `social:1000000`, 0.96 on `ljournal`,
//! 0.97 on `rgg_l`, 0.57 on `google`, 0.45 on `citation`, 0.11 on
//! `amazon`, and 0 on every grid, mesh, road, path and dag graph. Where
//! neighbours sit at nearby ids the stack's next rows are already
//! cached: batched row prefetch, forced on, took 1.5–1.7× as long on
//! `path:1000000` and 1.2× on `delaunay` as the stack loop, and a
//! level-by-level bitmap loop 3.6× on `delaunay`. Graph size alone is
//! the wrong switch: a million-vertex path is big and still has every
//! neighbour one id away.
//!
//! On the graphs that batch, the sweep loop replaced a level-by-level
//! loop over the same bitmaps plus a `frontier` one, which had replaced
//! a stack loop with the same row prefetch and a stack-stealing team.
//! The level loop ran faster than the stack loop on every suite graph
//! with scattered ids but the random geometric ones, whose levels are
//! many and thin; the sweep loop runs those faster than both (`rgg_l`
//! 40.8 ms lone and 19.0 ms as a team, against 46.2 and 20.3 for the
//! stack loop and 61.6 and 42.5 by level; EXPERIMENTS.md, "Sweep
//! loop"). A randomly relabelled path, which no served graph
//! resembles, is its worst case: each sweep expands a vertex or two
//! and walks to the end of the map.
//!
//! The [`CancelToken`] is polled before the first expansion; then the
//! stack loop polls every [`POLL_STRIDE`] expansions and the sweep loop
//! before every chunk. A search with a target returns as soon as it
//! marks that target; the sweep loop tests the target's bit in the
//! member's own marks once per batch of ranges, and returns after the
//! batch that set it. The prefetch is the one `unsafe` site, in
//! `prefetch`; it is a no-op off x86-64.
//!
//! # Teams
//!
//! [`team_search`] applies the paper's stealing (§3.4) one level down,
//! inside one search: its caller, the *owner*, runs the sweep loop and
//! may be joined by one *helper* thread, and the two share each sweep.
//! The pool a search runs in is a [`Crew`]: the owner offers the search
//! to it once it has expanded [`TEAM_GRAIN`] vertices itself, and an
//! idle thread of the crew joins with [`Team::join`]. A sweep is one
//! level of the cursor below.
//!
//! * **Chunks.** The owner publishes a sweep by storing its word span
//!   and then the cursor, `level << 32 | next chunk`. Each member claims
//!   chunks with a compare-and-swap of the whole word, so a member still
//!   on a spent sweep cannot claim a chunk of the next one; it expands
//!   the chunk's pending vertices, reading both members' marks, setting
//!   the `done` bits of the chunk and marking into its own bitmap
//!   (relaxed loads and stores: a `done` word has one writer in a
//!   sweep, the member that claimed its chunk, and a mark bitmap its
//!   member, so no atomic read-modify-write), and counts the chunk
//!   done. A mark the other member sets in a chunk after its last read
//!   waits for the next sweep. It polls before every chunk.
//! * **Close.** Once its claim finds the sweep spent, the owner closes
//!   the cursor (chunk `u32::MAX`) before it touches the span. A member
//!   may read the cursor and then the span while the owner moves to the
//!   next sweep; had the cursor stayed at the spent value, a member that
//!   read the old sweep with the new, longer span would claim a chunk
//!   of the new sweep as one of the old. Closed, the cursor fails that
//!   compare-and-swap.
//! * **Fold.** Once every claimed chunk is done, so that no helper holds
//!   one, the owner folds: over every word of the map it counts the
//!   `done` bits and finds the first word holding a vertex that either
//!   member marked and none expanded, and publishes the sweep from that
//!   word to the end of the map. `visited` is the last fold's count.
//! * **End.** The search ends for both members when a member finds the
//!   target in its marks, when the token expires, or when a sweep leaves
//!   nothing pending.
//!   The end is a sticky flag under the team mutex, and a join after it
//!   is refused; the cursor then reads `u64::MAX`, which the owner's
//!   close and publish, both read-modify-writes, leave in place.
//! * **Joining and leaving.** A helper joins at whatever sweep the
//!   cursor is on and leaves between two chunks once [`Crew::queued`]
//!   says a request waits, with nothing to hand back: the owner's
//!   chunks and folds read the marks it wrote. So a team never keeps a
//!   core from a queued request; the owner does not offer while a
//!   request waits, and withdraws an offer nobody took. A team takes
//!   one helper, as it has one helper's mark bitmap.
//! * **Memory.** The bitmaps live in the owner's [`Scratch`] and are
//!   reused. The owner waits until the helper has left before it
//!   answers, and the bitmaps' lock makes any later reset wait for a
//!   helper that still holds them.
//!
//! `db_check::level_model` model-checks this protocol. A team runs the
//! sweep loop on any graph; the serve pool forms teams only on graphs
//! that batch, where the sweep loop is the one [`search`] runs too.

use crate::CancelToken;
use db_graph::CsrGraph;
use std::ops::Range;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{
    Arc, Condvar, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard,
};

/// Expansions between two cancellation polls of the stack loop. A poll
/// reads the clock when the token has a deadline; at this stride that
/// cost stays out of the profile, and a cancelled search still stops
/// within microseconds.
pub const POLL_STRIDE: u32 = 1024;

/// Column ranges the sweep loop bounds and prefetches the heads of
/// before it scans any of them.
pub const BATCH: usize = 16;

/// Share of far arcs from which a graph is searched by sweeps: one arc
/// in twenty. `amazon`, at 0.11 the lowest share measured off zero,
/// ran 1.6× faster with batched row prefetch than one stack entry at a
/// time, and faster again by level (7.5 → 5.3 ms).
pub const BATCH_FAR_SHARE: f64 = 0.05;

/// Vertices the owner of a team search expands itself before it offers
/// the search. A parked helper joined 56–174 µs after an offer; one
/// core expands 4096 vertices of `social:1000000` (about 35 ns each) in
/// about that time, so a smaller search is likely over before a helper
/// could start on it. Counted as the owner goes, not at the folds: the
/// first sweep holds most of a search, so a count taken at its end
/// would come too late to share it.
pub const TEAM_GRAIN: usize = 4096;

/// Vertex ids in one chunk of a sweep, the unit a member claims,
/// expands and polls before: 16 bitmap words. A full chunk expands as
/// many rows as [`POLL_STRIDE`] pops, and a sweep of `social:1000000`
/// spans up to about a thousand chunks. On the level-by-level loop the
/// sweep replaced, teams ran 10–25% slower with chunks of 256 ids
/// (`social:1000000` 29.8–34.8 ms against 26.8–29.3); chunks of 4096
/// read the same as 1024 within the host's spread, and 1024 keeps polls
/// and a helper's leave four times finer.
pub const CHUNK_IDS: usize = 1024;

/// Bitmap words in a chunk.
const CHUNK_WORDS: usize = CHUNK_IDS / 64;

/// Whether [`search`] runs `g` by sweeps: at least
/// [`BATCH_FAR_SHARE`] of its arcs are far ([`CsrGraph::far_arcs`]).
pub fn batches(g: &CsrGraph) -> bool {
    let far = g.far_arcs();
    far > 0 && far as f64 >= BATCH_FAR_SHARE * g.num_arcs() as f64
}

/// The bitmaps of a sweep search, one bit per vertex each, in the
/// owner's [`Scratch`]. A word of `done`, the vertices expanded, is
/// written only by the member that claimed its chunk in the current
/// sweep; `marks[i]` only by member `i` (0 the owner, 1 its helper).
/// Members hold the read side of their lock while they search; the
/// owner takes the write side to reset them, which waits for any member
/// still holding them.
#[derive(Debug, Default)]
struct Bitmaps {
    done: Vec<AtomicU64>,
    marks: [Vec<AtomicU64>; 2],
}

impl Bitmaps {
    /// Heap bytes held (capacity, not length).
    fn bytes(&self) -> usize {
        let [mine, theirs] = &self.marks;
        let words = [&self.done, mine, theirs].map(Vec::capacity);
        words.iter().sum::<usize>() * std::mem::size_of::<u64>()
    }

    /// Clears the bitmaps of an `n`-vertex graph.
    fn reset(&mut self, n: usize) {
        let words = n.div_ceil(64);
        let [mine, theirs] = &mut self.marks;
        for map in [&mut self.done, mine, theirs] {
            map.truncate(words);
            map.iter_mut().for_each(|w| *w.get_mut() = 0);
            map.resize_with(words, AtomicU64::default);
        }
    }
}

/// Reusable kernel memory: the visited bits and explicit stack of the
/// stack loop, and the bitmaps of the sweep loop. [`search`] and
/// [`team_search`] clear it for each graph but keep its capacity, so a
/// long-lived owner stops allocating after its first requests.
#[derive(Debug, Default)]
pub struct Scratch {
    bits: Vec<u64>,
    stack: Vec<u32>,
    maps: Arc<RwLock<Bitmaps>>,
}

impl Scratch {
    /// Heap bytes held (capacity, not length).
    pub fn bytes(&self) -> usize {
        self.bits.capacity() * std::mem::size_of::<u64>()
            + self.stack.capacity() * std::mem::size_of::<u32>()
            + read(&self.maps).bytes()
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
/// `target` (if any) is marked or once `token` is cancelled: by sweeps
/// if `g` [`batches`], else over the stack.
///
/// # Panics
///
/// Panics if `root` is not a vertex of `g`.
pub fn search(
    g: &CsrGraph,
    root: u32,
    target: Option<u32>,
    token: &CancelToken,
    scratch: &mut Scratch,
) -> Search {
    let n = g.num_vertices();
    assert!((root as usize) < n, "root {root} out of range (n = {n})");
    let mut found = Search {
        visited: 1,
        claimed: target == Some(root),
        completed: true,
    };
    if found.claimed {
        return found;
    }
    // Vertex ids are below n <= u32::MAX, so u32::MAX never matches.
    let target = target.unwrap_or(u32::MAX);
    if batches(g) {
        search_sweeps(g, root, target, token, scratch, &mut found);
    } else {
        search_stack(g, root, target, token, scratch, &mut found);
    }
    found
}

/// The stack loop of [`search`].
fn search_stack(
    g: &CsrGraph,
    root: u32,
    target: u32,
    token: &CancelToken,
    scratch: &mut Scratch,
    found: &mut Search,
) {
    scratch.reset(g.num_vertices());
    let Scratch { bits, stack, .. } = scratch;
    // index-ok: root < n was asserted and `bits` holds n bits
    bits[root as usize >> 6] |= 1 << (root & 63);
    stack.push(root);
    let (row_ptr, col_idx) = (g.row_ptr(), g.col_idx());
    let mut countdown = 0;
    while let Some(u) = stack.pop() {
        if countdown == 0 {
            if token.is_cancelled() {
                found.completed = false;
                return;
            }
            countdown = POLL_STRIDE;
        }
        countdown -= 1;
        let u = u as usize;
        // index-ok: u < n (the root or a column entry), and a CsrGraph's
        // row_ptr is monotone and ends at col_idx.len()
        for &v in &col_idx[row_ptr[u] as usize..row_ptr[u + 1] as usize] {
            // index-ok: a CsrGraph's column entries are below n, and
            // `bits` holds n bits
            let word = &mut bits[v as usize >> 6];
            let bit = 1u64 << (v & 63);
            if *word & bit == 0 {
                *word |= bit;
                found.visited += 1;
                if v == target {
                    found.claimed = true;
                    return;
                }
                stack.push(v);
            }
        }
    }
}

/// The sweep loop of [`search`].
fn search_sweeps(
    g: &CsrGraph,
    root: u32,
    target: u32,
    token: &CancelToken,
    scratch: &mut Scratch,
    found: &mut Search,
) {
    let mut maps = write(&scratch.maps);
    maps.reset(g.num_vertices());
    let mut sweep = maps.start(root);
    loop {
        for chunk in 0..sweep.chunks() {
            if token.is_cancelled() {
                found.completed = false;
                return;
            }
            if expand(g, &maps, 0, sweep.words(chunk), target).1 {
                found.claimed = true;
                return;
            }
        }
        let (count, span) = maps.fold();
        found.visited = count;
        if span.is_empty() {
            return;
        }
        sweep = View {
            level: sweep.level + 1,
            span,
        };
    }
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
/// target, the owner's bitmaps, the sweep cursor, and the membership
/// state under the team mutex.
pub struct Team {
    graph: Arc<CsrGraph>,
    token: CancelToken,
    target: u32,
    maps: Arc<RwLock<Bitmaps>>,
    levels: Levels,
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

/// The membership state of a [`Team`].
#[derive(Debug, Default)]
struct TeamState {
    /// Sticky: once set, a join is refused and each member leaves at
    /// its next claim.
    ended: bool,
    /// A member marked the target.
    claimed: bool,
    /// The token stopped the search before it had its answer.
    stopped: bool,
    /// The owner plus a helper that has joined and not yet left.
    members: u32,
}

/// What a helper did in one team search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Help {
    /// Vertices it expanded.
    pub expanded: u64,
    /// Whether it left for a queued request rather than staying to the
    /// end.
    pub left_for_request: bool,
}

/// A helper's membership in a team search, from [`Team::join`] until it
/// drops. It holds the owner's bitmaps, so the owner cannot reset them
/// before the membership ends.
pub struct Helper<'a> {
    team: &'a Team,
    maps: RwLockReadGuard<'a, Bitmaps>,
}

impl std::fmt::Debug for Helper<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Helper").field("team", self.team).finish()
    }
}

/// Searches `g` from `root` by the sweep loop, as the owner of a team:
/// once it has expanded [`TEAM_GRAIN`] vertices it offers the search to
/// `crew`, and a helper that joins claims chunks of each sweep (see the
/// module docs for the protocol). Returns only after
/// the helper has left. Same answers as [`search`]: a completed dfs
/// counts exactly the reachable set, and a reach claims exactly when
/// the target is reachable.
///
/// # Panics
///
/// Panics if `root` is not a vertex of `g`.
pub fn team_search(
    g: &Arc<CsrGraph>,
    root: u32,
    target: Option<u32>,
    token: &CancelToken,
    scratch: &mut Scratch,
    crew: &dyn Crew,
) -> Search {
    let n = g.num_vertices();
    assert!((root as usize) < n, "root {root} out of range (n = {n})");
    if target == Some(root) {
        return Search {
            visited: 1,
            claimed: true,
            completed: true,
        };
    }
    let first = {
        // Waits for a helper of an earlier search that still holds them.
        let mut maps = write(&scratch.maps);
        maps.reset(n);
        maps.start(root)
    };
    let team = Arc::new(Team {
        graph: Arc::clone(g),
        token: token.clone(),
        // Vertex ids are below n <= u32::MAX, so u32::MAX never matches.
        target: target.unwrap_or(u32::MAX),
        maps: Arc::clone(&scratch.maps),
        levels: Levels::default(),
        state: Mutex::new(TeamState {
            members: 1,
            ..TeamState::default()
        }),
        cv: Condvar::new(),
    });
    let (offered, visited) = {
        let maps = read(&team.maps);
        let _unwind = EndOnUnwind(&team);
        let role = Role::Owner {
            crew,
            shared: &team,
            offered: false,
        };
        let mut owner = Lane::new(&team, &maps, role);
        let visited = owner.lead(first);
        (
            matches!(owner.role, Role::Owner { offered: true, .. }),
            visited,
        )
    };
    if offered {
        crew.withdraw(&team);
    }
    let mut st = team.lock();
    while st.members > 1 {
        st = team.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
    }
    Search {
        visited,
        claimed: st.claimed,
        completed: st.claimed || !st.stopped,
    }
}

impl Team {
    fn lock(&self) -> MutexGuard<'_, TeamState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Raises the sticky end under the team mutex; the cursor says so
    /// too, so the members leave at their next claim.
    fn end(&self, st: &mut TeamState) {
        st.ended = true;
        self.levels.cursor.store(ENDED, Ordering::Release);
    }

    /// Ends the search for every member: `claimed` when a member marked
    /// the target, otherwise because the token stopped it.
    fn stop(&self, claimed: bool) {
        let mut st = self.lock();
        if !st.ended {
            st.stopped = !claimed;
        }
        self.end(&mut st);
        st.claimed |= claimed;
        drop(st);
        self.cv.notify_all();
    }

    /// Ends the search on the token if it is cancelled; whether it was.
    fn poll_token(&self) -> bool {
        let cancelled = self.token.is_cancelled();
        if cancelled {
            self.stop(false);
        }
        cancelled
    }

    /// Joins the search as its helper. `None` once the search has ended
    /// or a helper has joined: a join after the end is refused, and so
    /// is a second helper, as the team has one helper's mark bitmap.
    pub fn join(&self) -> Option<Helper<'_>> {
        let maps = read(&self.maps);
        let mut st = self.lock();
        if st.ended || st.members > 1 {
            return None;
        }
        st.members += 1;
        drop(st);
        Some(Helper { team: self, maps })
    }
}

/// Ends a team search if its owner unwinds, so a waiting helper leaves
/// instead of waiting for a sweep that cannot come.
struct EndOnUnwind<'a>(&'a Team);

impl Drop for EndOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.stop(false);
        }
    }
}

impl Helper<'_> {
    /// Claims and expands chunks of the owner's sweeps until the search
    /// ends or `queued` says a request waits; it leaves between two
    /// chunks, with nothing to hand back. The membership ends when the
    /// `Helper` drops.
    pub fn run(&mut self, queued: &dyn Fn() -> bool) -> Help {
        let mut lane = Lane::new(self.team, &self.maps, Role::Helper { queued });
        lane.help();
        Help {
            expanded: lane.expanded,
            left_for_request: lane.gone,
        }
    }
}

impl Drop for Helper<'_> {
    fn drop(&mut self) {
        let mut st = self.team.lock();
        if std::thread::panicking() {
            // Its chunk is lost: the answer would be short, so the
            // search ends unanswered instead.
            st.stopped |= !st.ended;
            self.team.end(&mut st);
        }
        st.members -= 1;
        drop(st);
        self.team.cv.notify_all();
    }
}

/// A bitmap word. Each word has one writer at a time: a member's marks
/// its member, a `done` word the member that claimed its chunk in the
/// current sweep. The cursor and the finished-chunk counts order every
/// write before the fold and the next sweep, so the accesses themselves
/// are relaxed; a mark read early in the sweep it lands in waits for the
/// next one.
#[inline(always)]
fn get(word: &AtomicU64) -> u64 {
    // relaxed-ok: ordered by the sweep protocol, as above
    word.load(Ordering::Relaxed)
}

/// Stores a bitmap word; see [`get`].
#[inline(always)]
fn set(word: &AtomicU64, bits: u64) {
    // relaxed-ok: ordered by the sweep protocol, as above
    word.store(bits, Ordering::Relaxed);
}

/// The cursor value that ends a team search: no sweep has it.
const ENDED: u64 = u64::MAX;

/// The chunk index of a closed sweep, past the last chunk of any sweep.
const CLOSED: u64 = u32::MAX as u64;

/// One sweep as a member sees it: its number, the cursor's level, and
/// the bitmap words it spans, which split into chunks of
/// [`CHUNK_WORDS`].
#[derive(Debug, Clone)]
struct View {
    level: u32,
    span: Range<usize>,
}

impl View {
    fn chunks(&self) -> u32 {
        self.span.len().div_ceil(CHUNK_WORDS) as u32
    }

    /// The bitmap words of chunk `k`.
    fn words(&self, k: u32) -> Range<usize> {
        let start = self.span.start + k as usize * CHUNK_WORDS;
        start..(start + CHUNK_WORDS).min(self.span.end)
    }

    /// The cursor of this sweep at chunk `k`.
    fn at(&self, k: u64) -> u64 {
        (u64::from(self.level) << 32) | k
    }
}

impl Bitmaps {
    /// Sweep 0 of a search from `root`, on reset bitmaps: the root marked
    /// by the owner, from its word to the end of the map.
    fn start(&self, root: u32) -> View {
        let w = root as usize >> 6;
        // index-ok: root < n, and each bitmap holds n bits
        set(&self.marks[0][w], 1 << (root & 63));
        View {
            level: 0,
            span: w..self.done.len(),
        }
    }

    /// Counts the vertices expanded, over every word of the map, and
    /// finds the first word holding a vertex that either member marked
    /// and none expanded. Returns the count and the next sweep's words,
    /// from that word to the end of the map; empty when nothing is
    /// pending, which ends the search.
    fn fold(&self) -> (u64, Range<usize>) {
        let words = self.done.len();
        let (mut count, mut first) = (0, words);
        let [mine, theirs] = &self.marks;
        let rows = self.done.iter().zip(mine.iter().zip(theirs));
        for (w, (done, (mine, theirs))) in rows.enumerate() {
            let done = get(done);
            count += u64::from(done.count_ones());
            if first == words && (get(mine) | get(theirs)) & !done != 0 {
                first = w;
            }
        }
        (count, first..words)
    }
}

/// Expands the pending vertices in `words`, those either member has
/// marked and none has expanded, in id order, a run of consecutive ids
/// at a time: it sets the run's `done` bits, and the rows of the run sit
/// back to back in `col_idx`, so the run is one column range. It reads
/// the bounds of up to [`BATCH`] ranges and prefetches each range's
/// head, then marks every neighbour in member `lane`'s bitmap, done or
/// not (the next read drops the done ones), and then tests the target's
/// bit there. It reads the words again until a pass finds nothing
/// pending, so a vertex marked ahead in the chunk, by either member, is
/// expanded here. Returns the vertices expanded and whether one of them
/// has `target` as a neighbour; it stops at the batch that found it.
fn expand(
    g: &CsrGraph,
    maps: &Bitmaps,
    lane: usize,
    words: Range<usize>,
    target: u32,
) -> (u64, bool) {
    let (row_ptr, col_idx) = (g.row_ptr(), g.col_idx());
    // index-ok: lane is 0 or 1
    let (marks, others) = (&maps.marks[lane][..], &maps.marks[lane ^ 1][..]);
    // No vertex has the u32::MAX of "no target", so its bit stays clear
    // (or its word lies past the map).
    let hit = || {
        let word = marks.get(target as usize >> 6);
        word.is_some_and(|w| get(w) & 1 << (target & 63) != 0)
    };
    let base = words.start;
    // index-ok: chunks lie within the map's n bits, and each bitmap holds
    // n bits
    let (mine, theirs) = (&marks[words.clone()], &others[words.clone()]);
    // index-ok: as above
    let done = &maps.done[words];
    let chunk = done.iter().zip(mine.iter().zip(theirs)).enumerate();
    let mut ranges = [(0usize, 0usize); BATCH];
    let (mut k, mut expanded) = (0, 0);
    loop {
        let before = expanded;
        for (w, (done, (mine, theirs))) in chunk.clone() {
            let seen = get(done);
            let mut bits = (get(mine) | get(theirs)) & !seen;
            if bits == 0 {
                continue;
            }
            set(done, seen | bits);
            while bits != 0 {
                let low = bits.trailing_zeros();
                let run = (!(bits >> low)).trailing_zeros();
                // A run of 64 fills the word, and `1 << 64` would overflow.
                let mask = if run == 64 {
                    u64::MAX
                } else {
                    ((1 << run) - 1) << low
                };
                bits &= !mask;
                let u = (base + w) * 64 + low as usize;
                // index-ok: the run's ids are below n, so u + run <= n, and a
                // CsrGraph's row_ptr holds n + 1 monotone bounds ending at
                // col_idx.len()
                let (start, end) = (row_ptr[u] as usize, row_ptr[u + run as usize] as usize);
                prefetch(col_idx.as_ptr().wrapping_add(start));
                // index-ok: k < BATCH, reset below when it gets there
                ranges[k] = (start, end);
                k += 1;
                expanded += u64::from(run);
                if k == BATCH {
                    scan(col_idx, &ranges, marks);
                    if hit() {
                        return (expanded, true);
                    }
                    k = 0;
                }
            }
        }
        // index-ok: k < BATCH
        scan(col_idx, &ranges[..k], marks);
        if hit() {
            return (expanded, true);
        }
        if expanded == before {
            return (expanded, false);
        }
        k = 0;
    }
}

/// The neighbour loop of [`expand`]: one column load and one mark
/// read-modify-write per arc. A member is its mark bitmap's one writer,
/// so a plain load and store do, and with no `done` load and no test
/// the loop has no branch that depends on the graph.
#[inline(always)]
fn scan(col_idx: &[u32], ranges: &[(usize, usize)], marks: &[AtomicU64]) {
    for &(start, end) in ranges {
        // index-ok: the bounds came from row_ptr, so the range lies
        // within col_idx
        for &v in &col_idx[start..end] {
            // index-ok: a CsrGraph's column entries are below n, and the
            // bitmap holds n bits
            let slot = &marks[v as usize >> 6];
            set(slot, get(slot) | 1 << (v & 63));
        }
    }
}

/// The cursor protocol of a team, one level per sweep. The owner
/// publishes a level by storing its span and then the cursor; members
/// claim its chunks from the cursor and count each one done. Once the
/// level is spent the owner closes the cursor, waits until every
/// claimed chunk is done, and folds.
#[derive(Debug, Default)]
struct Levels {
    /// `level << 32 | next unclaimed chunk`, [`CLOSED`] in the low half
    /// once the owner has closed the level, or [`ENDED`]. A claim
    /// compares the whole word, so a member still on an earlier level,
    /// or one that read the span of a later level, cannot claim.
    cursor: AtomicU64,
    /// The current level's bitmap words. Stored with release and
    /// loaded with acquire: a member that reads a later level's span
    /// has seen the close before it, so its claim fails.
    first: AtomicUsize,
    last: AtomicUsize,
    /// One per member, each on a cache line of its own.
    reports: [Report; 2],
}

/// A member's report on the current level. Only that member writes it
/// (and the owner, to reset it between levels), and the owner reads it
/// before it folds, so it sits on a cache line of its own, away from the
/// cursor both members claim from.
#[derive(Debug, Default)]
#[repr(align(64))]
struct Report {
    /// Chunks it finished.
    done: AtomicU32,
}

/// What a claim on the cursor got.
enum Claim {
    /// A chunk of the member's level.
    Chunk(u32),
    /// No chunk of the member's level is left.
    Spent,
    /// The search has ended.
    Ended,
}

impl Levels {
    /// The cursor, acquired.
    fn at(&self) -> u64 {
        self.cursor.load(Ordering::Acquire)
    }

    /// The level on the cursor, or `None` once the search has ended.
    /// The span may belong to a later level; a claim on such a view
    /// fails (see the `first` field).
    fn view(&self) -> Option<View> {
        let at = self.at();
        let span = self.first.load(Ordering::Acquire)..self.last.load(Ordering::Acquire);
        (at != ENDED).then_some(View {
            level: (at >> 32) as u32,
            span,
        })
    }

    /// Publishes `view`, whose span the owner has just folded, over the
    /// closed cursor of the level before it; `false` if the search ended
    /// meanwhile. No member holds a chunk while it runs.
    fn publish(&self, view: &View) -> bool {
        self.first.store(view.span.start, Ordering::Release);
        self.last.store(view.span.end, Ordering::Release);
        for Report { done } in &self.reports {
            // relaxed-ok: published by the cursor below
            done.store(0, Ordering::Relaxed);
        }
        let closed = match view.level.checked_sub(1) {
            Some(before) => (u64::from(before) << 32) | CLOSED,
            None => 0,
        };
        self.cursor
            .compare_exchange(closed, view.at(0), Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    /// Closes the owner's spent level before it folds; an ended cursor
    /// stays ended.
    fn close(&self) {
        self.cursor.fetch_or(CLOSED, Ordering::AcqRel);
    }

    fn claim(&self, view: &View) -> Claim {
        let mut at = self.at();
        loop {
            if at == ENDED {
                return Claim::Ended;
            }
            let k = at as u32;
            if (at >> 32) as u32 != view.level || k >= view.chunks() {
                return Claim::Spent;
            }
            match self
                .cursor
                .compare_exchange_weak(at, at + 1, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => return Claim::Chunk(k),
                Err(now) => at = now,
            }
        }
    }

    /// Member `lane` finished a chunk; the release publishes its mark and
    /// `done` writes to the fold.
    fn finish(&self, lane: usize) {
        // index-ok: lane is 0 or 1
        let done = &self.reports[lane].done;
        // relaxed-ok: only this member writes its count in a level, so no
        // read-modify-write
        done.store(done.load(Ordering::Relaxed) + 1, Ordering::Release);
    }

    /// Chunks of the current level both members finished.
    fn done(&self) -> u32 {
        let [mine, theirs] = &self.reports;
        mine.done.load(Ordering::Acquire) + theirs.done.load(Ordering::Acquire)
    }
}

/// What a team member does beyond searching.
enum Role<'a> {
    /// Offers the search (`shared`) to `crew` once, when the search is
    /// big enough.
    Owner {
        crew: &'a dyn Crew,
        shared: &'a Arc<Team>,
        offered: bool,
    },
    /// Leaves once `queued` says a request waits.
    Helper { queued: &'a dyn Fn() -> bool },
}

/// One member of a team.
struct Lane<'a> {
    team: &'a Team,
    maps: &'a Bitmaps,
    /// Its mark bitmap: 0 for the owner, 1 for the helper.
    index: usize,
    role: Role<'a>,
    /// Vertices it expanded.
    expanded: u64,
    /// The helper left for a queued request.
    gone: bool,
}

/// How a member's run of chunks on one level ended.
#[derive(PartialEq, Eq)]
enum Step {
    /// The level has no chunk left.
    Spent,
    /// The search ended, or this member leaves it.
    Stop,
}

impl<'a> Lane<'a> {
    fn new(team: &'a Team, maps: &'a Bitmaps, role: Role<'a>) -> Lane<'a> {
        Lane {
            team,
            maps,
            index: usize::from(matches!(role, Role::Helper { .. })),
            role,
            expanded: 0,
            gone: false,
        }
    }

    /// The poll before each chunk: whether this member stops. The owner
    /// offers the search once it has expanded [`TEAM_GRAIN`] vertices;
    /// the helper leaves once a request waits.
    fn poll(&mut self) -> bool {
        if self.team.poll_token() {
            return true;
        }
        match &mut self.role {
            Role::Owner {
                crew,
                shared,
                offered,
            } => {
                if !*offered && self.expanded >= TEAM_GRAIN as u64 && !crew.queued() {
                    *offered = crew.offer(shared);
                }
                false
            }
            Role::Helper { queued } => {
                self.gone = queued();
                self.gone
            }
        }
    }

    /// Claims and expands chunks of `view`'s sweep until none is left or
    /// the search stops.
    fn work(&mut self, view: &View) -> Step {
        let (team, levels) = (self.team, &self.team.levels);
        loop {
            if self.poll() {
                return Step::Stop;
            }
            let k = match levels.claim(view) {
                Claim::Chunk(k) => k,
                Claim::Spent => return Step::Spent,
                Claim::Ended => return Step::Stop,
            };
            let words = view.words(k);
            let (expanded, hit) = expand(&team.graph, self.maps, self.index, words, team.target);
            self.expanded += expanded;
            if hit {
                team.stop(true);
                return Step::Stop;
            }
            levels.finish(self.index);
        }
    }

    /// Spins until `ready` or the end of the search, giving the core
    /// away after the first rounds and polling the token on every round.
    /// Returns whether the search has ended.
    fn wait(&self, mut ready: impl FnMut(u64) -> bool) -> bool {
        let mut spins = 0u32;
        loop {
            let at = self.team.levels.at();
            if at == ENDED || self.team.poll_token() {
                return true;
            }
            if ready(at) {
                return false;
            }
            if spins < 64 {
                spins += 1;
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }

    /// The owner's loop from sweep `first`: works each sweep, closes it,
    /// waits until every claimed chunk is done, folds, and publishes the
    /// next sweep; one that leaves nothing pending ends the search.
    /// Returns the vertices the last fold counted done, or the root alone
    /// before the first fold.
    fn lead(&mut self, first: View) -> u64 {
        let (levels, team) = (&self.team.levels, self.team);
        let (mut view, mut visited) = (first, 1);
        levels.publish(&view);
        loop {
            if self.work(&view) == Step::Stop {
                return visited;
            }
            levels.close();
            let chunks = view.chunks();
            if self.wait(|_| levels.done() == chunks) {
                return visited;
            }
            let (count, span) = self.maps.fold();
            visited = count;
            if span.is_empty() {
                team.end(&mut team.lock());
                team.cv.notify_all();
                return visited;
            }
            view = View {
                level: view.level + 1,
                span,
            };
            if !levels.publish(&view) {
                return visited;
            }
        }
    }

    /// The helper's loop: works whatever sweep the cursor is on, then
    /// waits for the owner to publish the next one, until the search
    /// ends or it leaves.
    fn help(&mut self) {
        let levels = &self.team.levels;
        while let Some(view) = levels.view() {
            if self.work(&view) == Step::Stop || self.wait(|at| (at >> 32) as u32 != view.level) {
                return;
            }
        }
    }
}

fn read(maps: &RwLock<Bitmaps>) -> RwLockReadGuard<'_, Bitmaps> {
    maps.read().unwrap_or_else(PoisonError::into_inner)
}

fn write(maps: &RwLock<Bitmaps>) -> RwLockWriteGuard<'_, Bitmaps> {
    maps.write().unwrap_or_else(PoisonError::into_inner)
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
            .spawn(move || loop {
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
                    helper.run(&|| false);
                    parked.lock().joins += 1;
                };
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
