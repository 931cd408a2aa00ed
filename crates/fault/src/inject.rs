//! The deterministic fault injector: one evaluator, [`Injector::strike`],
//! decides every [`Check`] against a [`FaultPlan`] and records each
//! strike in an injection log.
//!
//! Determinism contract: probability draws come from a counter-free
//! splitmix64 hash over `(seed, rule index, site, key)`, where the key
//! is the identity the [`Check`] names — never the worker, the wall
//! clock or arrival order. Two runs under the same plan therefore make
//! the same decisions; the sim's log is identical line-for-line, serve's
//! as a sorted multiset (worker indices are excluded from its lines).

use crate::plan::{CkptPhaseKind, Domain, FaultKind, FaultPlan, Trigger};
use std::collections::HashSet;
use std::fmt;
use std::sync::Mutex;

/// An injection site — where in the pipeline a fault check happens.
/// Its discriminant salts the site's draws.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Site {
    /// Sim: an SM dispatches a warp step.
    Dispatch = 0,
    /// Sim: a HotRing push.
    RingPush = 1,
    /// Sim: a HotRing pop.
    RingPop = 2,
    /// Sim: a steal reservation/copy (intra- or inter-block).
    StealCopy = 3,
    /// Serve: a worker is about to execute a request attempt.
    Request = 4,
    /// Store: a pack file is about to be loaded for a `store:` corpus
    /// key (a strike flips one loaded byte; checksums must catch it).
    StoreLoad = 5,
    /// Delta: a worker is about to run a delta-graph compaction merge
    /// (a strike aborts the merge mid-flight, modelling a crash; the
    /// epoch lifecycle must survive with no layer lost).
    Compaction = 6,
    /// Wal: a record is about to be appended (a strike tears the frame,
    /// fails the syscall, or crashes after a durable append).
    WalAppend = 7,
    /// Wal: an fsync is about to be issued (a strike makes it lie —
    /// report success without persisting).
    WalFsync = 8,
    /// Wal: a checkpoint phase boundary (a strike hard-exits the
    /// process mid-protocol).
    WalCheckpoint = 9,
}

impl Site {
    /// Stable lowercase name used in log lines.
    pub fn name(&self) -> &'static str {
        match self {
            Site::Dispatch => "dispatch",
            Site::RingPush => "ring_push",
            Site::RingPop => "ring_pop",
            Site::StealCopy => "steal_copy",
            Site::Request => "request",
            Site::StoreLoad => "store_load",
            Site::Compaction => "compaction",
            Site::WalAppend => "wal_append",
            Site::WalFsync => "wal_fsync",
            Site::WalCheckpoint => "wal_checkpoint",
        }
    }

    fn domain(&self) -> Domain {
        match self {
            Site::Request | Site::Compaction => Domain::Worker,
            Site::StoreLoad => Domain::Store,
            Site::WalAppend | Site::WalFsync | Site::WalCheckpoint => Domain::Wal,
            _ => Domain::Sm,
        }
    }
}

/// Which kinds may strike at which site — rules outside their layer
/// simply never fire (a `dropsteal:worker=…` rule is inert, not an
/// error, so one spec string can drive sim and serve together).
fn applies_at(kind: &FaultKind, site: Site) -> bool {
    match kind {
        FaultKind::Kill => {
            matches!(site, Site::Dispatch | Site::Request | Site::Compaction)
        }
        FaultKind::SlowDown { .. } => {
            matches!(site, Site::Dispatch | Site::Request)
        }
        FaultKind::Stall { .. } => matches!(
            site,
            Site::Dispatch | Site::RingPush | Site::RingPop | Site::Request
        ),
        FaultKind::CorruptResult => {
            matches!(site, Site::StealCopy | Site::Request | Site::StoreLoad)
        }
        FaultKind::DropSteal => matches!(site, Site::StealCopy),
        FaultKind::Torn | FaultKind::ShortWrite => matches!(site, Site::WalAppend),
        FaultKind::FsyncLie => matches!(site, Site::WalFsync),
        FaultKind::Crash => matches!(site, Site::WalAppend | Site::WalCheckpoint),
    }
}

/// One fault check: the site and the identity its decision is keyed on.
#[derive(Debug, Clone, Copy)]
pub enum Check<'a> {
    /// A sim site on SM `sm` at simulated cycle `cycle`. Draws key on the
    /// site's check counter; `cycle=` fires once per `(rule, sm)`.
    Sim {
        /// `Dispatch`, `RingPush`, `RingPop` or `StealCopy`.
        site: Site,
        /// The SM (thread block).
        sm: u32,
        /// The simulated cycle.
        cycle: u64,
    },
    /// An execution attempt of a served request. Draws key on
    /// `(id << 8) | attempt`, never on the worker; `req=` spares retries,
    /// so a request killed on first execution recovers by retrying.
    Request {
        /// The worker about to execute the attempt.
        worker: u32,
        /// The request id.
        id: u64,
        /// The attempt, 0-based.
        attempt: u32,
    },
    /// The pack load of `store:` corpus `key` for request `id`. Draws key
    /// on `fnv1a(key) ^ id·φ` (φ = `0x9e37_79b9_7f4a_7c15`), so each
    /// request's load is struck on its own; [`Injector::corruption_seed`]
    /// picks the byte a strike flips.
    StoreLoad {
        /// The corpus key.
        key: &'a str,
        /// The request id.
        id: u64,
    },
    /// The `count`-th compaction attempt of delta corpus `key`. Draws
    /// key on `fnv1a(key) ^ count·φ`, never on the worker that
    /// triggered it.
    Compaction {
        /// The corpus key.
        key: &'a str,
        /// The corpus's compaction attempt counter.
        count: u64,
    },
    /// The WAL append carrying `lsn`. Draws key on the LSN; `lsn=` fires
    /// once (a rejected-then-retried append reuses its LSN).
    WalAppend {
        /// The record's LSN.
        lsn: u64,
    },
    /// An fsync. Draws key on the site's check counter.
    WalFsync,
    /// A checkpoint phase boundary. Draws key on the phase index.
    WalCheckpoint(CkptPhaseKind),
}

impl Check<'_> {
    fn site(&self) -> Site {
        match *self {
            Check::Sim { site, .. } => {
                debug_assert_eq!(site.domain(), Domain::Sm, "{site:?} is not a sim site");
                site
            }
            Check::Request { .. } => Site::Request,
            Check::StoreLoad { .. } => Site::StoreLoad,
            Check::Compaction { .. } => Site::Compaction,
            Check::WalAppend { .. } => Site::WalAppend,
            Check::WalFsync => Site::WalFsync,
            Check::WalCheckpoint(_) => Site::WalCheckpoint,
        }
    }
}

/// One recorded strike.
#[derive(Debug, Clone, PartialEq)]
pub struct Injection {
    /// The site that was struck.
    pub site: Site,
    /// SM (sim sites), worker (requests; scheduling-dependent, so
    /// excluded from [`Injection::line`]), or 0.
    pub unit: u32,
    /// Cycle, request id, key hash, LSN, fsync count or phase index.
    pub at: u64,
    /// What struck.
    pub kind: FaultKind,
}

impl Injection {
    /// Canonical log line. Sim lines carry the SM and cycle; serve
    /// lines carry the request id only, so same-seed double runs
    /// compare equal as sorted multisets regardless of which worker
    /// picked the request up.
    pub fn line(&self) -> String {
        match self.site {
            Site::Request => format!("{} req={} {}", self.site.name(), self.at, self.kind),
            // Store and compaction strikes are keyed on the corpus-key
            // hash (worker and arrival order excluded), so double runs
            // compare equal.
            Site::StoreLoad | Site::Compaction => {
                format!("{} key={:#x} {}", self.site.name(), self.at, self.kind)
            }
            // Wal strikes are keyed on the LSN (appends) or the phase
            // index (checkpoints); there is one log per process, so no
            // unit appears and double runs compare equal verbatim.
            Site::WalAppend => format!("{} lsn={} {}", self.site.name(), self.at, self.kind),
            Site::WalFsync => format!("{} n={} {}", self.site.name(), self.at, self.kind),
            Site::WalCheckpoint => {
                let phase = match self.at {
                    0 => "pack",
                    1 => "manifest",
                    _ => "truncate",
                };
                format!("{} phase={} {}", self.site.name(), phase, self.kind)
            }
            _ => format!(
                "{} sm={} cycle={} {}",
                self.site.name(),
                self.unit,
                self.at,
                self.kind
            ),
        }
    }
}

impl fmt::Display for Injection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.line())
    }
}

#[derive(Debug, Default)]
struct InjectState {
    /// `(rule index, unit)` pairs whose one-shot trigger fired: `cycle=`
    /// per SM, `lsn=` with unit 0.
    fired: HashSet<(usize, u32)>,
    /// Checks so far, one counter per [`Site`].
    draws: [u64; 10],
    log: Vec<Injection>,
}

/// Evaluates a [`FaultPlan`] and keeps the injection log.
///
/// Thread-safe: serve workers share one injector behind an `Arc`; the
/// sim owns one per run. All decisions are pure functions of the plan,
/// the seed, and deterministic keys — never of wall-clock time.
#[derive(Debug)]
pub struct Injector {
    plan: FaultPlan,
    state: Mutex<InjectState>,
}

impl Injector {
    /// Wraps a plan. An empty plan yields an injector that never fires.
    pub fn new(plan: FaultPlan) -> Injector {
        Injector {
            plan,
            state: Mutex::new(InjectState::default()),
        }
    }

    /// The wrapped plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Should a fault strike at `check`? A rule is skipped unless its
    /// domain and kind apply at the check's site and, at sim and request
    /// checks only, its unit matches (store, compaction and wal checks
    /// ignore units). The first remaining rule whose trigger fires wins,
    /// and its strike is appended to the log.
    pub fn strike(&self, check: Check<'_>) -> Option<FaultKind> {
        if self.plan.rules.is_empty() {
            return None;
        }
        let site = check.site();
        let mut st = self.lock();
        // Every check consumes one count even if no rule fires, so rule
        // ordering cannot alias draw streams.
        let seq = st.draws[site as usize]; // index-ok: one counter per `Site` variant
        st.draws[site as usize] += 1; // index-ok: one counter per `Site` variant
        let (unit, at, key) = match check {
            Check::Sim { sm, cycle, .. } => (Some(sm), cycle, seq),
            Check::Request {
                worker,
                id,
                attempt,
            } => (Some(worker), id, (id << 8) | u64::from(attempt)),
            Check::StoreLoad { key, id: n } | Check::Compaction { key, count: n } => {
                let h = key_hash(key, n);
                (None, h, h)
            }
            Check::WalAppend { lsn } => (None, lsn, lsn),
            Check::WalFsync => (None, seq, seq),
            Check::WalCheckpoint(phase) => (None, phase as u64, phase as u64),
        };
        for (i, rule) in self.plan.rules.iter().enumerate() {
            if rule.target.domain != site.domain() || !applies_at(&rule.kind, site) {
                continue;
            }
            if matches!((unit, rule.target.unit), (Some(u), Some(want)) if u != want) {
                continue;
            }
            let fires = match (rule.trigger, check) {
                (Trigger::Always, _) | (Trigger::OnCompaction, Check::Compaction { .. }) => true,
                (Trigger::Prob(p), _) => self.bernoulli(i, site, key, p),
                (Trigger::AtCycle(c), Check::Sim { sm, cycle, .. }) => {
                    cycle >= c && st.fired.insert((i, sm))
                }
                (Trigger::OnRequest(r), Check::Request { id, attempt, .. }) => {
                    id == r && attempt == 0
                }
                (Trigger::AtLsn(l), Check::WalAppend { lsn }) => {
                    lsn == l && st.fired.insert((i, 0))
                }
                (Trigger::AtCkpt(p), Check::WalCheckpoint(phase)) => p == phase,
                _ => false,
            };
            if fires {
                st.log.push(Injection {
                    site,
                    unit: unit.unwrap_or(0),
                    at,
                    kind: rule.kind,
                });
                return Some(rule.kind);
            }
        }
        None
    }

    /// The seed of the byte a struck [`Check::StoreLoad`] flips, fed to
    /// `db-store`'s corrupt-load path. It derives from the plan seed and
    /// the check's key hash alone: same strike, same flipped byte.
    pub fn corruption_seed(&self, key: &str, id: u64) -> u64 {
        self.plan
            .seed
            .wrapping_mul(0x2545_f491_4f6c_dd1d)
            .wrapping_add(key_hash(key, id))
            | 1
    }

    /// Deterministic Bernoulli draw for rule `i` at `site` with `key`.
    fn bernoulli(&self, i: usize, site: Site, key: u64, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        let mut x = self
            .plan
            .seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add((i as u64) << 32)
            .wrapping_add((site as u64).wrapping_mul(0x1000_0000_01b3))
            .wrapping_add(key.wrapping_mul(0x2545_f491_4f6c_dd1d));
        // splitmix64 finalizer.
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^= x >> 31;
        // Top 53 bits → uniform in [0, 1).
        let u = (x >> 11) as f64 / (1u64 << 53) as f64;
        u < p
    }

    /// Total strikes so far.
    pub fn injected(&self) -> u64 {
        self.lock().log.len() as u64
    }

    /// Snapshot of the injection log, in strike order.
    pub fn log(&self) -> Vec<Injection> {
        self.lock().log.clone()
    }

    /// The log as canonical lines (see [`Injection::line`]). Compare
    /// verbatim for sim runs; sort first for serve runs.
    pub fn log_lines(&self) -> Vec<String> {
        self.lock().log.iter().map(Injection::line).collect()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, InjectState> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// FNV-1a over the key string — the stable, order-free identity store
/// and compaction strikes are keyed on.
fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// A corpus key's hash mixed with a per-key count (a store load's
/// request id, a compaction's attempt count).
fn key_hash(key: &str, n: u64) -> u64 {
    fnv1a(key) ^ n.wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(spec: &str) -> FaultPlan {
        FaultPlan::parse(spec).unwrap()
    }

    fn sim(inj: &Injector, site: Site, sm: u32, cycle: u64) -> Option<FaultKind> {
        inj.strike(Check::Sim { site, sm, cycle })
    }

    fn request(inj: &Injector, worker: u32, id: u64, attempt: u32) -> Option<FaultKind> {
        inj.strike(Check::Request {
            worker,
            id,
            attempt,
        })
    }

    fn store(inj: &Injector, key: &str, id: u64) -> Option<u64> {
        inj.strike(Check::StoreLoad { key, id })
            .map(|_| inj.corruption_seed(key, id))
    }

    fn compaction(inj: &Injector, key: &str, count: u64) -> Option<FaultKind> {
        inj.strike(Check::Compaction { key, count })
    }

    fn append(inj: &Injector, lsn: u64) -> Option<FaultKind> {
        inj.strike(Check::WalAppend { lsn })
    }

    #[test]
    fn cycle_trigger_fires_once_per_unit() {
        let inj = Injector::new(plan("kill:sm=*@cycle=100"));
        assert_eq!(sim(&inj, Site::Dispatch, 0, 50), None);
        assert_eq!(sim(&inj, Site::Dispatch, 0, 100), Some(FaultKind::Kill));
        assert_eq!(sim(&inj, Site::Dispatch, 0, 200), None); // already fired
        assert_eq!(sim(&inj, Site::Dispatch, 1, 150), Some(FaultKind::Kill));
        assert_eq!(inj.injected(), 2);
    }

    #[test]
    fn targets_filter_units_and_domains() {
        let inj = Injector::new(plan("kill:sm=3@always;corrupt:worker=*@always"));
        assert_eq!(sim(&inj, Site::Dispatch, 2, 0), None);
        assert_eq!(sim(&inj, Site::Dispatch, 3, 0), Some(FaultKind::Kill));
        // Worker rules never strike sim sites, and vice versa.
        assert_eq!(sim(&inj, Site::StealCopy, 3, 0), None);
        assert_eq!(
            request(&inj, 0, 7, 0),
            Some(FaultKind::CorruptResult),
            "worker wildcard strikes any worker"
        );
    }

    #[test]
    fn req_trigger_spares_retries() {
        let inj = Injector::new(plan("kill:worker=*@req=5"));
        assert_eq!(request(&inj, 1, 4, 0), None);
        assert_eq!(request(&inj, 1, 5, 0), Some(FaultKind::Kill));
        assert_eq!(request(&inj, 2, 5, 1), None, "retry is spared");
    }

    #[test]
    fn prob_draws_are_deterministic_and_roughly_calibrated() {
        let a = Injector::new(plan("seed=7;corrupt:worker=*@p=0.25"));
        let b = Injector::new(plan("seed=7;corrupt:worker=*@p=0.25"));
        let mut hits = 0;
        for id in 0..4000u64 {
            let x = request(&a, 0, id, 0);
            let y = request(&b, 9, id, 0); // different worker, same decision
            assert_eq!(x.is_some(), y.is_some(), "id {id}");
            hits += x.is_some() as u32;
        }
        assert!((800..1200).contains(&hits), "p=0.25 hit {hits}/4000");
        // Different seed ⇒ a different decision set.
        let c = Injector::new(plan("seed=8;corrupt:worker=*@p=0.25"));
        for id in 0..4000u64 {
            request(&c, 0, id, 0);
        }
        assert_ne!(
            c.log_lines(),
            a.log_lines(),
            "seeds 7 and 8 made identical decisions"
        );
    }

    #[test]
    fn sim_prob_stream_is_reproducible() {
        let mk = || Injector::new(plan("seed=3;dropsteal:sm=*@p=0.5"));
        let a = mk();
        let b = mk();
        for i in 0..200 {
            let cycle = i * 17;
            assert_eq!(
                sim(&a, Site::StealCopy, (i % 4) as u32, cycle),
                sim(&b, Site::StealCopy, (i % 4) as u32, cycle)
            );
        }
        assert_eq!(a.log_lines(), b.log_lines());
        assert!(a.injected() > 0);
    }

    #[test]
    fn serve_log_lines_exclude_the_worker() {
        let inj = Injector::new(plan("kill:worker=*@req=1"));
        request(&inj, 3, 1, 0);
        assert_eq!(inj.log_lines(), vec!["request req=1 kill".to_string()]);
    }

    #[test]
    fn kinds_gate_on_their_sites() {
        // DropSteal only strikes the steal-copy site.
        let inj = Injector::new(plan("dropsteal:sm=*@always"));
        assert_eq!(sim(&inj, Site::Dispatch, 0, 0), None);
        assert_eq!(sim(&inj, Site::RingPush, 0, 0), None);
        assert_eq!(sim(&inj, Site::StealCopy, 0, 0), Some(FaultKind::DropSteal));
        // Stall strikes ring sites too.
        let inj = Injector::new(plan("stall=9:sm=*@always"));
        assert_eq!(
            sim(&inj, Site::RingPop, 0, 0),
            Some(FaultKind::Stall { cycles: 9 })
        );
    }

    #[test]
    fn store_checks_strike_loads_not_keys() {
        // One key, 400 requests: each request's load is its own draw.
        let mk = || Injector::new(plan("seed=11;corrupt:store@p=0.5"));
        let a = mk();
        let b = mk();
        let mut hits = 0u32;
        for id in 0..400 {
            let x = store(&a, "store:/data/g.dbsg", id);
            assert_eq!(x, store(&b, "store:/data/g.dbsg", id), "id {id}");
            hits += x.is_some() as u32;
        }
        assert!((120..280).contains(&hits), "p=0.5 hit {hits}/400");
        assert_eq!(a.log_lines(), b.log_lines());
        // Store rules never strike other layers, and vice versa.
        let e = Injector::new(plan("corrupt:store@always;kill:worker=*@always"));
        assert_eq!(sim(&e, Site::Dispatch, 0, 0), None);
        assert!(store(&e, "k", 0).is_some());
        assert_eq!(request(&e, 0, 1, 0), Some(FaultKind::Kill));
        // Non-corrupt kinds are inert at the store site.
        let f = Injector::new(plan("kill:store@always"));
        assert_eq!(store(&f, "k", 0), None);
    }

    #[test]
    fn compaction_checks_fire_deterministically() {
        let mk = || Injector::new(plan("seed=5;kill:worker=*@compaction"));
        let a = mk();
        let b = mk();
        for count in 0..8u64 {
            let x = compaction(&a, "delta:path:100", count);
            assert_eq!(x, compaction(&b, "delta:path:100", count));
            assert_eq!(x, Some(FaultKind::Kill));
        }
        assert_eq!(a.log_lines(), b.log_lines());
        // The compaction trigger never strikes sim, request, or store
        // sites — writes keep flowing while compactions are killed.
        assert_eq!(sim(&a, Site::Dispatch, 0, 0), None);
        assert_eq!(request(&a, 0, 1, 0), None);
        assert_eq!(store(&a, "k", 0), None);
        // Probabilistic compaction strikes are keyed on (key, count).
        let c = Injector::new(plan("seed=5;kill:worker=*@p=0.5"));
        let d = Injector::new(plan("seed=5;kill:worker=*@p=0.5"));
        let mut hits = 0u32;
        for count in 0..400u64 {
            let x = compaction(&c, "delta:grid:8:8", count);
            assert_eq!(x, compaction(&d, "delta:grid:8:8", count));
            hits += x.is_some() as u32;
        }
        assert!((120..280).contains(&hits), "p=0.5 hit {hits}/400");
        // Non-kill kinds are inert at the compaction site.
        let e = Injector::new(plan("corrupt:worker=*@compaction"));
        assert_eq!(compaction(&e, "k", 0), None);
    }

    #[test]
    fn wal_append_lsn_trigger_is_one_shot() {
        let inj = Injector::new(plan("torn:wal@lsn=6"));
        assert_eq!(append(&inj, 5), None);
        assert_eq!(append(&inj, 6), Some(FaultKind::Torn));
        assert_eq!(
            append(&inj, 6),
            None,
            "a retried append at the same LSN is spared"
        );
        assert_eq!(append(&inj, 7), None);
        assert_eq!(inj.log_lines(), vec!["wal_append lsn=6 torn".to_string()]);
    }

    #[test]
    fn wal_sites_gate_kinds_and_domains() {
        // Crash applies at append and checkpoint; torn only at append.
        let inj = Injector::new(plan("crash:wal@lsn=3"));
        assert_eq!(append(&inj, 3), Some(FaultKind::Crash));
        assert_eq!(inj.strike(Check::WalFsync), None);
        // Wal rules never strike other layers, and vice versa.
        let e = Injector::new(plan("torn:wal@always;kill:worker=*@always"));
        assert_eq!(sim(&e, Site::Dispatch, 0, 0), None);
        assert_eq!(request(&e, 0, 1, 0), Some(FaultKind::Kill));
        assert_eq!(store(&e, "k", 0), None);
        assert_eq!(append(&e, 0), Some(FaultKind::Torn));
        // A non-wal kind targeting wal is inert.
        let f = Injector::new(plan("kill:wal@always"));
        assert_eq!(append(&f, 0), None);
        let pack = Check::WalCheckpoint(CkptPhaseKind::Pack);
        assert_eq!(f.strike(pack), None);
    }

    #[test]
    fn wal_ckpt_trigger_matches_its_phase_only() {
        let inj = Injector::new(plan("crash:wal@ckpt=manifest"));
        let at = |phase| inj.strike(Check::WalCheckpoint(phase));
        assert_eq!(at(CkptPhaseKind::Pack), None);
        assert_eq!(at(CkptPhaseKind::Manifest), Some(FaultKind::Crash));
        assert_eq!(at(CkptPhaseKind::Truncate), None);
        assert_eq!(
            inj.log_lines(),
            vec!["wal_checkpoint phase=manifest crash".to_string()]
        );
        // ckpt= rules never strike the append or fsync sites.
        assert_eq!(append(&inj, 0), None);
        assert_eq!(inj.strike(Check::WalFsync), None);
    }

    #[test]
    fn wal_fsync_lies_are_deterministic() {
        let mk = || Injector::new(plan("seed=13;fsynclie:wal@p=0.5"));
        let a = mk();
        let b = mk();
        let mut hits = 0u32;
        for _ in 0..400 {
            let x = a.strike(Check::WalFsync);
            assert_eq!(x, b.strike(Check::WalFsync));
            hits += x.is_some() as u32;
        }
        assert!((120..280).contains(&hits), "p=0.5 hit {hits}/400");
        assert_eq!(a.log_lines(), b.log_lines());
    }

    #[test]
    fn first_matching_rule_wins() {
        let inj = Injector::new(plan("stall=1:sm=*@always;kill:sm=*@always"));
        assert_eq!(
            sim(&inj, Site::Dispatch, 0, 0),
            Some(FaultKind::Stall { cycles: 1 })
        );
    }
}
