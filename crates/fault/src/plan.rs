//! The fault-plan model and its `--faults` spec-string codec.
//!
//! A plan is a seed plus a list of rules. Each rule names a *kind* of
//! fault, a *target* (which SM or serve worker it may strike), and a
//! *trigger* (when it strikes). The textual grammar, designed to fit on
//! a command line:
//!
//! ```text
//! plan    := entry (';' entry)*
//! entry   := 'seed=' u64 | rule
//! rule    := kind ':' target '@' trigger
//! kind    := 'kill' | 'stall=' u64 | 'slow=' f64 | 'corrupt' | 'dropsteal'
//!          | 'torn' | 'shortwrite' | 'fsynclie' | 'crash'
//! target  := ('sm' | 'worker' | 'store' | 'wal') '=' (u32 | '*')
//!          | 'store' | 'wal'
//! trigger := 'cycle=' u64 | 'req=' u64 | 'p=' f64 | 'always' | 'compaction'
//!          | 'lsn=' u64 | 'ckpt=' ('pack' | 'manifest' | 'truncate')
//! ```
//!
//! Examples: `kill:sm=3@cycle=10000` (kill SM 3 at simulated cycle
//! 10 000), `corrupt:worker=*@p=0.25` (corrupt a quarter of serve
//! request executions), `seed=7;stall=500:sm=*@p=0.1`,
//! `corrupt:store@p=0.5` (flip a byte in the pack load of half the
//! requests, drawn per request id — checksum verification must catch
//! every strike; bare `store` is shorthand for `store=*`). The storage
//! fault domain targets the WAL: `torn:wal@lsn=6` (tear the append of
//! LSN 6 in half and crash), `crash:wal@ckpt=manifest` (hard process
//! exit mid manifest swap), `fsynclie:wal@p=0.5` (half the fsyncs
//! report success without persisting); bare `wal` is shorthand for
//! `wal=*`.
//!
//! A unit is matched only at sim and request sites: `store=N`, `wal=N`
//! and a worker unit on a rule that strikes a compaction are accepted
//! and ignored.
//!
//! [`FaultPlan`] round-trips `parse → Display → parse` exactly; floats
//! use Rust's shortest-round-trip formatting, so the property holds for
//! every representable probability and factor.

use std::fmt;

/// What a fault does when it strikes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Permanently disable the target. In the sim the SM's warps stop
    /// dispatching and its pending entries must be re-stolen by
    /// survivors; in serve the worker's request execution panics
    /// (exercising panic isolation and respawn).
    Kill,
    /// Pause the target: the sim charges `cycles` idle cycles to the
    /// SM; serve sleeps `cycles` microseconds before executing.
    Stall {
        /// Stall duration (simulated cycles, or µs at the serve layer).
        cycles: u64,
    },
    /// Multiply the target SM's step costs by `factor` from the trigger
    /// onward; serve sleeps `factor` milliseconds per affected attempt.
    SlowDown {
        /// Cost multiplier (sim) / per-attempt delay in ms (serve).
        factor: f64,
    },
    /// Silent result corruption, made detectable: the sim resets stolen
    /// entry offsets (absorbed by re-scanning, result unaffected);
    /// serve replaces the attempt's response with a retryable
    /// integrity-failure error. A retried request's final attempt is
    /// never corrupted, so an `always` plan still converges.
    CorruptResult,
    /// Drop an otherwise-successful steal at the copy site (the entries
    /// stay with the victim; the thief records a failed attempt).
    DropSteal,
    /// Storage: tear a WAL append in half — flush everything staged,
    /// write half of the struck frame, fsync, and hard-exit the
    /// process. Recovery must truncate the torn tail.
    Torn,
    /// Storage: fail a WAL append at the syscall boundary (modelling
    /// `ENOSPC`/short write) before any byte reaches the file; serve
    /// must reject the write with a typed status, not a panic.
    ShortWrite,
    /// Storage: the fsync reports success but persists nothing — the
    /// bytes stay in the modelled page cache and die with the process.
    FsyncLie,
    /// Storage: hard process exit (power loss) at a seeded point — a
    /// durable append (`@lsn=`) or a checkpoint phase (`@ckpt=`).
    Crash,
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::Kill => write!(f, "kill"),
            FaultKind::Stall { cycles } => write!(f, "stall={cycles}"),
            FaultKind::SlowDown { factor } => write!(f, "slow={factor}"),
            FaultKind::CorruptResult => write!(f, "corrupt"),
            FaultKind::DropSteal => write!(f, "dropsteal"),
            FaultKind::Torn => write!(f, "torn"),
            FaultKind::ShortWrite => write!(f, "shortwrite"),
            FaultKind::FsyncLie => write!(f, "fsynclie"),
            FaultKind::Crash => write!(f, "crash"),
        }
    }
}

/// Which layer a rule's target lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Domain {
    /// A simulated SM (thread block) — sim-side sites.
    Sm,
    /// A serve worker thread — the request-execution site.
    Worker,
    /// The packed-graph store layer — the pack-load site (`db-store`).
    Store,
    /// The write-ahead-log storage layer — append, fsync, and
    /// checkpoint sites (`db-wal`).
    Wal,
}

/// Checkpoint phase names usable in `ckpt=` triggers. Mirrors
/// `db_wal::CkptPhase` without depending on that crate — the serve
/// adapter maps between the two.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CkptPhaseKind {
    /// After the pack snapshot is written.
    Pack,
    /// Mid manifest swap (temp durable, rename pending).
    Manifest,
    /// After the manifest swap, before WAL truncation.
    Truncate,
}

impl CkptPhaseKind {
    /// Stable lowercase name, as written in fault specs.
    pub fn name(self) -> &'static str {
        match self {
            CkptPhaseKind::Pack => "pack",
            CkptPhaseKind::Manifest => "manifest",
            CkptPhaseKind::Truncate => "truncate",
        }
    }
}

/// The unit(s) a rule may strike: one SM/worker index or all of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Target {
    /// Sim SM or serve worker.
    pub domain: Domain,
    /// Specific unit index, or `None` for the `*` wildcard.
    pub unit: Option<u32>,
}

impl fmt::Display for Target {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let d = match self.domain {
            Domain::Sm => "sm",
            Domain::Worker => "worker",
            Domain::Store => "store",
            Domain::Wal => "wal",
        };
        match self.unit {
            Some(u) => write!(f, "{d}={u}"),
            None => write!(f, "{d}=*"),
        }
    }
}

/// When a rule strikes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Trigger {
    /// Sim only: once per matching unit, at the first fault check at or
    /// after this simulated cycle.
    AtCycle(u64),
    /// Serve only: on the first execution attempt of the request with
    /// this id (retries of the same request are spared, so a single
    /// `req=` fault demonstrates retry recovery).
    OnRequest(u64),
    /// Bernoulli per check, drawn from a deterministic seeded stream
    /// (the sim keys draws on its event order, which the DES makes
    /// reproducible; serve keys them on `(request id, attempt)` so
    /// thread interleaving cannot change outcomes).
    Prob(f64),
    /// Every check.
    Always,
    /// Serve/delta only: at delta-graph compaction attempts (the
    /// merge hook inside `db-delta`). Never fires at sim or request
    /// sites, so a compaction rule cannot perturb the read path.
    OnCompaction,
    /// Storage only: once, at the WAL append carrying exactly this LSN.
    AtLsn(u64),
    /// Storage only: at the named checkpoint phase.
    AtCkpt(CkptPhaseKind),
}

impl fmt::Display for Trigger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Trigger::AtCycle(c) => write!(f, "cycle={c}"),
            Trigger::OnRequest(r) => write!(f, "req={r}"),
            Trigger::Prob(p) => write!(f, "p={p}"),
            Trigger::Always => write!(f, "always"),
            Trigger::OnCompaction => write!(f, "compaction"),
            Trigger::AtLsn(l) => write!(f, "lsn={l}"),
            Trigger::AtCkpt(p) => write!(f, "ckpt={}", p.name()),
        }
    }
}

/// One fault rule: kind + target + trigger.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultRule {
    /// What happens.
    pub kind: FaultKind,
    /// Where it may happen.
    pub target: Target,
    /// When it happens.
    pub trigger: Trigger,
}

impl fmt::Display for FaultRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}@{}", self.kind, self.target, self.trigger)
    }
}

/// A complete, seeded fault plan.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Seed of the deterministic probability streams (`p=` triggers and
    /// serve retry jitter). Two runs under the same plan and seed make
    /// identical injection decisions.
    pub seed: u64,
    /// The rules, checked in order; the first rule that fires at a
    /// given site wins that check.
    pub rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// Parses the `--faults` spec grammar (see module docs).
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for entry in spec.split(';') {
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            if let Some(seed) = entry.strip_prefix("seed=") {
                plan.seed = seed
                    .parse::<u64>()
                    .map_err(|e| format!("bad seed '{seed}': {e}"))?;
                continue;
            }
            plan.rules.push(parse_rule(entry)?);
        }
        Ok(plan)
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        if self.seed != 0 {
            write!(f, "seed={}", self.seed)?;
            first = false;
        }
        for r in &self.rules {
            if !first {
                write!(f, ";")?;
            }
            write!(f, "{r}")?;
            first = false;
        }
        Ok(())
    }
}

fn parse_rule(entry: &str) -> Result<FaultRule, String> {
    let (kind_s, rest) = entry
        .split_once(':')
        .ok_or_else(|| format!("rule '{entry}': expected kind:target@trigger"))?;
    let (target_s, trigger_s) = rest
        .split_once('@')
        .ok_or_else(|| format!("rule '{entry}': expected kind:target@trigger"))?;
    Ok(FaultRule {
        kind: parse_kind(kind_s.trim())?,
        target: parse_target(target_s.trim())?,
        trigger: parse_trigger(trigger_s.trim())?,
    })
}

fn parse_kind(s: &str) -> Result<FaultKind, String> {
    if let Some(c) = s.strip_prefix("stall=") {
        let cycles = c.parse::<u64>().map_err(|e| format!("stall '{c}': {e}"))?;
        return Ok(FaultKind::Stall { cycles });
    }
    if let Some(x) = s.strip_prefix("slow=") {
        let factor = parse_f64(x, "slow factor")?;
        if factor < 1.0 {
            return Err(format!("slow factor '{x}' must be >= 1"));
        }
        return Ok(FaultKind::SlowDown { factor });
    }
    match s {
        "kill" => Ok(FaultKind::Kill),
        "corrupt" => Ok(FaultKind::CorruptResult),
        "dropsteal" => Ok(FaultKind::DropSteal),
        "torn" => Ok(FaultKind::Torn),
        "shortwrite" => Ok(FaultKind::ShortWrite),
        "fsynclie" => Ok(FaultKind::FsyncLie),
        "crash" => Ok(FaultKind::Crash),
        _ => Err(format!("unknown fault kind '{s}'")),
    }
}

fn parse_target(s: &str) -> Result<Target, String> {
    // Bare `store` is shorthand for `store=*` (the store layer has no
    // natural unit index; corruption draws key on the corpus key and
    // the request id).
    if s == "store" {
        return Ok(Target {
            domain: Domain::Store,
            unit: None,
        });
    }
    // Bare `wal` likewise: one log per serve process, no unit index.
    if s == "wal" {
        return Ok(Target {
            domain: Domain::Wal,
            unit: None,
        });
    }
    let (d, u) = s
        .split_once('=')
        .ok_or_else(|| format!("target '{s}': expected sm=N|sm=*|worker=N|worker=*|store|wal"))?;
    let domain = match d {
        "sm" => Domain::Sm,
        "worker" => Domain::Worker,
        "store" => Domain::Store,
        "wal" => Domain::Wal,
        _ => return Err(format!("unknown target domain '{d}'")),
    };
    let unit = if u == "*" {
        None
    } else {
        Some(u.parse::<u32>().map_err(|e| format!("target '{s}': {e}"))?)
    };
    Ok(Target { domain, unit })
}

fn parse_trigger(s: &str) -> Result<Trigger, String> {
    if let Some(c) = s.strip_prefix("cycle=") {
        return Ok(Trigger::AtCycle(
            c.parse::<u64>().map_err(|e| format!("cycle '{c}': {e}"))?,
        ));
    }
    if let Some(r) = s.strip_prefix("req=") {
        return Ok(Trigger::OnRequest(
            r.parse::<u64>().map_err(|e| format!("req '{r}': {e}"))?,
        ));
    }
    if let Some(p) = s.strip_prefix("p=") {
        let p = parse_f64(p, "probability")?;
        if !(0.0..=1.0).contains(&p) {
            return Err(format!("probability {p} out of [0, 1]"));
        }
        return Ok(Trigger::Prob(p));
    }
    if let Some(l) = s.strip_prefix("lsn=") {
        return Ok(Trigger::AtLsn(
            l.parse::<u64>().map_err(|e| format!("lsn '{l}': {e}"))?,
        ));
    }
    if let Some(p) = s.strip_prefix("ckpt=") {
        let phase = match p {
            "pack" => CkptPhaseKind::Pack,
            "manifest" => CkptPhaseKind::Manifest,
            "truncate" => CkptPhaseKind::Truncate,
            _ => return Err(format!("unknown checkpoint phase '{p}'")),
        };
        return Ok(Trigger::AtCkpt(phase));
    }
    if s == "always" {
        return Ok(Trigger::Always);
    }
    if s == "compaction" {
        return Ok(Trigger::OnCompaction);
    }
    Err(format!("unknown trigger '{s}'"))
}

fn parse_f64(s: &str, what: &str) -> Result<f64, String> {
    let v = s
        .parse::<f64>()
        .map_err(|e| format!("bad {what} '{s}': {e}"))?;
    if !v.is_finite() {
        return Err(format!("{what} '{s}' is not finite"));
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_readme_example() {
        let p = FaultPlan::parse("kill:sm=3@cycle=10000").unwrap();
        assert_eq!(p.seed, 0);
        assert_eq!(
            p.rules,
            vec![FaultRule {
                kind: FaultKind::Kill,
                target: Target {
                    domain: Domain::Sm,
                    unit: Some(3),
                },
                trigger: Trigger::AtCycle(10000),
            }]
        );
    }

    #[test]
    fn parses_every_kind_target_trigger() {
        let spec = "seed=42;kill:sm=*@cycle=5;stall=100:worker=2@req=7;\
                    slow=2.5:sm=0@always;corrupt:worker=*@p=0.25;dropsteal:sm=1@p=1";
        let p = FaultPlan::parse(spec).unwrap();
        assert_eq!(p.seed, 42);
        assert_eq!(p.rules.len(), 5);
        assert_eq!(p.rules[2].kind, FaultKind::SlowDown { factor: 2.5 });
        assert_eq!(p.rules[3].trigger, Trigger::Prob(0.25));
    }

    #[test]
    fn display_round_trips() {
        for spec in [
            "kill:sm=3@cycle=10000",
            "seed=9;corrupt:worker=*@p=0.125;stall=64:sm=*@p=0.5",
            "dropsteal:sm=*@always;slow=4:sm=2@cycle=100",
            "kill:worker=*@compaction",
            "",
        ] {
            let p = FaultPlan::parse(spec).unwrap();
            let shown = p.to_string();
            let back = FaultPlan::parse(&shown).unwrap();
            assert_eq!(back, p, "spec '{spec}' → '{shown}'");
        }
    }

    #[test]
    fn rejects_malformed_specs() {
        for bad in [
            "kill",
            "kill:sm=3",
            "kill:sm3@cycle=1",
            "explode:sm=1@always",
            "kill:gpu=1@always",
            "kill:sm=1@sometimes",
            "corrupt:sm=1@p=1.5",
            "slow=0.5:sm=1@always",
            "stall=abc:sm=1@always",
            "seed=xyz",
            "kill:sm=-1@always",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn store_target_parses_and_round_trips() {
        let p = FaultPlan::parse("corrupt:store@p=0.5").unwrap();
        assert_eq!(
            p.rules,
            vec![FaultRule {
                kind: FaultKind::CorruptResult,
                target: Target {
                    domain: Domain::Store,
                    unit: None,
                },
                trigger: Trigger::Prob(0.5),
            }]
        );
        // Bare `store` normalizes to `store=*` and round-trips.
        let shown = p.to_string();
        assert_eq!(shown, "corrupt:store=*@p=0.5");
        assert_eq!(FaultPlan::parse(&shown).unwrap(), p);
        assert!(FaultPlan::parse("corrupt:store=2@always").is_ok());
    }

    #[test]
    fn compaction_trigger_parses() {
        let p = FaultPlan::parse("kill:worker=*@compaction").unwrap();
        assert_eq!(p.rules[0].trigger, Trigger::OnCompaction);
        assert_eq!(p.rules[0].kind, FaultKind::Kill);
        assert_eq!(p.to_string(), "kill:worker=*@compaction");
    }

    #[test]
    fn wal_storage_grammar_parses_and_round_trips() {
        let p = FaultPlan::parse(
            "torn:wal@lsn=6;shortwrite:wal@lsn=2;fsynclie:wal@p=0.5;\
             crash:wal@ckpt=manifest;crash:wal@lsn=11",
        )
        .unwrap();
        assert_eq!(p.rules.len(), 5);
        assert_eq!(p.rules[0].kind, FaultKind::Torn);
        assert_eq!(p.rules[0].trigger, Trigger::AtLsn(6));
        assert_eq!(p.rules[0].target.domain, Domain::Wal);
        assert_eq!(p.rules[0].target.unit, None, "bare wal is wal=*");
        assert_eq!(p.rules[1].kind, FaultKind::ShortWrite);
        assert_eq!(p.rules[2].kind, FaultKind::FsyncLie);
        assert_eq!(p.rules[3].trigger, Trigger::AtCkpt(CkptPhaseKind::Manifest));
        assert_eq!(p.rules[4].kind, FaultKind::Crash);
        // Round-trip: bare `wal` normalizes to `wal=*`.
        let shown = p.to_string();
        assert!(shown.contains("torn:wal=*@lsn=6"), "{shown}");
        assert_eq!(FaultPlan::parse(&shown).unwrap(), p);
        for phase in ["pack", "manifest", "truncate"] {
            let spec = format!("crash:wal@ckpt={phase}");
            let plan = FaultPlan::parse(&spec).unwrap();
            assert_eq!(plan.to_string(), format!("crash:wal=*@ckpt={phase}"));
        }
    }

    #[test]
    fn wal_grammar_rejects_bad_specs() {
        for bad in [
            "torn:wal@lsn=abc",
            "crash:wal@ckpt=rename",
            "crash:wal@ckpt=",
            "smash:wal@lsn=1",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn whitespace_and_empty_entries_tolerated() {
        let p = FaultPlan::parse(" kill:sm=1@always ; ;seed=3 ").unwrap();
        assert_eq!(p.seed, 3);
        assert_eq!(p.rules.len(), 1);
    }
}
