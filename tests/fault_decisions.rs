//! Golden of the fault injector's decisions. Nine plans each run sixty
//! rounds of checks at all ten injection sites. Together they use every
//! trigger (`cycle=`, `req=`, `p=`, `always`, `compaction`, `lsn=`,
//! `ckpt=`), unit-filtered and `*` targets, rules whose kind or domain
//! does not apply at a site, one-shot triggers hit again after they
//! fired, and store corruption seeds at request id 0 and above. Every
//! return value and every log line (with its unit) feeds one FNV-1a
//! hash, pinned with the strike count. A changed draw key, site salt,
//! unit filter or one-shot rule moves the hash, so a refactor of the
//! injector that passes here keeps every decision and every log line.

use db_fault::{Check, CkptPhaseKind, FaultPlan, Injector, Site};

const PLANS: [&str; 9] = [
    // Sim sites: one-shot cycle kills and slow-downs per SM, draws at
    // every sim site, a unit-filtered corrupt and an `always` stall.
    "seed=7;kill:sm=3@cycle=900;slow=1.5:sm=*@cycle=400;dropsteal:sm=*@p=0.3;\
     stall=40:sm=*@p=0.2;corrupt:sm=1@p=0.5;stall=9:sm=0@always",
    // Request site: `req=` spares retries, unit-filtered draws and an
    // `always` rule on one worker; a steal-only kind is inert there.
    "seed=11;dropsteal:worker=*@always;kill:worker=*@req=5;stall=5:worker=0@req=9;\
     slow=3:worker=1@req=9;corrupt:worker=1@p=0.3;stall=50:worker=*@p=0.2;kill:worker=2@always",
    // Store site: the unit of `store=2` is accepted and ignored, and a
    // kill is inert at pack loads. Compaction site: a `compaction`
    // trigger whose worker unit is ignored.
    "seed=13;kill:store@always;corrupt:store=2@p=0.25;corrupt:store@p=0.5;kill:worker=3@compaction",
    // Compaction site: draws keyed on (key, count); the same p= rule
    // also strikes requests, and a corrupt rule is inert at compactions.
    "seed=5;corrupt:worker=*@compaction;kill:worker=*@p=0.4",
    // Wal sites: one-shot lsn= rules hit again, draws at append and
    // fsync, a checkpoint phase, and a `wal=2` unit that is ignored.
    "seed=17;torn:wal@lsn=6;shortwrite:wal@lsn=9;crash:wal@lsn=12;fsynclie:wal@p=0.5;\
     crash:wal@ckpt=manifest;crash:wal=2@p=0.3;torn:wal@p=0.1",
    // Every domain at once with `always`, behind rules whose kind never
    // applies at their domain's sites.
    "kill:wal@always;fsynclie:sm=*@always;corrupt:worker=*@compaction;\
     kill:sm=*@always;corrupt:worker=*@always;corrupt:store@always;\
     shortwrite:wal@always;crash:wal@always;fsynclie:wal@always",
    // Certain and impossible draws, and a later rule shadowed by an
    // earlier one that fires first.
    "seed=3;dropsteal:sm=*@p=0;corrupt:sm=*@p=1;dropsteal:sm=*@always;\
     kill:worker=*@p=0;stall=7:worker=*@p=1;fsynclie:wal@p=1;crash:wal@ckpt=truncate;crash:wal@p=0.5",
    // One rule per trigger at a site it can never fire at.
    "seed=9;kill:sm=*@req=1;kill:sm=*@compaction;crash:sm=*@lsn=2;kill:worker=*@cycle=0;\
     kill:worker=*@lsn=1;torn:wal@cycle=0;crash:wal@req=0;corrupt:store@ckpt=pack;\
     crash:wal@compaction;kill:worker=*@ckpt=pack",
    // The empty plan never strikes.
    "",
];

const ROUNDS: u64 = 60;

const SIM_SITES: [Site; 4] = [
    Site::Dispatch,
    Site::RingPush,
    Site::RingPop,
    Site::StealCopy,
];

const PHASES: [CkptPhaseKind; 3] = [
    CkptPhaseKind::Pack,
    CkptPhaseKind::Manifest,
    CkptPhaseKind::Truncate,
];

/// FNV-1a, folded over each recorded line and its terminator.
struct Fnv(u64);

impl Fnv {
    fn line(&mut self, s: &str) {
        for b in s.bytes().chain(std::iter::once(b'\n')) {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
}

fn shown<T: std::fmt::Display>(x: Option<T>) -> String {
    x.map_or_else(|| "-".to_string(), |k| k.to_string())
}

/// One round of checks at every site; each result is one line.
fn round(inj: &Injector, r: u64, out: &mut Vec<String>) {
    let sm = (r % 5) as u32;
    let cycle = r * 37;
    for site in SIM_SITES {
        let got = inj.strike(Check::Sim { site, sm, cycle });
        out.push(format!("{} sm={sm} {}", site.name(), shown(got)));
    }
    // Ids 0..20 come round three times, as attempts 0, 1 and 2.
    let (worker, id, attempt) = ((r % 4) as u32, r % 20, (r / 20) as u32);
    let got = inj.strike(Check::Request {
        worker,
        id,
        attempt,
    });
    out.push(format!("request {id}/{attempt} {}", shown(got)));
    // Keys 0..7, each loaded by requests 0, 1 and 2.
    let key = &format!("store:/g{}.dbsg", r % 7);
    let load = r % 3;
    let got = inj
        .strike(Check::StoreLoad { key, id: load })
        .map(|_| inj.corruption_seed(key, load));
    out.push(format!(
        "store {key} {load} {}",
        shown(got.map(|s| format!("{s:#x}")))
    ));
    let count = r / 2;
    let key = ["delta:path:10", "delta:grid:8:8"][(r % 2) as usize];
    let got = inj.strike(Check::Compaction { key, count });
    out.push(format!("compaction {key} {count} {}", shown(got)));
    // LSNs 0..15 come round four times.
    let lsn = r % 15;
    let got = inj.strike(Check::WalAppend { lsn });
    out.push(format!("wal_append {lsn} {}", shown(got)));
    let got = inj.strike(Check::WalFsync).is_some();
    out.push(format!("wal_fsync {got}"));
    let phase = PHASES[(r % 3) as usize];
    let got = inj.strike(Check::WalCheckpoint(phase)).is_some();
    out.push(format!("wal_ckpt {} {got}", phase.name()));
}

#[test]
fn every_decision_and_log_line_matches_the_recorded_golden() {
    let mut hash = Fnv(0xcbf2_9ce4_8422_2325);
    let mut strikes = 0;
    for spec in PLANS {
        let inj = Injector::new(FaultPlan::parse(spec).unwrap());
        let mut out = Vec::new();
        for r in 0..ROUNDS {
            round(&inj, r, &mut out);
        }
        hash.line(spec);
        for line in &out {
            hash.line(line);
        }
        let lines = inj.log_lines();
        for (line, strike) in lines.iter().zip(inj.log()) {
            hash.line(&format!("{} {line}", strike.unit));
        }
        assert_eq!(lines.len() as u64, inj.injected());
        strikes += inj.injected();
    }
    // Recorded before `Injector::strike` replaced the injector's seven
    // per-site check methods. Never re-record them to fit a refactor.
    assert_eq!(strikes, 1036);
    assert_eq!(hash.0, 0x4ada_9e91_8f0f_2f97, "hash {:#018x}", hash.0);
}
