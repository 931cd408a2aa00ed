//! Seeded self-test harness: a miniature workspace with exactly one
//! deliberate violation per analysis, laid out at the same paths the
//! production [`Config::for_repo`] scopes cover. Each test proves its
//! analysis catches the seeded violation *with the expected multi-hop
//! call chain* — not merely that something fires. A second table
//! replays every positive case of the retired textual lint rules at
//! its original path. CI runs this file as the analyzer's self-test
//! step.

use db_analyze::analyses::Config;
use db_analyze::{analyze_sources, Finding};

/// The seeded mini-workspace. One violation per analysis:
///
/// * A1 — `decode_frame` unwraps, two hops below the serve root
///   `worker_loop`.
/// * A2 — `head` is a Release/Acquire protocol field, but `peek`
///   reads it Relaxed.
/// * A3 — `append` holds `manifest` while taking `log` (via
///   `grab_log`), `rotate` takes them in the opposite order.
/// * A4 — `spill_to_disk` does `std::fs::write` under the hot root
///   `worker_loop`.
/// * A5 — det-scope `step_engine` reaches `Instant::now` through the
///   cross-crate call `db_core::tick`.
/// * A6 — `run_isolated` calls `catch_unwind` without naming a guard.
fn fixture() -> Vec<(&'static str, &'static str)> {
    vec![
        (
            "crates/serve/src/pool.rs",
            "pub fn worker_loop(w: &W) {\n\
             \x20   route(w);\n\
             \x20   spill_to_disk(w);\n\
             }\n\
             pub fn run_isolated(w: &W) -> bool {\n\
             \x20   std::panic::catch_unwind(|| w.ok).is_ok()\n\
             }\n",
        ),
        (
            "crates/serve/src/frame.rs",
            "pub fn route(w: &W) {\n\
             \x20   decode_frame(w);\n\
             }\n\
             pub fn decode_frame(w: &W) -> u32 {\n\
             \x20   w.frames.first().unwrap().len\n\
             }\n",
        ),
        (
            "crates/serve/src/spill.rs",
            "pub fn spill_to_disk(w: &W) {\n\
             \x20   std::fs::write(\"spill.bin\", &w.buf).ok();\n\
             }\n",
        ),
        (
            "crates/wal/src/log.rs",
            "pub fn append(w: &Wal) {\n\
             \x20   let a = w.manifest.lock();\n\
             \x20   grab_log(w);\n\
             \x20   drop(a);\n\
             }\n\
             pub fn grab_log(w: &Wal) {\n\
             \x20   let b = w.log.lock();\n\
             \x20   drop(b);\n\
             }\n\
             pub fn rotate(w: &Wal) {\n\
             \x20   let b = w.log.lock();\n\
             \x20   let a = w.manifest.lock();\n\
             \x20   drop(a);\n\
             \x20   drop(b);\n\
             }\n",
        ),
        (
            "crates/core/src/ring.rs",
            "pub fn publish(r: &Ring) {\n\
             \x20   r.head.store(1, Ordering::Release);\n\
             }\n\
             pub fn consume(r: &Ring) -> u32 {\n\
             \x20   r.head.load(Ordering::Acquire)\n\
             }\n\
             pub fn peek(r: &Ring) -> u32 {\n\
             \x20   r.head.load(Ordering::Relaxed)\n\
             }\n",
        ),
        (
            "crates/gpu-sim/src/engine.rs",
            "pub fn step_engine(e: &Engine) -> u64 {\n\
             \x20   db_core::tick()\n\
             }\n",
        ),
        (
            "crates/core/src/clock.rs",
            "pub fn tick() -> u64 {\n\
             \x20   let _t = std::time::Instant::now();\n\
             \x20   0\n\
             }\n",
        ),
    ]
}

fn run() -> Vec<Finding> {
    analyze_sources(&fixture(), &Config::for_repo())
        .expect("fixture parses")
        .findings
}

fn chain(f: &Finding) -> Vec<&str> {
    f.frames.iter().map(|fr| fr.function.as_str()).collect()
}

#[test]
fn a1_seeded_unwrap_caught_with_two_hop_chain() {
    let findings = run();
    let hits: Vec<&Finding> = findings
        .iter()
        .filter(|f| f.analysis == "A1" && f.kind == "panic-unwrap")
        .collect();
    assert_eq!(hits.len(), 1, "exactly the seeded unwrap: {findings:?}");
    let f = hits[0];
    assert_eq!(f.file, "crates/serve/src/frame.rs");
    assert_eq!(f.function, "decode_frame");
    assert_eq!(
        chain(f),
        ["worker_loop", "route", "decode_frame"],
        "expected the exact root-to-sink chain"
    );
    assert!(f.message.contains("serve path"));
}

#[test]
fn a2_seeded_relaxed_on_protocol_field_caught() {
    let findings = run();
    let hits: Vec<&Finding> = findings
        .iter()
        .filter(|f| f.analysis == "A2" && f.kind == "relaxed-on-protocol-field")
        .collect();
    assert_eq!(
        hits.len(),
        1,
        "exactly the seeded Relaxed read: {findings:?}"
    );
    let f = hits[0];
    assert_eq!(f.function, "peek");
    assert!(f.message.contains("`head`"));
    // Evidence frames list every site of the field: the Release
    // writer, the Acquire reader, and the stray Relaxed read.
    let mut fns = chain(f);
    fns.sort_unstable();
    assert_eq!(fns, ["consume", "peek", "publish"]);
}

#[test]
fn a3_seeded_lock_inversion_caught_across_helper() {
    let findings = run();
    let hits: Vec<&Finding> = findings
        .iter()
        .filter(|f| f.analysis == "A3" && f.kind == "lock-cycle")
        .collect();
    assert_eq!(hits.len(), 1, "exactly the seeded inversion: {findings:?}");
    let f = hits[0];
    assert!(
        f.message.contains("wal::log") && f.message.contains("wal::manifest"),
        "cycle names both locks: {}",
        f.message
    );
    // One edge is witnessed in `rotate` (log held, manifest taken),
    // the other in `append` — where the second lock arrives through
    // the `grab_log` helper, proving the interprocedural fixpoint.
    let mut fns = chain(f);
    fns.sort_unstable();
    assert_eq!(fns, ["append", "rotate"]);
}

#[test]
fn a4_seeded_blocking_write_caught_under_hot_root() {
    let findings = run();
    let hits: Vec<&Finding> = findings.iter().filter(|f| f.analysis == "A4").collect();
    assert_eq!(hits.len(), 1, "exactly the seeded fs::write: {findings:?}");
    let f = hits[0];
    assert_eq!(f.file, "crates/serve/src/spill.rs");
    assert_eq!(f.detail, "std::fs::write");
    assert_eq!(chain(f), ["worker_loop", "spill_to_disk"]);
}

#[test]
fn a5_seeded_taint_caught_across_crate_boundary() {
    let findings = run();
    let hits: Vec<&Finding> = findings.iter().filter(|f| f.analysis == "A5").collect();
    assert_eq!(hits.len(), 1, "exactly the seeded taint: {findings:?}");
    let f = hits[0];
    assert_eq!(f.file, "crates/gpu-sim/src/engine.rs");
    assert_eq!(f.function, "step_engine");
    assert_eq!(f.detail, "std::time::Instant::now");
    assert_eq!(
        chain(f),
        ["step_engine", "tick"],
        "taint evidence crosses from gpu-sim into core"
    );
}

#[test]
fn a6_seeded_unguarded_catch_unwind_caught() {
    let findings = run();
    let hits: Vec<&Finding> = findings.iter().filter(|f| f.analysis == "A6").collect();
    assert_eq!(
        hits.len(),
        1,
        "exactly the seeded catch_unwind: {findings:?}"
    );
    let f = hits[0];
    assert_eq!(f.kind, "unguarded-catch-unwind");
    assert_eq!(f.file, "crates/serve/src/pool.rs");
    assert_eq!(f.function, "run_isolated");
    assert_eq!(f.line, 6);
}

#[test]
fn annotating_each_seed_silences_it() {
    // The same fixture with every seed escape-annotated must be clean:
    // proves the annotations are honored end to end, and that the six
    // tests above fire on the seeds rather than on fixture noise.
    let mut sources = fixture();
    for (path, text) in &mut sources {
        let patched = match *path {
            "crates/serve/src/pool.rs" => {
                text.replace(".is_ok()", ".is_ok() // guard: nothing shared is held")
            }
            "crates/serve/src/frame.rs" => {
                text.replace(".unwrap().len", ".unwrap().len // unwrap-ok: seeded")
            }
            "crates/serve/src/spill.rs" => text.replace(".ok();", ".ok(); // blocking-ok: seeded"),
            "crates/wal/src/log.rs" => text.replace(
                "let b = w.log.lock();",
                "let b = w.log.lock(); // lock-ok: seeded",
            ),
            "crates/core/src/ring.rs" => text.replace(
                "Ordering::Relaxed)",
                "Ordering::Relaxed) // relaxed-ok: seeded",
            ),
            "crates/core/src/clock.rs" => {
                text.replace("Instant::now();", "Instant::now(); // nondet-ok: seeded")
            }
            _ => continue,
        };
        *text = Box::leak(patched.into_boxed_str());
    }
    let findings = analyze_sources(&sources, &Config::for_repo())
        .expect("fixture parses")
        .findings;
    assert!(
        findings.is_empty(),
        "annotated fixture is clean: {findings:?}"
    );
}

// The positive cases of the retired textual lint rules' tests.
const RELAXED: &str = "fn f(a: &AtomicU32) { a.store(1, Ordering::Relaxed); }\n";
const FAR_ANNOTATION: &str =
    "// relaxed-ok: too far away\n\n\n\n\nfn f() { a.store(1, Ordering::Relaxed); }\n";
const AFTER_TEST_MOD: &str = "\
fn hot(a: &AtomicU32) -> u32 { a.load(Ordering::Acquire) }
#[cfg(test)]
mod tests {
    fn relaxed_in_tests_is_fine(a: &AtomicU32) { a.store(1, Ordering::Relaxed); }
}
fn after(a: &AtomicU32) { a.store(1, Ordering::Relaxed); }
";
const AFTER_LIFETIME: &str =
    "fn f<'a>(x: &'a str) -> &'a str { x }\nfn g() { a.store(1, Ordering::Relaxed); }\n";
const SLEEP: &str = "fn f() { thread::sleep(d); }\n";
const RAW_STR_CLOCK: &str = "const P: &str = r\"C:\\\"; fn f() { Instant::now(); }\n";
const UNWRAP: &str = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
const CATCH_UNWIND: &str = "fn f() { let r = panic::catch_unwind(AssertUnwindSafe(|| job())); }\n";
const IO_UNWRAP: &str = "fn f() { std::fs::write(p, b).unwrap(); }\n";

/// Every positive case of the retired textual lint rules, at the path
/// it was written for: `(path, source, analysis, line)`. R1 (unjustified
/// `Relaxed`) is now A2, R2 (wall clock or sleep in a deterministic
/// crate, its tests included) is A5, R3 and R5 (unwrap on the serve or
/// durability path) are A1, and R4 (unguarded `catch_unwind`) is A6.
const LINT_PARITY: [(&str, &str, &str, u32); 19] = [
    // R1
    ("crates/core/src/lockfree.rs", RELAXED, "A2", 1),
    ("crates/core/src/lockfree.rs", FAR_ANNOTATION, "A2", 6),
    ("crates/core/src/lockfree.rs", AFTER_TEST_MOD, "A2", 6),
    ("crates/core/src/lockfree.rs", AFTER_LIFETIME, "A2", 2),
    ("crates/store/src/partition.rs", RELAXED, "A2", 1),
    ("crates/delta/src/graph.rs", RELAXED, "A2", 1),
    ("crates/wal/src/log.rs", RELAXED, "A2", 1),
    // R2
    ("crates/gpu-sim/src/machine.rs", SLEEP, "A5", 1),
    ("crates/gpu-sim/src/machine.rs", RAW_STR_CLOCK, "A5", 1),
    ("crates/core/src/sim.rs", SLEEP, "A5", 1),
    ("crates/check/src/explore.rs", SLEEP, "A5", 1),
    ("crates/check/tests/differential.rs", SLEEP, "A5", 1),
    // R3
    ("crates/serve/src/pool.rs", UNWRAP, "A1", 1),
    // R4
    ("crates/serve/src/pool.rs", CATCH_UNWIND, "A6", 1),
    // R5; it covered all of store/src, not only the pack writer.
    ("crates/wal/src/log.rs", IO_UNWRAP, "A1", 1),
    ("crates/serve/src/delta.rs", IO_UNWRAP, "A1", 1),
    ("crates/delta/src/graph.rs", IO_UNWRAP, "A1", 1),
    ("crates/store/src/pack.rs", IO_UNWRAP, "A1", 1),
    ("crates/store/src/partition.rs", IO_UNWRAP, "A1", 1),
];

#[test]
fn retired_lint_cases_are_caught_at_their_original_paths() {
    let missed: Vec<String> = LINT_PARITY
        .iter()
        .filter(|&&(path, src, analysis, line)| {
            let findings = analyze_sources(&[(path, src)], &Config::for_repo())
                .expect("case parses")
                .findings;
            !findings
                .iter()
                .any(|f| f.analysis == analysis && f.file == path && f.line == line)
        })
        .map(|(path, _, analysis, line)| format!("{analysis} at {path}:{line}"))
        .collect();
    assert!(missed.is_empty(), "cases not caught: {missed:?}");
}
