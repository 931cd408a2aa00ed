//! `diggerbees check` has one static gate: db-analyze, checked against
//! `<root>/analyze-baseline.json`. A root without that file has an
//! empty baseline, so every finding fails the check.

use std::process::{Command, Output};

fn check(args: &[&str], root: &std::path::Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_diggerbees"))
        .arg("check")
        .args(args)
        .current_dir(root)
        .output()
        .unwrap()
}

#[test]
fn this_tree_is_clean_against_its_committed_baseline() {
    let out = check(&["--lint-only"], env!("CARGO_MANIFEST_DIR").as_ref());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("analyze: 0 new finding(s)"), "{stdout}");
}

#[test]
fn a_root_without_a_baseline_fails_on_every_finding() {
    let root = std::env::temp_dir().join(format!("check-cli-{}", std::process::id()));
    let src = root.join("crates/serve/src");
    std::fs::create_dir_all(&src).unwrap();
    std::fs::write(
        src.join("pool.rs"),
        "pub fn run_job(slot: Option<u32>) -> u32 {\n\
         \x20   let r = std::panic::catch_unwind(|| 1);\n\
         \x20   slot.unwrap() + r.unwrap_or(0)\n\
         }\n",
    )
    .unwrap();
    let out = check(&["--lint-only", "--root", root.to_str().unwrap()], &root);
    std::fs::remove_dir_all(&root).ok();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!out.status.success(), "{stdout}");
    assert!(stdout.contains("[A1 panic-unwrap]"), "{stdout}");
    assert!(stdout.contains("[A6 unguarded-catch-unwind]"), "{stdout}");
}
