//! `diggerbees <graph> --method native` runs the one native engine at
//! the block geometry it is given: an explicit `--warps 8` is honoured,
//! not mistaken for the simulator's default. `lockfree` is not a method.

use diggerbees::gen::Suite;
use diggerbees::graph::traversal::reachable_set;
use std::process::{Command, Output};

fn diggerbees(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_diggerbees"))
        .args(args)
        .output()
        .unwrap()
}

#[test]
fn native_runs_the_given_geometry_and_visits_the_reachable_set() {
    let out = diggerbees(&[
        "road_s", "--method", "native", "--blocks", "1", "--warps", "8", "--source", "0",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    let g = Suite::by_name("road_s").expect("known graph").build();
    let reachable = reachable_set(&g, 0).iter().filter(|&&v| v).count();
    let line = stdout
        .lines()
        .find(|l| l.starts_with("root 0:"))
        .unwrap_or_else(|| panic!("no run line: {stdout}"));
    assert!(line.contains("1x8 warps"), "{line}");
    assert!(line.contains(&format!(" {reachable} visited")), "{line}");
}

#[test]
fn lockfree_is_not_a_method() {
    let out = diggerbees(&["road_s", "--method", "lockfree", "--source", "0"]);
    assert!(
        !out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
}
