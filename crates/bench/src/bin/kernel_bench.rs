//! Stand-alone timing of the served traversal kernel.
//!
//! Runs `db_core::kernel::search` from vertex 0 with no target (a full
//! reach) on each graph, `--runs` times on one thread, and reports the
//! median wall time, whether the graph ran batched, by sweeps
//! (`kernel::batches`, with the far-arc share that decided it), and
//! MTEPS over the arcs the search scanned. Vertex 0 is the sweep's best
//! case, as every id lies ahead of it, and a served root is anywhere, so
//! it also times `--runs` full searches from each of 4 seeded random
//! roots (`root_median_us`). On every batched graph it also times
//! `db_core::kernel::team_search` as a two-member team, whose helper is
//! a parked thread (`ParkedHelper`) that joins each search when the
//! owner offers it (`team_median_us`, `team_min_us`, and the searches
//! it joined), the same random roots as a team
//! (`team_root_median_us`), and then 16 reaches from vertex 0 to
//! seeded random targets, lone and as a team (`reach_median_us`,
//! `team_reach_median_us`): a served reach stops at its target, and a
//! full search never tests one. Every run's visited count and every
//! reach flag, lone or team, is checked against the reference BFS
//! (`reachable_set`) from that run's root; a mismatch fails the run.
//!
//! Graph keys are serve corpus keys (`grid:W:H`, `path:N`, suite names
//! such as `google` or `delaunay`) plus `social:N`, the social generator
//! the benchmark ledger serves, at seed [`SOCIAL_SEED`].
//!
//! Writes one JSON line (default `BENCH_kernel.json`), validated against
//! `db_bench::schema::validate_kernel_line` before writing.
//!
//! ```text
//! kernel_bench [--graphs k1,k2,...] [--runs N] [--out FILE]
//! ```

use db_bench::schema::{validate_kernel_line, KERNEL_SCHEMA_VERSION};
use db_core::kernel::{batches, search, team_search, ParkedHelper, Scratch, Search};
use db_core::CancelToken;
use db_graph::traversal::reachable_set;
use db_graph::CsrGraph;
use db_trace::json::Value;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Instant;

/// Seed of the `social:N` graphs, and of the reach targets and random
/// roots.
const SOCIAL_SEED: u64 = 1;

struct Args {
    graphs: Vec<String>,
    runs: usize,
    out: String,
}

fn parse_args() -> Args {
    let mut a = Args {
        graphs: [
            "social:1000000",
            "social:5000000",
            "google",
            "rgg_l",
            "grid:1000:1000",
            "path:1000000",
            "delaunay",
        ]
        .map(String::from)
        .to_vec(),
        runs: 5,
        out: "BENCH_kernel.json".into(),
    };
    let mut it = std::env::args().skip(1);
    let die = |msg: String| -> ! {
        eprintln!("kernel_bench: {msg}");
        eprintln!("usage: kernel_bench [--graphs k1,k2,...] [--runs N] [--out FILE]");
        std::process::exit(2);
    };
    while let Some(flag) = it.next() {
        let mut val = |name: &str| -> String {
            it.next()
                .unwrap_or_else(|| die(format!("missing value for {name}")))
        };
        match flag.as_str() {
            "--graphs" => a.graphs = val("--graphs").split(',').map(str::to_string).collect(),
            "--runs" => {
                a.runs = val("--runs")
                    .parse()
                    .ok()
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| die("bad --runs".into()))
            }
            "--out" => a.out = val("--out"),
            other => die(format!("unknown flag '{other}'")),
        }
    }
    if a.graphs.is_empty() {
        die("need at least one graph".into());
    }
    a
}

/// Builds a graph key: `social:N` from the social generator, anything
/// else as a serve corpus key.
fn build(key: &str) -> Result<CsrGraph, String> {
    match key.strip_prefix("social:") {
        Some(n) => n
            .parse::<u32>()
            .ok()
            .filter(|&n| n > 0)
            .map(|n| db_gen::social::social(n, SOCIAL_SEED))
            .ok_or_else(|| format!("bad social key '{key}' (want social:N)")),
        None => db_serve::corpus::build_graph(key),
    }
}

/// Times `runs` searches, the `i`th by `run(i)`, and checks each answer
/// with `check(i, answer)`, which describes a wrong one; returns the
/// sorted wall times in microseconds and whether every answer was right.
fn time_runs(
    key: &str,
    what: &str,
    runs: usize,
    mut run: impl FnMut(usize) -> Search,
    check: impl Fn(usize, Search) -> Result<(), String>,
) -> (Vec<f64>, bool) {
    let mut ok = true;
    let mut times_us = Vec::with_capacity(runs);
    for i in 0..runs {
        let t = Instant::now();
        let found = run(i);
        times_us.push(t.elapsed().as_secs_f64() * 1e6);
        if let Err(e) = check(i, found) {
            eprintln!("kernel_bench: {key} ({what}): {e}");
            ok = false;
        }
    }
    times_us.sort_by(f64::total_cmp);
    (times_us, ok)
}

/// Checks a full search from `root` against the reference count `want`.
fn counted(found: Search, root: u32, want: u64) -> Result<(), String> {
    if found.completed && found.visited == want {
        return Ok(());
    }
    Err(format!(
        "from {root}: visited {} (completed {}), reference {want}",
        found.visited, found.completed
    ))
}

fn main() {
    let a = parse_args();
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let mut results = Vec::new();
    let mut ok = true;
    let mut scratch = Scratch::default();
    let helper = ParkedHelper::spawn();
    for key in &a.graphs {
        let t0 = Instant::now();
        let shared = Arc::new(build(key).unwrap_or_else(|e| {
            eprintln!("kernel_bench: {e}");
            std::process::exit(2);
        }));
        let build_s = t0.elapsed().as_secs_f64();
        let g: &CsrGraph = &shared;
        let far_share = g.far_arcs() as f64 / g.num_arcs().max(1) as f64;
        let batched = batches(g);
        let truth = reachable_set(g, 0);
        let want = truth.iter().filter(|&&r| r).count() as u64;
        // Arcs a full search scans: the rows of every vertex it marks.
        let scanned: u64 = (0..g.num_vertices() as u32)
            .filter(|&v| truth[v as usize])
            .map(|v| g.degree(v) as u64)
            .sum();
        let full = |_: usize, found: Search| counted(found, 0, want);
        let (times_us, solo_ok) = time_runs(
            key,
            "solo",
            a.runs,
            |_| search(g, 0, None, &CancelToken::new(), &mut scratch),
            full,
        );
        ok &= solo_ok;
        let median_us = times_us[times_us.len() / 2];
        let mteps = scanned as f64 / median_us.max(1e-3);
        eprintln!(
            "{key}: n {}, {} arcs, far share {:.3}, batched {}, median {:.1} ms \
             (min {:.1}), {mteps:.1} MTEPS, {want} visited [built in {build_s:.1} s]",
            g.num_vertices(),
            g.num_arcs(),
            far_share,
            batched,
            median_us / 1e3,
            times_us[0] / 1e3,
        );
        // The same seeded targets and roots on every invocation, so two
        // builds time the same searches; the targets come first, so a
        // build that draws no roots times the same reaches.
        let mut rng = SmallRng::seed_from_u64(SOCIAL_SEED);
        let mut draw = || rng.gen_range(0..g.num_vertices() as u32);
        let targets: Vec<u32> = (0..16).map(|_| draw()).collect();
        let roots: Vec<(u32, u64)> = (0..4)
            .map(|_| {
                let r = draw();
                (r, reachable_set(g, r).iter().filter(|&&x| x).count() as u64)
            })
            .collect();
        let rooted = |i: usize| roots[i % roots.len()];
        let from_root = |i: usize, found: Search| {
            let (r, want) = rooted(i);
            counted(found, r, want)
        };
        let (root_us, root_ok) = time_runs(
            key,
            "random roots",
            roots.len() * a.runs,
            |i| search(g, rooted(i).0, None, &CancelToken::new(), &mut scratch),
            from_root,
        );
        ok &= root_ok;
        let root_median_us = root_us[root_us.len() / 2];
        eprintln!(
            "{key}: {} random roots, median {:.1} ms (min {:.1})",
            roots.len(),
            root_median_us / 1e3,
            root_us[0] / 1e3,
        );
        let mut row = vec![
            ("graph".into(), Value::str(key)),
            ("n".into(), Value::u64(g.num_vertices() as u64)),
            ("arcs".into(), Value::u64(g.num_arcs() as u64)),
            ("far_share".into(), Value::Num(far_share)),
            ("batched".into(), Value::Bool(batched)),
            ("visited".into(), Value::u64(want)),
            ("median_us".into(), Value::Num(median_us)),
            ("min_us".into(), Value::Num(times_us[0])),
            ("mteps".into(), Value::Num(mteps)),
            ("root_median_us".into(), Value::Num(root_median_us)),
        ];
        if batched {
            let joined = helper.joins();
            let (team_us, team_ok) = time_runs(
                key,
                "team",
                a.runs,
                |_| team_search(&shared, 0, None, &CancelToken::new(), &mut scratch, &helper),
                full,
            );
            ok &= team_ok;
            let joins = helper.joins() - joined;
            let team_median_us = team_us[team_us.len() / 2];
            eprintln!(
                "{key}: team median {:.1} ms (min {:.1}), {:.2}x the lone search, \
                 helper joined {joins} of {} runs",
                team_median_us / 1e3,
                team_us[0] / 1e3,
                median_us / team_median_us,
                a.runs,
            );
            let (team_root_us, team_root_ok) = time_runs(
                key,
                "team random roots",
                roots.len() * a.runs,
                |i| {
                    team_search(
                        &shared,
                        rooted(i).0,
                        None,
                        &CancelToken::new(),
                        &mut scratch,
                        &helper,
                    )
                },
                from_root,
            );
            ok &= team_root_ok;
            let team_root_median_us = team_root_us[team_root_us.len() / 2];
            eprintln!(
                "{key}: {} random roots as a team, median {:.1} ms (min {:.1})",
                roots.len(),
                team_root_median_us / 1e3,
                team_root_us[0] / 1e3,
            );
            let flag = |i: usize, found: Search| {
                let t = targets[i];
                if found.completed && found.claimed == truth[t as usize] {
                    return Ok(());
                }
                Err(format!(
                    "reach to {t}: claimed {} (completed {}), reference {}",
                    found.claimed, found.completed, truth[t as usize]
                ))
            };
            let reach = |i: usize| Some(targets[i]);
            let (reach_us, reach_ok) = time_runs(
                key,
                "reach",
                targets.len(),
                |i| search(g, 0, reach(i), &CancelToken::new(), &mut scratch),
                flag,
            );
            let (team_reach_us, team_reach_ok) = time_runs(
                key,
                "team reach",
                targets.len(),
                |i| {
                    team_search(
                        &shared,
                        0,
                        reach(i),
                        &CancelToken::new(),
                        &mut scratch,
                        &helper,
                    )
                },
                flag,
            );
            ok &= reach_ok && team_reach_ok;
            let (reach_median_us, team_reach_median_us) = (
                reach_us[reach_us.len() / 2],
                team_reach_us[team_reach_us.len() / 2],
            );
            let reachable = targets.iter().filter(|&&t| truth[t as usize]).count();
            eprintln!(
                "{key}: {} reaches to random targets ({reachable} reachable), median \
                 {:.2} ms lone, {:.2} ms as a team",
                targets.len(),
                reach_median_us / 1e3,
                team_reach_median_us / 1e3,
            );
            row.extend([
                ("team_median_us".into(), Value::Num(team_median_us)),
                ("team_min_us".into(), Value::Num(team_us[0])),
                ("team_joins".into(), Value::u64(joins)),
                (
                    "team_root_median_us".into(),
                    Value::Num(team_root_median_us),
                ),
                ("reach_median_us".into(), Value::Num(reach_median_us)),
                (
                    "team_reach_median_us".into(),
                    Value::Num(team_reach_median_us),
                ),
            ]);
        }
        results.push(Value::Obj(row));
    }
    let doc = Value::Obj(vec![
        ("schema_version".into(), Value::u64(KERNEL_SCHEMA_VERSION)),
        ("bench".into(), Value::str("kernel")),
        ("nproc".into(), Value::u64(nproc as u64)),
        ("runs".into(), Value::u64(a.runs as u64)),
        ("results".into(), Value::Arr(results)),
        ("visited_ok".into(), Value::Bool(ok)),
    ]);
    if let Err(e) = validate_kernel_line(&doc) {
        eprintln!("kernel_bench: BUG — emitted line violates its own schema: {e}");
        std::process::exit(1);
    }
    if let Err(e) = std::fs::write(&a.out, doc.to_json() + "\n") {
        eprintln!("kernel_bench: cannot write {}: {e}", a.out);
        std::process::exit(2);
    }
    if !ok {
        eprintln!("kernel_bench: FAILED — answers differ from the reference");
        std::process::exit(1);
    }
    eprintln!(
        "kernel_bench: OK ({nproc} cores) — report written to {}",
        a.out
    );
}
