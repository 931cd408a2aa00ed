//! Workspace-level integration tests: the analyzer against this
//! repository's real source tree. Parser round-trip over every file,
//! a pinned call-graph golden for the serve worker pool, and the
//! repo-is-clean-versus-baseline gate the CI job relies on.

use std::path::{Path, PathBuf};

use db_analyze::analyses::Config;
use db_analyze::parser::parse_file;
use db_analyze::{analyze_tree, baseline, collect_rs_files, CallGraph};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("repo root")
}

fn build_graph(root: &Path) -> CallGraph {
    let files = collect_rs_files(root).expect("walk workspace");
    let mut parsed = Vec::new();
    for p in &files {
        let rel = p
            .strip_prefix(root)
            .expect("under root")
            .to_string_lossy()
            .replace('\\', "/");
        let text = std::fs::read_to_string(p).expect("read source");
        parsed.push(parse_file(&rel, &text).expect("parse source"));
    }
    CallGraph::build(parsed)
}

/// Every workspace source file lexes and parses; the recovered
/// function spans are structurally sound (in-bounds, non-overlapping
/// at the same nesting level, names non-empty); and a reparse is
/// byte-for-byte deterministic.
#[test]
fn parser_round_trips_every_workspace_file() {
    let root = repo_root();
    let files = collect_rs_files(&root).expect("walk workspace");
    assert!(
        files.len() > 100,
        "workspace walk looks too small: {} files",
        files.len()
    );
    let mut total_fns = 0usize;
    for p in &files {
        let rel = p
            .strip_prefix(&root)
            .expect("under root")
            .to_string_lossy()
            .replace('\\', "/");
        let text = std::fs::read_to_string(p).expect("read source");
        let pf = parse_file(&rel, &text).unwrap_or_else(|e| panic!("{rel}: {}", e.detail));
        let ntok = pf.lexed.tokens.len();
        for f in &pf.fns {
            assert!(!f.name.is_empty(), "{rel}: unnamed fn");
            assert!(
                f.body.start <= f.body.end && f.body.end <= ntok,
                "{rel}: fn {} body out of bounds",
                f.name
            );
        }
        let again = parse_file(&rel, &text).expect("reparse");
        assert_eq!(
            format!("{:?}", pf.fns),
            format!("{:?}", again.fns),
            "{rel}: parse is not deterministic"
        );
        total_fns += pf.fns.len();
    }
    assert!(
        total_fns > 1000,
        "function extraction looks too small: {total_fns} fns"
    );
}

/// Call-graph golden for `crates/serve/src/pool.rs`: pins the edge
/// count originating in the worker pool and the load-bearing edges of
/// its queue and team protocol. An intentional pool change that shifts these
/// updates the constants here — an accidental resolver regression
/// fails loudly.
#[test]
fn callgraph_golden_for_serve_pool() {
    let g = build_graph(&repo_root());
    const POOL: &str = "crates/serve/src/pool.rs";
    let pool_edges: usize = g
        .edges
        .iter()
        .filter(|(id, _)| g.nodes[*id].file == POOL)
        .map(|(_, es)| es.len())
        .sum();
    // 169 since spans drive the serve counters (previously 179): the
    // three terminal paths share `ServerInner::close` (11 edges, which
    // replaced `close_root`'s 6) and lost their own SLO, clock and
    // trace-id calls (-9), `finish_job` its breaker-gauge call (-1),
    // `submit` moved its ladder into `ServerInner::admit` (-4 there,
    // +1 in `admit`), `worker_loop` records steals through
    // `ServerInner::span` (-3), and the new `ServerInner::record` adds
    // its fold (+1). Name resolution now sends every `.record(..)`
    // call in this file to `ServerInner::record` (it sent them to
    // `BreakerMap::record` before). 166 since `finish_job` fires every
    // flight dump before the reply: `run_job`'s four `trigger` calls
    // moved into `finish_job`, which now has two (-3). 191 since an
    // idle worker can join a running search (+25): `help` (5; the
    // resolver sends `helper.run(..)` to `ServeHandle::run`),
    // `PoolCrew::offer` (2), `worker_loop -> help` and
    // `run_job -> has_idle_worker` (1 each), and two tests: the new
    // `a_helper_leaves_its_team_for_a_queued_request` (13) and the
    // batched-graph half of the scratch-gauge test (+3). 194 since a
    // `CsrGraph` is valid by construction (+3, all in `run_job`): it
    // calls `kernel::batches` (+1); its `.resolve(..)`, formerly
    // `resolve_valid`, now also resolves to `DeltaRegistry::resolve`
    // (+1); and `store.graph()`, which replaced `store.view()`,
    // resolves to `MappedStore::graph` (+1). `run_job -> execute_with`
    // replaced `run_job -> execute_valid`, and the helper test's
    // `ValidCsr::new` became `kernel::batches`. 195 since one
    // `Injector::strike` evaluates every fault check (+1, all in
    // `run_job`): `check_request` and `check_store` became two
    // `strike` calls, and the struck store load's byte now comes from
    // `Injector::corruption_seed`. 194 since a team helper searches the
    // owner's bitmaps and has no scratch of its own to charge: `help`
    // lost its `WorkerScratch::charge` call (-1), so the pinned edge
    // out of `help` is now its span's `ServerInner::record`. `as_str`
    // joined the method denylist with no change here: pool.rs calls no
    // `.as_str()` today, and one would no longer edge to
    // `Status::as_str`. 193 since the corpus cache hands out an
    // `Arc<CsrGraph>`: `run_job` no longer calls `store.graph()`, so its
    // edge to `MappedStore::graph` is gone (-1). 190 since the pool has
    // one EDF queue (-3): `worker_loop` lost its edges to `pick_victim`,
    // `steal_half`, `ServerInner::now_ns` and `ServerInner::span` (the
    // steal spans) and gained two to `release` (a tenant's queued and
    // queued-write counts), and `ServeHandle::flight_dropped` went with
    // its edge to `FlightRecorder::dropped`. The pinned edge
    // `worker_loop -> steal_half` became `ServeHandle::submit ->
    // edf_cmp`, the queue's sorted insert. 177 since a scrape renders
    // the instance registry alone (-13): `ServeHandle::prometheus`'s
    // edges to `render` and `global` became one to
    // `Registry::render_prometheus` (-1), and the pool test
    // `prometheus_scrape_merges_instance_and_global_series` (12 edges)
    // moved to tier-1 `serve_metrics`.
    assert_eq!(
        pool_edges, 177,
        "edges out of pool.rs fns changed; if the pool or the resolver \
         changed intentionally, update this golden"
    );
    for (from, to) in [
        ("worker_entry", "worker_loop"),
        ("worker_loop", "run_job"),
        ("ServeHandle::submit", "edf_cmp"),
        ("run_job", "execute_with"),
        ("run_job", "WorkerScratch::charge"),
        ("worker_loop", "help"),
        ("help", "ServerInner::record"),
    ] {
        assert!(
            g.has_edge(POOL, from, to),
            "expected call edge {from} -> {to} in {POOL}"
        );
    }
}

/// The committed `analyze-baseline.json` exactly matches what the
/// analyzer produces on this tree: no new findings (the CI gate) and
/// no stale entries (regenerate with
/// `diggerbees check --lint-only --write-baseline` whenever findings
/// legitimately change).
#[test]
fn repo_is_clean_against_committed_baseline() {
    let root = repo_root();
    let run = analyze_tree(&root, &Config::for_repo()).expect("analyze workspace");
    let text = std::fs::read_to_string(root.join("analyze-baseline.json")).expect("read baseline");
    let base = baseline::parse(&text).expect("parse baseline");
    let d = baseline::diff(&run.findings, &base);
    assert!(
        d.new.is_empty(),
        "new findings not in baseline:\n{}",
        d.new
            .iter()
            .map(|f| f.render())
            .collect::<Vec<_>>()
            .join("")
    );
    assert!(
        d.stale.is_empty(),
        "stale baseline entries (regenerate the baseline): {:?}",
        d.stale
    );
    assert_eq!(d.matched, base.len());
}
