//! db-analyze: offline static analysis for the DiggerBees workspace.
//!
//! A lightweight Rust lexer ([`lexer`]) and item/block parser
//! ([`parser`]) produce per-file function lists; [`facts`] extracts
//! per-function observations (call sites, panic sites, atomic sites,
//! lock acquisitions, blocking I/O, nondeterminism sources);
//! [`callgraph`] links them into a workspace-wide function-level call
//! graph; [`analyses`] runs five interprocedural checks (A1
//! panic-reachability, A2 atomic-ordering audit, A3 lock-order cycles,
//! A4 blocking-in-hot-path, A5 determinism taint) and one per-site
//! check (A6 guarded `catch_unwind`); [`report`], [`baseline`] and
//! [`sarif`] turn findings into human-readable text, the committed
//! `analyze-baseline.json` gate, and SARIF 2.1.0 for CI consumers.
//!
//! The analyzer has no rustc dependency: it parses the source tree
//! directly, which keeps it runnable offline as the static pass of
//! `diggerbees check` and fast enough for every CI run. The cost is
//! name-based call resolution — see `callgraph` for the
//! precision/soundness trade-offs.

pub mod analyses;
pub mod baseline;
pub mod callgraph;
pub mod facts;
pub mod lexer;
pub mod parser;
pub mod report;
pub mod sarif;

use std::fs;
use std::path::{Path, PathBuf};

pub use analyses::{run_all, Config};
pub use callgraph::CallGraph;
pub use report::Finding;

/// One analysis run over a source tree.
#[derive(Debug)]
pub struct AnalysisRun {
    pub findings: Vec<Finding>,
    pub files: usize,
    pub fns: usize,
    pub edges: usize,
}

/// Collects the workspace `.rs` files the analyzer covers: `src/`,
/// every `crates/*/src/`, and the model-checker tests in
/// `crates/check/tests/` (determinism-critical, so A5 covers them) under
/// `root`, sorted for determinism.
pub fn collect_rs_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    for dir in ["src", "crates/check/tests"] {
        let dir = root.join(dir);
        if dir.is_dir() {
            walk_rs(&dir, &mut out)?;
        }
    }
    let crates = root.join("crates");
    if crates.is_dir() {
        let mut dirs: Vec<PathBuf> = fs::read_dir(&crates)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.is_dir())
            .collect();
        dirs.sort();
        for d in dirs {
            let src = d.join("src");
            if src.is_dir() {
                walk_rs(&src, &mut out)?;
            }
        }
    }
    out.sort();
    Ok(out)
}

fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for p in entries {
        if p.is_dir() {
            walk_rs(&p, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
    Ok(())
}

/// Parses and analyzes the workspace rooted at `root` with `cfg`.
/// Fails on I/O errors or any file the parser cannot handle.
pub fn analyze_tree(root: &Path, cfg: &Config) -> Result<AnalysisRun, String> {
    let files = collect_rs_files(root).map_err(|e| format!("walking {}: {e}", root.display()))?;
    let mut sources = Vec::with_capacity(files.len());
    for p in &files {
        let rel = p
            .strip_prefix(root)
            .unwrap_or(p)
            .to_string_lossy()
            .replace('\\', "/");
        let text = fs::read_to_string(p).map_err(|e| format!("reading {}: {e}", p.display()))?;
        sources.push((rel, text));
    }
    let refs: Vec<(&str, &str)> = sources
        .iter()
        .map(|(p, t)| (p.as_str(), t.as_str()))
        .collect();
    analyze_sources(&refs, cfg)
}

/// Parses and analyzes an in-memory source set (used by the seeded
/// self-tests and fixtures). Paths should be repo-relative.
pub fn analyze_sources(sources: &[(&str, &str)], cfg: &Config) -> Result<AnalysisRun, String> {
    let mut parsed = Vec::with_capacity(sources.len());
    for (path, text) in sources {
        let pf = parser::parse_file(path, text).map_err(|e| format!("{}: {}", e.file, e.detail))?;
        parsed.push(pf);
    }
    let g = CallGraph::build(parsed);
    let findings = run_all(&g, cfg);
    Ok(AnalysisRun {
        files: g.files.len(),
        fns: g.nodes.len(),
        edges: g.edge_count(),
        findings,
    })
}

/// Renders a run's findings as the human-readable report body.
pub fn render_report(findings: &[Finding]) -> String {
    let mut s = String::new();
    for f in findings {
        s.push_str(&f.render());
    }
    s
}
