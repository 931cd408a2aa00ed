//! The analyses (A1–A6) over the call graph.
//!
//! | id | analysis |
//! |----|----------|
//! | A1 | panic-reachability from serve/durability paths |
//! | A2 | atomic-ordering audit (per-field pairing)      |
//! | A3 | lock-order cycles (deadlock potential)         |
//! | A4 | blocking calls reachable from hot paths        |
//! | A5 | determinism taint into deterministic crates    |
//! | A6 | `catch_unwind` sites name their drop-guard     |

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};

use crate::callgraph::{CallGraph, FnId};
use crate::report::{sort_findings, Finding, Frame};

/// Root/scope configuration. File matching is by path prefix, so a
/// directory scope is written `crates/wal/src/` and a single file
/// `crates/serve/src/delta.rs`.
#[derive(Debug, Clone)]
pub struct Config {
    /// A1: files whose functions anchor the serve request path.
    pub serve_roots: Vec<String>,
    /// A1: files whose functions anchor the durability path.
    pub durability_roots: Vec<String>,
    /// A4: (file prefix, function name) hot-path roots.
    pub hot_roots: Vec<(String, String)>,
    /// A5: file prefixes that must stay deterministic, test code
    /// included.
    pub det_scopes: Vec<String>,
    /// A3: file prefixes whose lock sites enter the lock-order graph.
    pub lock_scopes: Vec<String>,
}

impl Config {
    /// The committed scope for this repository.
    pub fn for_repo() -> Config {
        Config {
            serve_roots: vec![
                "crates/serve/src/pool.rs".into(),
                "crates/serve/src/net.rs".into(),
                "crates/serve/src/exec.rs".into(),
                "crates/serve/src/request.rs".into(),
            ],
            durability_roots: vec![
                "crates/wal/src/".into(),
                "crates/serve/src/delta.rs".into(),
                "crates/store/src/".into(),
                "crates/delta/src/".into(),
            ],
            hot_roots: vec![
                ("crates/serve/src/pool.rs".into(), "worker_loop".into()),
                ("crates/core/src/sim.rs".into(), "step".into()),
                ("crates/core/src/sim.rs".into(), "step_working".into()),
                ("crates/core/src/sim.rs".into(), "step_idle_scan".into()),
                ("crates/core/src/sim.rs".into(), "step_intra_reserve".into()),
                ("crates/core/src/sim.rs".into(), "step_inter_reserve".into()),
            ],
            det_scopes: vec![
                "crates/gpu-sim/src/".into(),
                "crates/check/src/".into(),
                "crates/check/tests/".into(),
                "crates/core/src/sim.rs".into(),
            ],
            lock_scopes: vec![
                "crates/serve/src/".into(),
                "crates/wal/src/".into(),
                "crates/delta/src/".into(),
                "crates/store/src/".into(),
            ],
        }
    }
}

fn in_scope(file: &str, prefixes: &[String]) -> bool {
    prefixes.iter().any(|p| file.starts_with(p.as_str()))
}

/// Runs A1–A6, dedupes by fingerprint, sorts into report order.
pub fn run_all(g: &CallGraph, cfg: &Config) -> Vec<Finding> {
    let mut out = Vec::new();
    out.extend(a1_panic_reachability(g, cfg));
    out.extend(a2_atomic_ordering(g));
    out.extend(a3_lock_order(g, cfg));
    out.extend(a4_blocking_hot_path(g, cfg));
    out.extend(a5_determinism_taint(g, cfg));
    out.extend(a6_guarded_catch_unwind(g));
    let mut seen = HashSet::new();
    out.retain(|f| seen.insert(f.fingerprint()));
    sort_findings(&mut out);
    out
}

fn frames_of(g: &CallGraph, chain: &[(FnId, u32)]) -> Vec<Frame> {
    chain
        .iter()
        .map(|&(id, line)| {
            let n = &g.nodes[&id];
            Frame {
                file: n.file.clone(),
                function: n.display.clone(),
                line,
            }
        })
        .collect()
}

// --- A1: panic reachability ------------------------------------------

pub fn a1_panic_reachability(g: &CallGraph, cfg: &Config) -> Vec<Finding> {
    let mut out = Vec::new();
    for (class, prefixes) in [
        ("serve", &cfg.serve_roots),
        ("durability", &cfg.durability_roots),
    ] {
        let roots = g.select(|n| !n.is_test && in_scope(&n.file, prefixes));
        let reach = g.reach(&roots);
        let mut ids: Vec<FnId> = reach.keys().copied().collect();
        ids.sort_unstable();
        for id in ids {
            let n = &g.nodes[&id];
            if n.is_test {
                continue;
            }
            // One finding per (function, panic kind); first site is the
            // anchor, the count goes in the message.
            let mut by_kind: BTreeMap<&'static str, (u32, usize)> = BTreeMap::new();
            for p in &n.facts.panics {
                if p.escaped {
                    continue;
                }
                let e = by_kind.entry(p.kind.name()).or_insert((p.line, 0));
                e.1 += 1;
            }
            for (kname, (line, count)) in by_kind {
                let mut frames = frames_of(g, &g.chain(&reach, id));
                if let Some(last) = frames.last_mut() {
                    last.line = line;
                }
                let plural = if count > 1 {
                    format!(" ({count} sites in this function)")
                } else {
                    String::new()
                };
                out.push(Finding {
                    analysis: "A1",
                    kind: format!("panic-{kname}"),
                    file: n.file.clone(),
                    function: n.display.clone(),
                    line,
                    message: format!(
                        "{kname} can panic and is reachable from the {class} path{plural}"
                    ),
                    frames,
                    detail: format!("{class}:{kname}"),
                });
            }
        }
    }
    out
}

// --- A2: atomic-ordering audit ---------------------------------------

pub fn a2_atomic_ordering(g: &CallGraph) -> Vec<Finding> {
    struct Site {
        id: FnId,
        idx: usize,
    }
    let mut by_field: BTreeMap<String, Vec<Site>> = BTreeMap::new();
    let mut ids: Vec<FnId> = g.nodes.keys().copied().collect();
    ids.sort_unstable();
    for id in ids {
        let n = &g.nodes[&id];
        if n.is_test {
            continue;
        }
        for (idx, a) in n.facts.atomics.iter().enumerate() {
            if a.field == "?" {
                continue;
            }
            by_field
                .entry(a.field.clone())
                .or_default()
                .push(Site { id, idx });
        }
    }

    let mut out = Vec::new();
    for (field, sites) in &by_field {
        let get = |s: &Site| &g.nodes[&s.id].facts.atomics[s.idx];
        let has_release = sites.iter().any(|s| get(s).has_release());
        let has_acquire = sites.iter().any(|s| get(s).has_acquire());
        let protocol = has_release && has_acquire;
        // Evidence for field-level findings: every site of the field.
        let field_frames: Vec<Frame> = sites
            .iter()
            .map(|s| {
                let n = &g.nodes[&s.id];
                Frame {
                    file: n.file.clone(),
                    function: n.display.clone(),
                    line: get(s).line,
                }
            })
            .collect();

        for s in sites {
            let a = get(s);
            let n = &g.nodes[&s.id];
            if a.is_relaxed_only() && !a.ordering_ok {
                if protocol && !a.relaxed_ok {
                    out.push(Finding {
                        analysis: "A2",
                        kind: "relaxed-on-protocol-field".into(),
                        file: n.file.clone(),
                        function: n.display.clone(),
                        line: a.line,
                        message: format!(
                            "Relaxed access to `{field}`, but the field has paired \
                             Release/Acquire sites elsewhere — this access is outside \
                             the protocol"
                        ),
                        frames: field_frames.clone(),
                        detail: format!("{field}:{:?}", a.op),
                    });
                } else if !protocol && !a.relaxed_ok {
                    out.push(Finding {
                        analysis: "A2",
                        kind: "relaxed-unannotated".into(),
                        file: n.file.clone(),
                        function: n.display.clone(),
                        line: a.line,
                        message: format!(
                            "Relaxed access to `{field}` without a `relaxed-ok:` \
                             justification"
                        ),
                        frames: vec![Frame {
                            file: n.file.clone(),
                            function: n.display.clone(),
                            line: a.line,
                        }],
                        detail: format!("{field}:{:?}", a.op),
                    });
                }
            }
        }

        // Half-protocols: releases nobody acquires / acquires nobody
        // releases. RMW/CAS count on both sides, so only flag when the
        // imbalance is structural.
        if has_release && !has_acquire {
            let s = sites
                .iter()
                .find(|s| get(s).has_release())
                .expect("release site");
            let a = get(s);
            if !a.ordering_ok {
                let n = &g.nodes[&s.id];
                out.push(Finding {
                    analysis: "A2",
                    kind: "unpaired-release".into(),
                    file: n.file.clone(),
                    function: n.display.clone(),
                    line: a.line,
                    message: format!(
                        "`{field}` is written with Release ordering but no site \
                         reads it with Acquire — the release synchronizes with \
                         nothing"
                    ),
                    frames: field_frames.clone(),
                    detail: field.clone(),
                });
            }
        }
        if has_acquire && !has_release {
            let s = sites
                .iter()
                .find(|s| get(s).has_acquire())
                .expect("acquire site");
            let a = get(s);
            if !a.ordering_ok {
                let n = &g.nodes[&s.id];
                out.push(Finding {
                    analysis: "A2",
                    kind: "unpaired-acquire".into(),
                    file: n.file.clone(),
                    function: n.display.clone(),
                    line: a.line,
                    message: format!(
                        "`{field}` is read with Acquire ordering but no site writes \
                         it with Release — the acquire synchronizes with nothing"
                    ),
                    frames: field_frames.clone(),
                    detail: field.clone(),
                });
            }
        }
    }
    out
}

// --- A3: lock-order cycles -------------------------------------------

pub fn a3_lock_order(g: &CallGraph, cfg: &Config) -> Vec<Finding> {
    // Lock identity: (crate, receiver field). Transitive lock sets per
    // function by fixpoint, then "holds X, acquires Y" edges.
    type LockId = (String, String);
    let scoped = |id: &FnId| in_scope(&g.nodes[id].file, &cfg.lock_scopes);

    let mut direct: HashMap<FnId, Vec<(LockId, usize, u32)>> = HashMap::new();
    for (id, n) in &g.nodes {
        if n.is_test || !scoped(id) {
            continue;
        }
        // `self.lock()` (guard-returning helper on a wrapper type)
        // names the lock after the impl type, so two wrappers' helper
        // locks don't alias.
        let impl_ty = g.files[id.0].fns[id.1].impl_type.as_deref();
        let v: Vec<(LockId, usize, u32)> = n
            .facts
            .locks
            .iter()
            .filter(|l| !l.escaped && l.name != "?")
            .map(|l| {
                let name = if l.name == "self" {
                    impl_ty.unwrap_or("self").to_string()
                } else {
                    l.name.clone()
                };
                ((n.crate_name.clone(), name), l.pos, l.line)
            })
            .collect();
        if !v.is_empty() {
            direct.insert(*id, v);
        }
    }

    // locks_all: every lock a call into `f` may take, via fixpoint.
    let mut locks_all: HashMap<FnId, BTreeSet<LockId>> = HashMap::new();
    for (id, v) in &direct {
        locks_all.insert(*id, v.iter().map(|(l, _, _)| l.clone()).collect());
    }
    loop {
        let mut changed = false;
        let ids: Vec<FnId> = g.nodes.keys().copied().collect();
        for id in ids {
            let mut acc: BTreeSet<LockId> = locks_all.get(&id).cloned().unwrap_or_default();
            let before = acc.len();
            for e in g.edges.get(&id).into_iter().flatten() {
                if let Some(s) = locks_all.get(&e.to) {
                    acc.extend(s.iter().cloned());
                }
            }
            if acc.len() > before || (!acc.is_empty() && !locks_all.contains_key(&id)) {
                locks_all.insert(id, acc);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Edges: within each fn, an earlier lock held across a later lock
    // or across a call whose transitive set acquires more locks.
    let mut edges: BTreeMap<(LockId, LockId), (FnId, u32)> = BTreeMap::new();
    for (id, held) in &direct {
        for (h, hpos, _hline) in held {
            for (l2, pos2, line2) in held {
                if pos2 > hpos && l2 != h {
                    edges
                        .entry((h.clone(), l2.clone()))
                        .or_insert((*id, *line2));
                }
            }
            for e in g.edges.get(id).into_iter().flatten() {
                if e.pos > *hpos {
                    if let Some(callee_locks) = locks_all.get(&e.to) {
                        for l2 in callee_locks {
                            if l2 != h {
                                edges
                                    .entry((h.clone(), l2.clone()))
                                    .or_insert((*id, e.line));
                            }
                        }
                    }
                }
            }
            // Same-lock re-acquisition inside one fn is NOT an edge:
            // without guard-lifetime tracking it is indistinguishable
            // from the idiomatic phase pattern (lock, drop, re-lock),
            // which this workspace uses heavily (compaction phases).
        }
    }

    // Cycle detection over the lock graph.
    let mut adj: BTreeMap<&LockId, Vec<&LockId>> = BTreeMap::new();
    for (a, b) in edges.keys() {
        adj.entry(a).or_default().push(b);
    }
    let mut out = Vec::new();
    let mut reported: BTreeSet<Vec<LockId>> = BTreeSet::new();
    let nodes: Vec<&LockId> = adj.keys().copied().collect();
    for &start in &nodes {
        // DFS looking for a path back to `start`.
        let mut stack = vec![(start, vec![start.clone()])];
        let mut visited: BTreeSet<&LockId> = BTreeSet::new();
        while let Some((cur, path)) = stack.pop() {
            for &nxt in adj.get(cur).into_iter().flatten() {
                if nxt == start {
                    let mut cyc = path.clone();
                    let mut canon = cyc.clone();
                    canon.sort();
                    if reported.insert(canon) {
                        cyc.push(start.clone());
                        let names: Vec<String> =
                            cyc.iter().map(|(c, n)| format!("{c}::{n}")).collect();
                        let mut frames = Vec::new();
                        for w in cyc.windows(2) {
                            if let Some((fid, line)) = edges.get(&(w[0].clone(), w[1].clone())) {
                                let n = &g.nodes[fid];
                                frames.push(Frame {
                                    file: n.file.clone(),
                                    function: n.display.clone(),
                                    line: *line,
                                });
                            }
                        }
                        let anchor = frames.first().cloned().unwrap_or(Frame {
                            file: String::new(),
                            function: String::new(),
                            line: 0,
                        });
                        out.push(Finding {
                            analysis: "A3",
                            kind: "lock-cycle".into(),
                            file: anchor.file.clone(),
                            function: anchor.function.clone(),
                            line: anchor.line,
                            message: format!(
                                "lock-order cycle (deadlock potential): {}",
                                names.join(" -> ")
                            ),
                            frames,
                            detail: names.join(">"),
                        });
                    }
                } else if visited.insert(nxt) {
                    let mut p = path.clone();
                    p.push(nxt.clone());
                    stack.push((nxt, p));
                }
            }
        }
    }
    out
}

// --- A4: blocking calls in hot paths ---------------------------------

pub fn a4_blocking_hot_path(g: &CallGraph, cfg: &Config) -> Vec<Finding> {
    let roots = g.select(|n| {
        !n.is_test
            && cfg
                .hot_roots
                .iter()
                .any(|(p, f)| n.file.starts_with(p.as_str()) && n.name == *f)
    });
    let reach = g.reach(&roots);
    let mut ids: Vec<FnId> = reach.keys().copied().collect();
    ids.sort_unstable();
    let mut out = Vec::new();
    for id in ids {
        let n = &g.nodes[&id];
        for b in &n.facts.blocking {
            if b.escaped {
                continue;
            }
            let mut frames = frames_of(g, &g.chain(&reach, id));
            if let Some(last) = frames.last_mut() {
                last.line = b.line;
            }
            out.push(Finding {
                analysis: "A4",
                kind: "blocking-in-hot-path".into(),
                file: n.file.clone(),
                function: n.display.clone(),
                line: b.line,
                message: format!(
                    "blocking call `{}` is reachable from a hot-path root",
                    b.what
                ),
                frames,
                detail: b.what.clone(),
            });
        }
    }
    out
}

// --- A5: determinism taint -------------------------------------------

pub fn a5_determinism_taint(g: &CallGraph, cfg: &Config) -> Vec<Finding> {
    // A fn is a direct source if it contains an unescaped nondet site;
    // taint propagates caller-ward through call edges.
    let mut tainted: HashSet<FnId> = HashSet::new();
    let mut source_of: HashMap<FnId, (String, u32)> = HashMap::new();
    for (id, n) in &g.nodes {
        if let Some(s) = n.facts.nondet.iter().find(|s| !s.escaped) {
            tainted.insert(*id);
            source_of.insert(*id, (s.what.clone(), s.line));
        }
    }
    // Reverse propagation to a fixpoint.
    let mut rev: HashMap<FnId, Vec<FnId>> = HashMap::new();
    for (from, es) in &g.edges {
        for e in es {
            rev.entry(e.to).or_default().push(*from);
        }
    }
    let mut q: VecDeque<FnId> = tainted.iter().copied().collect();
    while let Some(cur) = q.pop_front() {
        for caller in rev.get(&cur).into_iter().flatten() {
            if tainted.insert(*caller) {
                q.push_back(*caller);
            }
        }
    }

    // Report at taint-entry points inside the deterministic scope.
    let det = |id: &FnId| in_scope(&g.nodes[id].file, &cfg.det_scopes);
    let mut ids: Vec<FnId> = g.nodes.keys().copied().collect();
    ids.sort_unstable();
    let mut out = Vec::new();
    for id in ids {
        let n = &g.nodes[&id];
        if !det(&id) || !tainted.contains(&id) {
            continue;
        }
        let direct = source_of.contains_key(&id);
        let boundary_call = g
            .edges
            .get(&id)
            .into_iter()
            .flatten()
            .any(|e| tainted.contains(&e.to) && !det(&e.to));
        if !direct && !boundary_call {
            continue;
        }
        // Forward BFS through tainted fns to a direct source, for the
        // evidence chain.
        let mut parent: HashMap<FnId, (FnId, u32)> = HashMap::new();
        let mut bq = VecDeque::new();
        bq.push_back(id);
        let mut seen = HashSet::new();
        seen.insert(id);
        let mut hit: Option<FnId> = if direct { Some(id) } else { None };
        while hit.is_none() {
            let Some(cur) = bq.pop_front() else { break };
            for e in g.edges.get(&cur).into_iter().flatten() {
                if tainted.contains(&e.to) && seen.insert(e.to) {
                    parent.insert(e.to, (cur, e.line));
                    if source_of.contains_key(&e.to) {
                        hit = Some(e.to);
                        break;
                    }
                    bq.push_back(e.to);
                }
            }
        }
        let Some(src_fn) = hit else { continue };
        let (what, src_line) = source_of[&src_fn].clone();
        // Reconstruct id → src_fn chain.
        let mut rev_frames = Vec::new();
        let mut cur = src_fn;
        let mut line = src_line;
        loop {
            let n2 = &g.nodes[&cur];
            rev_frames.push(Frame {
                file: n2.file.clone(),
                function: n2.display.clone(),
                line,
            });
            match parent.get(&cur) {
                Some((prev, l)) => {
                    line = *l;
                    cur = *prev;
                }
                None => break,
            }
        }
        rev_frames.reverse();
        out.push(Finding {
            analysis: "A5",
            kind: "nondet-taint".into(),
            file: n.file.clone(),
            function: n.display.clone(),
            line: rev_frames.first().map(|f| f.line).unwrap_or(n.line),
            message: format!("deterministic-scope function reaches nondeterminism source `{what}`"),
            frames: rev_frames,
            detail: what,
        });
    }
    out
}

// --- A6: catch_unwind guard pairing --------------------------------

pub fn a6_guarded_catch_unwind(g: &CallGraph) -> Vec<Finding> {
    let mut ids: Vec<FnId> = g.nodes.keys().copied().collect();
    ids.sort_unstable();
    let mut out = Vec::new();
    for id in ids {
        let n = &g.nodes[&id];
        if n.is_test {
            continue;
        }
        for c in n.facts.catch_unwinds.iter().filter(|c| !c.guarded) {
            out.push(Finding {
                analysis: "A6",
                kind: "unguarded-catch-unwind".into(),
                file: n.file.clone(),
                function: n.display.clone(),
                line: c.line,
                message: "catch_unwind must name the drop-guard that restores shared \
                          state on unwind (`// guard: <which>`)"
                    .into(),
                frames: vec![Frame {
                    file: n.file.clone(),
                    function: n.display.clone(),
                    line: c.line,
                }],
                detail: "catch_unwind".into(),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_file;

    fn graph(files: &[(&str, &str)]) -> CallGraph {
        let parsed = files
            .iter()
            .map(|(p, s)| parse_file(p, s).expect("parse"))
            .collect();
        CallGraph::build(parsed)
    }

    fn cfg() -> Config {
        Config {
            serve_roots: vec!["crates/s/src/serve.rs".into()],
            durability_roots: vec!["crates/w/src/".into()],
            hot_roots: vec![("crates/s/src/serve.rs".into(), "worker_loop".into())],
            det_scopes: vec!["crates/d/src/".into()],
            lock_scopes: vec!["crates/s/src/".into(), "crates/w/src/".into()],
        }
    }

    #[test]
    fn a1_reports_transitive_unwrap_with_chain() {
        let g = graph(&[
            (
                "crates/s/src/serve.rs",
                "pub fn handle() { util::decode(); }\n",
            ),
            (
                "crates/s/src/util.rs",
                "pub mod util { pub fn decode() { parse_header(); }\n\
                 pub fn parse_header() { let x = s.find(c).unwrap(); } }\n",
            ),
        ]);
        let fs = a1_panic_reachability(&g, &cfg());
        let f = fs
            .iter()
            .find(|f| f.function == "parse_header")
            .expect("finding");
        assert_eq!(f.kind, "panic-unwrap");
        let chain: Vec<&str> = f.frames.iter().map(|fr| fr.function.as_str()).collect();
        assert_eq!(chain, vec!["handle", "decode", "parse_header"]);
    }

    #[test]
    fn a1_escaped_sites_are_silent() {
        let g = graph(&[(
            "crates/s/src/serve.rs",
            "pub fn handle() { let x = v.first().unwrap(); // unwrap-ok: nonempty by construction\n}\n",
        )]);
        assert!(a1_panic_reachability(&g, &cfg()).is_empty());
    }

    #[test]
    fn a2_relaxed_on_protocol_field_is_flagged() {
        let g = graph(&[
            (
                "crates/a/src/lib.rs",
                "impl Ring { fn push(&self) { self.head.store(1, Ordering::Release); } }\n",
            ),
            (
                "crates/b/src/lib.rs",
                "impl Scan { fn probe(&self) -> u64 { self.head.load(Ordering::Relaxed) }\n\
                 fn sync(&self) -> u64 { self.head.load(Ordering::Acquire) } }\n",
            ),
        ]);
        let fs = a2_atomic_ordering(&g);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert_eq!(fs[0].kind, "relaxed-on-protocol-field");
        assert_eq!(fs[0].function, "Scan::probe");
        assert!(
            fs[0].frames.len() >= 3,
            "site list evidence: {:?}",
            fs[0].frames
        );
    }

    #[test]
    fn a2_counter_needs_relaxed_ok() {
        let g = graph(&[(
            "crates/a/src/lib.rs",
            "fn bump(&self) { self.hits.fetch_add(1, Ordering::Relaxed); }\n\
             fn bump2(&self) { self.oks.fetch_add(1, Ordering::Relaxed); // relaxed-ok: counter\n}\n",
        )]);
        let fs = a2_atomic_ordering(&g);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert_eq!(fs[0].kind, "relaxed-unannotated");
        assert!(fs[0].message.contains("hits"));
    }

    #[test]
    fn a2_unpaired_release_and_acquire() {
        let g = graph(&[(
            "crates/a/src/lib.rs",
            "fn set(&self) { self.flag.store(true, Ordering::Release); }\n\
             fn peek(&self) -> bool { self.gate.load(Ordering::Acquire) }\n",
        )]);
        let kinds: Vec<String> = a2_atomic_ordering(&g)
            .iter()
            .map(|f| f.kind.clone())
            .collect();
        assert!(kinds.contains(&"unpaired-release".to_string()), "{kinds:?}");
        assert!(kinds.contains(&"unpaired-acquire".to_string()), "{kinds:?}");
    }

    #[test]
    fn a3_cross_function_cycle_detected() {
        let g = graph(&[(
            "crates/s/src/locks.rs",
            "fn a(&self) { let g = self.m1.lock(); self.b_helper(); }\n\
             impl T { fn b_helper(&self) { let g = self.m2.lock(); } }\n\
             fn c(&self) { let g = self.m2.lock(); self.d_helper(); }\n\
             impl T { fn d_helper(&self) { let g = self.m1.lock(); } }\n",
        )]);
        let fs = a3_lock_order(&g, &cfg());
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert!(fs[0].message.contains("m1"));
        assert!(fs[0].message.contains("m2"));
        assert_eq!(fs[0].frames.len(), 2);
    }

    #[test]
    fn a3_consistent_order_is_clean() {
        let g = graph(&[(
            "crates/s/src/locks.rs",
            "fn a(&self) { let g1 = self.m1.lock(); let g2 = self.m2.lock(); }\n\
             fn b(&self) { let g1 = self.m1.lock(); let g2 = self.m2.lock(); }\n",
        )]);
        assert!(a3_lock_order(&g, &cfg()).is_empty());
    }

    #[test]
    fn a3_sequential_relock_is_not_a_cycle() {
        // Lock → drop → re-lock of the same mutex is the workspace's
        // phase idiom; without guard-lifetime tracking A3 must not
        // call it a deadlock.
        let g = graph(&[(
            "crates/s/src/locks.rs",
            "fn a(&self) { { let g1 = self.m1.lock(); } let g2 = self.m1.lock(); }\n",
        )]);
        assert!(a3_lock_order(&g, &cfg()).is_empty());
    }

    #[test]
    fn a4_blocking_reachable_from_worker_loop() {
        let g = graph(&[
            (
                "crates/s/src/serve.rs",
                "fn worker_loop(&self) { self.drain(); }\nimpl P { fn drain(&self) { flush_to_disk(); } }\n",
            ),
            (
                "crates/s/src/io.rs",
                "pub fn flush_to_disk() { std::fs::write(p, b).ok(); }\n",
            ),
        ]);
        let fs = a4_blocking_hot_path(&g, &cfg());
        assert_eq!(fs.len(), 1, "{fs:?}");
        let chain: Vec<&str> = fs[0].frames.iter().map(|f| f.function.as_str()).collect();
        assert_eq!(chain, vec!["worker_loop", "P::drain", "flush_to_disk"]);
    }

    #[test]
    fn a5_taint_reaches_det_scope_through_helper() {
        let g = graph(&[
            ("crates/d/src/sim.rs", "pub fn step() { util::stamp(); }\n"),
            (
                "crates/u/src/lib.rs",
                "pub mod util { pub fn stamp() -> u64 { now_ns() }\n\
                 pub fn now_ns() -> u64 { Instant::now().elapsed().as_nanos() as u64 } }\n",
            ),
        ]);
        let fs = a5_determinism_taint(&g, &cfg());
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert_eq!(fs[0].function, "step");
        let chain: Vec<&str> = fs[0].frames.iter().map(|f| f.function.as_str()).collect();
        assert_eq!(chain, vec!["step", "stamp", "now_ns"]);
        assert!(fs[0].message.contains("Instant::now"));
    }

    #[test]
    fn a5_annotated_source_is_clean() {
        let g = graph(&[(
            "crates/d/src/sim.rs",
            "pub fn step() { let t = Instant::now(); // nondet-ok: profiling only\n}\n",
        )]);
        assert!(a5_determinism_taint(&g, &cfg()).is_empty());
    }
}
