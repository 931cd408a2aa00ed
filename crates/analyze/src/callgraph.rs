//! Workspace-wide function-level call graph.
//!
//! Resolution is name-based (no type information), tuned to keep the
//! graph useful rather than complete:
//!
//! - **Path calls** (`a::b::f(…)`) resolve by matching the written
//!   trailing segments against each candidate's crate, module path and
//!   impl type, preferring the most local match (same module, then
//!   same crate, then anywhere in the workspace).
//! - **Method calls** (`x.f(…)`) resolve only when unambiguous
//!   enough: candidates must be inherent-impl functions, same-crate
//!   candidates shadow cross-crate ones, trait-conventional names are
//!   dropped entirely, and a fan-out cap discards methods whose name
//!   is too common to attribute.
//!
//! The graph errs toward over-approximation for path calls (soundness
//! for reachability analyses) and under-approximation for ambiguous
//! method names (precision — a `len` call edge to every `len` in the
//! workspace would drown every analysis in noise).

use std::collections::{HashMap, VecDeque};

use crate::facts::{extract, FnFacts};
use crate::parser::ParsedFile;

/// Global function id: (file index, fn index within the file).
pub type FnId = (usize, usize);

/// Method names too trait-conventional to attribute by name alone.
const METHOD_DENYLIST: &[&str] = &[
    "fmt",
    "clone",
    "eq",
    "ne",
    "cmp",
    "partial_cmp",
    "hash",
    "drop",
    "default",
    "from",
    "into",
    "try_from",
    "try_into",
    "next",
    "deref",
    "deref_mut",
    "to_string",
    "as_ref",
    "as_mut",
    "len",
    "is_empty",
    "iter",
    "iter_mut",
    "get",
    "insert",
    "remove",
    "push",
    "pop",
    "contains",
    "clear",
    "new",
    "with_capacity",
    "extend",
    "write",
    "read",
    "flush",
    "lock",
    "join",
    "send",
    "recv",
    "clone_from",
    "borrow",
    "borrow_mut",
    "index",
];

/// Maximum candidate fan-out for a method call before we drop it as
/// unresolvable.
const METHOD_AMBIGUITY_CAP: usize = 6;

/// One function known to the graph.
#[derive(Debug)]
pub struct FnNode {
    pub id: FnId,
    /// `crates/serve/src/pool.rs`-style path.
    pub file: String,
    pub crate_name: String,
    /// `Type::name` or `name`.
    pub display: String,
    pub name: String,
    pub line: u32,
    pub is_test: bool,
    pub facts: FnFacts,
}

/// A resolved call edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    pub to: FnId,
    pub line: u32,
    /// Position of the call in the caller's filtered body stream.
    pub pos: usize,
}

#[derive(Debug)]
pub struct CallGraph {
    pub files: Vec<ParsedFile>,
    pub nodes: HashMap<FnId, FnNode>,
    pub edges: HashMap<FnId, Vec<Edge>>,
    /// name → all fns with that bare name.
    by_name: HashMap<String, Vec<FnId>>,
}

impl CallGraph {
    /// Builds the graph over already-parsed files.
    pub fn build(files: Vec<ParsedFile>) -> CallGraph {
        let mut nodes = HashMap::new();
        let mut by_name: HashMap<String, Vec<FnId>> = HashMap::new();
        for (fidx, pf) in files.iter().enumerate() {
            for (i, f) in pf.fns.iter().enumerate() {
                let id = (fidx, i);
                by_name.entry(f.name.clone()).or_default().push(id);
                nodes.insert(
                    id,
                    FnNode {
                        id,
                        file: pf.file.clone(),
                        crate_name: pf.crate_name.clone(),
                        display: f.display_name(),
                        name: f.name.clone(),
                        line: f.line,
                        is_test: f.is_test,
                        facts: extract(pf, i),
                    },
                );
            }
        }
        let mut g = CallGraph {
            files,
            nodes,
            edges: HashMap::new(),
            by_name,
        };
        g.resolve_edges();
        g
    }

    fn resolve_edges(&mut self) {
        let ids: Vec<FnId> = self.nodes.keys().copied().collect();
        for id in ids {
            let (calls, crate_name, file, module_path, caller_impl) = {
                let n = &self.nodes[&id];
                let pf = &self.files[id.0];
                (
                    n.facts.calls.clone(),
                    n.crate_name.clone(),
                    n.file.clone(),
                    pf.fns[id.1].module_path.clone(),
                    pf.fns[id.1].impl_type.clone(),
                )
            };
            let mut out = Vec::new();
            for c in &calls {
                let targets = if c.method {
                    self.resolve_method(
                        &c.segments[0],
                        c.recv.as_deref(),
                        caller_impl.as_deref(),
                        &file,
                        &crate_name,
                    )
                } else {
                    self.resolve_path(&c.segments, &crate_name, &file, &module_path)
                };
                for to in targets {
                    if to != id {
                        out.push(Edge {
                            to,
                            line: c.line,
                            pos: c.pos,
                        });
                    }
                }
            }
            out.sort_by_key(|e| (e.pos, e.to));
            out.dedup_by_key(|e| e.to);
            self.edges.insert(id, out);
        }
    }

    /// Path-call resolution: score candidates on how well the written
    /// qualifier segments match, then keep the best-scoring locality
    /// tier only.
    fn resolve_path(
        &self,
        segments: &[String],
        crate_name: &str,
        file: &str,
        module_path: &[String],
    ) -> Vec<FnId> {
        let name = segments.last().expect("segments nonempty");
        let Some(cands) = self.by_name.get(name.as_str()) else {
            return Vec::new();
        };
        let quals: Vec<&str> = segments[..segments.len() - 1]
            .iter()
            .map(|s| s.as_str())
            .filter(|s| !matches!(*s, "self" | "super" | "crate" | "std" | "core" | "alloc"))
            .collect();
        // `std::mem::swap` etc: written with a std qualifier and the
        // remaining qualifier matches no workspace structure → external.
        let wrote_std = segments.iter().any(|s| s == "std" || s == "core");

        let mut best = 0i32;
        let mut picked: Vec<FnId> = Vec::new();
        for &cid in cands {
            let cand = &self.nodes[&cid];
            let cpf = &self.files[cid.0];
            let cfn = &cpf.fns[cid.1];
            // A bare, unqualified call can only reach a free function:
            // inherent-impl fns require a `Type::` qualifier (`drop(g)`
            // is std's, never `TcpServer::drop`).
            if quals.is_empty() && cfn.impl_type.is_some() {
                continue;
            }
            let mut score = 0i32;
            let mut qual_hits = 0usize;
            for q in &quals {
                // Crates live in `crates/<dir>` but are referenced in
                // code as `db_<dir>` (package names are `db-*`).
                let qn = q.replace('-', "_");
                let qn = qn.strip_prefix("db_").unwrap_or(&qn);
                let hit = cand.crate_name == *q
                    || cand.crate_name.replace('-', "_") == qn
                    || cfn.module_path.iter().any(|m| m == q)
                    || cfn.impl_type.as_deref() == Some(*q)
                    || file_stem(&cand.file) == *q;
                if hit {
                    qual_hits += 1;
                }
            }
            if !quals.is_empty() && qual_hits == 0 {
                continue; // written qualifier matches nothing about this candidate
            }
            if wrote_std && quals.is_empty() {
                continue; // `std::x::f()` with no workspace-shaped qualifier
            }
            score += (qual_hits as i32) * 4;
            if cand.file == file && cfn.module_path == module_path {
                score += 3;
            } else if cand.file == file {
                score += 2;
            } else if cand.crate_name == crate_name {
                score += 1;
            }
            if score > best {
                best = score;
                picked.clear();
            }
            if score == best && score > 0 {
                picked.push(cid);
            }
        }
        if picked.is_empty() && quals.is_empty() && !wrote_std {
            // Bare call with no local candidate: accept same-crate
            // *free* functions (re-exports, glob imports), else none —
            // a bare name crossing crates without a qualifier is more
            // likely a std/prelude function than workspace code.
            picked = cands
                .iter()
                .copied()
                .filter(|c| {
                    self.nodes[c].crate_name == crate_name
                        && self.files[c.0].fns[c.1].impl_type.is_none()
                })
                .collect();
        }
        picked
    }

    /// Method-call resolution: inherent-impl fns with that name,
    /// denylist + ambiguity cap, same-crate preference. Cross-crate
    /// candidates additionally need the receiver name to hint at the
    /// impl type (`self.wal.append(…)` → `WalWriter::append`), since a
    /// bare method name crossing a crate boundary is otherwise more
    /// likely std/iterator vocabulary than workspace code.
    fn resolve_method(
        &self,
        name: &str,
        recv: Option<&str>,
        caller_impl: Option<&str>,
        file: &str,
        crate_name: &str,
    ) -> Vec<FnId> {
        if METHOD_DENYLIST.contains(&name) {
            return Vec::new();
        }
        let Some(cands) = self.by_name.get(name) else {
            return Vec::new();
        };
        let impls: Vec<FnId> = cands
            .iter()
            .copied()
            .filter(|c| self.files[c.0].fns[c.1].impl_type.is_some())
            .collect();
        // `self.f(…)` from inside `impl T` is `T::f` whenever `T` has
        // such a method — pin it there instead of fanning out.
        if recv == Some("self") {
            if let Some(ci) = caller_impl {
                let own: Vec<FnId> = impls
                    .iter()
                    .copied()
                    .filter(|c| self.files[c.0].fns[c.1].impl_type.as_deref() == Some(ci))
                    .collect();
                if !own.is_empty() {
                    return own;
                }
            }
        }
        // Locality tiers: same file, then same crate, then cross-crate
        // with a receiver-name hint at the impl type.
        let same_file: Vec<FnId> = impls
            .iter()
            .copied()
            .filter(|c| self.nodes[c].file == file)
            .collect();
        let local: Vec<FnId> = impls
            .iter()
            .copied()
            .filter(|c| self.nodes[c].crate_name == crate_name)
            .collect();
        let pool = if !same_file.is_empty() {
            same_file
        } else if !local.is_empty() {
            local
        } else {
            impls
                .into_iter()
                .filter(|c| {
                    let ty = self.files[c.0].fns[c.1]
                        .impl_type
                        .as_deref()
                        .unwrap_or_default();
                    recv.is_some_and(|r| recv_hints_type(r, ty))
                })
                .collect()
        };
        if pool.is_empty() || pool.len() > METHOD_AMBIGUITY_CAP {
            return Vec::new();
        }
        pool
    }

    /// Total resolved edge count (for golden tests).
    pub fn edge_count(&self) -> usize {
        self.edges.values().map(Vec::len).sum()
    }

    /// Does the graph contain a `from.display → to.display` edge
    /// within the given file?
    pub fn has_edge(&self, file: &str, from: &str, to: &str) -> bool {
        self.nodes.values().any(|n| {
            n.file == file
                && n.display == from
                && self.edges[&n.id]
                    .iter()
                    .any(|e| self.nodes[&e.to].display == to)
        })
    }

    /// Fn ids whose node satisfies `pred`.
    pub fn select(&self, pred: impl Fn(&FnNode) -> bool) -> Vec<FnId> {
        let mut v: Vec<FnId> = self
            .nodes
            .values()
            .filter(|n| pred(n))
            .map(|n| n.id)
            .collect();
        v.sort_unstable();
        v
    }

    /// BFS from `roots`; returns each reached fn's predecessor (the
    /// fn and the call line that first reached it). Roots map to
    /// `None`. Test fns are never traversed *through* unless they are
    /// roots themselves.
    pub fn reach(&self, roots: &[FnId]) -> HashMap<FnId, Option<(FnId, u32)>> {
        let mut seen: HashMap<FnId, Option<(FnId, u32)>> = HashMap::new();
        let mut q = VecDeque::new();
        for &r in roots {
            if seen.insert(r, None).is_none() {
                q.push_back(r);
            }
        }
        while let Some(cur) = q.pop_front() {
            if let Some(es) = self.edges.get(&cur) {
                for e in es {
                    // Test fns are reached only as roots (pre-seeded).
                    if self.nodes[&e.to].is_test {
                        continue;
                    }
                    if let std::collections::hash_map::Entry::Vacant(v) = seen.entry(e.to) {
                        v.insert(Some((cur, e.line)));
                        q.push_back(e.to);
                    }
                }
            }
        }
        seen
    }

    /// Reconstructs the root→target chain as
    /// `(fn id, call line used to leave that fn)` frames, ending with
    /// `(target, target decl line)`.
    pub fn chain(
        &self,
        reach: &HashMap<FnId, Option<(FnId, u32)>>,
        target: FnId,
    ) -> Vec<(FnId, u32)> {
        let mut frames = Vec::new();
        let mut cur = target;
        let mut via = self.nodes[&target].line;
        loop {
            frames.push((cur, via));
            match reach.get(&cur) {
                Some(Some((prev, line))) => {
                    via = *line;
                    cur = *prev;
                }
                _ => break,
            }
        }
        frames.reverse();
        frames
    }
}

/// Does the receiver binding name (`wal`, `delta_reg`) plausibly name
/// the impl type (`WalWriter`, `DeltaRegistry`)? Case-insensitive
/// containment either way, with a minimum length so one-letter
/// bindings don't match everything.
fn recv_hints_type(recv: &str, ty: &str) -> bool {
    let r = recv.replace('_', "").to_ascii_lowercase();
    let t = ty.replace('_', "").to_ascii_lowercase();
    r.len() >= 3 && t.len() >= 3 && (t.contains(&r) || r.contains(&t))
}

fn file_stem(path: &str) -> &str {
    let base = path.rsplit('/').next().unwrap_or(path);
    base.strip_suffix(".rs").unwrap_or(base)
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

    #[test]
    fn same_file_bare_call_resolves() {
        let g = graph(&[(
            "crates/a/src/lib.rs",
            "fn top() { helper(); }\nfn helper() {}\n",
        )]);
        assert!(g.has_edge("crates/a/src/lib.rs", "top", "helper"));
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn qualified_cross_crate_call_resolves() {
        let g = graph(&[
            ("crates/a/src/lib.rs", "pub fn go() { db_b::run(); }\n"),
            ("crates/b/src/lib.rs", "pub fn run() {}\n"),
        ]);
        assert!(g.has_edge("crates/a/src/lib.rs", "go", "run"));
    }

    #[test]
    fn bare_cross_crate_call_does_not_resolve() {
        // `run()` with no qualifier and no local candidate: likely a
        // prelude/imported fn; we only keep same-crate fallbacks.
        let g = graph(&[
            ("crates/a/src/lib.rs", "pub fn go() { run(); }\n"),
            ("crates/b/src/lib.rs", "pub fn run() {}\n"),
        ]);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn std_calls_do_not_resolve_to_workspace() {
        let g = graph(&[(
            "crates/a/src/lib.rs",
            "pub fn go(a: &mut u32, b: &mut u32) { std::mem::swap(a, b); }\npub fn swap() {}\n",
        )]);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn method_calls_prefer_same_crate_impls() {
        let g = graph(&[
            (
                "crates/a/src/lib.rs",
                "struct W;\nimpl W { fn refill(&self) {} }\nfn go(w: &W) { w.refill(); }\n",
            ),
            (
                "crates/b/src/lib.rs",
                "struct V;\nimpl V { fn refill(&self) {} }\n",
            ),
        ]);
        let go = g.select(|n| n.name == "go");
        let es = &g.edges[&go[0]];
        assert_eq!(es.len(), 1);
        assert_eq!(g.nodes[&es[0].to].file, "crates/a/src/lib.rs");
    }

    #[test]
    fn denylisted_method_names_do_not_edge() {
        let g = graph(&[(
            "crates/a/src/lib.rs",
            "struct W;\nimpl W { fn clone(&self) -> W { W } }\nfn go(w: &W) { let _ = w.clone(); }\n",
        )]);
        let go = g.select(|n| n.name == "go");
        assert!(g.edges[&go[0]].is_empty());
    }

    #[test]
    fn reach_and_chain_multi_hop() {
        let g = graph(&[(
            "crates/a/src/lib.rs",
            "fn a() { b(); }\nfn b() { c(); }\nfn c() {}\n",
        )]);
        let roots = g.select(|n| n.name == "a");
        let reach = g.reach(&roots);
        let c = g.select(|n| n.name == "c")[0];
        assert!(reach.contains_key(&c));
        let chain = g.chain(&reach, c);
        let names: Vec<&str> = chain
            .iter()
            .map(|(id, _)| g.nodes[id].name.as_str())
            .collect();
        assert_eq!(names, vec!["a", "b", "c"]);
    }

    #[test]
    fn test_fns_are_not_traversed() {
        let g = graph(&[(
            "crates/a/src/lib.rs",
            "fn a() { t(); }\n#[test]\nfn t() { c(); }\nfn c() {}\n",
        )]);
        let roots = g.select(|n| n.name == "a");
        let reach = g.reach(&roots);
        let c = g.select(|n| n.name == "c")[0];
        assert!(!reach.contains_key(&c));
    }
}
