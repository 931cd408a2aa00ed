//! Per-function fact extraction: the token-level observations the
//! interprocedural analyses consume.
//!
//! Facts are extracted once per function body (nested function items
//! are subtracted — their facts belong to the nested function) and
//! carry the source line plus whether an escape annotation covers the
//! site. An escape marker is a comment on the same line or within
//! three lines above.
//!
//! | fact | matched by | escape |
//! |------|------------|--------|
//! | call site | `path::name(…)`, `.method(…)`, turbofish forms | — |
//! | panic | `.unwrap()`, `.expect(`, `panic!`/`unreachable!`/`todo!`/`unimplemented!`, `expr[…]` indexing | `unwrap-ok:`, `io-ok:`, `panic-ok:`, `index-ok:` |
//! | atomic | `.load/store/swap/fetch_*/compare_exchange*(… Ordering …)` | `relaxed-ok:`, `ordering-ok:` |
//! | lock | zero-argument `.lock()`, `.read()`, `.write()` | `lock-ok:` |
//! | blocking | `fs::`/`File::`/`OpenOptions`/`TcpStream::connect` paths, `thread::sleep`, `.sync_all()`, `.sync_data()` | `blocking-ok:` |
//! | nondet | `Instant::now`, `SystemTime::now`, `.elapsed()`, `thread::sleep`, `thread_rng`/`from_entropy`/`OsRng` | `nondet-ok:` |
//! | catch_unwind | `catch_unwind(…)` calls | `guard:` naming the drop-guard |
//!
//! String and comment payloads can never produce facts (the lexer
//! drops them), so this module's own pattern tables are inert when the
//! analyzer runs over this crate.

use crate::lexer::{TokKind, Token};
use crate::parser::{FnItem, ParsedFile};

/// How far above a site an escape annotation may sit (lines).
pub const ANNOTATION_WINDOW: u32 = 3;

/// A resolved-later call site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallSite {
    /// Path segments as written, e.g. `["cpu_ws", "run"]` or
    /// `["run_sim"]`; for method calls, just the method name.
    pub segments: Vec<String>,
    /// `.name(…)` form.
    pub method: bool,
    /// For method calls, the receiver field/binding name nearest the
    /// dot (`self.wal.append(…)` → `wal`) — a resolution hint.
    pub recv: Option<String>,
    pub line: u32,
    /// Position in the *filtered* body stream — used to order lock
    /// acquisitions against calls.
    pub pos: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PanicKind {
    Unwrap,
    Expect,
    PanicMacro,
    Index,
}

impl PanicKind {
    pub fn name(self) -> &'static str {
        match self {
            PanicKind::Unwrap => "unwrap",
            PanicKind::Expect => "expect",
            PanicKind::PanicMacro => "panic-macro",
            PanicKind::Index => "index",
        }
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PanicSite {
    pub kind: PanicKind,
    pub line: u32,
    /// Covered by an escape annotation.
    pub escaped: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AtomicOp {
    Load,
    Store,
    Rmw,
    Cas,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AtomicSite {
    /// Receiver field name (`head`, `visited`, …) — the per-field unit
    /// the ordering audit pairs across crates.
    pub field: String,
    pub op: AtomicOp,
    /// Ordering idents observed in the argument list, in order
    /// (`Relaxed`, `Acquire`, `Release`, `AcqRel`, `SeqCst`).
    pub orderings: Vec<String>,
    pub line: u32,
    pub relaxed_ok: bool,
    pub ordering_ok: bool,
}

impl AtomicSite {
    pub fn is_relaxed_only(&self) -> bool {
        !self.orderings.is_empty() && self.orderings.iter().all(|o| o == "Relaxed")
    }

    pub fn has_release(&self) -> bool {
        matches!(self.op, AtomicOp::Store | AtomicOp::Rmw | AtomicOp::Cas)
            && self
                .orderings
                .iter()
                .any(|o| o == "Release" || o == "AcqRel" || o == "SeqCst")
    }

    pub fn has_acquire(&self) -> bool {
        matches!(self.op, AtomicOp::Load | AtomicOp::Rmw | AtomicOp::Cas)
            && self
                .orderings
                .iter()
                .any(|o| o == "Acquire" || o == "AcqRel" || o == "SeqCst")
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockSite {
    /// Receiver field name — the lock identity unit.
    pub name: String,
    pub line: u32,
    /// Position in the filtered body stream (orders acquisitions vs
    /// calls).
    pub pos: usize,
    pub escaped: bool,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockingSite {
    pub what: String,
    pub line: u32,
    pub escaped: bool,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NondetSite {
    pub what: String,
    pub line: u32,
    pub escaped: bool,
}

/// A `catch_unwind(…)` call: the unwind it stops must leave shared
/// state restored, so the site names its drop-guard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CatchSite {
    pub line: u32,
    /// Covered by a `guard:` annotation.
    pub guarded: bool,
}

/// Everything the analyses need to know about one function body.
#[derive(Debug, Clone, Default)]
pub struct FnFacts {
    pub calls: Vec<CallSite>,
    pub panics: Vec<PanicSite>,
    pub atomics: Vec<AtomicSite>,
    pub locks: Vec<LockSite>,
    pub blocking: Vec<BlockingSite>,
    pub nondet: Vec<NondetSite>,
    pub catch_unwinds: Vec<CatchSite>,
}

const KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "in", "as", "move", "ref", "mut", "let", "else",
    "loop", "unsafe", "box", "await", "dyn", "impl", "fn", "pub", "use", "mod", "where", "struct",
    "enum", "trait", "type", "const", "static", "crate", "self", "Self", "super", "break",
    "continue", "yield", "async",
];

const ATOMIC_OPS: &[(&str, AtomicOp)] = &[
    ("load", AtomicOp::Load),
    ("store", AtomicOp::Store),
    ("swap", AtomicOp::Rmw),
    ("fetch_add", AtomicOp::Rmw),
    ("fetch_sub", AtomicOp::Rmw),
    ("fetch_and", AtomicOp::Rmw),
    ("fetch_or", AtomicOp::Rmw),
    ("fetch_xor", AtomicOp::Rmw),
    ("fetch_max", AtomicOp::Rmw),
    ("fetch_min", AtomicOp::Rmw),
    ("fetch_update", AtomicOp::Cas),
    ("compare_exchange", AtomicOp::Cas),
    ("compare_exchange_weak", AtomicOp::Cas),
];

const ORDERING_NAMES: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Extracts the facts for function `fi` of `pf`.
pub fn extract(pf: &ParsedFile, fi: usize) -> FnFacts {
    let f = &pf.fns[fi];
    let toks = body_tokens(pf, f);
    let mut out = FnFacts::default();
    let ann = |line: u32, marker: &str| pf.lexed.annotated(line, ANNOTATION_WINDOW, marker);

    let mut k = 0usize;
    while k < toks.len() {
        let t = toks[k];
        // --- Indexing that can panic: `expr[` ---------------------
        if t.kind == TokKind::Punct && t.text == "[" && k > 0 {
            let p = toks[k - 1];
            let expr_prev = match p.kind {
                TokKind::Ident => !KEYWORDS.contains(&p.text.as_str()),
                TokKind::Punct => p.text == "]" || p.text == ")",
                _ => false,
            };
            if expr_prev {
                out.panics.push(PanicSite {
                    kind: PanicKind::Index,
                    line: t.line,
                    escaped: ann(t.line, "index-ok:"),
                });
            }
            k += 1;
            continue;
        }
        if t.kind != TokKind::Ident {
            k += 1;
            continue;
        }

        // --- Macro invocation: `name!(…)` / `name![…]` / `name!{…}` --
        if next_text(&toks, k + 1) == Some("!") {
            if matches!(
                t.text.as_str(),
                "panic" | "unreachable" | "todo" | "unimplemented"
            ) {
                out.panics.push(PanicSite {
                    kind: PanicKind::PanicMacro,
                    line: t.line,
                    escaped: ann(t.line, "panic-ok:"),
                });
            }
            k += 2;
            continue;
        }

        // --- Call forms -------------------------------------------
        let is_method = prev_is_dot(&toks, k);
        if let Some(open) = call_args_open(&toks, k) {
            let name = t.text.as_str();
            if is_method {
                handle_method_call(&toks, k, open, &mut out, &ann);
            } else if !KEYWORDS.contains(&name) {
                // Collect leading path segments `a::b::name`.
                let segments = path_segments(&toks, k);
                handle_path_call(&segments, t.line, &mut out, &ann);
                out.calls.push(CallSite {
                    segments,
                    method: false,
                    recv: None,
                    line: t.line,
                    pos: k,
                });
            }
            k += 1;
            continue;
        }

        // --- Pathy nondet sources used without call parens we track
        //     via the call form above; nothing else to do. ----------
        k += 1;
    }
    out
}

/// The body token stream with nested function items removed.
fn body_tokens<'a>(pf: &'a ParsedFile, f: &FnItem) -> Vec<&'a Token> {
    let mut skip: Vec<(usize, usize)> = f
        .nested
        .iter()
        .map(|&n| (pf.fns[n].tok_start, pf.fns[n].body.end + 1))
        .collect();
    skip.sort_unstable();
    let mut out = Vec::with_capacity(f.body.len());
    let mut s = 0usize;
    for i in f.body.clone() {
        while s < skip.len() && i >= skip[s].1 {
            s += 1;
        }
        if s < skip.len() && i >= skip[s].0 {
            continue;
        }
        out.push(&pf.lexed.tokens[i]);
    }
    out
}

fn next_text<'a>(toks: &[&'a Token], k: usize) -> Option<&'a str> {
    toks.get(k).map(|t| t.text.as_str())
}

fn prev_is_dot(toks: &[&Token], k: usize) -> bool {
    k > 0 && toks[k - 1].kind == TokKind::Punct && toks[k - 1].text == "."
}

/// If the ident at `k` heads a call, returns the index of its `(`.
/// Handles `name(`, `name::<T>(`.
fn call_args_open(toks: &[&Token], k: usize) -> Option<usize> {
    match next_text(toks, k + 1) {
        Some("(") => Some(k + 1),
        Some(":") if next_text(toks, k + 2) == Some(":") && next_text(toks, k + 3) == Some("<") => {
            // Turbofish: skip balanced angles, minding `->`.
            let mut depth = 1i64;
            let mut j = k + 4;
            while j < toks.len() && depth > 0 {
                match toks[j].text.as_str() {
                    "<" => depth += 1,
                    ">" if toks[j - 1].text != "-" => depth -= 1,
                    _ => {}
                }
                j += 1;
            }
            (next_text(toks, j) == Some("(")).then_some(j)
        }
        _ => None,
    }
}

/// Leading path segments for the ident at `k`: `a::b::name` →
/// `[a, b, name]`.
fn path_segments(toks: &[&Token], k: usize) -> Vec<String> {
    let mut segs = vec![toks[k].text.clone()];
    let mut j = k;
    while j >= 2
        && toks[j - 1].kind == TokKind::Punct
        && toks[j - 1].text == ":"
        && toks[j - 2].kind == TokKind::Punct
        && toks[j - 2].text == ":"
    {
        if j >= 3 && toks[j - 3].kind == TokKind::Ident {
            segs.insert(0, toks[j - 3].text.clone());
            j -= 3;
        } else {
            break;
        }
    }
    segs
}

/// Orderings named in the argument list starting at `open` (`(`).
/// Returns `None` when no `Ordering`-style ident appears — the marker
/// that this `.load(…)` is not an atomic at all.
fn scan_orderings(toks: &[&Token], open: usize) -> Option<Vec<String>> {
    let mut depth = 0i64;
    let mut j = open;
    let mut found = Vec::new();
    while j < toks.len() {
        match toks[j].text.as_str() {
            "(" => depth += 1,
            ")" => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            s if toks[j].kind == TokKind::Ident && ORDERING_NAMES.contains(&s) => {
                found.push(s.to_string());
            }
            _ => {}
        }
        j += 1;
    }
    if found.is_empty() {
        None
    } else {
        Some(found)
    }
}

/// True when the arg list at `open` is empty: `()`.
fn zero_args(toks: &[&Token], open: usize) -> bool {
    next_text(toks, open + 1) == Some(")")
}

/// Receiver field name for the method call whose name sits at `k`:
/// walks back over `.name`, subscripts and call parens to the nearest
/// field/binding ident. `self.0`-style tuple fields render as `0`.
fn receiver_field(toks: &[&Token], k: usize) -> String {
    debug_assert!(prev_is_dot(toks, k));
    let mut j = k - 1; // the dot
    loop {
        if j == 0 {
            return "?".into();
        }
        j -= 1;
        match toks[j].kind {
            // `self` is kept verbatim: resolution uses it to pin the
            // call to the caller's own impl type.
            TokKind::Ident
                if toks[j].text == "self" || !KEYWORDS.contains(&toks[j].text.as_str()) =>
            {
                return toks[j].text.clone()
            }
            TokKind::Num => return toks[j].text.clone(),
            TokKind::Punct if toks[j].text == "]" || toks[j].text == ")" => {
                // Skip the balanced group, then continue leftwards.
                let close = toks[j].text.as_bytes()[0];
                let open = if close == b']' { b'[' } else { b'(' };
                let mut depth = 1i64;
                while j > 0 && depth > 0 {
                    j -= 1;
                    let b = toks[j].text.as_bytes();
                    if b.len() == 1 && b[0] == close {
                        depth += 1;
                    } else if b.len() == 1 && b[0] == open {
                        depth -= 1;
                    }
                }
            }
            _ => return "?".into(),
        }
    }
}

fn handle_method_call(
    toks: &[&Token],
    k: usize,
    open: usize,
    out: &mut FnFacts,
    ann: &dyn Fn(u32, &str) -> bool,
) {
    let t = toks[k];
    let name = t.text.as_str();
    let line = t.line;

    // Panic methods.
    match name {
        "unwrap" | "unwrap_err" => out.panics.push(PanicSite {
            kind: PanicKind::Unwrap,
            line,
            escaped: ann(line, "unwrap-ok:") || ann(line, "io-ok:") || ann(line, "panic-ok:"),
        }),
        "expect" | "expect_err" => out.panics.push(PanicSite {
            kind: PanicKind::Expect,
            line,
            escaped: ann(line, "unwrap-ok:") || ann(line, "io-ok:") || ann(line, "panic-ok:"),
        }),
        _ => {}
    }

    // Atomic ops (an Ordering ident in the args is the discriminator).
    if let Some((_, op)) = ATOMIC_OPS.iter().find(|(n, _)| *n == name) {
        if let Some(orderings) = scan_orderings(toks, open) {
            out.atomics.push(AtomicSite {
                field: receiver_field(toks, k),
                op: *op,
                orderings,
                line,
                relaxed_ok: ann(line, "relaxed-ok:"),
                ordering_ok: ann(line, "ordering-ok:"),
            });
        }
    }

    // Lock acquisitions: zero-argument lock/read/write.
    if matches!(name, "lock" | "read" | "write") && zero_args(toks, open) {
        out.locks.push(LockSite {
            name: receiver_field(toks, k),
            line,
            pos: k,
            escaped: ann(line, "lock-ok:"),
        });
    }

    // Blocking fsync.
    if matches!(name, "sync_all" | "sync_data") {
        out.blocking.push(BlockingSite {
            what: format!(".{name}()"),
            line,
            escaped: ann(line, "blocking-ok:"),
        });
    }

    // Nondeterminism: wall-clock reads.
    if name == "elapsed" && zero_args(toks, open) {
        out.nondet.push(NondetSite {
            what: ".elapsed()".into(),
            line,
            escaped: ann(line, "nondet-ok:"),
        });
    }

    out.calls.push(CallSite {
        segments: vec![name.to_string()],
        method: true,
        recv: Some(receiver_field(toks, k)),
        line,
        pos: k,
    });
}

fn handle_path_call(
    segments: &[String],
    line: u32,
    out: &mut FnFacts,
    ann: &dyn Fn(u32, &str) -> bool,
) {
    let segs: Vec<&str> = segments.iter().map(|s| s.as_str()).collect();
    let joined = segs.join("::");
    let last = *segs.last().expect("segments nonempty");

    // Blocking I/O by path shape.
    let blocking = segs.contains(&"fs")
        || (segs.len() >= 2
            && matches!(
                segs[segs.len() - 2],
                "File" | "OpenOptions" | "TcpStream" | "TcpListener"
            ))
        || (segs.len() >= 2 && segs[segs.len() - 2] == "thread" && last == "sleep");
    if blocking {
        out.blocking.push(BlockingSite {
            what: joined.clone(),
            line,
            escaped: ann(line, "blocking-ok:"),
        });
    }

    // Nondeterminism sources.
    let nondet = (segs.len() >= 2
        && matches!(segs[segs.len() - 2], "Instant" | "SystemTime")
        && last == "now")
        || (segs.len() >= 2 && segs[segs.len() - 2] == "thread" && last == "sleep")
        || matches!(last, "thread_rng" | "from_entropy")
        || segs.contains(&"OsRng");
    if nondet {
        out.nondet.push(NondetSite {
            what: joined,
            line,
            escaped: ann(line, "nondet-ok:"),
        });
    }

    if last == "catch_unwind" {
        out.catch_unwinds.push(CatchSite {
            line,
            guarded: ann(line, "guard:"),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_file;

    fn facts(body: &str) -> FnFacts {
        // Body on its own lines so trailing `// …-ok:` comments can't
        // swallow the closing brace.
        let src = format!("fn probe() {{\n{body}\n}}\n");
        let pf = parse_file("crates/x/src/lib.rs", &src).expect("parse");
        assert_eq!(pf.fns.len(), 1, "{src}");
        extract(&pf, 0)
    }

    #[test]
    fn panic_sites_and_escapes() {
        let f = facts("let x = opt.unwrap(); let y = res.expect(\"m\"); panic!(\"boom\");");
        let kinds: Vec<_> = f.panics.iter().map(|p| p.kind).collect();
        assert_eq!(
            kinds,
            vec![PanicKind::Unwrap, PanicKind::Expect, PanicKind::PanicMacro]
        );
        assert!(f.panics.iter().all(|p| !p.escaped));
        let f = facts("let x = opt.unwrap(); // unwrap-ok: startup only");
        assert!(f.panics[0].escaped);
    }

    #[test]
    fn indexing_is_a_panic_site_but_types_are_not() {
        let f = facts("let a = v[i]; let b: [u8; 4] = [0; 4]; let c = &s[1..n];");
        let idx: Vec<_> = f
            .panics
            .iter()
            .filter(|p| p.kind == PanicKind::Index)
            .collect();
        assert_eq!(idx.len(), 2, "{:?}", f.panics);
        let f = facts("let a = v[i]; // index-ok: bounds checked above");
        assert!(f.panics[0].escaped);
        // vec![…] is a macro, not an indexing site.
        let f = facts("let v = vec![1, 2, 3];");
        assert!(f.panics.is_empty(), "{:?}", f.panics);
    }

    #[test]
    fn atomics_classified_by_field_and_op() {
        let f = facts(
            "self.head.store(1, Ordering::Release);\n\
             let h = self.head.load(Ordering::Acquire);\n\
             shared.visited[v as usize].swap(true, Ordering::Relaxed);\n\
             self.stat.fetch_add(1, Ordering::Relaxed); // relaxed-ok: counter\n",
        );
        assert_eq!(f.atomics.len(), 4);
        assert_eq!(f.atomics[0].field, "head");
        assert!(f.atomics[0].has_release());
        assert_eq!(f.atomics[1].field, "head");
        assert!(f.atomics[1].has_acquire());
        assert_eq!(f.atomics[2].field, "visited");
        assert!(f.atomics[2].is_relaxed_only());
        assert!(!f.atomics[2].relaxed_ok);
        assert!(f.atomics[3].relaxed_ok);
        // A plain collection `.store(…)` without an Ordering is inert.
        let f = facts("cache.store(key, value);");
        assert!(f.atomics.is_empty());
    }

    #[test]
    fn cas_records_both_orderings() {
        let f = facts("s.compare_exchange(a, b, Ordering::AcqRel, Ordering::Acquire).ok();");
        assert_eq!(f.atomics.len(), 1);
        assert_eq!(f.atomics[0].orderings, vec!["AcqRel", "Acquire"]);
        assert!(f.atomics[0].has_release());
    }

    #[test]
    fn locks_only_zero_arg() {
        let f = facts(
            "let g = self.inner.lock(); let r = self.map.read();\n\
             let n = stream.read(&mut buf); file.write(b\"x\");",
        );
        let names: Vec<&str> = f.locks.iter().map(|l| l.name.as_str()).collect();
        assert_eq!(names, vec!["inner", "map"]);
    }

    #[test]
    fn blocking_and_nondet() {
        let f = facts(
            "std::fs::write(p, b); let f = File::open(p); file.sync_all();\n\
             thread::sleep(d); let t = Instant::now(); let r = rng.gen();",
        );
        assert_eq!(f.blocking.len(), 4, "{:?}", f.blocking);
        let whats: Vec<&str> = f.nondet.iter().map(|n| n.what.as_str()).collect();
        assert_eq!(whats, vec!["thread::sleep", "Instant::now"]);
        let f = facts("let t = Instant::now(); // nondet-ok: native timing");
        assert!(f.nondet[0].escaped);
    }

    #[test]
    fn catch_unwind_sites_and_guards() {
        let f = facts("let r = std::panic::catch_unwind(AssertUnwindSafe(|| job()));");
        assert_eq!(
            f.catch_unwinds,
            vec![CatchSite {
                line: 2,
                guarded: false
            }]
        );
        let f = facts(
            "// guard: ActiveGuard decrements active on unwind\n\
             let r = panic::catch_unwind(AssertUnwindSafe(|| job()));",
        );
        assert!(f.catch_unwinds[0].guarded);
        // Importing catch_unwind is not a call site.
        let src = "use std::panic::catch_unwind;\nfn probe() {}\n";
        let pf = parse_file("crates/x/src/lib.rs", src).expect("parse");
        assert!(extract(&pf, 0).catch_unwinds.is_empty());
    }

    #[test]
    fn call_sites_path_and_method() {
        let f = facts("helper(); module::deep(x); obj.process(y); it.collect::<Vec<_>>();");
        let paths: Vec<(Vec<String>, bool)> = f
            .calls
            .iter()
            .map(|c| (c.segments.clone(), c.method))
            .collect();
        assert!(paths.contains(&(vec!["helper".into()], false)));
        assert!(paths.contains(&(vec!["module".into(), "deep".into()], false)));
        assert!(paths.contains(&(vec!["process".into()], true)));
        assert!(paths.contains(&(vec!["collect".into()], true)));
    }

    #[test]
    fn nested_fn_facts_stay_separate() {
        let src = "fn outer() { inner(); fn inner() { x.unwrap(); } }\n";
        let pf = parse_file("crates/x/src/lib.rs", src).expect("parse");
        let outer = extract(&pf, 0);
        let inner = extract(&pf, 1);
        assert!(outer.panics.is_empty(), "{:?}", outer.panics);
        assert_eq!(inner.panics.len(), 1);
        assert!(outer.calls.iter().any(|c| c.segments == ["inner"]));
    }

    #[test]
    fn receiver_chains() {
        let f = facts("self.cells[i].counter.fetch_add(1, Ordering::Relaxed);");
        assert_eq!(f.atomics[0].field, "counter");
        let f = facts("self.slot().lock();");
        assert_eq!(f.locks[0].name, "slot");
    }
}
