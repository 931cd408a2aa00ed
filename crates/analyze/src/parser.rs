//! Item/block parser over the [`lexer`](crate::lexer) token stream.
//!
//! Produces, per file, the function items with their module path, impl
//! type, and body token range — the skeleton the call graph and the
//! fact extractor walk. This is *not* a grammar-complete Rust parser;
//! it exploits two properties every valid Rust file has:
//!
//! * delimiters (`()[]{}`) balance everywhere, including inside macro
//!   bodies (token trees are balanced by construction), and
//! * a function's body is the first `{` after its name at zero
//!   paren/bracket depth (signatures contain no bare braces).
//!
//! Scope tracking is a simple stack: `mod` blocks accumulate the
//! module path, `impl` blocks contribute the self-type name, every
//! other `{` is an anonymous block. `#[cfg(test)]` modules, `#[test]`
//! functions and integration-test files are carried through as an
//! `is_test` flag so the analyses can exclude test code (A5 alone keeps
//! it: its deterministic scopes cover their tests too).

use crate::lexer::{lex, Lexed, TokKind, Token};
use std::fmt;
use std::ops::Range;

/// One parsed function item.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Enclosing module path inside the crate (empty for the root).
    pub module_path: Vec<String>,
    /// Self-type name when defined inside an `impl` block.
    pub impl_type: Option<String>,
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token index of the `fn` keyword (start of the whole item, used
    /// to subtract nested items — signature included — from the
    /// enclosing body during fact extraction).
    pub tok_start: usize,
    /// Token range of the body, *excluding* the outer braces. Empty
    /// for bodyless declarations.
    pub body: Range<usize>,
    /// `#[test]` function or inside a `#[cfg(test)]` module.
    pub is_test: bool,
    /// Indices (into the file's `fns`) of functions nested inside this
    /// body — their tokens are subtracted during fact extraction.
    pub nested: Vec<usize>,
}

impl FnItem {
    /// `Type::name` or `name` — the display form used in evidence.
    pub fn display_name(&self) -> String {
        match &self.impl_type {
            Some(t) => format!("{t}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// One parsed file: the token stream plus its function items.
#[derive(Debug, Clone)]
pub struct ParsedFile {
    /// Repo-relative path, forward slashes.
    pub file: String,
    /// Owning crate label (`serve`, `wal`, … or `diggerbees` for the
    /// root package) derived from the path.
    pub crate_name: String,
    pub lexed: Lexed,
    pub fns: Vec<FnItem>,
}

/// Structural parse failure — unbalanced delimiters at end of input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub file: String,
    pub detail: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.file, self.detail)
    }
}

impl std::error::Error for ParseError {}

/// Derives the crate label from a repo-relative path:
/// `crates/<c>/src/…` → `<c>`, anything under `src/` → `diggerbees`,
/// `crates/<c>/tests/…` → `<c>`.
pub fn crate_of(file: &str) -> String {
    if let Some(rest) = file.strip_prefix("crates/") {
        if let Some((name, _)) = rest.split_once('/') {
            return name.to_string();
        }
    }
    "diggerbees".to_string()
}

#[derive(Debug)]
enum Scope {
    Module { name: String, test: bool },
    Impl { ty: String },
    Fn { idx: usize },
    Block,
}

/// Pending attribute state for the next item.
#[derive(Debug, Default, Clone, Copy)]
struct Attrs {
    test_fn: bool,
    cfg_test: bool,
}

/// Parses one file. `file` is the repo-relative path used for crate
/// attribution and error messages; every function in a crate's
/// integration-test directory (`crates/<c>/tests/…`) is test code.
pub fn parse_file(file: &str, src: &str) -> Result<ParsedFile, ParseError> {
    let in_tests_dir = file.starts_with("crates/") && file.split('/').nth(2) == Some("tests");
    let lexed = lex(src);
    let toks = &lexed.tokens;
    let mut fns: Vec<FnItem> = Vec::new();
    let mut stack: Vec<Scope> = Vec::new();
    let mut attrs = Attrs::default();
    let mut i = 0usize;

    let err = |detail: String| ParseError {
        file: file.to_string(),
        detail,
    };

    while i < toks.len() {
        let t = &toks[i];
        match (t.kind, t.text.as_str()) {
            (TokKind::Punct, "#") => {
                // Attribute: `#[...]` or `#![...]`. Collect idents.
                let mut j = i + 1;
                if j < toks.len() && toks[j].text == "!" {
                    j += 1;
                }
                if j < toks.len() && toks[j].text == "[" {
                    let mut depth = 1usize;
                    let mut idents: Vec<&str> = Vec::new();
                    j += 1;
                    while j < toks.len() && depth > 0 {
                        match toks[j].text.as_str() {
                            "[" => depth += 1,
                            "]" => depth -= 1,
                            _ if toks[j].kind == TokKind::Ident => idents.push(&toks[j].text),
                            _ => {}
                        }
                        j += 1;
                    }
                    if idents.as_slice() == ["test"] {
                        attrs.test_fn = true;
                    }
                    if idents.contains(&"cfg")
                        && idents.contains(&"test")
                        && !idents.contains(&"not")
                    {
                        attrs.cfg_test = true;
                    }
                    i = j;
                } else {
                    i += 1;
                }
                continue;
            }
            (TokKind::Ident, "mod") => {
                // `mod name {` opens a module scope; `mod name;` does not.
                let name = toks.get(i + 1).filter(|t| t.kind == TokKind::Ident);
                let brace = toks.get(i + 2).map(|t| t.text.as_str()) == Some("{");
                if let (Some(name), true) = (name, brace) {
                    let inherited = in_test_scope(&stack);
                    stack.push(Scope::Module {
                        name: name.text.clone(),
                        test: inherited || attrs.cfg_test,
                    });
                    i += 3;
                } else {
                    i += 1;
                }
                attrs = Attrs::default();
                continue;
            }
            (TokKind::Ident, "impl") => {
                match parse_impl_header(toks, i) {
                    Some((ty, open)) => {
                        stack.push(Scope::Impl { ty });
                        i = open + 1;
                    }
                    None => i += 1, // `impl Trait` in type position etc.
                }
                attrs = Attrs::default();
                continue;
            }
            (TokKind::Ident, "fn") => {
                let name = match toks.get(i + 1) {
                    Some(n) if n.kind == TokKind::Ident => n.text.clone(),
                    _ => {
                        // `fn(` type position (`fn(u32) -> u32`).
                        i += 1;
                        attrs = Attrs::default();
                        continue;
                    }
                };
                // Find body `{` or terminating `;` at zero ()/[] depth.
                let mut pd = 0i64;
                let mut bd = 0i64;
                let mut j = i + 2;
                let mut body_open: Option<usize> = None;
                while j < toks.len() {
                    match toks[j].text.as_str() {
                        "(" => pd += 1,
                        ")" => pd -= 1,
                        "[" => bd += 1,
                        "]" => bd -= 1,
                        "{" if pd == 0 && bd == 0 => {
                            body_open = Some(j);
                            break;
                        }
                        ";" if pd == 0 && bd == 0 => break,
                        // A `}` here closes the *enclosing* scope: the
                        // declaration was bodyless. Leave it for the
                        // main loop so scope popping still sees it.
                        "}" if pd == 0 && bd == 0 => break,
                        _ => {}
                    }
                    j += 1;
                }
                let is_test = attrs.test_fn || in_test_scope(&stack) || in_tests_dir;
                match body_open {
                    Some(open) => {
                        let idx = fns.len();
                        fns.push(FnItem {
                            module_path: module_path(&stack),
                            impl_type: impl_type(&stack),
                            name,
                            line: t.line,
                            tok_start: i,
                            body: open + 1..open + 1, // end patched on pop
                            is_test,
                            nested: Vec::new(),
                        });
                        if let Some(parent) = enclosing_fn(&stack) {
                            fns[parent].nested.push(idx);
                        }
                        stack.push(Scope::Fn { idx });
                        i = open + 1;
                    }
                    None => {
                        // Bodyless declaration: consume the `;` but not
                        // a scope-closing `}`.
                        i = if toks.get(j).map(|t| t.text.as_str()) == Some("}") {
                            j
                        } else {
                            j + 1
                        };
                    }
                }
                attrs = Attrs::default();
                continue;
            }
            (TokKind::Punct, "{") => {
                stack.push(Scope::Block);
                i += 1;
                attrs = Attrs::default();
                continue;
            }
            (TokKind::Punct, "}") => {
                match stack.pop() {
                    Some(Scope::Fn { idx }) => fns[idx].body.end = i,
                    Some(_) => {}
                    None => {
                        return Err(err(format!(
                            "unbalanced '}}' at line {} (no open scope)",
                            t.line
                        )))
                    }
                }
                i += 1;
                continue;
            }
            _ => {
                // Any other token clears a pending attribute unless it
                // is a pass-through modifier between attr and item.
                if !matches!(
                    t.text.as_str(),
                    "pub"
                        | "unsafe"
                        | "const"
                        | "async"
                        | "extern"
                        | "crate"
                        | "in"
                        | "self"
                        | "super"
                        | "("
                        | ")"
                        | ":"
                ) && t.kind != TokKind::Str
                {
                    attrs = Attrs::default();
                }
                i += 1;
            }
        }
    }
    if !stack.is_empty() {
        return Err(err(format!(
            "{} scope(s) left open at end of file",
            stack.len()
        )));
    }
    Ok(ParsedFile {
        file: file.to_string(),
        crate_name: crate_of(file),
        lexed,
        fns,
    })
}

fn in_test_scope(stack: &[Scope]) -> bool {
    stack
        .iter()
        .any(|s| matches!(s, Scope::Module { test: true, .. }))
}

fn module_path(stack: &[Scope]) -> Vec<String> {
    stack
        .iter()
        .filter_map(|s| match s {
            Scope::Module { name, .. } => Some(name.clone()),
            _ => None,
        })
        .collect()
}

fn impl_type(stack: &[Scope]) -> Option<String> {
    stack.iter().rev().find_map(|s| match s {
        Scope::Impl { ty } => Some(ty.clone()),
        _ => None,
    })
}

fn enclosing_fn(stack: &[Scope]) -> Option<usize> {
    stack.iter().rev().find_map(|s| match s {
        Scope::Fn { idx } => Some(*idx),
        _ => None,
    })
}

/// Parses an `impl` header starting at token `i` (the `impl` keyword).
/// Returns `(self_type_name, index_of_opening_brace)`, or `None` when
/// no `{` follows (e.g. `impl Trait` in return position).
fn parse_impl_header(toks: &[Token], i: usize) -> Option<(String, usize)> {
    let mut j = i + 1;
    // Skip generic parameters `<...>`, minding `->` inside bounds.
    if toks.get(j).map(|t| t.text.as_str()) == Some("<") {
        let mut depth = 1i64;
        j += 1;
        while j < toks.len() && depth > 0 {
            match toks[j].text.as_str() {
                "<" => depth += 1,
                ">" if toks[j - 1].text != "-" => depth -= 1,
                _ => {}
            }
            j += 1;
        }
    }
    // Collect the self-type: the last zero-angle-depth ident before
    // `{`/`where`, taking the path after `for` when present.
    let mut depth = 0i64;
    let mut last_ident: Option<String> = None;
    while j < toks.len() {
        let t = &toks[j];
        match (t.kind, t.text.as_str()) {
            (TokKind::Punct, "<") => depth += 1,
            (TokKind::Punct, ">") if toks[j - 1].text != "-" => depth -= 1,
            (TokKind::Punct, "(") | (TokKind::Punct, ")") => {}
            (TokKind::Ident, "for") if depth == 0 => last_ident = None,
            (TokKind::Ident, "where") if depth == 0 => {
                // Where clause runs to the `{`.
                while j < toks.len() && toks[j].text != "{" {
                    j += 1;
                }
                continue;
            }
            (TokKind::Ident, "dyn") | (TokKind::Ident, "mut") => {}
            (TokKind::Ident, _) if depth == 0 => last_ident = Some(t.text.clone()),
            (TokKind::Punct, "{") => {
                return last_ident.map(|ty| (ty, j));
            }
            (TokKind::Punct, ";") => return None, // `impl Foo;` never valid, bail
            _ => {}
        }
        j += 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> ParsedFile {
        parse_file("crates/x/src/lib.rs", src).expect("parse")
    }

    #[test]
    fn plain_and_impl_fns() {
        let p = parse(
            "fn free() { helper(); }\n\
             struct S;\n\
             impl S { pub fn method(&self) -> u32 { 1 } }\n\
             impl std::fmt::Display for S {\n\
                 fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result { Ok(()) }\n\
             }\n",
        );
        let names: Vec<String> = p.fns.iter().map(|f| f.display_name()).collect();
        assert_eq!(names, vec!["free", "S::method", "S::fmt"]);
    }

    #[test]
    fn generic_impl_for_form() {
        let p = parse(
            "impl<'a, T: Fn() -> u32> From<T> for Wrapper<'a, T> where T: Clone {\n\
                 fn from(t: T) -> Self { Wrapper(t) }\n\
             }\n",
        );
        assert_eq!(p.fns.len(), 1);
        assert_eq!(p.fns[0].impl_type.as_deref(), Some("Wrapper"));
    }

    #[test]
    fn modules_and_test_marking() {
        let p = parse(
            "mod inner { pub fn deep() {} }\n\
             #[cfg(test)]\n\
             mod tests {\n\
                 #[test]\n\
                 fn check_it() { deep(); }\n\
             }\n\
             fn after() {}\n",
        );
        assert_eq!(p.fns[0].module_path, vec!["inner"]);
        assert!(!p.fns[0].is_test);
        assert!(p.fns[1].is_test);
        assert_eq!(p.fns[1].name, "check_it");
        assert!(!p.fns[2].is_test);
        assert_eq!(p.fns[2].name, "after");
    }

    #[test]
    fn cfg_not_test_is_not_test() {
        let p = parse("#[cfg(not(test))]\nmod m { fn f() {} }\n");
        assert!(!p.fns[0].is_test);
    }

    #[test]
    fn nested_fns_recorded() {
        let p = parse("fn outer() { fn inner() { x.unwrap(); } inner(); }\n");
        assert_eq!(p.fns.len(), 2);
        assert_eq!(p.fns[0].name, "outer");
        assert_eq!(p.fns[0].nested, vec![1]);
        assert_eq!(p.fns[1].name, "inner");
    }

    #[test]
    fn bodyless_and_type_position_fn() {
        let p = parse(
            "trait T { fn decl(&self); fn with_default(&self) { } }\n\
             fn takes(f: fn(u32) -> u32) -> u32 { f(1) }\n",
        );
        let names: Vec<&str> = p.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["with_default", "takes"]);
    }

    #[test]
    fn unbalanced_is_an_error() {
        assert!(parse_file("x.rs", "fn f() { {").is_err());
        assert!(parse_file("x.rs", "fn f() }").is_err());
    }

    #[test]
    fn crate_attribution() {
        assert_eq!(crate_of("crates/serve/src/pool.rs"), "serve");
        assert_eq!(crate_of("src/bin/diggerbees.rs"), "diggerbees");
        assert_eq!(crate_of("crates/check/tests/mutations.rs"), "check");
        let t = parse_file("crates/check/tests/mutations.rs", "fn helper() {}\n").expect("parse");
        assert!(t.fns[0].is_test, "integration-test files are test code");
    }
}
