//! A lightweight Rust lexer: enough fidelity for item parsing, call
//! extraction, and token-level fact matching, with none of rustc.
//!
//! Guarantees the rest of the engine relies on:
//!
//! * String/char payloads never become identifier tokens — a forbidden
//!   name inside a string (or this crate's own pattern tables) cannot
//!   produce facts. All string forms are handled: `"…"` with escapes
//!   and `\`-continuations, `r"…"`/`r#"…"#` raw strings (any hash
//!   count, including zero), `b`/`br`/`c`/`cr` prefixes.
//! * Comments are captured, not discarded: escape annotations
//!   (`relaxed-ok:`, `nondet-ok:`, …) live in comments, so the lexer
//!   returns per-line comment text alongside the token stream.
//! * Every token carries its 1-based source line for evidence.
//!
//! Lifetimes (`'a`) are distinguished from char literals, raw
//! identifiers (`r#match`) from raw strings, and nested block comments
//! are tracked to arbitrary depth.

/// Token classification. Punctuation is one token per symbol byte —
/// multi-byte operators (`::`, `->`) are recognized downstream by
/// adjacency, which keeps the lexer trivially total.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    Ident,
    Lifetime,
    Num,
    Str,
    Char,
    Punct,
}

/// One lexed token. `text` is the identifier/number spelling, the
/// single punctuation byte, or a placeholder for literals (payloads
/// are deliberately dropped so they can never match a fact pattern).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    pub kind: TokKind,
    pub text: String,
    /// 1-based source line.
    pub line: u32,
}

/// Lexer output: the token stream plus per-line comment text (doc and
/// regular, line and block), used for escape-annotation lookup.
#[derive(Debug, Clone, Default)]
pub struct Lexed {
    pub tokens: Vec<Token>,
    /// `(line, fragment)` — one entry per source line that carries any
    /// comment text; multi-line block comments produce one entry per
    /// line they span.
    pub comments: Vec<(u32, String)>,
}

impl Lexed {
    /// Concatenated comment text on `line` (1-based), or `""`.
    pub fn comment_on(&self, line: u32) -> String {
        let mut out = String::new();
        for (l, c) in &self.comments {
            if *l == line {
                out.push_str(c);
                out.push(' ');
            }
        }
        out
    }

    /// True if a comment containing `marker` appears on `line` or
    /// within `window` lines above it — the escape-annotation contract.
    pub fn annotated(&self, line: u32, window: u32, marker: &str) -> bool {
        let lo = line.saturating_sub(window);
        self.comments
            .iter()
            .any(|(l, c)| *l >= lo && *l <= line && c.contains(marker))
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

/// Lexes `src` completely; never fails (unterminated literals consume
/// to end of input, mirroring how rustc recovers).
pub fn lex(src: &str) -> Lexed {
    let b = src.as_bytes();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line: u32 = 1;
    let push = |kind: TokKind, text: &str, line: u32, out: &mut Lexed| {
        out.tokens.push(Token {
            kind,
            text: text.to_string(),
            line,
        });
    };

    while i < b.len() {
        let c = b[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            _ if c.is_ascii_whitespace() => i += 1,
            // Comments.
            b'/' if b.get(i + 1) == Some(&b'/') => {
                let start = i + 2;
                let mut j = start;
                while j < b.len() && b[j] != b'\n' {
                    j += 1;
                }
                out.comments
                    .push((line, String::from_utf8_lossy(&b[start..j]).into_owned()));
                i = j;
            }
            b'/' if b.get(i + 1) == Some(&b'*') => {
                let mut depth = 1usize;
                let mut j = i + 2;
                let mut frag = String::new();
                while j < b.len() && depth > 0 {
                    if b[j] == b'/' && b.get(j + 1) == Some(&b'*') {
                        depth += 1;
                        j += 2;
                    } else if b[j] == b'*' && b.get(j + 1) == Some(&b'/') {
                        depth -= 1;
                        j += 2;
                    } else if b[j] == b'\n' {
                        out.comments.push((line, std::mem::take(&mut frag)));
                        line += 1;
                        j += 1;
                    } else {
                        frag.push(b[j] as char);
                        j += 1;
                    }
                }
                out.comments.push((line, frag));
                i = j;
            }
            // String forms. Prefix dispatch first: raw strings and
            // byte/C strings must not fall through to ident lexing.
            b'r' | b'b' | b'c' if starts_string_prefix(b, i) => {
                let (j, nl) = skip_prefixed_string(b, i, line);
                push(TokKind::Str, "\"\"", line, &mut out);
                line = nl;
                i = j;
            }
            b'"' => {
                let (j, nl) = skip_plain_string(b, i + 1, line);
                push(TokKind::Str, "\"\"", line, &mut out);
                line = nl;
                i = j;
            }
            b'\'' => {
                // Lifetime iff `'ident` not closed by another quote
                // (`'a'` is a char, `'a` a lifetime, `'\n'` a char).
                if b.get(i + 1).is_some_and(|&n| is_ident_start(n)) && b.get(i + 2) != Some(&b'\'')
                {
                    let start = i + 1;
                    let mut j = start;
                    while j < b.len() && is_ident_continue(b[j]) {
                        j += 1;
                    }
                    push(
                        TokKind::Lifetime,
                        &String::from_utf8_lossy(&b[start..j]),
                        line,
                        &mut out,
                    );
                    i = j;
                } else {
                    // Char literal: skip escapes to the closing quote.
                    let mut j = i + 1;
                    while j < b.len() && b[j] != b'\'' && b[j] != b'\n' {
                        if b[j] == b'\\' {
                            j += 1; // the escaped byte can be a quote
                        }
                        j += 1;
                    }
                    push(TokKind::Char, "''", line, &mut out);
                    i = (j + 1).min(b.len());
                }
            }
            _ if is_ident_start(c) => {
                let start = i;
                let mut j = i;
                while j < b.len() && is_ident_continue(b[j]) {
                    j += 1;
                }
                push(
                    TokKind::Ident,
                    &String::from_utf8_lossy(&b[start..j]),
                    line,
                    &mut out,
                );
                i = j;
            }
            _ if c.is_ascii_digit() => {
                let start = i;
                let mut j = i;
                while j < b.len()
                    && (b[j].is_ascii_alphanumeric()
                        || b[j] == b'_'
                        || (b[j] == b'.'
                            && b.get(j + 1).is_some_and(|&n| n.is_ascii_digit())
                            && b.get(j.wrapping_sub(1)) != Some(&b'.')))
                {
                    // `1..2` must not swallow the range dots.
                    if b[j] == b'.' && b.get(j + 1) == Some(&b'.') {
                        break;
                    }
                    j += 1;
                }
                push(
                    TokKind::Num,
                    &String::from_utf8_lossy(&b[start..j]),
                    line,
                    &mut out,
                );
                i = j;
            }
            _ => {
                push(TokKind::Punct, &(c as char).to_string(), line, &mut out);
                i += 1;
            }
        }
    }
    out
}

/// Does a string-literal prefix (`r"`, `r#"`, `b"`, `br#"`, `c"`,
/// `cr"`, `b'`, …) start at `i`? Raw *identifiers* (`r#match`) are
/// explicitly excluded.
fn starts_string_prefix(b: &[u8], i: usize) -> bool {
    // Reject if the prefix letter continues an identifier (`attr"` is
    // impossible in Rust, but `xr` in `0xr…` etc. should stay inert).
    if i > 0 && is_ident_continue(b[i - 1]) {
        return false;
    }
    let rest = &b[i..];
    let after = |k: usize| rest.get(k).copied();
    match rest.first() {
        Some(&b'r') => {
            let hashes = rest[1..].iter().take_while(|&&c| c == b'#').count();
            after(1 + hashes) == Some(b'"')
        }
        Some(&b'b') | Some(&b'c') => match after(1) {
            Some(b'"') => true,
            Some(b'r') => {
                let hashes = rest[2..].iter().take_while(|&&c| c == b'#').count();
                after(2 + hashes) == Some(b'"')
            }
            Some(b'\'') => rest.first() == Some(&b'b'), // byte literal b'x'
            _ => false,
        },
        _ => false,
    }
}

/// Skips a prefixed string/byte literal starting at `i` (at the prefix
/// letter). Returns `(next_index, next_line)`.
fn skip_prefixed_string(b: &[u8], i: usize, line: u32) -> (usize, u32) {
    let mut j = i;
    // Consume prefix letters.
    while j < b.len() && (b[j] == b'r' || b[j] == b'b' || b[j] == b'c') {
        j += 1;
    }
    if b.get(j) == Some(&b'\'') {
        // Byte literal b'x'.
        let mut k = j + 1;
        while k < b.len() && b[k] != b'\'' {
            if b[k] == b'\\' {
                k += 1;
            }
            k += 1;
        }
        return ((k + 1).min(b.len()), line);
    }
    let raw = b[i..j].contains(&b'r');
    let hashes = b[j..].iter().take_while(|&&c| c == b'#').count();
    j += hashes;
    debug_assert_eq!(b.get(j), Some(&b'"'));
    j += 1; // opening quote
    if raw {
        let mut nl = line;
        while j < b.len() {
            if b[j] == b'\n' {
                nl += 1;
                j += 1;
            } else if b[j] == b'"'
                && b[j + 1..].iter().take_while(|&&c| c == b'#').count() >= hashes
            {
                return (j + 1 + hashes, nl);
            } else {
                j += 1;
            }
        }
        (j, nl)
    } else {
        skip_plain_string(b, j, line)
    }
}

/// Skips a non-raw string body starting just after the opening quote.
fn skip_plain_string(b: &[u8], mut j: usize, mut line: u32) -> (usize, u32) {
    while j < b.len() {
        match b[j] {
            b'\\' => j += 2,
            b'"' => return (j + 1, line),
            b'\n' => {
                line += 1;
                j += 1;
            }
            _ => j += 1,
        }
    }
    (j, line)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn strings_never_leak_identifiers() {
        for src in [
            "let s = \"Instant::now\";",
            "let s = r\"Instant::now\";",
            "let s = r#\"Instant::now\"#;",
            "let s = r##\"quote \"# inside\"##;",
            "let s = b\"Instant::now\";",
            "let s = br\"Instant::now\";",
            "let s = \"multi\nInstant::now\nline\";",
            "let s = r\"multi\nInstant::now\nline\";",
        ] {
            let ids = idents(src);
            assert!(
                !ids.iter().any(|t| t == "Instant" || t == "now"),
                "{src:?} leaked {ids:?}"
            );
        }
    }

    #[test]
    fn raw_identifiers_are_not_raw_strings() {
        // `r#match` must not open a raw string (it lexes as `r`, `#`,
        // `match` — adequate, since no Str token swallows the line).
        assert_eq!(idents("let r#match = 1;"), vec!["let", "r", "match"]);
        let l = lex("let r#match = r\"x\";");
        assert_eq!(
            l.tokens.iter().filter(|t| t.kind == TokKind::Str).count(),
            1
        );
    }

    #[test]
    fn lifetimes_vs_chars() {
        let l = lex("fn f<'a>(x: &'a str) { let c = 'x'; let n = '\\n'; }");
        let lifetimes: Vec<_> = l
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .collect();
        assert_eq!(lifetimes.len(), 2);
        assert_eq!(
            l.tokens.iter().filter(|t| t.kind == TokKind::Char).count(),
            2
        );
    }

    #[test]
    fn comments_captured_with_lines() {
        let l = lex("// relaxed-ok: stats\nlet x = 1; // tail\n/* block\nspans */ let y = 2;\n");
        assert!(l.comment_on(1).contains("relaxed-ok:"));
        assert!(l.comment_on(2).contains("tail"));
        assert!(l.comment_on(3).contains("block"));
        assert!(l.comment_on(4).contains("spans"));
        assert!(l.annotated(3, 3, "relaxed-ok:"));
        assert!(!l.annotated(40, 3, "relaxed-ok:"));
    }

    #[test]
    fn line_numbers_track_multiline_literals() {
        let l = lex("let s = \"a\nb\";\nlet after = 1;");
        let after = l.tokens.iter().find(|t| t.text == "after").expect("after");
        assert_eq!(after.line, 3);
        let l = lex("let s = r\"a\nb\";\nlet after = 1;");
        let after = l.tokens.iter().find(|t| t.text == "after").expect("after");
        assert_eq!(after.line, 3);
    }

    #[test]
    fn nested_block_comments() {
        let l = lex("/* outer /* inner */ still comment */ let x = 1;");
        assert_eq!(
            idents("/* outer /* inner */ still */ let x = 1;"),
            vec!["let", "x"]
        );
        assert!(l.comment_on(1).contains("outer"));
    }

    #[test]
    fn numbers_do_not_swallow_ranges() {
        let texts: Vec<String> = lex("for i in 0..10 { a[1.5 as usize]; }")
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Num)
            .map(|t| t.text.clone())
            .collect();
        assert_eq!(texts, vec!["0", "10", "1.5"]);
    }
}
