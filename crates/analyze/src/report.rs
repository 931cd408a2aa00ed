//! Finding model, stable fingerprints and human-readable rendering.

/// One evidence frame: a function plus the line inside it that moves
/// the chain forward (a call site, or the offending site itself for
/// the last frame).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    pub file: String,
    pub function: String,
    pub line: u32,
}

/// One analysis finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// `A1`..`A6`.
    pub analysis: &'static str,
    /// Finding kind within the analysis, e.g. `panic-unwrap`,
    /// `relaxed-unjustified`, `lock-cycle`.
    pub kind: String,
    /// File of the primary location.
    pub file: String,
    /// Function (display form) the finding anchors to.
    pub function: String,
    /// Primary line.
    pub line: u32,
    pub message: String,
    /// Root→site evidence chain (or site list for aggregate findings).
    pub frames: Vec<Frame>,
    /// Free-form discriminator folded into the fingerprint so two
    /// different sites in one function stay distinct when needed.
    pub detail: String,
}

impl Finding {
    /// Stable identity for baseline diffing. Deliberately excludes
    /// line numbers so unrelated edits above a finding don't churn
    /// the baseline; includes analysis, kind, file, function and the
    /// symbolic detail.
    pub fn fingerprint(&self) -> String {
        format!(
            "{}:{}:{}:{}:{}",
            self.analysis, self.kind, self.file, self.function, self.detail
        )
    }

    /// `crates/x/src/y.rs:12: [A1 panic-unwrap] message` plus an
    /// indented chain.
    pub fn render(&self) -> String {
        let mut s = format!(
            "{}:{}: [{} {}] {}\n",
            self.file, self.line, self.analysis, self.kind, self.message
        );
        for (i, fr) in self.frames.iter().enumerate() {
            let arrow = if i == 0 { "   " } else { "-> " };
            s.push_str(&format!(
                "    {}{} ({}:{})\n",
                arrow, fr.function, fr.file, fr.line
            ));
        }
        s
    }
}

/// Sorts findings into a stable report order.
pub fn sort_findings(findings: &mut [Finding]) {
    findings.sort_by(|a, b| {
        (a.analysis, &a.file, a.line, &a.kind, &a.detail)
            .cmp(&(b.analysis, &b.file, b.line, &b.kind, &b.detail))
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f() -> Finding {
        Finding {
            analysis: "A1",
            kind: "panic-unwrap".into(),
            file: "crates/x/src/a.rs".into(),
            function: "decode".into(),
            line: 40,
            message: "unwrap reachable from serve path".into(),
            frames: vec![
                Frame {
                    file: "crates/x/src/a.rs".into(),
                    function: "handle".into(),
                    line: 10,
                },
                Frame {
                    file: "crates/x/src/a.rs".into(),
                    function: "decode".into(),
                    line: 40,
                },
            ],
            detail: "unwrap".into(),
        }
    }

    #[test]
    fn fingerprint_is_line_independent() {
        let a = f();
        let mut b = f();
        b.line = 99;
        b.frames[1].line = 99;
        assert_eq!(a.fingerprint(), b.fingerprint());
        b.kind = "panic-expect".into();
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn render_includes_chain() {
        let s = f().render();
        assert!(s.contains("[A1 panic-unwrap]"));
        assert!(s.contains("-> decode"));
    }

    #[test]
    fn sort_is_stable_by_analysis_then_file() {
        let mut v = vec![
            Finding {
                analysis: "A2",
                ..f()
            },
            f(),
        ];
        sort_findings(&mut v);
        assert_eq!(v[0].analysis, "A1");
    }
}
