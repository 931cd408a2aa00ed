//! Committed-baseline workflow: the analyzer gates CI on *new*
//! findings only. Known findings live in `analyze-baseline.json` as
//! line-independent fingerprints; a finding whose fingerprint appears
//! there is accepted, one that does not fails the gate, and baseline
//! entries no longer produced are reported as stale (a warning, so
//! burn-down shrinks the file without breaking the build). The file
//! holds fingerprints only: each names its file and function, and a
//! line number would go stale whenever code above the finding moved.

use db_trace::json::Value;

use crate::report::Finding;

pub const BASELINE_VERSION: u64 = 1;

/// Result of diffing current findings against a baseline.
#[derive(Debug)]
pub struct Diff<'a> {
    /// Findings not present in the baseline — these fail the gate.
    pub new: Vec<&'a Finding>,
    /// Baseline fingerprints no longer produced — stale, warn only.
    pub stale: Vec<String>,
    /// Findings matched by the baseline.
    pub matched: usize,
}

/// Serializes findings into baseline JSON: their fingerprints, sorted
/// and deduplicated.
pub fn to_json(findings: &[Finding]) -> String {
    let mut fps: Vec<String> = findings.iter().map(Finding::fingerprint).collect();
    fps.sort();
    fps.dedup();
    let arr = fps
        .into_iter()
        .map(|fp| Value::Obj(vec![("fingerprint".into(), Value::str(fp))]))
        .collect();
    let doc = Value::Obj(vec![
        ("version".into(), Value::u64(BASELINE_VERSION)),
        ("findings".into(), Value::Arr(arr)),
    ]);
    let mut s = doc.to_json();
    s.push('\n');
    s
}

/// Parses baseline JSON into its fingerprint set.
pub fn parse(text: &str) -> Result<Vec<String>, String> {
    let doc = Value::parse(text).map_err(|e| e.to_string())?;
    let version = doc
        .get("version")
        .and_then(Value::as_u64)
        .ok_or("baseline missing `version`")?;
    if version != BASELINE_VERSION {
        return Err(format!("unsupported baseline version {version}"));
    }
    let arr = doc
        .get("findings")
        .and_then(Value::as_array)
        .ok_or("baseline missing `findings`")?;
    let mut out = Vec::with_capacity(arr.len());
    for e in arr {
        let fp = e
            .get("fingerprint")
            .and_then(Value::as_str)
            .ok_or("baseline entry missing `fingerprint`")?;
        out.push(fp.to_string());
    }
    Ok(out)
}

/// Diffs `findings` against the baseline fingerprints.
pub fn diff<'a>(findings: &'a [Finding], baseline: &[String]) -> Diff<'a> {
    use std::collections::BTreeSet;
    let base: BTreeSet<&str> = baseline.iter().map(String::as_str).collect();
    let mut produced: BTreeSet<String> = BTreeSet::new();
    let mut new = Vec::new();
    let mut matched = 0usize;
    for f in findings {
        let fp = f.fingerprint();
        if base.contains(fp.as_str()) {
            matched += 1;
        } else {
            new.push(f);
        }
        produced.insert(fp);
    }
    let stale = baseline
        .iter()
        .filter(|fp| !produced.contains(*fp))
        .cloned()
        .collect();
    Diff {
        new,
        stale,
        matched,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Frame;

    fn finding(kind: &str) -> Finding {
        finding_at(kind, "f", 7)
    }

    fn finding_at(kind: &str, function: &str, line: u32) -> Finding {
        Finding {
            analysis: "A1",
            kind: kind.into(),
            file: "crates/x/src/a.rs".into(),
            function: function.into(),
            line,
            message: "m".into(),
            frames: vec![Frame {
                file: "crates/x/src/a.rs".into(),
                function: function.into(),
                line,
            }],
            detail: "d".into(),
        }
    }

    #[test]
    fn round_trip_and_diff() {
        let known = vec![finding("panic-unwrap")];
        let text = to_json(&known);
        let base = parse(&text).expect("parse");
        assert_eq!(base.len(), 1);

        let now = vec![finding("panic-unwrap"), finding("panic-expect")];
        let d = diff(&now, &base);
        assert_eq!(d.matched, 1);
        assert_eq!(d.new.len(), 1);
        assert_eq!(d.new[0].kind, "panic-expect");
        assert!(d.stale.is_empty());

        let d = diff(&[], &base);
        assert_eq!(d.stale.len(), 1);
    }

    /// `to_json` writes each fingerprint once, sorted, and nothing that
    /// names a line: `parse` reads back exactly that list, and the text
    /// does not change when a finding moves.
    #[test]
    fn to_json_writes_sorted_fingerprints_that_parse_back() {
        let known = vec![
            finding_at("panic-unwrap", "g", 40),
            finding_at("panic-expect", "f", 7),
            finding_at("panic-unwrap", "g", 41),
        ];
        let text = to_json(&known);
        let mut want: Vec<String> = known.iter().map(Finding::fingerprint).collect();
        want.sort();
        want.dedup();
        assert_eq!(want.len(), 2);
        assert_eq!(parse(&text).expect("parse"), want);
        assert!(
            !text.contains("location") && !text.contains(":40"),
            "{text}"
        );
        let moved = vec![
            finding_at("panic-unwrap", "g", 90),
            finding_at("panic-expect", "f", 8),
        ];
        assert_eq!(to_json(&moved), text);
    }

    #[test]
    fn version_mismatch_rejected() {
        assert!(parse("{\"version\": 99, \"findings\": []}").is_err());
        assert!(parse("not json").is_err());
    }
}
