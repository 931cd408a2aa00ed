//! Parser and validator for the Prometheus text exposition format.
//!
//! The inverse of [`crate::Registry::render_prometheus`]. Two
//! consumers: the round-trip tests (render → parse → same samples), and
//! the CI serve-smoke job, which scrapes a live server and fails the
//! build on any malformed line — so a formatting regression in the
//! registry can never ship silently.

use std::collections::HashMap;

/// One parsed sample line.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Metric name as it appears on the line (histogram samples carry
    /// their `_bucket`/`_sum`/`_count` suffixes).
    pub name: String,
    /// Label pairs in line order, escapes resolved.
    pub labels: Vec<(String, String)>,
    /// Sample value (`+Inf`/`-Inf`/`NaN` accepted).
    pub value: f64,
}

impl Sample {
    /// The value of label `key`, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Everything extracted from one exposition document.
#[derive(Debug, Clone, Default)]
pub struct Exposition {
    /// All sample lines, in document order.
    pub samples: Vec<Sample>,
    /// `# TYPE` declarations: metric name → type string.
    pub types: HashMap<String, String>,
    /// `# HELP` declarations: metric name → help text (escapes resolved).
    pub help: HashMap<String, String>,
}

fn is_name_start(c: char) -> bool {
    c.is_ascii_alphabetic() || c == '_' || c == ':'
}

fn is_name_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_' || c == ':'
}

/// Parses a metric name prefix of `s`; returns (name, rest).
fn take_name(s: &str) -> Result<(&str, &str), String> {
    let mut end = 0;
    for (i, c) in s.char_indices() {
        let ok = if i == 0 {
            is_name_start(c)
        } else {
            is_name_char(c)
        };
        if !ok {
            break;
        }
        end = i + c.len_utf8();
    }
    if end == 0 {
        return Err(format!("expected metric name at '{s}'"));
    }
    Ok((&s[..end], &s[end..]))
}

/// Resolves `\\`, `\"`, and `\n` escapes in a quoted label value.
fn unescape(s: &str) -> Result<String, String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('"') => out.push('"'),
            Some('n') => out.push('\n'),
            Some(other) => return Err(format!("bad escape '\\{other}'")),
            None => return Err("dangling backslash".into()),
        }
    }
    Ok(out)
}

type Labels = Vec<(String, String)>;

/// Parses the `{k="v",...}` label block; `s` starts just after `{`.
/// Returns (labels, rest-after-closing-brace).
fn take_labels(mut s: &str) -> Result<(Labels, &str), String> {
    let mut labels = Vec::new();
    loop {
        s = s.trim_start();
        if let Some(rest) = s.strip_prefix('}') {
            return Ok((labels, rest));
        }
        let (key, rest) = take_name(s)?;
        if key.contains(':') {
            return Err(format!("label name '{key}' may not contain ':'"));
        }
        let rest = rest.trim_start();
        let rest = rest
            .strip_prefix('=')
            .ok_or_else(|| format!("expected '=' after label '{key}'"))?;
        let rest = rest.trim_start();
        let rest = rest
            .strip_prefix('"')
            .ok_or_else(|| format!("expected '\"' opening value of label '{key}'"))?;
        // Find the closing quote, honoring escapes.
        let mut end = None;
        let mut escaped = false;
        for (i, c) in rest.char_indices() {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                end = Some(i);
                break;
            }
        }
        let end = end.ok_or_else(|| format!("unterminated value for label '{key}'"))?;
        labels.push((key.to_string(), unescape(&rest[..end])?));
        s = &rest[end + 1..];
        s = s.trim_start();
        if let Some(rest) = s.strip_prefix(',') {
            s = rest;
        }
    }
}

fn parse_value(s: &str) -> Result<f64, String> {
    match s {
        "+Inf" | "Inf" => Ok(f64::INFINITY),
        "-Inf" => Ok(f64::NEG_INFINITY),
        "NaN" => Ok(f64::NAN),
        _ => s.parse().map_err(|_| format!("bad sample value '{s}'")),
    }
}

/// Parses one exposition document. Returns every sample plus the
/// `# TYPE` / `# HELP` maps; any malformed line is an error naming the
/// 1-based line number.
pub fn parse_exposition(text: &str) -> Result<Exposition, String> {
    let mut exp = Exposition::default();
    for (ln, raw) in text.lines().enumerate() {
        let lineno = ln + 1;
        let line = raw.trim_end();
        if line.trim().is_empty() {
            continue;
        }
        let err = |e: String| format!("line {lineno}: {e}");
        if let Some(comment) = line.strip_prefix('#') {
            let comment = comment.trim_start();
            if let Some(rest) = comment.strip_prefix("TYPE ") {
                let (name, rest) = take_name(rest.trim_start()).map_err(err)?;
                let ty = rest.trim();
                if !matches!(
                    ty,
                    "counter" | "gauge" | "histogram" | "summary" | "untyped"
                ) {
                    return Err(err(format!("unknown metric type '{ty}'")));
                }
                if exp.types.insert(name.to_string(), ty.to_string()).is_some() {
                    return Err(err(format!("duplicate TYPE for '{name}'")));
                }
            } else if let Some(rest) = comment.strip_prefix("HELP ") {
                let (name, rest) = take_name(rest.trim_start()).map_err(err)?;
                exp.help
                    .insert(name.to_string(), unescape(rest.trim_start()).map_err(err)?);
            }
            // Other comments are legal and ignored.
            continue;
        }
        let (name, rest) = take_name(line).map_err(err)?;
        let rest = rest.trim_start();
        let (labels, rest) = if let Some(r) = rest.strip_prefix('{') {
            take_labels(r).map_err(err)?
        } else {
            (Vec::new(), rest)
        };
        let mut fields = rest.split_whitespace();
        let value = fields
            .next()
            .ok_or_else(|| err("missing sample value".into()))
            .and_then(|v| parse_value(v).map_err(err))?;
        // Optional timestamp (milliseconds).
        if let Some(ts) = fields.next() {
            ts.parse::<i64>()
                .map_err(|_| err(format!("bad timestamp '{ts}'")))?;
        }
        if fields.next().is_some() {
            return Err(err("trailing garbage after sample".into()));
        }
        exp.samples.push(Sample {
            name: name.to_string(),
            labels,
            value,
        });
    }
    Ok(exp)
}

/// Strips a histogram sample suffix, returning the base family name.
fn histogram_base(name: &str) -> Option<(&str, &str)> {
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(base) = name.strip_suffix(suffix) {
            return Some((base, suffix));
        }
    }
    None
}

/// Parses and structurally validates an exposition document:
///
/// * every line parses (delegating to [`parse_exposition`]);
/// * no duplicate `(name, labels)` series;
/// * every histogram family (per `# TYPE ... histogram`) has, for each
///   label set, an ascending `le` ladder with non-decreasing cumulative
///   counts ending in `+Inf`, and `_sum`/`_count` samples with
///   `_count` equal to the `+Inf` bucket.
///
/// Returns the parsed document on success.
pub fn validate_exposition(text: &str) -> Result<Exposition, String> {
    let exp = parse_exposition(text)?;

    // Duplicate series detection.
    let mut seen: HashMap<(String, Vec<(String, String)>), ()> = HashMap::new();
    for s in &exp.samples {
        let mut labels = s.labels.clone();
        labels.sort();
        if seen.insert((s.name.clone(), labels), ()).is_some() {
            return Err(format!(
                "duplicate series '{}' with identical labels",
                s.name
            ));
        }
    }

    // Histogram invariants, keyed by (family, labels-without-le).
    for (family, ty) in &exp.types {
        if ty != "histogram" {
            continue;
        }
        type Key = Vec<(String, String)>;
        let mut buckets: HashMap<Key, Vec<(f64, f64)>> = HashMap::new();
        let mut sums: HashMap<Key, f64> = HashMap::new();
        let mut counts: HashMap<Key, f64> = HashMap::new();
        for s in &exp.samples {
            let Some((base, suffix)) = histogram_base(&s.name) else {
                continue;
            };
            if base != family {
                continue;
            }
            let mut labels: Key = s
                .labels
                .iter()
                .filter(|(k, _)| k != "le")
                .cloned()
                .collect();
            labels.sort();
            match suffix {
                "_bucket" => {
                    let le = s
                        .label("le")
                        .ok_or_else(|| format!("'{}' bucket missing 'le' label", s.name))?;
                    let edge =
                        parse_value(le).map_err(|e| format!("'{}': bad le edge: {e}", s.name))?;
                    buckets.entry(labels).or_default().push((edge, s.value));
                }
                "_sum" => {
                    sums.insert(labels, s.value);
                }
                "_count" => {
                    counts.insert(labels, s.value);
                }
                _ => unreachable!(),
            }
        }
        if buckets.is_empty() {
            return Err(format!("histogram '{family}' has no _bucket samples"));
        }
        for (labels, ladder) in &buckets {
            let label_desc = if labels.is_empty() {
                String::new()
            } else {
                format!(
                    " {{{}}}",
                    labels
                        .iter()
                        .map(|(k, v)| format!("{k}={v}"))
                        .collect::<Vec<_>>()
                        .join(",")
                )
            };
            for w in ladder.windows(2) {
                if w[1].0 <= w[0].0 {
                    return Err(format!(
                        "histogram '{family}'{label_desc}: le edges not ascending \
                         ({} after {})",
                        w[1].0, w[0].0
                    ));
                }
                if w[1].1 < w[0].1 {
                    return Err(format!(
                        "histogram '{family}'{label_desc}: cumulative bucket counts \
                         decrease at le={}",
                        w[1].0
                    ));
                }
            }
            let last = ladder.last().expect("nonempty ladder");
            if last.0 != f64::INFINITY {
                return Err(format!(
                    "histogram '{family}'{label_desc}: last bucket must be le=\"+Inf\""
                ));
            }
            let count = counts.get(labels).ok_or_else(|| {
                format!("histogram '{family}'{label_desc}: missing _count sample")
            })?;
            if *count != last.1 {
                return Err(format!(
                    "histogram '{family}'{label_desc}: _count ({count}) != +Inf bucket ({})",
                    last.1
                ));
            }
            if !sums.contains_key(labels) {
                return Err(format!(
                    "histogram '{family}'{label_desc}: missing _sum sample"
                ));
            }
        }
    }
    Ok(exp)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_samples_with_and_without_labels() {
        let exp = parse_exposition(
            "# HELP db_x total things\n# TYPE db_x counter\ndb_x 4\n\
             db_y{a=\"b\",c=\"d\"} 2.5\n",
        )
        .unwrap();
        assert_eq!(exp.samples.len(), 2);
        assert_eq!(exp.samples[0].name, "db_x");
        assert_eq!(exp.samples[0].value, 4.0);
        assert_eq!(exp.samples[1].label("c"), Some("d"));
        assert_eq!(exp.types.get("db_x").map(String::as_str), Some("counter"));
        assert_eq!(
            exp.help.get("db_x").map(String::as_str),
            Some("total things")
        );
    }

    #[test]
    fn resolves_label_escapes() {
        let exp = parse_exposition("db_x{path=\"a\\\\b\",msg=\"say \\\"hi\\\"\\n\"} 1\n").unwrap();
        assert_eq!(exp.samples[0].label("path"), Some("a\\b"));
        assert_eq!(exp.samples[0].label("msg"), Some("say \"hi\"\n"));
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse_exposition("db_x{unterminated=\"} 1\n").is_err());
        assert!(parse_exposition("db_x\n").is_err());
        assert!(parse_exposition("1db_bad_name 3\n").is_err());
        assert!(parse_exposition("db_x nope\n").is_err());
        assert!(parse_exposition("# TYPE db_x flumph\n").is_err());
        let e = parse_exposition("db_ok 1\ndb_x oops\n").unwrap_err();
        assert!(e.contains("line 2"), "{e}");
    }

    #[test]
    fn validates_duplicate_series() {
        let text = "db_x{a=\"1\"} 1\ndb_x{a=\"1\"} 2\n";
        let e = validate_exposition(text).unwrap_err();
        assert!(e.contains("duplicate series"), "{e}");
        // Same name, different labels: fine.
        validate_exposition("db_x{a=\"1\"} 1\ndb_x{a=\"2\"} 2\n").unwrap();
    }

    #[test]
    fn validates_histogram_invariants() {
        let good = "# TYPE db_h histogram\n\
                    db_h_bucket{le=\"1\"} 2\n\
                    db_h_bucket{le=\"3\"} 5\n\
                    db_h_bucket{le=\"+Inf\"} 6\n\
                    db_h_sum 40\n\
                    db_h_count 6\n";
        validate_exposition(good).unwrap();

        let no_inf = "# TYPE db_h histogram\ndb_h_bucket{le=\"1\"} 2\n\
                      db_h_sum 2\ndb_h_count 2\n";
        assert!(validate_exposition(no_inf).unwrap_err().contains("+Inf"));

        let decreasing = "# TYPE db_h histogram\n\
                          db_h_bucket{le=\"1\"} 5\n\
                          db_h_bucket{le=\"3\"} 2\n\
                          db_h_bucket{le=\"+Inf\"} 5\n\
                          db_h_sum 1\ndb_h_count 5\n";
        assert!(validate_exposition(decreasing)
            .unwrap_err()
            .contains("decrease"));

        let bad_count = "# TYPE db_h histogram\n\
                         db_h_bucket{le=\"+Inf\"} 5\n\
                         db_h_sum 1\ndb_h_count 4\n";
        assert!(validate_exposition(bad_count)
            .unwrap_err()
            .contains("_count"));

        let no_sum = "# TYPE db_h histogram\n\
                      db_h_bucket{le=\"+Inf\"} 5\ndb_h_count 5\n";
        assert!(validate_exposition(no_sum).unwrap_err().contains("_sum"));
    }
}
