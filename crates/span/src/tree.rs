//! Span-tree reconstruction: grouping a dump's spans into per-trace
//! trees, validating causal invariants, rendering text trees, and
//! exporting Chrome-trace duration events.

use crate::dbfr::FlightDump;
use crate::span::{SpanKind, SpanRecord, ROOT_SPAN};
use db_trace::json::Value;
use std::collections::{BTreeMap, HashMap, HashSet};

/// All spans of one trace, time-sorted, plus what reconstruction found.
#[derive(Debug, Clone)]
pub struct TraceTree {
    /// The 64-bit trace id.
    pub trace_id: u64,
    /// The trace's spans, sorted by `(t0, span_id)`.
    pub spans: Vec<SpanRecord>,
    /// Index (into `spans`) of the root span, when present. A dump
    /// taken mid-flight holds traces whose root has not finished yet;
    /// those are *partial*, not corrupt.
    pub root: Option<usize>,
}

impl TraceTree {
    /// True when the trace has its root span (request finished before
    /// the dump was taken).
    pub fn is_complete(&self) -> bool {
        self.root.is_some()
    }
}

/// Groups a dump's spans into per-trace trees (sorted by trace id, so
/// output is deterministic).
pub fn build_traces(dump: &FlightDump) -> Vec<TraceTree> {
    let mut by_trace: BTreeMap<u64, Vec<SpanRecord>> = BTreeMap::new();
    for s in &dump.spans {
        by_trace.entry(s.trace_id).or_default().push(*s);
    }
    by_trace
        .into_iter()
        .map(|(trace_id, mut spans)| {
            spans.sort_by_key(|s| (s.t0_ns, s.span_id));
            let root = spans.iter().position(|s| s.parent == 0);
            TraceTree {
                trace_id,
                spans,
                root,
            }
        })
        .collect()
}

/// Validates a dump's causal invariants and returns the trees:
///
/// * span ids are unique within a trace;
/// * at most one root (`parent == 0`) per trace, and the root is the
///   [`ROOT_SPAN`] id;
/// * no span is its own parent, and every named parent either exists
///   in the trace or is the root id (the ring may have evicted it);
///   when the rings overflowed (`dump.dropped > 0`) any parent may be
///   missing, because eviction is oldest-first and a parent (a sim
///   `attempt`) can be recorded before its children;
/// * every span has `t1 >= t0`.
///
/// Traces without a root are reported as partial by the caller, not as
/// errors — dumps are taken mid-flight by design.
pub fn validate_dump(dump: &FlightDump) -> Result<Vec<TraceTree>, String> {
    for s in &dump.spans {
        if s.tenant != crate::span::NO_TENANT && dump.tenant(s.tenant).is_none() {
            return Err(format!(
                "trace {:#018x} span {}: tenant index {} outside the string table",
                s.trace_id, s.span_id, s.tenant
            ));
        }
    }
    let trees = build_traces(dump);
    for t in &trees {
        let mut ids = HashSet::with_capacity(t.spans.len());
        let mut roots = 0u32;
        for s in &t.spans {
            if !ids.insert(s.span_id) {
                return Err(format!(
                    "trace {:#018x}: duplicate span id {}",
                    t.trace_id, s.span_id
                ));
            }
            if s.parent == 0 {
                roots += 1;
                if s.span_id != ROOT_SPAN {
                    return Err(format!(
                        "trace {:#018x}: root span has id {} (expected {ROOT_SPAN})",
                        t.trace_id, s.span_id
                    ));
                }
            }
            if s.parent == s.span_id {
                return Err(format!(
                    "trace {:#018x}: span {} is its own parent",
                    t.trace_id, s.span_id
                ));
            }
            if s.t1_ns < s.t0_ns {
                return Err(format!(
                    "trace {:#018x}: span {} ends before it starts",
                    t.trace_id, s.span_id
                ));
            }
        }
        if roots > 1 {
            return Err(format!("trace {:#018x}: {roots} root spans", t.trace_id));
        }
        for s in &t.spans {
            // A missing non-root parent is tolerated only for the root
            // id, unless the rings evicted spans: every recorded child
            // hangs off the root or another recorded span, so in a
            // drop-free dump anything else is a causality bug.
            if dump.dropped == 0
                && s.parent != 0
                && s.parent != ROOT_SPAN
                && !ids.contains(&s.parent)
            {
                return Err(format!(
                    "trace {:#018x}: span {} names missing parent {}",
                    t.trace_id, s.span_id, s.parent
                ));
            }
        }
    }
    Ok(trees)
}

/// One span's human-readable detail line (kind-aware).
fn describe(dump: &FlightDump, s: &SpanRecord) -> String {
    let dur_us = (s.t1_ns - s.t0_ns) / 1_000;
    let detail = match s.kind {
        SpanKind::Request => {
            let tenant = dump.tenant(s.tenant).unwrap_or("?");
            format!(
                "req={} tenant={tenant} status={}",
                s.value,
                SpanKind::status_name(s.code)
            )
        }
        SpanKind::Admit => format!("{} depth={}", SpanKind::admit_name(s.code), s.value),
        SpanKind::Queue => String::new(),
        SpanKind::Steal => format!("victim=w{}", s.value),
        SpanKind::Attempt => format!(
            "engine={} outcome={}",
            engine_name(s.value),
            SpanKind::attempt_name(s.code)
        ),
        SpanKind::Retry => format!("next_attempt={}", s.value),
        SpanKind::Degrade => format!("from={} to=serial", engine_name(s.value)),
        SpanKind::Fault => format!("code={}", s.code),
        SpanKind::StoreLoad => format!(
            "{} resident={}",
            match s.code {
                0 => "hit",
                1 => "miss",
                _ => "fault",
            },
            s.value
        ),
        SpanKind::EpochPin | SpanKind::DeltaWrite => format!("epoch={}", s.value),
        SpanKind::DeadlineMiss => String::new(),
        SpanKind::SimPhase => format!(
            "sm={} phase={} cycles={}",
            s.code >> 8,
            s.code & 0xff,
            s.value
        ),
        SpanKind::Wal => match s.code {
            0 => format!("append lsn={}", s.value),
            _ => format!("checkpoint epoch={}", s.value),
        },
        SpanKind::Recovery => format!(
            "replayed={}{}",
            s.value,
            if s.code == 1 {
                " torn_tail=truncated"
            } else {
                ""
            }
        ),
        SpanKind::Compact => format!(
            "outcome={} layers={}",
            match s.code {
                0 => "folded",
                1 => "aborted",
                _ => "raced",
            },
            s.value
        ),
        SpanKind::Team => format!(
            "expanded={}{}",
            s.value,
            if s.code == 1 { " left=queued" } else { "" }
        ),
    };
    let worker = if s.worker == crate::span::ADMISSION_WORKER {
        "admission".to_string()
    } else {
        format!("w{}", s.worker)
    };
    let mut line = format!("{} [{worker}] {}us", s.kind.name(), dur_us);
    if !detail.is_empty() {
        line.push(' ');
        line.push_str(&detail);
    }
    line
}

fn engine_name(idx: u64) -> &'static str {
    match idx {
        0 => "native",
        1 => "lockfree",
        2 => "sim",
        3 => "serial",
        4 => "partitioned",
        _ => "unknown",
    }
}

/// Renders one trace as an indented tree (children under parents, in
/// time order; orphans whose parent the ring evicted attach to the
/// root line).
pub fn render_trace(dump: &FlightDump, tree: &TraceTree) -> String {
    let mut children: HashMap<u32, Vec<&SpanRecord>> = HashMap::new();
    let present: HashSet<u32> = tree.spans.iter().map(|s| s.span_id).collect();
    for s in &tree.spans {
        if s.parent == 0 {
            continue;
        }
        // Re-parent orphans onto the root so nothing is silently lost.
        let parent = if present.contains(&s.parent) {
            s.parent
        } else {
            ROOT_SPAN
        };
        children.entry(parent).or_default().push(s);
    }
    let mut out = format!(
        "trace {:#018x}{}\n",
        tree.trace_id,
        if tree.is_complete() {
            ""
        } else {
            " (partial: root not yet recorded)"
        }
    );
    fn walk(
        dump: &FlightDump,
        children: &HashMap<u32, Vec<&SpanRecord>>,
        span: &SpanRecord,
        depth: usize,
        out: &mut String,
    ) {
        out.push_str(&"  ".repeat(depth));
        out.push_str(&describe(dump, span));
        out.push('\n');
        if let Some(kids) = children.get(&span.span_id) {
            for k in kids {
                walk(dump, children, k, depth + 1, out);
            }
        }
    }
    match tree.root {
        Some(r) => walk(dump, &children, &tree.spans[r], 1, &mut out),
        None => {
            // No root recorded: print first-level spans flat.
            for s in &tree.spans {
                out.push_str("  ");
                out.push_str(&describe(dump, s));
                out.push('\n');
            }
        }
    }
    out
}

/// Builds a Chrome-trace (`chrome://tracing` / Perfetto) document from
/// a dump: one duration event per span (pid = low 32 bits of the trace
/// id, tid = worker, ts/dur in microseconds) via
/// [`db_trace::chrome::duration_event`].
pub fn chrome_document(dump: &FlightDump) -> Value {
    let mut events = Vec::with_capacity(dump.spans.len());
    for s in &dump.spans {
        let mut args = vec![
            (
                "trace_id".to_string(),
                Value::str(format!("{:#018x}", s.trace_id)),
            ),
            ("span".to_string(), Value::u64(s.span_id as u64)),
            ("parent".to_string(), Value::u64(s.parent as u64)),
            ("code".to_string(), Value::u64(s.code as u64)),
            ("value".to_string(), Value::u64(s.value)),
        ];
        if let Some(t) = dump.tenant(s.tenant) {
            args.push(("tenant".to_string(), Value::str(t)));
        }
        events.push(db_trace::chrome::duration_event(
            s.kind.name(),
            "span",
            s.trace_id & 0xffff_ffff,
            s.worker as u64,
            s.t0_ns as f64 / 1_000.0,
            (s.t1_ns - s.t0_ns) as f64 / 1_000.0,
            Value::Obj(args),
        ));
    }
    Value::Obj(vec![
        ("traceEvents".to_string(), Value::Arr(events)),
        ("displayTimeUnit".to_string(), Value::str("ms")),
        (
            "otherData".to_string(),
            Value::Obj(vec![
                ("source".to_string(), Value::str("diggerbees flight export")),
                ("reason".to_string(), Value::str(dump.reason.name())),
                ("dropped".to_string(), Value::u64(dump.dropped)),
            ]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::DumpReason;
    use crate::span::NO_TENANT;

    fn span(trace: u64, id: u32, parent: u32, kind: SpanKind, t0: u64) -> SpanRecord {
        SpanRecord {
            trace_id: trace,
            span_id: id,
            parent,
            kind,
            code: 0,
            value: 0,
            worker: 0,
            tenant: NO_TENANT,
            t0_ns: t0,
            t1_ns: t0 + 10,
        }
    }

    fn dump(spans: Vec<SpanRecord>) -> FlightDump {
        FlightDump {
            reason: DumpReason::Explicit,
            dropped: 0,
            tenants: vec!["t0".into()],
            spans,
        }
    }

    #[test]
    fn builds_and_renders_a_tree() {
        let mut root = span(9, 1, 0, SpanKind::Request, 0);
        root.tenant = 0;
        root.value = 42;
        let d = dump(vec![
            span(9, 2, 1, SpanKind::Admit, 1),
            span(9, 3, 1, SpanKind::Attempt, 2),
            span(9, 4, 3, SpanKind::Fault, 3),
            root,
        ]);
        let trees = validate_dump(&d).unwrap();
        assert_eq!(trees.len(), 1);
        assert!(trees[0].is_complete());
        let text = render_trace(&d, &trees[0]);
        assert!(text.contains("request"), "{text}");
        assert!(text.contains("tenant=t0"), "{text}");
        // The fault span nests two levels deep (under the attempt).
        assert!(text.contains("\n      fault"), "{text}");
    }

    #[test]
    fn partial_traces_are_tolerated_but_corruption_is_not() {
        // Root missing: partial, still valid.
        let d = dump(vec![span(5, 2, 1, SpanKind::Queue, 0)]);
        let trees = validate_dump(&d).unwrap();
        assert!(!trees[0].is_complete());
        assert!(render_trace(&d, &trees[0]).contains("partial"));

        // Two roots: invalid.
        let two_roots = dump(vec![
            span(5, 1, 0, SpanKind::Request, 0),
            span(5, 1, 0, SpanKind::Request, 1),
        ]);
        assert!(validate_dump(&two_roots).unwrap_err().contains("duplicate"));
        // A root with a non-root id is invalid too.
        let bad_root = dump(vec![span(5, 7, 0, SpanKind::Request, 0)]);
        assert!(validate_dump(&bad_root)
            .unwrap_err()
            .contains("root span has id"));

        // Missing mid-tree parent: invalid.
        let orphan = dump(vec![span(5, 4, 3, SpanKind::Fault, 0)]);
        assert!(validate_dump(&orphan)
            .unwrap_err()
            .contains("missing parent"));

        // Self-parent and reversed time: invalid.
        let selfp = dump(vec![span(5, 3, 3, SpanKind::Queue, 0)]);
        assert!(validate_dump(&selfp).unwrap_err().contains("own parent"));
        let mut rev = span(5, 1, 0, SpanKind::Request, 10);
        rev.t1_ns = 5;
        assert!(validate_dump(&dump(vec![rev]))
            .unwrap_err()
            .contains("ends before"));

        // Tenant index outside the table: invalid.
        let mut bad_tenant = span(5, 1, 0, SpanKind::Request, 0);
        bad_tenant.tenant = 7;
        assert!(validate_dump(&dump(vec![bad_tenant]))
            .unwrap_err()
            .contains("string table"));
    }

    #[test]
    fn chrome_export_carries_every_span() {
        let d = dump(vec![
            span(9, 1, 0, SpanKind::Request, 0),
            span(9, 2, 1, SpanKind::Attempt, 1),
        ]);
        let doc = chrome_document(&d);
        let events = doc.get("traceEvents").and_then(Value::as_array).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(
            events[0].get("ph").and_then(Value::as_str),
            Some("X"),
            "spans are duration events"
        );
        assert_eq!(
            events[0].get("name").and_then(Value::as_str),
            Some("request")
        );
        // Round-trips through the workspace JSON.
        let text = doc.to_json();
        assert!(Value::parse(&text).is_ok());
    }
}
