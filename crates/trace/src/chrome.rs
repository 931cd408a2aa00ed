//! Chrome-trace / Perfetto exporter.
//!
//! Emits the Trace Event Format (`{"traceEvents": [...]}`): one *process*
//! per block, one *thread* (lane) per warp, so `chrome://tracing` or
//! <https://ui.perfetto.dev> renders a per-block timeline with a lane per
//! warp. Every engine event becomes an instant event (`"ph": "i"`) whose
//! `ts` is the engine's cycle stamp and whose `args` carry the payload
//! (vertex, victim, entry count).

use crate::event::{EventKind, PhaseKind, TraceEvent};
use crate::json::Value;
use std::io::{self, Write};

/// Builds the full Chrome-trace document for `events` (no drops).
pub fn chrome_trace_document(events: &[TraceEvent]) -> Value {
    chrome_trace_document_with_drops(events, 0)
}

/// Builds the full Chrome-trace document for `events`, recording how
/// many older events the ring buffer overwrote (`dropped`) in the
/// document's `otherData.dropped_events` field, so a viewer (or a
/// later analysis pass) can tell a complete trace from a truncated one.
pub fn chrome_trace_document_with_drops(events: &[TraceEvent], dropped: u64) -> Value {
    let mut out = Vec::new();

    // Metadata: name the tracks. One process per block, one thread per
    // (block, warp) lane.
    let mut lanes: Vec<(u32, u32)> = events.iter().map(|e| (e.block, e.warp)).collect();
    lanes.sort_unstable();
    lanes.dedup();
    let mut blocks: Vec<u32> = lanes.iter().map(|&(b, _)| b).collect();
    blocks.dedup();

    for &b in &blocks {
        out.push(Value::Obj(vec![
            ("ph".into(), Value::str("M")),
            ("name".into(), Value::str("process_name")),
            ("pid".into(), Value::u64(b as u64)),
            (
                "args".into(),
                Value::Obj(vec![("name".into(), Value::str(format!("block {b}")))]),
            ),
        ]));
    }
    for &(b, w) in &lanes {
        out.push(Value::Obj(vec![
            ("ph".into(), Value::str("M")),
            ("name".into(), Value::str("thread_name")),
            ("pid".into(), Value::u64(b as u64)),
            ("tid".into(), Value::u64(w as u64)),
            (
                "args".into(),
                Value::Obj(vec![("name".into(), Value::str(format!("warp {w}")))]),
            ),
        ]));
    }

    for e in events {
        out.push(event_to_json(e));
    }

    Value::Obj(vec![
        ("traceEvents".into(), Value::Arr(out)),
        ("displayTimeUnit".into(), Value::str("ns")),
        (
            "otherData".into(),
            Value::Obj(vec![
                ("generator".into(), Value::str("db-trace")),
                ("dropped_events".into(), Value::u64(dropped)),
            ]),
        ),
    ])
}

/// Builds one complete (`"ph": "X"`) duration event — the span-shaped
/// counterpart of the engine's instant events, used by `db-span`'s
/// flight-dump exporter. `ts`/`dur` are in microseconds per the Trace
/// Event Format; `args` carries the caller's payload object.
pub fn duration_event(
    name: &str,
    category: &str,
    pid: u64,
    tid: u64,
    ts_us: f64,
    dur_us: f64,
    args: Value,
) -> Value {
    Value::Obj(vec![
        ("name".into(), Value::str(name)),
        ("cat".into(), Value::str(category)),
        ("ph".into(), Value::str("X")),
        ("pid".into(), Value::u64(pid)),
        ("tid".into(), Value::u64(tid)),
        ("ts".into(), Value::Num(ts_us)),
        ("dur".into(), Value::Num(dur_us)),
        ("args".into(), args),
    ])
}

/// Reads `otherData.dropped_events` back out of a parsed document
/// (0 for documents written before the field existed).
pub fn dropped_from_document(doc: &Value) -> u64 {
    doc.get("otherData")
        .and_then(|o| o.get("dropped_events"))
        .and_then(Value::as_u64)
        .unwrap_or(0)
}

/// One engine event as a Chrome instant event.
pub fn event_to_json(e: &TraceEvent) -> Value {
    let mut args: Vec<(String, Value)> = Vec::new();
    match e.kind {
        EventKind::Push { vertex } | EventKind::Pop { vertex } => {
            args.push(("vertex".into(), Value::u64(vertex as u64)));
        }
        EventKind::Flush { entries } | EventKind::Refill { entries } => {
            args.push(("entries".into(), Value::u64(entries as u64)));
        }
        EventKind::StealIntra {
            victim_warp,
            entries,
        } => {
            args.push(("victim_warp".into(), Value::u64(victim_warp as u64)));
            args.push(("entries".into(), Value::u64(entries as u64)));
        }
        EventKind::StealInter {
            victim_block,
            entries,
        } => {
            args.push(("victim_block".into(), Value::u64(victim_block as u64)));
            args.push(("entries".into(), Value::u64(entries as u64)));
        }
        EventKind::StealFail { victim } => {
            args.push(("victim".into(), Value::u64(victim as u64)));
        }
        EventKind::WarpIdle => {}
        EventKind::KernelPhase { phase } => {
            args.push((
                "phase".into(),
                Value::str(match phase {
                    PhaseKind::Start => "start",
                    PhaseKind::Finish => "finish",
                }),
            ));
        }
        EventKind::Fault { code } => {
            args.push(("code".into(), Value::u64(code as u64)));
        }
        EventKind::Recover {
            victim_block,
            entries,
        } => {
            args.push(("victim_block".into(), Value::u64(victim_block as u64)));
            args.push(("entries".into(), Value::u64(entries as u64)));
        }
    }
    Value::Obj(vec![
        ("name".into(), Value::str(e.kind.name())),
        ("cat".into(), Value::str("db")),
        ("ph".into(), Value::str("i")),
        ("s".into(), Value::str("t")),
        ("ts".into(), Value::u64(e.cycle)),
        ("pid".into(), Value::u64(e.block as u64)),
        ("tid".into(), Value::u64(e.warp as u64)),
        ("args".into(), Value::Obj(args)),
    ])
}

/// Parses one Chrome instant event back into a [`TraceEvent`]; metadata
/// events (`"ph": "M"`) return `None`. Inverse of [`event_to_json`].
pub fn event_from_json(v: &Value) -> Option<TraceEvent> {
    if v.get("ph")?.as_str()? != "i" {
        return None;
    }
    let name = v.get("name")?.as_str()?;
    let cycle = v.get("ts")?.as_u64()?;
    let block = v.get("pid")?.as_u64()? as u32;
    let warp = v.get("tid")?.as_u64()? as u32;
    let args = v.get("args")?;
    let arg = |k: &str| args.get(k).and_then(Value::as_u64).map(|x| x as u32);
    let kind = match name {
        "Push" => EventKind::Push {
            vertex: arg("vertex")?,
        },
        "Pop" => EventKind::Pop {
            vertex: arg("vertex")?,
        },
        "Flush" => EventKind::Flush {
            entries: arg("entries")?,
        },
        "Refill" => EventKind::Refill {
            entries: arg("entries")?,
        },
        "StealIntra" => EventKind::StealIntra {
            victim_warp: arg("victim_warp")?,
            entries: arg("entries")?,
        },
        "StealInter" => EventKind::StealInter {
            victim_block: arg("victim_block")?,
            entries: arg("entries")?,
        },
        "StealFail" => EventKind::StealFail {
            victim: arg("victim")?,
        },
        "WarpIdle" => EventKind::WarpIdle,
        "KernelPhase" => EventKind::KernelPhase {
            phase: match args.get("phase")?.as_str()? {
                "start" => PhaseKind::Start,
                "finish" => PhaseKind::Finish,
                _ => return None,
            },
        },
        "Fault" => EventKind::Fault { code: arg("code")? },
        "Recover" => EventKind::Recover {
            victim_block: arg("victim_block")?,
            entries: arg("entries")?,
        },
        _ => return None,
    };
    Some(TraceEvent {
        cycle,
        block,
        warp,
        kind,
    })
}

/// Extracts every engine event from a parsed Chrome-trace document, in
/// document order.
pub fn events_from_document(doc: &Value) -> Vec<TraceEvent> {
    doc.get("traceEvents")
        .and_then(Value::as_array)
        .map(|items| items.iter().filter_map(event_from_json).collect())
        .unwrap_or_default()
}

/// Writes the Chrome-trace JSON for `events` to `w`.
pub fn write_chrome_trace<W: Write>(events: &[TraceEvent], w: &mut W) -> io::Result<()> {
    w.write_all(chrome_trace_document(events).to_json().as_bytes())
}

/// Like [`write_chrome_trace`], carrying the ring buffer's drop count.
pub fn write_chrome_trace_with_drops<W: Write>(
    events: &[TraceEvent],
    dropped: u64,
    w: &mut W,
) -> io::Result<()> {
    w.write_all(
        chrome_trace_document_with_drops(events, dropped)
            .to_json()
            .as_bytes(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn document_shape_and_inverse() {
        let events = vec![
            TraceEvent {
                cycle: 0,
                block: 0,
                warp: 0,
                kind: EventKind::KernelPhase {
                    phase: PhaseKind::Start,
                },
            },
            TraceEvent {
                cycle: 5,
                block: 1,
                warp: 2,
                kind: EventKind::Push { vertex: 7 },
            },
            TraceEvent {
                cycle: 9,
                block: 1,
                warp: 2,
                kind: EventKind::StealInter {
                    victim_block: 0,
                    entries: 16,
                },
            },
            TraceEvent {
                cycle: 14,
                block: 1,
                warp: 2,
                kind: EventKind::Fault { code: 0 },
            },
            TraceEvent {
                cycle: 15,
                block: 0,
                warp: 0,
                kind: EventKind::Recover {
                    victim_block: 1,
                    entries: 8,
                },
            },
        ];
        let doc = chrome_trace_document(&events);
        let text = doc.to_json();
        let parsed = Value::parse(&text).unwrap();
        let back = events_from_document(&parsed);
        assert_eq!(back, events);

        // Metadata names both blocks and both lanes.
        let items = parsed.get("traceEvents").unwrap().as_array().unwrap();
        let metas = items
            .iter()
            .filter(|v| v.get("ph").and_then(Value::as_str) == Some("M"))
            .count();
        assert_eq!(metas, 2 + 2); // 2 process_name + 2 thread_name

        // A drop-free export records zero dropped events.
        assert_eq!(dropped_from_document(&parsed), 0);
    }

    #[test]
    fn drop_count_rides_in_other_data() {
        let events = vec![TraceEvent {
            cycle: 1,
            block: 0,
            warp: 0,
            kind: EventKind::WarpIdle,
        }];
        let doc = chrome_trace_document_with_drops(&events, 17);
        let parsed = Value::parse(&doc.to_json()).unwrap();
        assert_eq!(dropped_from_document(&parsed), 17);
        // The drop count never masquerades as an engine event.
        assert_eq!(events_from_document(&parsed), events);
    }
}
