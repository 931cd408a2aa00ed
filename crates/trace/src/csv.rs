//! CSV exporter for the figure harness: one row per event, fixed
//! columns, empty cells for payload fields a kind does not carry —
//! plus the inverse parser ([`parse_csv`]) so post-hoc tools
//! (`diggerbees check --race`) can re-ingest any `--trace` output.

use crate::event::{EventKind, PhaseKind, TraceEvent};
use std::io::{self, Write};

pub const CSV_HEADER: &str = "cycle,block,warp,event,vertex,victim,entries,phase";

fn row(e: &TraceEvent) -> String {
    let (vertex, victim, entries, phase) = match e.kind {
        EventKind::Push { vertex } => (Some(vertex), None, None, None),
        EventKind::Pop { vertex } => (Some(vertex), None, None, None),
        EventKind::Flush { entries } => (None, None, Some(entries), None),
        EventKind::Refill { entries } => (None, None, Some(entries), None),
        EventKind::StealIntra {
            victim_warp,
            entries,
        } => (None, Some(victim_warp), Some(entries), None),
        EventKind::StealInter {
            victim_block,
            entries,
        } => (None, Some(victim_block), Some(entries), None),
        EventKind::StealFail { victim } => (None, Some(victim), None, None),
        EventKind::WarpIdle => (None, None, None, None),
        EventKind::KernelPhase { phase } => (
            None,
            None,
            None,
            Some(match phase {
                PhaseKind::Start => "start",
                PhaseKind::Finish => "finish",
            }),
        ),
        // Fault code rides in `entries`; recovery reuses the steal shape.
        EventKind::Fault { code } => (None, None, Some(code), None),
        EventKind::Recover {
            victim_block,
            entries,
        } => (None, Some(victim_block), Some(entries), None),
    };
    let opt = |x: Option<u32>| x.map(|v| v.to_string()).unwrap_or_default();
    format!(
        "{},{},{},{},{},{},{},{}",
        e.cycle,
        e.block,
        e.warp,
        e.kind.name(),
        opt(vertex),
        opt(victim),
        opt(entries),
        phase.unwrap_or_default()
    )
}

pub fn csv_string(events: &[TraceEvent]) -> String {
    csv_string_with_drops(events, 0)
}

/// Like [`csv_string`], appending a `Dropped` trailer row (drop count
/// in the `entries` column, empty provenance cells) when the ring
/// buffer overwrote `dropped > 0` older events — the CSV equivalent of
/// the Chrome exporter's `otherData.dropped_events`.
pub fn csv_string_with_drops(events: &[TraceEvent], dropped: u64) -> String {
    let mut out = String::with_capacity(events.len() * 32 + CSV_HEADER.len() + 1);
    out.push_str(CSV_HEADER);
    out.push('\n');
    for e in events {
        out.push_str(&row(e));
        out.push('\n');
    }
    if dropped > 0 {
        out.push_str(&format!(",,,Dropped,,,{dropped},\n"));
    }
    out
}

/// Writes the CSV for `events` to `w`, carrying the ring buffer's drop
/// count.
pub fn write_csv_with_drops<W: Write>(
    events: &[TraceEvent],
    dropped: u64,
    w: &mut W,
) -> io::Result<()> {
    w.write_all(csv_string_with_drops(events, dropped).as_bytes())
}

/// A parsed CSV trace: the events plus the `Dropped` trailer count
/// (0 when the ring buffer never overflowed).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ParsedCsv {
    pub events: Vec<TraceEvent>,
    pub dropped: u64,
}

/// Parses text produced by [`csv_string`] / [`csv_string_with_drops`]
/// back into events — the round-trip inverse of the exporter.
///
/// # Errors
///
/// Returns a `line number: description` string for the first
/// malformed row.
pub fn parse_csv(text: &str) -> Result<ParsedCsv, String> {
    let mut lines = text.lines().enumerate();
    match lines.next() {
        Some((_, h)) if h.trim_end() == CSV_HEADER => {}
        Some((_, h)) => return Err(format!("line 1: bad header {h:?}")),
        None => return Err("empty input".into()),
    }
    let mut out = ParsedCsv::default();
    for (idx, line) in lines {
        let lineno = idx + 1;
        if line.is_empty() {
            continue;
        }
        let cols: Vec<&str> = line.split(',').collect();
        if cols.len() != 8 {
            return Err(format!(
                "line {lineno}: expected 8 columns, got {}",
                cols.len()
            ));
        }
        let field = |i: usize, name: &str| -> Result<u32, String> {
            cols[i]
                .parse::<u32>()
                .map_err(|_| format!("line {lineno}: bad {name} {:?}", cols[i]))
        };
        if cols[3] == "Dropped" {
            out.dropped = cols[6]
                .parse::<u64>()
                .map_err(|_| format!("line {lineno}: bad drop count {:?}", cols[6]))?;
            continue;
        }
        let kind = match cols[3] {
            "Push" => EventKind::Push {
                vertex: field(4, "vertex")?,
            },
            "Pop" => EventKind::Pop {
                vertex: field(4, "vertex")?,
            },
            "Flush" => EventKind::Flush {
                entries: field(6, "entries")?,
            },
            "Refill" => EventKind::Refill {
                entries: field(6, "entries")?,
            },
            "StealIntra" => EventKind::StealIntra {
                victim_warp: field(5, "victim")?,
                entries: field(6, "entries")?,
            },
            "StealInter" => EventKind::StealInter {
                victim_block: field(5, "victim")?,
                entries: field(6, "entries")?,
            },
            "StealFail" => EventKind::StealFail {
                victim: field(5, "victim")?,
            },
            "WarpIdle" => EventKind::WarpIdle,
            "KernelPhase" => EventKind::KernelPhase {
                phase: match cols[7] {
                    "start" => PhaseKind::Start,
                    "finish" => PhaseKind::Finish,
                    p => return Err(format!("line {lineno}: bad phase {p:?}")),
                },
            },
            "Fault" => EventKind::Fault {
                code: field(6, "code")?,
            },
            "Recover" => EventKind::Recover {
                victim_block: field(5, "victim")?,
                entries: field(6, "entries")?,
            },
            k => return Err(format!("line {lineno}: unknown event kind {k:?}")),
        };
        out.events.push(TraceEvent {
            cycle: cols[0]
                .parse::<u64>()
                .map_err(|_| format!("line {lineno}: bad cycle {:?}", cols[0]))?,
            block: field(1, "block")?,
            warp: field(2, "warp")?,
            kind,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_have_fixed_column_count() {
        let events = vec![
            TraceEvent {
                cycle: 1,
                block: 0,
                warp: 3,
                kind: EventKind::Push { vertex: 42 },
            },
            TraceEvent {
                cycle: 2,
                block: 0,
                warp: 3,
                kind: EventKind::WarpIdle,
            },
            TraceEvent {
                cycle: 3,
                block: 1,
                warp: 0,
                kind: EventKind::StealIntra {
                    victim_warp: 2,
                    entries: 4,
                },
            },
            TraceEvent {
                cycle: 4,
                block: 1,
                warp: 0,
                kind: EventKind::KernelPhase {
                    phase: PhaseKind::Finish,
                },
            },
        ];
        let text = csv_string(&events);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5);
        let cols = CSV_HEADER.split(',').count();
        for line in &lines {
            assert_eq!(line.split(',').count(), cols, "bad row: {line}");
        }
        assert!(lines[1].starts_with("1,0,3,Push,42,"));
        assert!(lines[3].contains("StealIntra,,2,4,"));
        assert!(lines[4].ends_with("finish"));
    }

    #[test]
    fn dropped_trailer_row_keeps_the_column_count() {
        let events = vec![TraceEvent {
            cycle: 1,
            block: 0,
            warp: 0,
            kind: EventKind::WarpIdle,
        }];
        let text = csv_string_with_drops(&events, 123);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        let cols = CSV_HEADER.split(',').count();
        assert_eq!(lines[2].split(',').count(), cols, "bad row: {}", lines[2]);
        assert_eq!(lines[2], ",,,Dropped,,,123,");
        // No trailer when nothing was dropped.
        assert_eq!(csv_string_with_drops(&events, 0), csv_string(&events));
    }

    #[test]
    fn parse_round_trips_every_kind() {
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
                cycle: 1,
                block: 0,
                warp: 3,
                kind: EventKind::Push { vertex: 42 },
            },
            TraceEvent {
                cycle: 2,
                block: 0,
                warp: 3,
                kind: EventKind::Pop { vertex: 42 },
            },
            TraceEvent {
                cycle: 3,
                block: 0,
                warp: 1,
                kind: EventKind::Flush { entries: 32 },
            },
            TraceEvent {
                cycle: 4,
                block: 0,
                warp: 1,
                kind: EventKind::Refill { entries: 16 },
            },
            TraceEvent {
                cycle: 5,
                block: 1,
                warp: 0,
                kind: EventKind::StealIntra {
                    victim_warp: 2,
                    entries: 4,
                },
            },
            TraceEvent {
                cycle: 6,
                block: 1,
                warp: 0,
                kind: EventKind::StealInter {
                    victim_block: 0,
                    entries: 8,
                },
            },
            TraceEvent {
                cycle: 7,
                block: 1,
                warp: 2,
                kind: EventKind::StealFail { victim: 0 },
            },
            TraceEvent {
                cycle: 8,
                block: 1,
                warp: 2,
                kind: EventKind::WarpIdle,
            },
            TraceEvent {
                cycle: 10,
                block: 0,
                warp: 2,
                kind: EventKind::Fault { code: 1 },
            },
            TraceEvent {
                cycle: 11,
                block: 1,
                warp: 1,
                kind: EventKind::Recover {
                    victim_block: 0,
                    entries: 3,
                },
            },
            TraceEvent {
                cycle: 14,
                block: 0,
                warp: 0,
                kind: EventKind::KernelPhase {
                    phase: PhaseKind::Finish,
                },
            },
        ];
        let parsed = parse_csv(&csv_string_with_drops(&events, 7)).unwrap();
        assert_eq!(parsed.events, events);
        assert_eq!(parsed.dropped, 7);
        let again = parse_csv(&csv_string(&events)).unwrap();
        assert_eq!(again.dropped, 0);
    }

    #[test]
    fn parse_rejects_malformed_input() {
        assert!(parse_csv("").is_err());
        assert!(parse_csv("not,the,header\n").is_err());
        let bad_cols = format!("{CSV_HEADER}\n1,0,0,Push,42\n");
        assert!(parse_csv(&bad_cols).unwrap_err().contains("8 columns"));
        let bad_kind = format!("{CSV_HEADER}\n1,0,0,Bogus,,,,\n");
        assert!(parse_csv(&bad_kind).unwrap_err().contains("unknown event"));
        let bad_vertex = format!("{CSV_HEADER}\n1,0,0,Push,xyz,,,\n");
        assert!(parse_csv(&bad_vertex).unwrap_err().contains("bad vertex"));
    }
}
