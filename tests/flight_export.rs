//! `diggerbees flight export` validates a dump before converting it:
//! the `.dbfr` codec round-trips any record, so a span that ends before
//! it starts decodes fine and must be refused by validation rather than
//! reach the Chrome exporter's duration arithmetic.

use db_span::{DumpReason, FlightDump, SpanKind, SpanRecord, NO_TENANT};
use std::process::Command;

#[test]
fn export_refuses_a_span_that_ends_before_it_starts() {
    let dir = std::env::temp_dir().join(format!("flight-export-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let dump = FlightDump {
        reason: DumpReason::Explicit,
        dropped: 0,
        tenants: Vec::new(),
        spans: vec![SpanRecord {
            trace_id: 9,
            span_id: 1,
            parent: 0,
            kind: SpanKind::Request,
            code: 0,
            value: 0,
            worker: 0,
            tenant: NO_TENANT,
            t0_ns: 10,
            t1_ns: 5,
        }],
    };
    let input = dir.join("reversed.dbfr");
    let output = dir.join("spans.json");
    std::fs::write(&input, dump.encode()).unwrap();
    let run = Command::new(env!("CARGO_BIN_EXE_diggerbees"))
        .args(["flight", "export"])
        .arg(&input)
        .arg("--out")
        .arg(&output)
        .output()
        .unwrap();
    let exported = output.exists();
    std::fs::remove_dir_all(&dir).ok();
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(!run.status.success(), "export must fail: {stderr}");
    assert!(stderr.contains("ends before it starts"), "{stderr}");
    assert!(!exported, "nothing is written for an invalid dump");
}
