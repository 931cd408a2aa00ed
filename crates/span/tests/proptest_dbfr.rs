//! Property tests: the `.dbfr` codec round-trips every representable
//! dump and rejects every truncation (satellite of ISSUE 8's
//! flight-recorder work).
//!
//! The offline proptest shim supports range/tuple strategies, `any`,
//! `prop_map` and `collection::vec`; span records are derived from a
//! single `u64` seed via a splitmix-style expansion so one vec strategy
//! covers the whole record space.

use db_span::{DumpReason, FlightDump, SpanKind, SpanRecord};
use proptest::prelude::*;

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Expands one seed into a full span record, hitting every kind code
/// and the sentinel worker/tenant values.
fn span_from_seed(seed: u64) -> SpanRecord {
    let s = |i: u64| mix(seed.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
    let kind = SpanKind::ALL[(s(3) as usize) % SpanKind::ALL.len()];
    SpanRecord {
        trace_id: s(0),
        span_id: s(1) as u32,
        parent: s(2) as u32,
        kind,
        code: s(4) as u32,
        value: s(5),
        worker: if s(6) & 7 == 0 { u32::MAX } else { s(6) as u32 },
        tenant: if s(7) & 7 == 0 { u32::MAX } else { s(7) as u32 },
        t0_ns: s(8),
        t1_ns: s(9),
    }
}

fn tenant_from_seed(seed: u64) -> String {
    const CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789_-";
    let len = (seed % 13) as usize;
    (0..len)
        .map(|i| CHARS[(mix(seed.wrapping_add(i as u64)) as usize) % CHARS.len()] as char)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn dbfr_round_trips(
        reason_code in 1u8..=4,
        dropped in any::<u64>(),
        tenant_seeds in proptest::collection::vec(any::<u64>(), 0..6),
        span_seeds in proptest::collection::vec(any::<u64>(), 0..64),
    ) {
        let dump = FlightDump {
            reason: DumpReason::from_code(reason_code).unwrap(),
            dropped,
            tenants: tenant_seeds.iter().copied().map(tenant_from_seed).collect(),
            spans: span_seeds.iter().copied().map(span_from_seed).collect(),
        };
        let bytes = dump.encode();
        let back = FlightDump::decode(&bytes);
        prop_assert!(back.is_ok(), "decode failed: {:?}", back.err());
        prop_assert_eq!(back.unwrap(), dump);
    }

    #[test]
    fn dbfr_rejects_every_truncation_and_extension(
        span_seeds in proptest::collection::vec(any::<u64>(), 1..8),
        tail in any::<u8>(),
    ) {
        let dump = FlightDump {
            reason: DumpReason::Panic,
            dropped: 0,
            tenants: vec!["t".to_string()],
            spans: span_seeds.iter().copied().map(span_from_seed).collect(),
        };
        let bytes = dump.encode();
        for cut in 0..bytes.len() {
            prop_assert!(FlightDump::decode(&bytes[..cut]).is_err(), "cut={}", cut);
        }
        let mut extended = bytes.clone();
        extended.push(tail);
        prop_assert!(FlightDump::decode(&extended).is_err(), "trailing byte accepted");
    }
}
