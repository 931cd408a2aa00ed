//! Property tests pinning the row codec to a byte-at-a-time LEB128
//! reference: `encode_row_into` writes each varint as one 8-byte store
//! and `varint_len` counts bits without a branch, and neither may
//! change a byte.

use db_graph::encode::{decode_row_into, encode_row_into, encoded_row_len, varint_len};
use proptest::prelude::*;

/// Gaps one either side of each LEB128 length boundary.
const EDGES: [u32; 10] = [
    0x7f,
    0x80,
    0x3fff,
    0x4000,
    0x1f_ffff,
    0x20_0000,
    0xfff_ffff,
    0x1000_0000,
    u32::MAX - 1,
    u32::MAX,
];

/// One varint, a byte at a time.
fn leb128(mut v: u32, out: &mut Vec<u8>) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// A sorted row's first value and gaps, a byte at a time.
fn reference(row: &[u32]) -> Vec<u8> {
    let mut out = Vec::new();
    let mut prev = 0;
    for &v in row {
        leb128(v - prev, &mut out);
        prev = v;
    }
    out
}

/// A sorted row from `(kind, value)` steps: a repeat, a boundary gap, a
/// small gap or any gap, saturating at `u32::MAX` (so long rows end in
/// repeats of it).
fn arb_row() -> impl Strategy<Value = Vec<u32>> {
    proptest::collection::vec((0u8..4, any::<u32>()), 0..48).prop_map(|steps| {
        let mut at = 0u32;
        steps
            .into_iter()
            .map(|(kind, x)| {
                let gap = match kind {
                    0 => 0,
                    1 => EDGES[x as usize % EDGES.len()],
                    2 => x % 300,
                    _ => x >> (x % 32),
                };
                at = at.saturating_add(gap);
                at
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    /// Into an exactly sized slice and at the front of a longer one
    /// whose tail holds other bytes, the encoding is the reference's;
    /// the decoder reads it back.
    #[test]
    fn encode_matches_a_byte_at_a_time_reference(row in arb_row(), tail in 0usize..20) {
        let want = reference(&row);
        prop_assert_eq!(encoded_row_len(&row), want.len());

        let mut exact = vec![0xa5; want.len()];
        prop_assert_eq!(encode_row_into(&row, &mut exact), want.len());
        prop_assert_eq!(&exact, &want);

        let mut long = vec![0x5a; want.len() + tail];
        prop_assert_eq!(encode_row_into(&row, &mut long), want.len());
        prop_assert_eq!(&long[..want.len()], &want[..]);
        // Up to 7 bytes past the encoding may be overwritten, no more.
        let kept = (want.len() + 7).min(long.len());
        prop_assert!(long[kept..].iter().all(|&b| b == 0x5a));

        let (mut pos, mut back) = (0, vec![0; row.len()]);
        decode_row_into(&want, &mut pos, &mut back).unwrap();
        prop_assert_eq!(back, row);
        prop_assert_eq!(pos, want.len());
    }
}

#[test]
fn varint_len_matches_the_reference_at_every_boundary() {
    let mut values = vec![0, 1, u32::MAX];
    for bits in 1..32 {
        let edge = 1u32 << bits;
        values.extend([edge - 1, edge, edge + 1]);
    }
    for v in values {
        let mut bytes = Vec::new();
        leb128(v, &mut bytes);
        assert_eq!(varint_len(v), bytes.len(), "{v:#x}");
    }
}
