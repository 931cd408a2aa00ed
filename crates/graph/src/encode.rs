//! Varint + delta codec for compressed adjacency rows.
//!
//! A CSR neighbor row is sorted ascending (the [`crate::GraphBuilder`]
//! invariant), so consecutive ids are close and the gaps compress well:
//! the first neighbor is stored as a plain LEB128 varint and every
//! subsequent neighbor as the varint of its gap to the predecessor.
//! Duplicate neighbors (legal in raw CSR) encode as zero gaps.
//!
//! This module is the pure in-memory codec; the on-disk framing
//! (sections, checksums) lives in the `db-store` crate. Both
//! directions work in buffers the caller sized:
//! [`encoded_row_len`] sizes a row exactly, [`encode_row_into`] writes
//! it, and [`decode_row_into`] reads it back. The decoder is total: it
//! never panics on attacker-controlled bytes — truncation, overlong
//! varints, and 32-bit overflow all come back as a typed
//! [`DecodeError`].

/// Maximum encoded length of one `u32` varint (5 × 7 bits ≥ 32 bits).
pub const MAX_VARINT_LEN: usize = 5;

/// A defect in a varint/delta byte stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The stream ended mid-varint or before the expected value count.
    Truncated {
        /// Byte offset at which more input was required.
        at: usize,
    },
    /// A varint ran past [`MAX_VARINT_LEN`] bytes or exceeded `u32`.
    Overflow {
        /// Byte offset of the offending varint's first byte.
        at: usize,
    },
    /// A delta pushed the running neighbor id past `u32::MAX`.
    DeltaOverflow {
        /// Byte offset of the offending gap varint.
        at: usize,
    },
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated { at } => write!(f, "varint stream truncated at byte {at}"),
            DecodeError::Overflow { at } => write!(f, "varint at byte {at} overflows u32"),
            DecodeError::DeltaOverflow { at } => {
                write!(f, "delta at byte {at} overflows the u32 vertex space")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// Writes the LEB128 encoding of `v` to the front of `out` one byte at
/// a time and returns its length.
#[inline]
fn put_varint(mut v: u32, out: &mut [u8]) -> usize {
    let mut len = 0;
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out[len] = byte;
            return len + 1;
        }
        out[len] = byte | 0x80;
        len += 1;
    }
}

/// Reads one LEB128 `u32` from `bytes` starting at `*pos`, advancing
/// `*pos` past it.
#[inline]
pub fn read_varint(bytes: &[u8], pos: &mut usize) -> Result<u32, DecodeError> {
    let start = *pos;
    let mut value: u32 = 0;
    let mut shift = 0u32;
    loop {
        let Some(&b) = bytes.get(*pos) else {
            return Err(DecodeError::Truncated { at: *pos });
        };
        *pos += 1;
        let payload = (b & 0x7f) as u32;
        // The fifth byte may only contribute 4 bits (32 = 4*7 + 4).
        if shift == 28 && payload > 0x0f {
            return Err(DecodeError::Overflow { at: start });
        }
        value |= payload << shift;
        if b & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
        if shift > 28 {
            return Err(DecodeError::Overflow { at: start });
        }
    }
}

/// The LEB128 encoding of `v` in the low [`varint_len`] bytes of a
/// little-endian word: each 7-bit group in its own byte, with the
/// continuation bit set on all but the last. The bytes above are zero.
#[inline]
fn varint_word(v: u32, len: usize) -> u64 {
    let x = u64::from(v);
    let groups = (x & 0x7f)
        | (x << 1 & 0x7f00)
        | (x << 2 & 0x7f_0000)
        | (x << 3 & 0x7f00_0000)
        | (x << 4 & 0xf_0000_0000);
    groups | (0x80_8080_8080 & ((1 << (8 * (len - 1))) - 1))
}

/// Delta+varint encodes one sorted neighbor row into the front of a
/// buffer the caller sized: `out` must hold at least
/// [`encoded_row_len`] bytes. Returns that length.
///
/// The caller guarantees `row` is sorted ascending (duplicates fine);
/// an unsorted row would produce an underflowing gap, so this panics in
/// debug builds and must be pre-sorted by callers handling raw input.
///
/// Each varint is written as one 8-byte store while 8 bytes of `out`
/// remain, so this may overwrite up to 7 bytes of `out` past the length
/// it returns (with zeros); bytes past `out` are never touched.
///
/// # Panics
///
/// Panics if `out` is shorter than the encoding.
pub fn encode_row_into(row: &[u32], out: &mut [u8]) -> usize {
    debug_assert!(
        row.windows(2).all(|w| w[0] <= w[1]),
        "encode_row_into requires a sorted row"
    );
    let mut prev = 0u32;
    let mut len = 0;
    for &v in row {
        let gap = v.wrapping_sub(prev);
        prev = v;
        let n = varint_len(gap);
        match out.get_mut(len..len + 8) {
            Some(word) => word.copy_from_slice(&varint_word(gap, n).to_le_bytes()),
            None => {
                put_varint(gap, &mut out[len..]);
            }
        }
        len += n;
    }
    len
}

/// Decodes `out.len()` delta+varint neighbors from `bytes` at `*pos`
/// into `out`, advancing `*pos`: the form for buffers the caller
/// sized.
pub fn decode_row_into(bytes: &[u8], pos: &mut usize, out: &mut [u32]) -> Result<(), DecodeError> {
    let mut prev = 0u32;
    for (i, v) in out.iter_mut().enumerate() {
        let at = *pos;
        let raw = read_varint(bytes, pos)?;
        prev = if i == 0 {
            raw
        } else {
            prev.checked_add(raw)
                .ok_or(DecodeError::DeltaOverflow { at })?
        };
        *v = prev;
    }
    Ok(())
}

/// Exact encoded byte length of one sorted row (what
/// [`encode_row_into`] returns), for size accounting without
/// materializing bytes.
pub fn encoded_row_len(row: &[u32]) -> usize {
    let mut prev = 0u32;
    let mut total = 0usize;
    for &v in row {
        total += varint_len(v.wrapping_sub(prev));
        prev = v;
    }
    total
}

/// Encoded length of one varint: one byte per started 7 significant
/// bits, without a branch (`⌈bits / 7⌉` equals `(9 · bits + 64) / 64`
/// for 1 to 32 bits).
#[inline]
pub fn varint_len(v: u32) -> usize {
    let bits = 32 - (v | 1).leading_zeros() as usize;
    (bits * 9 + 64) >> 6
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The LEB128 length boundaries, each with its encoded length.
    const BOUNDARIES: [(u32, usize); 11] = [
        (0, 1),
        (1, 1),
        (0x7f, 1),
        (0x80, 2),
        (0x3fff, 2),
        (0x4000, 3),
        (0x1f_ffff, 3),
        (0x20_0000, 4),
        (0xfff_ffff, 4),
        (0x1000_0000, 5),
        (u32::MAX, 5),
    ];

    /// `row` encoded into an exactly sized buffer.
    fn encoded(row: &[u32]) -> Vec<u8> {
        let mut buf = vec![0; encoded_row_len(row)];
        assert_eq!(encode_row_into(row, &mut buf), buf.len());
        buf
    }

    #[test]
    fn varint_round_trips_boundaries() {
        for (v, len) in BOUNDARIES {
            assert_eq!(varint_len(v), len, "len for {v:#x}");
            // A row's first value is a plain varint.
            let buf = encoded(&[v]);
            assert_eq!(buf.len(), len, "encoding of {v:#x}");
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn row_round_trips_with_duplicates_and_empties() {
        for row in [
            vec![],
            vec![0],
            vec![u32::MAX],
            vec![0, 0, 0],
            vec![1, 5, 5, 9, 1_000_000, u32::MAX],
        ] {
            let buf = encoded(&row);
            let mut pos = 0;
            let mut back = vec![0; row.len()];
            decode_row_into(&buf, &mut pos, &mut back).unwrap();
            assert_eq!(back, row);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn truncation_is_a_typed_error() {
        let buf = encoded(&[3, 700, 800_000]);
        for cut in 0..buf.len() {
            let mut pos = 0;
            let r = decode_row_into(&buf[..cut], &mut pos, &mut [0; 3]);
            assert!(
                matches!(r, Err(DecodeError::Truncated { .. })),
                "cut {cut}: {r:?}"
            );
        }
    }

    #[test]
    fn overlong_varints_are_rejected() {
        // Six continuation bytes: past the 5-byte cap.
        let bytes = [0x80u8, 0x80, 0x80, 0x80, 0x80, 0x01];
        let mut pos = 0;
        assert!(matches!(
            read_varint(&bytes, &mut pos),
            Err(DecodeError::Overflow { at: 0 })
        ));
        // Five bytes but the top byte carries bits beyond u32.
        let bytes = [0xffu8, 0xff, 0xff, 0xff, 0x1f];
        let mut pos = 0;
        assert!(matches!(
            read_varint(&bytes, &mut pos),
            Err(DecodeError::Overflow { at: 0 })
        ));
    }

    #[test]
    fn delta_overflow_is_a_typed_error() {
        // First value u32::MAX, then a gap of 1.
        let bytes = [0xffu8, 0xff, 0xff, 0xff, 0x0f, 0x01];
        let mut pos = 0;
        assert!(matches!(
            decode_row_into(&bytes, &mut pos, &mut [0; 2]),
            Err(DecodeError::DeltaOverflow { at: 5 })
        ));
    }
}
