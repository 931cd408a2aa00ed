//! Varint + delta codec for compressed adjacency rows.
//!
//! A CSR neighbor row is sorted ascending (the [`crate::GraphBuilder`]
//! invariant), so consecutive ids are close and the gaps compress well:
//! the first neighbor is stored as a plain LEB128 varint and every
//! subsequent neighbor as the varint of its gap to the predecessor.
//! Duplicate neighbors (legal in raw CSR) encode as zero gaps.
//!
//! This module is the pure in-memory codec; the on-disk framing
//! (sections, checksums, hub segregation) lives in the `db-store`
//! crate. Both directions are total: `decode_row` never panics on
//! attacker-controlled bytes — truncation, overlong varints, and
//! 32-bit overflow all come back as a typed [`DecodeError`].

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

/// Appends the LEB128 encoding of `v` to `out`.
#[inline]
pub fn write_varint(v: u32, out: &mut Vec<u8>) {
    let mut buf = [0; MAX_VARINT_LEN];
    let len = put_varint(v, &mut buf);
    out.extend_from_slice(&buf[..len]);
}

/// Writes the LEB128 encoding of `v` to the front of `out` and returns
/// its length.
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

/// Delta+varint encodes one sorted neighbor row into `out`.
///
/// The caller guarantees `row` is sorted ascending (duplicates fine);
/// an unsorted row would produce an underflowing gap, so this panics in
/// debug builds and must be pre-sorted by callers handling raw input.
pub fn encode_row(row: &[u32], out: &mut Vec<u8>) {
    let start = out.len();
    out.resize(start + encoded_row_len(row), 0);
    encode_row_into(row, &mut out[start..]);
}

/// [`encode_row`] into the front of a buffer the caller sized: `out`
/// must hold at least [`encoded_row_len`] bytes. Returns that length.
///
/// # Panics
///
/// Panics if `out` is shorter than the encoding.
pub fn encode_row_into(row: &[u32], out: &mut [u8]) -> usize {
    debug_assert!(
        row.windows(2).all(|w| w[0] <= w[1]),
        "encode_row requires a sorted row"
    );
    let mut prev = 0u32;
    let mut len = 0;
    for (i, &v) in row.iter().enumerate() {
        let gap = if i == 0 { v } else { v.wrapping_sub(prev) };
        len += put_varint(gap, &mut out[len..]);
        prev = v;
    }
    len
}

/// Decodes `degree` delta+varint neighbors from `bytes` at `*pos`,
/// appending them to `out` and advancing `*pos`. On an error the
/// appended values are unspecified.
pub fn decode_row(
    bytes: &[u8],
    pos: &mut usize,
    degree: usize,
    out: &mut Vec<u32>,
) -> Result<(), DecodeError> {
    // Every value takes at least one byte, so a row longer than the
    // bytes left is truncated: grow by no more than those.
    let fits = degree.min(bytes.len().saturating_sub(*pos));
    let start = out.len();
    out.resize(start + fits, 0);
    decode_row_into(bytes, pos, &mut out[start..])?;
    if fits < degree {
        return Err(DecodeError::Truncated { at: *pos });
    }
    Ok(())
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

/// Exact encoded byte length of one sorted row (what [`encode_row`]
/// would append), for size accounting without materializing bytes.
pub fn encoded_row_len(row: &[u32]) -> usize {
    let mut prev = 0u32;
    let mut total = 0usize;
    for (i, &v) in row.iter().enumerate() {
        let gap = if i == 0 { v } else { v.wrapping_sub(prev) };
        total += varint_len(gap);
        prev = v;
    }
    total
}

/// Encoded length of one varint.
#[inline]
pub fn varint_len(v: u32) -> usize {
    match v {
        0..=0x7f => 1,
        0x80..=0x3fff => 2,
        0x4000..=0x1f_ffff => 3,
        0x20_0000..=0xfff_ffff => 4,
        _ => 5,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_round_trips_boundaries() {
        for v in [
            0u32,
            1,
            0x7f,
            0x80,
            0x3fff,
            0x4000,
            0x1f_ffff,
            0x20_0000,
            0xfff_ffff,
            0x1000_0000,
            u32::MAX,
        ] {
            let mut buf = Vec::new();
            write_varint(v, &mut buf);
            assert_eq!(buf.len(), varint_len(v), "len for {v:#x}");
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
            let mut buf = Vec::new();
            encode_row(&row, &mut buf);
            assert_eq!(buf.len(), encoded_row_len(&row));
            let mut pos = 0;
            let mut back = Vec::new();
            decode_row(&buf, &mut pos, row.len(), &mut back).unwrap();
            assert_eq!(back, row);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn truncation_is_a_typed_error() {
        let mut buf = Vec::new();
        encode_row(&[3, 700, 800_000], &mut buf);
        for cut in 0..buf.len() {
            let mut pos = 0;
            let mut out = Vec::new();
            let r = decode_row(&buf[..cut], &mut pos, 3, &mut out);
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
        let mut buf = Vec::new();
        write_varint(u32::MAX, &mut buf);
        write_varint(1, &mut buf);
        let mut pos = 0;
        let mut out = Vec::new();
        assert!(matches!(
            decode_row(&buf, &mut pos, 2, &mut out),
            Err(DecodeError::DeltaOverflow { .. })
        ));
    }
}
