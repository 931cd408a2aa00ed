//! The `.dbsg` pack format: constants, header/section-table codecs, and
//! the checksum. DESIGN.md §8 is the normative spec; this module is its
//! executable form.
//!
//! File layout (all integers little-endian, all sections 8-byte aligned):
//!
//! ```text
//! [ header: 64 bytes ]
//! [ section table: section_count × 32 bytes ]
//! [ padding to 8 ]
//! [ section payloads, each padded to 8 ]
//! ```
//!
//! Header (offsets in bytes):
//!
//! | off | size | field |
//! |-----|------|-------|
//! | 0   | 8    | magic `DBSTORE\x01` |
//! | 8   | 2    | version (currently 2) |
//! | 10  | 2    | flags (bit 0 directed) |
//! | 12  | 4    | section_count |
//! | 16  | 4    | n (vertex count) |
//! | 20  | 8    | arcs |
//! | 28  | 28   | reserved (0) |
//! | 56  | 8    | checksum of header bytes 0..56 |
//!
//! Section-table entry:
//!
//! | off | size | field |
//! |-----|------|-------|
//! | 0   | 4    | section id |
//! | 4   | 4    | reserved (0) |
//! | 8   | 8    | absolute byte offset (8-aligned) |
//! | 16  | 8    | payload length in bytes (unpadded) |
//! | 24  | 8    | checksum of payload bytes |
//!
//! Readers ignore sections with unknown ids (forward compatibility);
//! writers never reorder the known ones. Version bumps are reserved for
//! changes that break this reader.

/// The 8-byte magic at offset 0: `DBSTORE` plus a format-generation byte.
pub const MAGIC: [u8; 8] = *b"DBSTORE\x01";

/// Current format version. A pack of any other version fails the load
/// with [`crate::StoreError::UnsupportedVersion`].
pub const VERSION: u16 = 2;

/// Header size in bytes.
pub const HEADER_LEN: usize = 64;

/// Section-table entry size in bytes.
pub const SECTION_ENTRY_LEN: usize = 32;

/// Header flag bit 0: the graph is directed.
pub const FLAG_DIRECTED: u16 = 1 << 0;

/// Section id: the `n + 1` row-pointer `u64`s.
pub const SEC_ROW_PTR: u32 = 1;

/// Section id: every row's delta+varint stream, in vertex order.
pub const SEC_COL_PACKED: u32 = 3;

/// The name `store inspect` prints for a section id (`None` for an id
/// this reader skips).
pub fn section_name(id: u32) -> Option<&'static str> {
    match id {
        SEC_ROW_PTR => Some("row_ptr"),
        SEC_COL_PACKED => Some("col_packed"),
        _ => None,
    }
}

/// Rounds `v` up to the next multiple of 8.
#[inline]
pub fn align8(v: u64) -> u64 {
    (v + 7) & !7
}

/// Streaming 64-bit checksum over little-endian 8-byte words
/// (multiply-xor mixing, FNV-style), with the total length folded in at
/// the end so zero-padded tails of different lengths differ. Chunk
/// boundaries do not affect the result.
#[derive(Debug, Clone)]
pub struct Hash64 {
    state: u64,
    tail: [u8; 8],
    tail_len: usize,
    total: u64,
}

const SEED: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x100_0000_01b3;

impl Default for Hash64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Hash64 {
    /// Fresh hasher.
    pub fn new() -> Self {
        Hash64 {
            state: SEED,
            tail: [0; 8],
            tail_len: 0,
            total: 0,
        }
    }

    #[inline]
    fn mix(&mut self, word: u64) {
        self.state = (self.state ^ word).wrapping_mul(PRIME);
        self.state ^= self.state >> 29;
    }

    /// Feeds bytes into the hash.
    pub fn update(&mut self, mut bytes: &[u8]) {
        self.total = self.total.wrapping_add(bytes.len() as u64);
        if self.tail_len > 0 {
            let need = 8 - self.tail_len;
            let take = need.min(bytes.len());
            self.tail[self.tail_len..self.tail_len + take].copy_from_slice(&bytes[..take]);
            self.tail_len += take;
            bytes = &bytes[take..];
            if self.tail_len == 8 {
                let w = u64::from_le_bytes(self.tail);
                self.mix(w);
                self.tail_len = 0;
            } else {
                return;
            }
        }
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            // io-ok: chunks_exact(8) guarantees the slice length
            let w = u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
            self.mix(w);
        }
        let rem = chunks.remainder();
        self.tail[..rem.len()].copy_from_slice(rem);
        self.tail_len = rem.len();
    }

    /// Finishes and returns the digest.
    pub fn finish(mut self) -> u64 {
        if self.tail_len > 0 {
            self.tail[self.tail_len..].fill(0);
            let w = u64::from_le_bytes(self.tail);
            self.mix(w);
        }
        let total = self.total;
        self.mix(total ^ 0x9e37_79b9_7f4a_7c15);
        self.state
    }
}

/// One-shot convenience over [`Hash64`].
pub fn hash64(bytes: &[u8]) -> u64 {
    let mut h = Hash64::new();
    h.update(bytes);
    h.finish()
}

/// Decoded pack header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// Format version.
    pub version: u16,
    /// Flag bits ([`FLAG_DIRECTED`]).
    pub flags: u16,
    /// Number of section-table entries.
    pub section_count: u32,
    /// Vertex count.
    pub n: u32,
    /// Stored arc count.
    pub arcs: u64,
}

impl Header {
    /// Whether the packed graph is directed.
    pub fn directed(&self) -> bool {
        self.flags & FLAG_DIRECTED != 0
    }

    /// Encodes the header into its 64-byte on-disk form, computing the
    /// embedded checksum.
    pub fn encode(&self) -> [u8; HEADER_LEN] {
        let mut buf = [0u8; HEADER_LEN];
        buf[0..8].copy_from_slice(&MAGIC);
        buf[8..10].copy_from_slice(&self.version.to_le_bytes());
        buf[10..12].copy_from_slice(&self.flags.to_le_bytes());
        buf[12..16].copy_from_slice(&self.section_count.to_le_bytes());
        buf[16..20].copy_from_slice(&self.n.to_le_bytes());
        buf[20..28].copy_from_slice(&self.arcs.to_le_bytes());
        // 28..56 reserved, already zero.
        let sum = hash64(&buf[0..56]);
        buf[56..64].copy_from_slice(&sum.to_le_bytes());
        buf
    }
}

/// One decoded section-table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SectionEntry {
    /// Section id ([`SEC_ROW_PTR`] etc.; unknown ids are skipped).
    pub id: u32,
    /// Absolute byte offset of the payload (8-aligned).
    pub offset: u64,
    /// Payload length in bytes (unpadded).
    pub len: u64,
    /// Checksum of the payload bytes.
    pub checksum: u64,
}

impl SectionEntry {
    /// Encodes the entry into its 32-byte on-disk form.
    pub fn encode(&self) -> [u8; SECTION_ENTRY_LEN] {
        let mut buf = [0u8; SECTION_ENTRY_LEN];
        buf[0..4].copy_from_slice(&self.id.to_le_bytes());
        buf[8..16].copy_from_slice(&self.offset.to_le_bytes());
        buf[16..24].copy_from_slice(&self.len.to_le_bytes());
        buf[24..32].copy_from_slice(&self.checksum.to_le_bytes());
        buf
    }

    /// Decodes a 32-byte on-disk entry.
    pub fn decode(buf: &[u8; SECTION_ENTRY_LEN]) -> Self {
        // io-ok: offsets are constants within the fixed 32-byte entry
        let u32at = |o: usize| u32::from_le_bytes(buf[o..o + 4].try_into().expect("4 bytes"));
        let u64at = |o: usize| u64::from_le_bytes(buf[o..o + 8].try_into().expect("8 bytes")); // io-ok: fixed offsets
        SectionEntry {
            id: u32at(0),
            offset: u64at(8),
            len: u64at(16),
            checksum: u64at(24),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_is_chunking_invariant() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i * 31 + 7) as u8).collect();
        let whole = hash64(&data);
        for chunk in [1usize, 3, 7, 8, 13, 64, 999] {
            let mut h = Hash64::new();
            for c in data.chunks(chunk) {
                h.update(c);
            }
            assert_eq!(h.finish(), whole, "chunk size {chunk}");
        }
    }

    #[test]
    fn hash_distinguishes_zero_padded_lengths() {
        assert_ne!(hash64(&[0u8; 3]), hash64(&[0u8; 8]));
        assert_ne!(hash64(&[]), hash64(&[0u8]));
    }

    #[test]
    fn header_round_trips_and_checksums() {
        let h = Header {
            version: VERSION,
            flags: FLAG_DIRECTED,
            section_count: 2,
            n: 12345,
            arcs: 99999,
        };
        let buf = h.encode();
        assert_eq!(&buf[0..8], &MAGIC);
        assert_eq!(&buf[8..10], &2u16.to_le_bytes());
        assert!(buf[28..56].iter().all(|&b| b == 0), "reserved bytes");
        let sum = u64::from_le_bytes(buf[56..64].try_into().unwrap());
        assert_eq!(sum, hash64(&buf[0..56]));
    }

    #[test]
    fn section_entry_round_trips() {
        let e = SectionEntry {
            id: SEC_COL_PACKED,
            offset: 128,
            len: 4096,
            checksum: 0xdead_beef_cafe_f00d,
        };
        assert_eq!(SectionEntry::decode(&e.encode()), e);
    }

    #[test]
    fn align8_boundaries() {
        assert_eq!(align8(0), 0);
        assert_eq!(align8(1), 8);
        assert_eq!(align8(8), 8);
        assert_eq!(align8(9), 16);
    }
}
