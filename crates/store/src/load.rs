//! Pack loading: mmap the file, verify, and assemble a [`CsrGraph`]
//! whose `row_ptr` (and, for uncompressed packs, `col_idx`) are
//! zero-copy views into the mapping.
//!
//! A compressed pack's columns are decoded into the heap, so once the
//! decode is done the load releases the pages of its two column
//! sections (`col_packed`, `hub_cols`) from the mapping: the checksum
//! pass and the decode made them resident, and nothing reads them
//! again. Only `row_ptr` (plus the header page and the pages the
//! section boundaries share) stays resident in the mapping, so the pack
//! costs its CSR once. A raw pack releases nothing: its columns are
//! served from the mapping.
//!
//! Every failure mode on this path — missing file, truncation, bad
//! magic, checksum mismatch, malformed streams, CSR violations — is a
//! typed [`StoreError`]. Nothing here panics on file content: this is
//! the boundary between untrusted bytes and the engines.

use crate::error::StoreError;
use crate::format::{
    hash64, Header, SectionEntry, HEADER_LEN, MAGIC, SECTION_ENTRY_LEN, SEC_COL_PACKED,
    SEC_COL_RAW, SEC_HUB_COLS, SEC_ROW_PTR, VERSION,
};
use crate::mmapio::{open_region, resident_bytes, RegionKind};
use db_graph::encode::decode_row;
use db_graph::store::{GraphStore, HeapRegion, Region, SectionError, SectionSlice};
use db_graph::CsrGraph;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Load-time choices.
#[derive(Debug, Clone, Copy)]
pub struct LoadOptions {
    /// Verify section checksums (one sequential pass over the file).
    /// Always on for untrusted inputs; the serve layer keeps it on.
    pub verify: bool,
    /// Read into a private heap buffer instead of mmap.
    pub force_heap: bool,
    /// Fault injection: when set, load through a heap copy and flip one
    /// payload byte derived from this seed *before* verification —
    /// checksum verification must catch the corruption.
    pub corrupt_seed: Option<u64>,
}

impl Default for LoadOptions {
    fn default() -> Self {
        LoadOptions {
            verify: true,
            force_heap: false,
            corrupt_seed: None,
        }
    }
}

/// A pack file loaded into a traversable graph, with provenance.
#[derive(Debug)]
pub struct MappedStore {
    graph: CsrGraph,
    path: PathBuf,
    file_bytes: u64,
    region: Arc<dyn Region>,
    kind: RegionKind,
    header: Header,
}

impl MappedStore {
    /// The decoded pack header.
    pub fn header(&self) -> &Header {
        &self.header
    }

    /// Total pack file size in bytes.
    pub fn file_bytes(&self) -> u64 {
        self.file_bytes
    }

    /// Whether the file is served from an mmap (vs a heap copy).
    pub fn is_mmap(&self) -> bool {
        self.kind == RegionKind::Mmap
    }

    /// The pack's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Bytes of the pack's mapping resident in this process, the `Rss:`
    /// of its `/proc/self/smaps` entry: 0 for a heap-backed store,
    /// `None` off Linux.
    pub fn resident_mapped_bytes(&self) -> Option<u64> {
        match self.kind {
            RegionKind::Mmap => resident_bytes(self.region.bytes().as_ptr().addr()),
            RegionKind::Heap => Some(0),
        }
    }
}

impl GraphStore for MappedStore {
    fn graph(&self) -> &CsrGraph {
        &self.graph
    }

    fn charged_bytes(&self) -> usize {
        // Header + section table are always resident (we parsed them);
        // the rest follows the CsrGraph hot-section accounting.
        let meta = HEADER_LEN + self.header.section_count as usize * SECTION_ENTRY_LEN;
        meta + self.graph.charged_bytes()
    }

    fn describe(&self) -> String {
        format!(
            "pack {}: n={} arcs={} directed={} compressed={} backing={} file={}B",
            self.path.display(),
            self.header.n,
            self.header.arcs,
            self.header.directed(),
            self.header.compressed(),
            match (self.kind, self.header.compressed()) {
                (RegionKind::Mmap, true) => "mmap row_ptr + heap columns",
                (RegionKind::Mmap, false) => "mmap",
                (RegionKind::Heap, _) => "heap",
            },
            self.file_bytes,
        )
    }
}

/// Loads a pack with default options (verify on, mmap preferred).
pub fn load(path: impl AsRef<Path>) -> Result<MappedStore, StoreError> {
    load_with(path, &LoadOptions::default())
}

/// Loads a pack with explicit [`LoadOptions`].
pub fn load_with(path: impl AsRef<Path>, opts: &LoadOptions) -> Result<MappedStore, StoreError> {
    let path = path.as_ref();
    let (region, kind): (Arc<dyn Region>, RegionKind) = if let Some(seed) = opts.corrupt_seed {
        let mut bytes = std::fs::read(path).map_err(|source| StoreError::Io {
            op: "read",
            path: path.to_path_buf(),
            source,
        })?;
        corrupt_one_byte(&mut bytes, seed);
        (Arc::new(HeapRegion::from_bytes(&bytes)), RegionKind::Heap)
    } else {
        open_region(path, opts.force_heap)?
    };

    let (header, entries) = parse_preamble(region.bytes())?;
    let file_len = region.bytes().len() as u64;

    if opts.verify {
        for e in &entries {
            let payload = section_payload(region.bytes(), e)?;
            let got = hash64(payload);
            if got != e.checksum {
                return Err(StoreError::SectionChecksum {
                    id: e.id,
                    expected: e.checksum,
                    got,
                });
            }
        }
    }

    let rp_entry = find_section(&entries, SEC_ROW_PTR)?;
    let expect_rp = (u64::from(header.n) + 1) * 8;
    if rp_entry.len != expect_rp {
        return Err(StoreError::Malformed(format!(
            "row_ptr section is {} bytes, expected {expect_rp}",
            rp_entry.len
        )));
    }
    let row_ptr = map_u64s(&region, rp_entry, header.n as usize + 1)?;

    // Pre-validate the offsets before using them as decode lengths (the
    // final try_from_backed re-checks; this keeps the decode loop free
    // of unchecked trust in file bytes).
    {
        let rp = row_ptr.as_slice();
        // io-ok: section decode already verified row_ptr holds n+1 entries
        if rp[0] != 0 || *rp.last().expect("n+1 entries") != header.arcs {
            return Err(StoreError::Malformed(
                "row_ptr endpoints disagree with header counts".into(),
            ));
        }
        if rp.windows(2).any(|w| w[0] > w[1]) {
            return Err(StoreError::Malformed("row_ptr decreases".into()));
        }
    }

    let col_idx: SectionSlice<u32> = if header.compressed() {
        let packed = find_section(&entries, SEC_COL_PACKED)?;
        let hub = find_section(&entries, SEC_HUB_COLS)?;
        let packed_bytes = section_payload(region.bytes(), packed)?;
        let hub_bytes = section_payload(region.bytes(), hub)?;
        let cols = decode_columns(row_ptr.as_slice(), header, packed_bytes, hub_bytes)?;
        // Nothing reads the packed columns again; a heap region keeps them.
        for e in [packed, hub] {
            region.release(e.offset as usize..(e.offset + e.len) as usize);
        }
        SectionSlice::owned(cols)
    } else {
        let raw = find_section(&entries, SEC_COL_RAW)?;
        if raw.len != header.arcs * 4 {
            return Err(StoreError::Malformed(format!(
                "raw column section is {} bytes, expected {}",
                raw.len,
                header.arcs * 4
            )));
        }
        map_u32s(&region, raw, header.arcs as usize)?
    };

    let graph = CsrGraph::try_from_backed(header.n, row_ptr, col_idx, header.directed())?;
    Ok(MappedStore {
        graph,
        path: path.to_path_buf(),
        file_bytes: file_len,
        region,
        kind,
        header,
    })
}

/// Parses and checks the header + section table without touching
/// payloads — the cheap half of a load, used by `store inspect`.
pub fn parse_preamble(bytes: &[u8]) -> Result<(Header, Vec<SectionEntry>), StoreError> {
    if bytes.len() < HEADER_LEN {
        return Err(StoreError::Truncated {
            need: HEADER_LEN as u64,
            have: bytes.len() as u64,
        });
    }
    if bytes[0..8] != MAGIC {
        return Err(StoreError::BadMagic);
    }
    // io-ok: the length guard above proves HEADER_LEN bytes exist; offsets
    // io-ok: below are constants inside that fixed prefix (three closures)
    let u16at = |o: usize| u16::from_le_bytes(bytes[o..o + 2].try_into().expect("2 bytes"));
    let u32at = |o: usize| u32::from_le_bytes(bytes[o..o + 4].try_into().expect("4 bytes")); // io-ok: fixed offsets
    let u64at = |o: usize| u64::from_le_bytes(bytes[o..o + 8].try_into().expect("8 bytes")); // io-ok: fixed offsets
    let version = u16at(8);
    if version != VERSION {
        return Err(StoreError::UnsupportedVersion(version));
    }
    let stored = u64at(56);
    let computed = hash64(&bytes[0..56]);
    if stored != computed {
        return Err(StoreError::HeaderChecksum {
            expected: stored,
            got: computed,
        });
    }
    let header = Header {
        version,
        flags: u16at(10),
        section_count: u32at(12),
        n: u32at(16),
        arcs: u64at(20),
        hub_threshold: u32at(28),
        partition_count: u32at(32),
    };
    let table_end = HEADER_LEN as u64 + u64::from(header.section_count) * SECTION_ENTRY_LEN as u64;
    if (bytes.len() as u64) < table_end {
        return Err(StoreError::Truncated {
            need: table_end,
            have: bytes.len() as u64,
        });
    }
    let mut entries = Vec::with_capacity(header.section_count as usize);
    for i in 0..header.section_count as usize {
        let off = HEADER_LEN + i * SECTION_ENTRY_LEN;
        let buf: &[u8; SECTION_ENTRY_LEN] = bytes[off..off + SECTION_ENTRY_LEN]
            .try_into()
            .expect("entry slice"); // io-ok: slice length equals the array length by construction
        let e = SectionEntry::decode(buf);
        let end = e.offset.checked_add(e.len);
        if !e.offset.is_multiple_of(8)
            || end.is_none()
            // io-ok: is_none checked on the previous arm
            || end.expect("checked") > bytes.len() as u64
        {
            return Err(StoreError::SectionBounds { id: e.id });
        }
        entries.push(e);
    }
    Ok((header, entries))
}

fn find_section(entries: &[SectionEntry], id: u32) -> Result<&SectionEntry, StoreError> {
    entries
        .iter()
        .find(|e| e.id == id)
        .ok_or(StoreError::MissingSection { id })
}

fn section_payload<'a>(bytes: &'a [u8], e: &SectionEntry) -> Result<&'a [u8], StoreError> {
    // Bounds were validated in parse_preamble; keep a defensive check so
    // this helper is safe in isolation.
    let start = e.offset as usize;
    let end = start
        .checked_add(e.len as usize)
        .filter(|&end| end <= bytes.len())
        .ok_or(StoreError::SectionBounds { id: e.id })?;
    Ok(&bytes[start..end])
}

fn map_u64s(
    region: &Arc<dyn Region>,
    e: &SectionEntry,
    len: usize,
) -> Result<SectionSlice<u64>, StoreError> {
    match SectionSlice::<u64>::mapped(Arc::clone(region), e.offset as usize, len) {
        Ok(s) => Ok(s),
        Err(SectionError::BigEndianHost) => {
            let payload = section_payload(region.bytes(), e)?;
            let v = payload
                .chunks_exact(8)
                .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes"))) // io-ok: chunks_exact
                .collect();
            Ok(SectionSlice::owned(v))
        }
        Err(err) => Err(err.into()),
    }
}

fn map_u32s(
    region: &Arc<dyn Region>,
    e: &SectionEntry,
    len: usize,
) -> Result<SectionSlice<u32>, StoreError> {
    match SectionSlice::<u32>::mapped(Arc::clone(region), e.offset as usize, len) {
        Ok(s) => Ok(s),
        Err(SectionError::BigEndianHost) => {
            let payload = section_payload(region.bytes(), e)?;
            let v = payload
                .chunks_exact(4)
                .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes"))) // io-ok: chunks_exact
                .collect();
            Ok(SectionSlice::owned(v))
        }
        Err(err) => Err(err.into()),
    }
}

/// Decodes the full column array from the packed + hub sections, using
/// the (pre-validated) row pointers for degrees and hub routing.
fn decode_columns(
    rp: &[u64],
    header: Header,
    packed: &[u8],
    hub: &[u8],
) -> Result<Vec<u32>, StoreError> {
    let mut cols = Vec::with_capacity(header.arcs as usize);
    let mut packed_pos = 0usize;
    let mut hub_pos = 0usize;
    let threshold = u64::from(header.hub_threshold);
    for u in 0..header.n as usize {
        let d = (rp[u + 1] - rp[u]) as usize;
        if d as u64 >= threshold {
            let need = d * 4;
            let end = hub_pos
                .checked_add(need)
                .filter(|&e| e <= hub.len())
                .ok_or_else(|| {
                    StoreError::Malformed(format!("hub section exhausted at vertex {u}"))
                })?;
            cols.extend(
                hub[hub_pos..end]
                    .chunks_exact(4)
                    .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes"))), // io-ok: chunks_exact
            );
            hub_pos = end;
        } else {
            decode_row(packed, &mut packed_pos, d, &mut cols)?;
        }
    }
    if packed_pos != packed.len() || hub_pos != hub.len() {
        return Err(StoreError::Malformed(format!(
            "trailing column bytes (packed {}/{}, hub {}/{})",
            packed_pos,
            packed.len(),
            hub_pos,
            hub.len()
        )));
    }
    Ok(cols)
}

/// Flips one byte of `bytes` in the payload area (past the header when
/// possible), deterministically from `seed`. Used by the
/// `corrupt:store` fault target and the corruption tests.
pub fn corrupt_one_byte(bytes: &mut [u8], seed: u64) {
    if bytes.is_empty() {
        return;
    }
    let base = if bytes.len() > HEADER_LEN {
        HEADER_LEN
    } else {
        0
    };
    let span = bytes.len() - base;
    let idx = base + (seed % span as u64) as usize;
    let mask = ((seed >> 32) as u8) | 1;
    bytes[idx] ^= mask;
}
