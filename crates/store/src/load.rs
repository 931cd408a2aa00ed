//! Pack loading: map the file, verify it, and decode it into a
//! [`CsrGraph`] of two heap arrays.
//!
//! A pack is mapped only while it loads. Each section's checksum is
//! verified before the section is used: `row_ptr`'s first, so that a
//! second thread (for a `row_ptr` big enough to split) copies it into
//! the heap while the other sections are verified. Its pages are then
//! given back, `col_packed` is decoded into the heap, and the mapping
//! is dropped before the CSR check, so a loaded graph holds no file
//! pages and costs exactly its two arrays. Copying `row_ptr` and giving
//! its pages back before the columns are allocated keeps the load's
//! peak at the file plus the columns.
//!
//! Every failure mode on this path — missing file, truncation, bad
//! magic, checksum mismatch, malformed streams, CSR violations — is a
//! typed [`StoreError`]. Nothing here panics on file content: this is
//! the boundary between untrusted bytes and the engines.

use crate::error::StoreError;
use crate::format::{
    hash64, Header, SectionEntry, HEADER_LEN, MAGIC, SECTION_ENTRY_LEN, SEC_COL_PACKED,
    SEC_ROW_PTR, VERSION,
};
use crate::mmapio::PackBytes;
use db_graph::encode::decode_row_into;
use db_graph::{par, CsrGraph};
use std::path::{Path, PathBuf};

/// Load-time choices: a fault-injection probe. Section checksums are
/// always verified (one sequential pass over the file).
#[derive(Debug, Clone, Copy, Default)]
pub struct LoadOptions {
    /// Fault injection: when set, load through a heap copy and flip one
    /// payload byte derived from this seed *before* verification —
    /// checksum verification must catch the corruption.
    pub corrupt_seed: Option<u64>,
}

/// A pack file loaded into a traversable graph, with provenance.
#[derive(Debug)]
pub struct MappedStore {
    graph: CsrGraph,
    path: PathBuf,
    file_bytes: u64,
    header: Header,
    sections: Vec<SectionEntry>,
}

impl MappedStore {
    /// The decoded pack header.
    pub fn header(&self) -> &Header {
        &self.header
    }

    /// The section table, in file order.
    pub fn sections(&self) -> &[SectionEntry] {
        &self.sections
    }

    /// Total pack file size in bytes.
    pub fn file_bytes(&self) -> u64 {
        self.file_bytes
    }

    /// The loaded graph.
    pub fn graph(&self) -> &CsrGraph {
        &self.graph
    }

    /// Keeps the graph and drops the provenance: all a server keeps.
    pub fn into_graph(self) -> CsrGraph {
        self.graph
    }

    /// One-line human description (for `store inspect` and logs).
    pub fn describe(&self) -> String {
        format!(
            "pack {}: n={} arcs={} directed={} file={}B",
            self.path.display(),
            self.header.n,
            self.header.arcs,
            self.header.directed(),
            self.file_bytes,
        )
    }
}

/// Loads a pack with default options: header and every section
/// checksum verified before any section is used.
pub fn load(path: impl AsRef<Path>) -> Result<MappedStore, StoreError> {
    load_with(path, &LoadOptions::default())
}

/// Loads a pack with explicit [`LoadOptions`]; verification is the
/// same as [`load`]'s.
pub fn load_with(path: impl AsRef<Path>, opts: &LoadOptions) -> Result<MappedStore, StoreError> {
    let path = path.as_ref();
    let pack = match opts.corrupt_seed {
        Some(seed) => {
            let mut bytes = std::fs::read(path).map_err(|source| StoreError::Io {
                op: "read",
                path: path.to_path_buf(),
                source,
            })?;
            corrupt_one_byte(&mut bytes, seed);
            PackBytes::Read(bytes)
        }
        None => PackBytes::open(path)?,
    };
    load_split(path, pack, par::parts)
}

/// Decodes `pack` into a graph, splitting work by `parts(work)`, and
/// drops `pack` before the CSR check.
pub(crate) fn load_split(
    path: &Path,
    pack: PackBytes,
    parts: impl Fn(usize) -> usize,
) -> Result<MappedStore, StoreError> {
    let bytes = pack.bytes();
    let (header, entries) = parse_preamble(bytes)?;
    let file_bytes = bytes.len() as u64;

    let rp_entry = find_section(&entries, SEC_ROW_PTR)?;
    let expect_rp = (u64::from(header.n) + 1) * 8;
    if rp_entry.len != expect_rp {
        return Err(StoreError::Malformed(format!(
            "row_ptr section is {} bytes, expected {expect_rp}",
            rp_entry.len
        )));
    }
    let verify = |e: &SectionEntry| {
        let got = hash64(section_payload(bytes, e)?);
        if got != e.checksum {
            return Err(StoreError::SectionChecksum {
                id: e.id,
                expected: e.checksum,
                got,
            });
        }
        Ok(())
    };
    verify(rp_entry)?;
    // Unless `row_ptr` is too small to split, a second thread copies it
    // into fresh zeroed memory while this one verifies the other
    // sections, so the copy's first-touch page faults cost no time.
    let rp_bytes = section_payload(bytes, rp_entry)?;
    let mut row_ptr = vec![0u64; rp_bytes.len() / 8];
    let split = parts(row_ptr.len()) > 1;
    let verified = std::thread::scope(|s| {
        let mut copy = || {
            for (word, c) in row_ptr.iter_mut().zip(rp_bytes.chunks_exact(8)) {
                *word = u64::from_le_bytes(c.try_into().expect("8 bytes")); // io-ok: chunks_exact
            }
        };
        if split {
            s.spawn(copy);
        } else {
            copy();
        }
        let mut others = entries.iter().filter(|&e| !std::ptr::eq(e, rp_entry));
        others.try_for_each(verify)
    });
    verified?;
    // The heap copy stands in for those pages from here on.
    pack.release(rp_entry.offset as usize..(rp_entry.offset + rp_entry.len) as usize);

    // Pre-validate the offsets before using them as decode lengths (the
    // final CSR check re-checks; this keeps the decode loop free of
    // unchecked trust in file bytes).
    if row_ptr.first() != Some(&0) || row_ptr.last() != Some(&header.arcs) {
        return Err(StoreError::Malformed(
            "row_ptr endpoints disagree with header counts".into(),
        ));
    }
    if !row_ptr.is_sorted() {
        return Err(StoreError::Malformed("row_ptr decreases".into()));
    }

    let packed = find_section(&entries, SEC_COL_PACKED)?;
    let packed_bytes = section_payload(bytes, packed)?;
    let parts = parts(row_ptr.len().saturating_add(header.arcs as usize));
    let cols = decode_columns(&row_ptr, header.arcs, packed_bytes, parts)?;
    drop(pack);

    let graph = CsrGraph::try_from_sorted_parts(header.n, row_ptr, cols, header.directed())?;
    Ok(MappedStore {
        graph,
        path: path.to_path_buf(),
        file_bytes,
        header,
        sections: entries,
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

/// Decodes the full column array from `col_packed` in `parts` row
/// chunks, using the (pre-validated) row pointers for degrees.
///
/// A chunk's start in the stream follows as many varint terminator
/// bytes (bytes below 0x80, one per value) as the rows before it hold
/// arcs, which `row_ptr` gives. Each chunk must decode to exactly where
/// the next one begins, the last to the end of the section.
fn decode_columns(
    rp: &[u64],
    arcs: u64,
    packed: &[u8],
    parts: usize,
) -> Result<Vec<u32>, StoreError> {
    // An arc takes at least one byte: bound the allocation, and every
    // offset below, by the file.
    if arcs > packed.len() as u64 {
        return Err(StoreError::Malformed(format!(
            "{arcs} arcs cannot fit in {} packed bytes",
            packed.len()
        )));
    }
    let bounds = par::balance(rp, parts);
    let col_at: Vec<usize> = bounds.iter().map(|&u| rp[u] as usize).collect();
    // Chunk k starts just past the `col_at[k]`-th value.
    let starts = &col_at[..col_at.len() - 1];
    let mut packed_at = varint_offsets(packed, starts).ok_or_else(|| {
        StoreError::Malformed(format!(
            "col_packed holds fewer than {} values",
            starts.last().copied().unwrap_or(0)
        ))
    })?;
    packed_at.push(packed.len());
    let mut cols = vec![0u32; arcs as usize];
    let work: Vec<_> = par::ranges(&bounds)
        .zip(par::split_mut(&mut cols, &col_at))
        .zip(par::ranges(&packed_at))
        .collect();
    let ends = par::run(work, |_, ((rows, mut free), span)| {
        // A chunk reads no further than the next one's start.
        let (stream, mut pos) = (&packed[..span.end], span.start);
        for u in rows {
            let d = (rp[u + 1] - rp[u]) as usize;
            let (row, rest) = std::mem::take(&mut free).split_at_mut(d);
            decode_row_into(stream, &mut pos, row)?;
            free = rest;
        }
        Ok::<_, StoreError>(pos)
    });
    for (k, (end, want)) in ends
        .into_iter()
        .zip(packed_at.into_iter().skip(1))
        .enumerate()
    {
        let end = end?;
        if end != want {
            return Err(StoreError::Malformed(format!(
                "column chunk {k} ends at byte {end} of col_packed, the next begins at {want}"
            )));
        }
    }
    Ok(cols)
}

/// Byte offsets in a varint stream just past its `counts[k]`-th value,
/// for ascending `counts`: each value ends at its one byte below 0x80.
/// `None` if the stream holds fewer values.
fn varint_offsets(bytes: &[u8], counts: &[usize]) -> Option<Vec<usize>> {
    let (mut pos, mut seen) = (0, 0);
    let mut out = Vec::with_capacity(counts.len() + 1);
    for &want in counts {
        while seen < want {
            let block = bytes
                .get(pos..bytes.len().min(pos + 64))
                .filter(|b| !b.is_empty())?;
            let ends = block.iter().filter(|&&b| b < 0x80).count();
            if seen + ends < want {
                (pos, seen) = (pos + block.len(), seen + ends);
                continue;
            }
            for &b in block {
                pos += 1;
                seen += usize::from(b < 0x80);
                if seen == want {
                    break;
                }
            }
        }
        out.push(pos);
    }
    Some(out)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::SEC_ROW_PTR;
    use crate::pack::{pack_graph, PackOptions};
    use db_graph::builder::from_edge_list;
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A pack path in a directory of its own, removed when the guard drops.
    struct Scratch(PathBuf);

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn scratch() -> (Scratch, PathBuf) {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        // relaxed-ok: unique id allocation; only atomicity matters
        let k = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("dbstore-load-{}-{k}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        let path = dir.join("g.dbsg");
        (Scratch(dir), path)
    }

    /// Hubs wired to a third of the graph plus a scattered tail: wide
    /// rows, short rows, empty rows, and one- and two-byte varints.
    fn hubby(n: u32) -> CsrGraph {
        let mut edges: Vec<(u32, u32)> = (0..n).map(|u| (u, (u * 37 + 11) % n)).collect();
        for h in [1, n / 2] {
            edges.extend((0..n).step_by(3).map(|v| (h, v)));
        }
        from_edge_list(n, &edges, true)
    }

    fn load_parts(path: &Path, parts: usize) -> Result<MappedStore, StoreError> {
        load_split(path, PackBytes::open(path)?, |_| parts)
    }

    /// Rewrites section `id`'s payload with `edit` and recomputes its
    /// checksum, so only the structural checks can catch the edit.
    fn reseal(bytes: &mut [u8], id: u32, edit: impl FnOnce(&mut [u8])) {
        let (_, entries) = parse_preamble(bytes).unwrap();
        let (i, e) = entries
            .iter()
            .enumerate()
            .find(|(_, e)| e.id == id)
            .unwrap();
        let payload = &mut bytes[e.offset as usize..(e.offset + e.len) as usize];
        edit(payload);
        let sum = hash64(payload);
        let at = HEADER_LEN + i * SECTION_ENTRY_LEN + 24;
        bytes[at..at + 8].copy_from_slice(&sum.to_le_bytes());
    }

    #[test]
    fn chunked_decode_matches_one_part() {
        let (_dir, path) = scratch();
        let g = hubby(3000);
        pack_graph(&g, &path, PackOptions::default()).unwrap();
        for parts in [1, 2, 3, 7] {
            assert_eq!(
                load_parts(&path, parts).unwrap().graph(),
                &g,
                "{parts} parts"
            );
            // The heap read, where mmap is unavailable, decodes the same.
            let read = PackBytes::Read(std::fs::read(&path).unwrap());
            let heap = load_split(&path, read, |_| parts).unwrap();
            assert_eq!(heap.graph(), &g, "{parts} parts, heap read");
        }
        // Two varints merged into one, one split in two, and the last
        // one left open: every split fails typed.
        let orig = std::fs::read(&path).unwrap();
        let edits: [fn(&mut [u8]); 3] = [
            |p| {
                let mid = (p.len() / 2..).find(|&i| p[i] < 0x80).unwrap();
                p[mid] |= 0x80;
            },
            |p| {
                let mid = (p.len() / 2..).find(|&i| p[i] >= 0x80).unwrap();
                p[mid] &= 0x7f;
            },
            |p| p[p.len() - 1] = 0x80,
        ];
        for (k, edit) in edits.into_iter().enumerate() {
            let mut bytes = orig.clone();
            reseal(&mut bytes, SEC_COL_PACKED, edit);
            std::fs::write(&path, &bytes).unwrap();
            for parts in [1, 2, 3, 7] {
                let r = load_parts(&path, parts);
                assert!(
                    matches!(r, Err(StoreError::Malformed(_) | StoreError::Decode(_))),
                    "edit {k}, {parts} parts: {r:?}"
                );
            }
        }
    }

    /// The widest varints, five bytes each, decode however the rows are
    /// split. No pack of a graph this wide fits a test (an id past 2^28
    /// needs over 2^28 rows), so the decode is driven directly.
    #[test]
    fn five_byte_varints_decode_in_any_split() {
        let rows: [&[u32]; 4] = [&[1 << 30, 1 << 31, u32::MAX], &[u32::MAX - 1], &[], &[5, 6]];
        let (mut packed, mut rp) = (vec![0u8; 64], vec![0u64]);
        let mut len = 0;
        for row in rows {
            len += db_graph::encode::encode_row_into(row, &mut packed[len..]);
            rp.push(rp[rp.len() - 1] + row.len() as u64);
        }
        packed.truncate(len);
        assert_eq!(len, 4 * 5 + 2);
        let want = rows.concat();
        for parts in [1, 2, 3, 4] {
            let got = decode_columns(&rp, 6, &packed, parts).unwrap();
            assert_eq!(got, want, "{parts} parts");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

        /// Any bytes inside `row_ptr` or `col_packed`, under a recomputed
        /// checksum, load as a typed error or a valid graph however the
        /// decode is split: never a panic.
        #[test]
        fn resealed_mutations_load_typed_or_valid(
            section in 0usize..2,
            flips in proptest::collection::vec((any::<u32>(), any::<u8>()), 1..4),
            parts in 1usize..8,
        ) {
            let (_dir, path) = scratch();
            let g = hubby(400);
            pack_graph(&g, &path, PackOptions::default()).unwrap();
            let id = [SEC_ROW_PTR, SEC_COL_PACKED][section];
            let mut bytes = std::fs::read(&path).unwrap();
            reseal(&mut bytes, id, |p| {
                for &(at, x) in &flips {
                    let at = at as usize % p.len();
                    p[at] ^= x | 1;
                }
            });
            std::fs::write(&path, &bytes).unwrap();
            if let Ok(store) = load_parts(&path, parts) {
                let h = store.graph();
                prop_assert_eq!(h.num_vertices(), 400);
                for u in 0..400 {
                    prop_assert!(h.neighbors(u).windows(2).all(|w| w[0] <= w[1]));
                }
            }
        }
    }
}
