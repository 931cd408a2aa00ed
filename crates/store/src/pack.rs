//! Streaming pack writer: rows in, sealed `.dbsg` file out.
//!
//! The writer is push-based so generators can stream multi-million-edge
//! graphs without materializing a `CsrGraph`: call
//! [`PackWriter::push_rows`] with blocks of sorted rows, then
//! [`PackWriter::finish`]. The file is assembled in a `.tmp` sibling
//! and published with an atomic rename, so readers never observe a
//! half-written pack.
//!
//! Every row is stored the same way, as its first column and the gap
//! to each next one in LEB128 varints, in one `col_packed` section.
//! The header, the section table and `row_ptr` have sizes known from
//! `n`, so `col_packed` streams straight to its final offset in the
//! `.tmp` file. The writer holds `row_ptr` (`8 × (n + 1)` bytes) and
//! one block's encoded bytes in RAM; `finish` writes `row_ptr`, then
//! the header and the checksummed section table.
//!
//! A block is encoded in row chunks on every core ([`db_graph::par`]):
//! one pass checks each chunk's rows and sizes its bytes exactly
//! ([`encoded_row_len`]), the writer's reused buffer grows to the
//! block, and a second pass encodes each chunk into its own slice
//! ([`encode_row_into`]). The bytes do not depend on the block size or
//! the chunk count.

use crate::error::StoreError;
use crate::format::{
    align8, Hash64, Header, SectionEntry, FLAG_DIRECTED, HEADER_LEN, SECTION_ENTRY_LEN,
    SEC_COL_PACKED, SEC_ROW_PTR, VERSION,
};
use db_graph::encode::{encode_row_into, encoded_row_len};
use db_graph::{par, CsrGraph};
use std::fs::{self, File};
use std::io::{BufWriter, Seek, SeekFrom, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};

/// Pack-time choices. There are none: every pack has one layout. The
/// struct stays for callers that pass `PackOptions::default()` to
/// [`pack_graph`].
#[derive(Debug, Clone, Copy, Default)]
pub struct PackOptions {}

/// What [`PackWriter::finish`] reports about the sealed file.
#[derive(Debug, Clone)]
pub struct PackSummary {
    /// Vertices written.
    pub n: u32,
    /// Arcs written.
    pub arcs: u64,
    /// Final file size in bytes.
    pub file_bytes: u64,
    /// Raw CSR size (`8(n+1) + 4·arcs`) for compression-ratio reporting.
    pub csr_bytes: u64,
}

/// Work items (rows plus arcs) [`PackWriter::push_rows`] encodes at a
/// time: its encode buffer holds one such block, a few MiB.
const BLOCK: usize = 1 << 22;

/// Streaming writer for one pack file. See the module docs for the
/// protocol; dropping a writer without finishing removes its temp file.
pub struct PackWriter {
    path: PathBuf,
    /// The `<path>.tmp` sibling the pack is assembled in.
    tmp: PathBuf,
    n: u32,
    directed: bool,
    row_ptr: Vec<u64>,
    /// `col_packed`, written at its place in the `.tmp`, with the
    /// checksum and length of the bytes written so far.
    cols: BufWriter<File>,
    cols_hash: Hash64,
    cols_len: u64,
    /// A block's encoded rows, reused from block to block.
    buf: Vec<u8>,
    finished: bool,
}

impl std::fmt::Debug for PackWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PackWriter")
            .field("path", &self.path)
            .field("n", &self.n)
            .field("next_vertex", &self.next_vertex())
            .finish()
    }
}

impl PackWriter {
    /// Opens a writer targeting `path` for an `n`-vertex graph. The
    /// pack is assembled in a `<path>.tmp` sibling so the rename at the
    /// end stays on one filesystem.
    pub fn create(path: impl AsRef<Path>, n: u32, directed: bool) -> Result<Self, StoreError> {
        let path = path.as_ref().to_path_buf();
        let tmp = sibling(&path, ".tmp");
        let io = |op, source| StoreError::Io {
            op,
            path: tmp.clone(),
            source,
        };
        let mut file = File::create(&tmp).map_err(|e| io("create", e))?;
        // Header, section table and row_ptr have sizes known from `n`,
        // so the column section can stream to its final offset now.
        let (_, cols_off) = layout(n);
        file.seek(SeekFrom::Start(cols_off))
            .map_err(|e| io("seek", e))?;
        let mut row_ptr = Vec::with_capacity(n as usize + 1);
        row_ptr.push(0);
        Ok(PackWriter {
            path,
            tmp,
            n,
            directed,
            row_ptr,
            cols: BufWriter::new(file),
            cols_hash: Hash64::new(),
            cols_len: 0,
            buf: Vec::new(),
            finished: false,
        })
    }

    fn next_vertex(&self) -> usize {
        self.row_ptr.len() - 1
    }

    /// Appends the next `ends.len() - 1` rows, given as CSR arrays: row
    /// `i` of the block is `cols[ends[i]..ends[i + 1]]` (so `ends` may
    /// be a window of a whole graph's `row_ptr`). Vertex ids are
    /// implicit: the calls pass exactly `n` rows, in vertex order. Each
    /// row must be sorted, with every neighbor below `n`; the lowest row
    /// that is not fails the call with [`StoreError::Malformed`].
    ///
    /// Rows are encoded a block at a time, each block in row chunks on
    /// every core ([`db_graph::par`]); the bytes are those of one call
    /// per row.
    pub fn push_rows(&mut self, ends: &[u64], cols: &[u32]) -> Result<(), StoreError> {
        self.push_rows_with(ends, cols, BLOCK, par::parts)
    }

    /// [`PackWriter::push_rows`] in blocks of about `block` work items,
    /// each split into `parts(work)` chunks.
    pub(crate) fn push_rows_with(
        &mut self,
        ends: &[u64],
        cols: &[u32],
        block: usize,
        parts: impl Fn(usize) -> usize,
    ) -> Result<(), StoreError> {
        let rows = ends.len().saturating_sub(1);
        if rows > self.n as usize - self.next_vertex() {
            return Err(StoreError::Malformed(format!(
                "{rows} more rows after {} of n = {}",
                self.next_vertex(),
                self.n
            )));
        }
        let work = |ends: &[u64]| {
            let first = ends.first().copied().unwrap_or(0);
            let arcs = ends.last().map_or(0, |&last| last.saturating_sub(first));
            ends.len()
                .saturating_sub(1)
                .saturating_add(usize::try_from(arcs).unwrap_or(usize::MAX))
        };
        let blocks = par::balance(ends, work(ends).div_ceil(block.max(1)));
        for b in par::ranges(&blocks).filter(|b| !b.is_empty()) {
            // index-ok: balance keeps bounds in 0..=rows, and ends has rows + 1
            let ends = &ends[b.start..=b.end];
            self.push_block(ends, cols, parts(work(ends)))?;
        }
        Ok(())
    }

    /// Encodes one block in `parts` row chunks: a first pass checks the
    /// rows and sizes each chunk exactly, the writer's buffer grows to
    /// the block, and a second pass encodes each chunk into its slice.
    fn push_block(&mut self, ends: &[u64], cols: &[u32], parts: usize) -> Result<(), StoreError> {
        let (first, n) = (self.next_vertex(), self.n);
        // The block's rows `r`: `None` for a row whose ends are not a
        // range of `cols`.
        let rows = |r: Range<usize>| {
            let spans = ends.iter().zip(ends.iter().skip(1));
            spans
                .skip(r.start)
                .take(r.len())
                .map(|(&lo, &hi)| cols.get(usize::try_from(lo).ok()?..usize::try_from(hi).ok()?))
        };
        let chunks: Vec<Range<usize>> = par::ranges(&par::balance(ends, parts)).collect();
        let lens = par::run(chunks.clone(), |_, r| {
            let mut len = 0;
            for (u, row) in (first + r.start..).zip(rows(r)) {
                len += encoded_row_len(check_row(u, row, n)?);
            }
            Ok(len)
        });
        // The lowest chunk's defect is the lowest row's.
        let lens = lens
            .into_iter()
            .collect::<Result<Vec<usize>, StoreError>>()?;
        let at = par::offsets(lens.iter().copied());
        par::zeroed(&mut self.buf, lens.iter().sum());
        let work: Vec<_> = chunks
            .into_iter()
            .zip(par::split_mut(&mut self.buf, &at))
            .collect();
        par::run(work, |_, (r, mut out)| {
            // Every row was checked above.
            for row in rows(r).flatten() {
                let len = encode_row_into(row, out);
                out = std::mem::take(&mut out).split_at_mut(len).1;
            }
        });
        self.cols_hash.update(&self.buf);
        self.cols_len += self.buf.len() as u64;
        self.cols
            .write_all(&self.buf)
            .map_err(|source| StoreError::Io {
                op: "write",
                path: self.tmp.clone(),
                source,
            })?;
        // Checked rows never end before they start.
        let (done, start) = (self.arcs(), ends.first().copied().unwrap_or(0));
        self.row_ptr
            .extend(ends.iter().skip(1).map(|&e| done + (e - start)));
        Ok(())
    }

    /// Arcs written so far.
    fn arcs(&self) -> u64 {
        self.row_ptr.last().copied().unwrap_or(0)
    }

    /// Seals the pack: writes `row_ptr`, the header and the section
    /// table around the column section already in the `.tmp` sibling,
    /// fsyncs it, and renames it over the target path.
    pub fn finish(mut self) -> Result<PackSummary, StoreError> {
        if self.next_vertex() != self.n as usize {
            return Err(StoreError::Malformed(format!(
                "finish after {} of {} rows",
                self.next_vertex(),
                self.n
            )));
        }
        let arcs = self.arcs();
        let (rp_off, cols_off) = layout(self.n);
        let rp_len = self.row_ptr.len() as u64 * 8;
        let tmp = self.tmp.clone();
        let io = |op: &'static str, source: std::io::Error| StoreError::Io {
            op,
            path: tmp.clone(),
            source,
        };
        self.cols.flush().map_err(|e| io("flush", e))?;
        let file = self.cols.get_mut();

        // Row-pointer payload, hashed as it is written.
        file.seek(SeekFrom::Start(rp_off))
            .map_err(|e| io("seek", e))?;
        let mut rp_hash = Hash64::new();
        {
            let mut out = BufWriter::new(&mut *file);
            for chunk in self.row_ptr.chunks(128 * 1024) {
                let bytes: Vec<u8> = chunk.iter().flat_map(|v| v.to_le_bytes()).collect();
                rp_hash.update(&bytes);
                out.write_all(&bytes).map_err(|e| io("write", e))?;
            }
            out.flush().map_err(|e| io("write", e))?;
        }
        let sections = [
            (SEC_ROW_PTR, rp_off, rp_len, rp_hash.finish()),
            (
                SEC_COL_PACKED,
                cols_off,
                self.cols_len,
                self.cols_hash.clone().finish(),
            ),
        ];
        let header = Header {
            version: VERSION,
            flags: if self.directed { FLAG_DIRECTED } else { 0 },
            section_count: sections.len() as u32,
            n: self.n,
            arcs,
        };
        let mut head = header.encode().to_vec();
        for (id, offset, len, checksum) in sections {
            let e = SectionEntry {
                id,
                offset,
                len,
                checksum,
            };
            head.extend_from_slice(&e.encode());
        }
        file.seek(SeekFrom::Start(0)).map_err(|e| io("seek", e))?;
        file.write_all(&head).map_err(|e| io("write", e))?;
        // Gaps between sections were never written and read as zeros;
        // the last section's padding is set here.
        let file_bytes = align8(cols_off + self.cols_len);
        file.set_len(file_bytes).map_err(|e| io("write", e))?;
        file.sync_all().map_err(|e| io("sync", e))?;
        fs::rename(&tmp, &self.path).map_err(|source| StoreError::Io {
            op: "rename",
            path: self.path.clone(),
            source,
        })?;
        // The rename is only durable once the directory entry is too: a
        // power cut between rename and dir-fsync can make a finished pack
        // vanish even though its bytes were synced.
        if let Some(dir) = self.path.parent() {
            fsync_dir(dir).map_err(|source| StoreError::Io {
                op: "sync dir",
                path: dir.to_path_buf(),
                source,
            })?;
        }
        self.finished = true;

        Ok(PackSummary {
            n: self.n,
            arcs,
            file_bytes,
            csr_bytes: rp_len + arcs * 4,
        })
    }
}

impl Drop for PackWriter {
    fn drop(&mut self) {
        if !self.finished {
            let _ = fs::remove_file(&self.tmp);
        }
    }
}

/// Checks row `u` of a block: a range of the block's columns (`None`
/// when its ends are not), sorted, and below `n`.
fn check_row(u: usize, row: Option<&[u32]>, n: u32) -> Result<&[u32], StoreError> {
    let row = row.ok_or_else(|| {
        StoreError::Malformed(format!("row {u} spans no range of its block's columns"))
    })?;
    if let Some((a, b)) = row.iter().zip(row.iter().skip(1)).find(|(a, b)| a > b) {
        return Err(StoreError::Malformed(format!(
            "row {u} not sorted ({b} after {a})"
        )));
    }
    if let Some(&v) = row.iter().find(|&&v| v >= n) {
        return Err(StoreError::Malformed(format!(
            "row {u} references vertex {v} >= n = {n}"
        )));
    }
    Ok(row)
}

/// Byte offsets of `row_ptr` and of `col_packed` in a pack of `n`
/// vertices: both follow the header and the two-entry section table,
/// each 8-aligned.
fn layout(n: u32) -> (u64, u64) {
    let rp_off = align8(HEADER_LEN as u64 + 2 * SECTION_ENTRY_LEN as u64);
    (rp_off, align8(rp_off + (u64::from(n) + 1) * 8))
}

/// Packs an in-RAM graph through one [`PackWriter`], its rows encoded
/// a block at a time in row chunks on every core.
pub fn pack_graph(
    g: &CsrGraph,
    path: impl AsRef<Path>,
    _opts: PackOptions,
) -> Result<PackSummary, StoreError> {
    let mut w = PackWriter::create(path, g.num_vertices() as u32, g.is_directed())?;
    w.push_rows(g.row_ptr(), g.col_idx())?;
    w.finish()
}

/// Fsyncs a directory so a rename inside it survives power loss. An
/// empty path (the parent of a bare file name) is the current
/// directory. On non-Unix platforms this is a no-op (directory handles
/// cannot be fsynced portably).
fn fsync_dir(dir: &Path) -> std::io::Result<()> {
    #[cfg(unix)]
    {
        let dir = if dir.as_os_str().is_empty() {
            Path::new(".")
        } else {
            dir
        };
        File::open(dir)?.sync_all()?;
    }
    #[cfg(not(unix))]
    {
        let _ = dir;
    }
    Ok(())
}

fn sibling(path: &Path, suffix: &str) -> PathBuf {
    let mut name = path
        .file_name()
        .map(|s| s.to_os_string())
        .unwrap_or_default();
    name.push(suffix);
    path.with_file_name(name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use db_graph::builder::from_edge_list;
    use db_graph::GraphBuilder;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dbstore-pack-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create scratch dir");
        dir
    }

    /// The bytes of `g` packed one single-row `push_rows` at a time.
    fn row_by_row(g: &CsrGraph, path: &Path) -> Vec<u8> {
        let mut w = PackWriter::create(path, g.num_vertices() as u32, g.is_directed()).unwrap();
        for u in 0..g.num_vertices() as u32 {
            let row = g.neighbors(u);
            w.push_rows(&[0, row.len() as u64], row).unwrap();
        }
        w.finish().unwrap();
        fs::read(path).unwrap()
    }

    fn graphs() -> Vec<(&'static str, CsrGraph)> {
        let mut hubby = Vec::new();
        for h in [0u32, 7, 400] {
            hubby.extend((0..600).filter(|&v| v != h).map(|v| (h, v)));
        }
        hubby.extend((0..600u32).map(|u| (u, (u * 31 + 5) % 600)));
        // Most rows empty: isolated vertices between a few edges.
        let sparse = [(3, 900), (900, 3), (1500, 1501), (2999, 0)];
        vec![
            (
                "tiny",
                CsrGraph::from_sorted_parts(4, vec![0, 2, 3, 3, 4], vec![1, 3, 0, 2], true),
            ),
            ("hubby", from_edge_list(600, &hubby, true)),
            ("sparse", from_edge_list(3000, &sparse, false)),
            ("empty", GraphBuilder::undirected(0).build()),
            ("mesh", from_edge_list(2000, &mesh(2000), false)),
        ]
    }

    fn mesh(n: u32) -> Vec<(u32, u32)> {
        (0..n)
            .flat_map(|u| [(u, (u + 1) % n), (u, (u * 7 + 3) % n)])
            .collect()
    }

    #[test]
    fn chunked_pack_bytes_match_row_by_row() {
        let dir = scratch("chunks");
        for (name, g) in graphs() {
            let want = row_by_row(&g, &dir.join("ref.dbsg"));
            pack_graph(&g, dir.join("whole.dbsg"), PackOptions::default()).unwrap();
            assert!(fs::read(dir.join("whole.dbsg")).unwrap() == want, "{name}");
            // Blocks of one row, of 37 work items, and the default.
            for (parts, block) in [(1, BLOCK), (2, 37), (3, 1), (7, 37), (7, BLOCK)] {
                let path = dir.join("chunked.dbsg");
                let n = g.num_vertices() as u32;
                let mut w = PackWriter::create(&path, n, g.is_directed()).unwrap();
                w.push_rows_with(g.row_ptr(), g.col_idx(), block, |_| parts)
                    .unwrap();
                w.finish().unwrap();
                let got = fs::read(&path).unwrap();
                assert!(got == want, "{name} parts={parts} block={block}");
            }
        }
        let left: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(left.len(), 3, "only the three packs remain: {left:?}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unsorted_rows_fail_at_the_lowest_and_leave_no_files() {
        let dir = scratch("unsorted");
        let g = from_edge_list(2000, &mesh(2000), true);
        let (rp, mut cols) = (g.row_ptr().to_vec(), g.col_idx().to_vec());
        for u in [1500usize, 40] {
            cols.swap(rp[u] as usize, rp[u] as usize + 1);
        }
        for parts in [1, 2, 3, 7] {
            let path = dir.join("bad.dbsg");
            let mut w = PackWriter::create(&path, 2000, true).unwrap();
            match w.push_rows_with(&rp, &cols, BLOCK, |_| parts) {
                Err(StoreError::Malformed(msg)) => {
                    assert!(msg.starts_with("row 40 not sorted"), "{msg}")
                }
                other => panic!("parts={parts}: {other:?}"),
            }
            drop(w);
            assert_eq!(fs::read_dir(&dir).unwrap().count(), 0, "parts={parts}");
        }
        // A row past the arcs and a neighbor past n are typed too.
        let mut w = PackWriter::create(dir.join("bad.dbsg"), 3, true).unwrap();
        assert!(matches!(
            w.push_rows(&[0, 5], &[1]),
            Err(StoreError::Malformed(_))
        ));
        assert!(matches!(
            w.push_rows(&[0, 1], &[3]),
            Err(StoreError::Malformed(_))
        ));
        assert!(matches!(
            w.push_rows(&[0, 0, 0, 0, 0], &[]),
            Err(StoreError::Malformed(_))
        ));
        drop(w);
        fs::remove_dir_all(&dir).unwrap();
    }
}
