//! Streaming pack writer: rows in, sealed `.dbsg` file out.
//!
//! The writer is push-based so generators can stream multi-million-edge
//! graphs without materializing a `CsrGraph`: call
//! [`PackWriter::push_rows`] with blocks of sorted rows, then
//! [`PackWriter::finish`]. The file is assembled in a `.tmp` sibling
//! and published with an atomic rename, so readers never observe a
//! half-written pack.
//!
//! The header, the section table and `row_ptr` have sizes known from
//! `n`, so the column section (`col_packed`, or `col_raw` in a raw
//! pack) streams straight to its final offset in the `.tmp` file. Only
//! a compressed pack's hub rows spool to a side file: their section
//! follows `col_packed`, whose length is known only at the end. The
//! writer holds `row_ptr` (`8 × (n + 1)` bytes) and one block's encoded
//! bytes in RAM; `finish` writes `row_ptr`, copies the hub spool after
//! the packed columns, and writes the header and the checksummed
//! section table last.
//!
//! A block is encoded in row chunks on every core ([`db_graph::par`]):
//! one pass checks each chunk's rows and sizes its bytes exactly
//! ([`encoded_row_len`]), the writer's reused buffers grow to the
//! block, and a second pass encodes each chunk into its own slices
//! ([`encode_row_into`]). The bytes do not depend on the block size or
//! the chunk count.
//!
//! Degree-skew-aware layout: rows with degree at or above
//! `hub_threshold` (the "hubs" of a skewed degree distribution) are
//! stored as raw `u32`s in their own section, keeping the dense rows
//! decode-free and cache-friendly, while the long tail of small rows
//! delta+varint compresses to a fraction of its raw size.

use crate::error::StoreError;
use crate::format::{
    align8, Hash64, Header, SectionEntry, FLAG_COMPRESSED, FLAG_DIRECTED, HEADER_LEN,
    SECTION_ENTRY_LEN, SEC_COL_PACKED, SEC_COL_RAW, SEC_HUB_COLS, SEC_ROW_PTR, VERSION,
};
use db_graph::encode::{encode_row_into, encoded_row_len};
use db_graph::{par, CsrGraph};
use std::fs::{self, File};
use std::io::{BufWriter, Seek, SeekFrom, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};

/// Pack-time layout choices.
#[derive(Debug, Clone, Copy)]
pub struct PackOptions {
    /// Delta+varint compress non-hub rows (raw `u32` columns otherwise —
    /// raw packs load fully zero-copy).
    pub compress: bool,
    /// Degree at/above which a row is stored raw in the hub section.
    /// Ignored when `compress` is false.
    pub hub_threshold: u32,
}

impl Default for PackOptions {
    fn default() -> Self {
        PackOptions {
            compress: true,
            hub_threshold: 64,
        }
    }
}

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
    /// Rows routed to the hub section.
    pub hub_rows: u64,
    /// Arcs stored in the hub section.
    pub hub_arcs: u64,
}

/// One section payload streaming to a file while its checksum and
/// length accumulate.
struct Payload {
    path: PathBuf,
    file: BufWriter<File>,
    hash: Hash64,
    len: u64,
}

impl Payload {
    fn new(path: PathBuf, file: File) -> Self {
        Payload {
            path,
            file: BufWriter::new(file),
            hash: Hash64::new(),
            len: 0,
        }
    }

    fn write(&mut self, bytes: &[u8]) -> Result<(), StoreError> {
        self.hash.update(bytes);
        self.len += bytes.len() as u64;
        self.file.write_all(bytes).map_err(|source| StoreError::Io {
            op: "write",
            path: self.path.clone(),
            source,
        })
    }

    /// Flushes the buffered bytes and hands back the file.
    fn flushed(&mut self) -> Result<&mut File, StoreError> {
        self.file.flush().map_err(|source| StoreError::Io {
            op: "flush",
            path: self.path.clone(),
            source,
        })?;
        Ok(self.file.get_mut())
    }
}

/// Work items (rows plus arcs) [`PackWriter::push_rows`] encodes at a
/// time: its encode buffers hold one such block, a few MiB.
const BLOCK: usize = 1 << 22;

/// What one chunk of rows needs in the two column sections.
#[derive(Debug, Clone, Copy, Default)]
struct ChunkLen {
    /// Bytes in `col_packed` (compressed) or `col_raw` (raw packs).
    cols: usize,
    /// Bytes in `hub_cols`.
    hub: usize,
    hub_rows: u64,
}

/// Streaming writer for one pack file. See the module docs for the
/// protocol; dropping a writer without finishing removes its temp files.
pub struct PackWriter {
    path: PathBuf,
    opts: PackOptions,
    n: u32,
    directed: bool,
    row_ptr: Vec<u64>,
    /// `col_packed` (or `col_raw`), written at its place in the `.tmp`.
    cols: Payload,
    /// `hub_cols` of a compressed pack, spooled until [`PackWriter::finish`].
    hub: Option<Payload>,
    /// A block's encoded sections, reused from block to block.
    cols_buf: Vec<u8>,
    hub_buf: Vec<u8>,
    hub_rows: u64,
    hub_arcs: u64,
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
    /// pack is assembled in a `<path>.tmp` sibling (and a compressed
    /// pack's hub rows spool to `<path>.spool-hub`) so the rename at the
    /// end stays on one filesystem.
    pub fn create(
        path: impl AsRef<Path>,
        n: u32,
        directed: bool,
        opts: PackOptions,
    ) -> Result<Self, StoreError> {
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
        let (_, cols_off) = layout(n, opts.compress);
        file.seek(SeekFrom::Start(cols_off))
            .map_err(|e| io("seek", e))?;
        let mut row_ptr = Vec::with_capacity(n as usize + 1);
        row_ptr.push(0);
        let mut w = PackWriter {
            path,
            opts,
            n,
            directed,
            row_ptr,
            cols: Payload::new(tmp.clone(), file),
            hub: None,
            cols_buf: Vec::new(),
            hub_buf: Vec::new(),
            hub_rows: 0,
            hub_arcs: 0,
            finished: false,
        };
        if opts.compress {
            let spool = sibling(&w.path, ".spool-hub");
            let file = File::create(&spool).map_err(|source| StoreError::Io {
                op: "create spool",
                path: spool.clone(),
                source,
            })?;
            w.hub = Some(Payload::new(spool, file));
        }
        Ok(w)
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
    /// rows and sizes each chunk exactly, the writer's buffers grow to
    /// the block, and a second pass encodes each chunk into its slices.
    fn push_block(&mut self, ends: &[u64], cols: &[u32], parts: usize) -> Result<(), StoreError> {
        let (first, n, opts) = (self.next_vertex(), self.n, self.opts);
        let is_hub = |deg: usize| opts.compress && deg as u64 >= u64::from(opts.hub_threshold);
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
            let mut len = ChunkLen::default();
            for (u, row) in (first + r.start..).zip(rows(r)) {
                let row = check_row(u, row, n)?;
                if is_hub(row.len()) {
                    len.hub += 4 * row.len();
                    len.hub_rows += 1;
                } else if opts.compress {
                    len.cols += encoded_row_len(row);
                } else {
                    len.cols += 4 * row.len();
                }
            }
            Ok(len)
        });
        // The lowest chunk's defect is the lowest row's.
        let lens = lens
            .into_iter()
            .collect::<Result<Vec<ChunkLen>, StoreError>>()?;
        let cols_at = par::offsets(lens.iter().map(|l| l.cols));
        let hub_at = par::offsets(lens.iter().map(|l| l.hub));
        par::zeroed(&mut self.cols_buf, lens.iter().map(|l| l.cols).sum());
        par::zeroed(&mut self.hub_buf, lens.iter().map(|l| l.hub).sum());
        let work: Vec<_> = chunks
            .into_iter()
            .zip(par::split_mut(&mut self.cols_buf, &cols_at))
            .zip(par::split_mut(&mut self.hub_buf, &hub_at))
            .collect();
        par::run(work, |_, ((r, mut out), mut hub)| {
            // Every row was checked above.
            for row in rows(r).flatten() {
                let dst = if is_hub(row.len()) {
                    &mut hub
                } else {
                    &mut out
                };
                let len = if opts.compress && !is_hub(row.len()) {
                    encode_row_into(row, dst)
                } else {
                    for (b, &v) in dst.chunks_exact_mut(4).zip(row) {
                        b.copy_from_slice(&v.to_le_bytes());
                    }
                    4 * row.len()
                };
                *dst = std::mem::take(dst).split_at_mut(len).1;
            }
        });
        self.cols.write(&self.cols_buf)?;
        if let Some(hub) = &mut self.hub {
            hub.write(&self.hub_buf)?;
        }
        self.hub_rows += lens.iter().map(|l| l.hub_rows).sum::<u64>();
        self.hub_arcs += self.hub_buf.len() as u64 / 4;
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

    /// Seals the pack: writes `row_ptr`, the hub rows, the header and
    /// the section table around the column section already in the
    /// `.tmp` sibling, fsyncs it, and renames it over the target path.
    pub fn finish(mut self) -> Result<PackSummary, StoreError> {
        if self.next_vertex() != self.n as usize {
            return Err(StoreError::Malformed(format!(
                "finish after {} of {} rows",
                self.next_vertex(),
                self.n
            )));
        }
        let arcs = self.arcs();
        let (rp_off, cols_off) = layout(self.n, self.opts.compress);
        let rp_len = self.row_ptr.len() as u64 * 8;
        let cols_id = if self.opts.compress {
            SEC_COL_PACKED
        } else {
            SEC_COL_RAW
        };
        let (cols_len, cols_sum) = (self.cols.len, self.cols.hash.clone().finish());
        let hub_off = align8(cols_off + cols_len);
        let tmp = self.cols.path.clone();
        let io = |op: &'static str, source: std::io::Error| StoreError::Io {
            op,
            path: tmp.clone(),
            source,
        };
        let mut sections = Vec::with_capacity(3);
        let file = self.cols.flushed()?;

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
        sections.push((SEC_ROW_PTR, rp_off, rp_len, rp_hash.finish()));
        sections.push((cols_id, cols_off, cols_len, cols_sum));
        let mut end = cols_off + cols_len;

        // The hub spool follows the column section.
        if let Some(hub) = &mut self.hub {
            hub.flushed()?;
            let mut src = File::open(&hub.path).map_err(|source| StoreError::Io {
                op: "open spool",
                path: hub.path.clone(),
                source,
            })?;
            file.seek(SeekFrom::Start(hub_off))
                .map_err(|e| io("seek", e))?;
            let copied = std::io::copy(&mut src, file).map_err(|e| io("copy spool", e))?;
            if copied != hub.len {
                return Err(StoreError::Malformed(format!(
                    "spool {} changed size ({copied} vs {})",
                    hub.path.display(),
                    hub.len
                )));
            }
            sections.push((SEC_HUB_COLS, hub_off, hub.len, hub.hash.clone().finish()));
            end = hub_off + hub.len;
        }

        let mut flags = 0u16;
        if self.directed {
            flags |= FLAG_DIRECTED;
        }
        if self.opts.compress {
            flags |= FLAG_COMPRESSED;
        }
        let header = Header {
            version: VERSION,
            flags,
            section_count: sections.len() as u32,
            n: self.n,
            arcs,
            hub_threshold: if self.opts.compress {
                self.opts.hub_threshold
            } else {
                0
            },
            partition_count: 0,
        };
        let mut head = header.encode().to_vec();
        for &(id, offset, len, checksum) in &sections {
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
        let file_bytes = align8(end);
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
        self.remove_spool();

        Ok(PackSummary {
            n: self.n,
            arcs,
            file_bytes,
            csr_bytes: rp_len + arcs * 4,
            hub_rows: self.hub_rows,
            hub_arcs: self.hub_arcs,
        })
    }

    fn remove_spool(&self) {
        if let Some(hub) = &self.hub {
            let _ = fs::remove_file(&hub.path);
        }
    }
}

impl Drop for PackWriter {
    fn drop(&mut self) {
        if !self.finished {
            self.remove_spool();
            let _ = fs::remove_file(&self.cols.path);
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

/// Byte offsets of `row_ptr` and of the column section in a pack of
/// `n` vertices: both follow the header and the section table (3
/// entries compressed, 2 raw), each 8-aligned.
fn layout(n: u32, compress: bool) -> (u64, u64) {
    let sections: u64 = if compress { 3 } else { 2 };
    let rp_off = align8(HEADER_LEN as u64 + sections * SECTION_ENTRY_LEN as u64);
    (rp_off, align8(rp_off + (u64::from(n) + 1) * 8))
}

/// Packs an in-RAM graph through one [`PackWriter`], its rows encoded
/// a block at a time in row chunks on every core.
pub fn pack_graph(
    g: &CsrGraph,
    path: impl AsRef<Path>,
    opts: PackOptions,
) -> Result<PackSummary, StoreError> {
    let mut w = PackWriter::create(path, g.num_vertices() as u32, g.is_directed(), opts)?;
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
    fn row_by_row(g: &CsrGraph, path: &Path, opts: PackOptions) -> Vec<u8> {
        let mut w =
            PackWriter::create(path, g.num_vertices() as u32, g.is_directed(), opts).unwrap();
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
            for opts in [
                PackOptions::default(),
                PackOptions {
                    compress: true,
                    hub_threshold: 3,
                },
                PackOptions {
                    compress: false,
                    hub_threshold: 64,
                },
            ] {
                let want = row_by_row(&g, &dir.join("ref.dbsg"), opts);
                pack_graph(&g, dir.join("whole.dbsg"), opts).unwrap();
                assert!(
                    fs::read(dir.join("whole.dbsg")).unwrap() == want,
                    "{name} {opts:?}"
                );
                // Blocks of one row, of 37 work items, and the default.
                for (parts, block) in [(1, BLOCK), (2, 37), (3, 1), (7, 37), (7, BLOCK)] {
                    let path = dir.join("chunked.dbsg");
                    let n = g.num_vertices() as u32;
                    let mut w = PackWriter::create(&path, n, g.is_directed(), opts).unwrap();
                    w.push_rows_with(g.row_ptr(), g.col_idx(), block, |_| parts)
                        .unwrap();
                    w.finish().unwrap();
                    let got = fs::read(&path).unwrap();
                    assert!(got == want, "{name} {opts:?} parts={parts} block={block}");
                }
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
        for opts in [
            PackOptions::default(),
            PackOptions {
                compress: false,
                hub_threshold: 0,
            },
        ] {
            for parts in [1, 2, 3, 7] {
                let path = dir.join("bad.dbsg");
                let mut w = PackWriter::create(&path, 2000, true, opts).unwrap();
                match w.push_rows_with(&rp, &cols, BLOCK, |_| parts) {
                    Err(StoreError::Malformed(msg)) => {
                        assert!(msg.starts_with("row 40 not sorted"), "{msg}")
                    }
                    other => panic!("parts={parts}: {other:?}"),
                }
                drop(w);
                assert_eq!(fs::read_dir(&dir).unwrap().count(), 0, "parts={parts}");
            }
        }
        // A row past the arcs and a neighbor past n are typed too.
        let mut w =
            PackWriter::create(dir.join("bad.dbsg"), 3, true, PackOptions::default()).unwrap();
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
