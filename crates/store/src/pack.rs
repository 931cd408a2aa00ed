//! Streaming pack writer: rows in, sealed `.dbsg` file out.
//!
//! The writer is push-based so generators can stream multi-million-edge
//! graphs without materializing a `CsrGraph`: call
//! [`PackWriter::push_row`] once per vertex (sorted neighbor list), then
//! [`PackWriter::finish`]. Column payloads spool to side files next to
//! the target (bounded memory); only the `row_ptr` array is held in RAM
//! (`8 × (n + 1)` bytes). The final file is assembled in a `.tmp`
//! sibling and published with an atomic rename, so readers never observe
//! a half-written pack.
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
use db_graph::encode::encode_row;
use db_graph::CsrGraph;
use std::fs::{self, File};
use std::io::{BufWriter, Write};
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

/// One spooled section payload: bytes stream to a side file while the
/// checksum and length accumulate.
struct Spool {
    path: PathBuf,
    file: BufWriter<File>,
    hash: Hash64,
    len: u64,
}

impl Spool {
    fn create(path: PathBuf) -> Result<Self, StoreError> {
        let file = File::create(&path).map_err(|source| StoreError::Io {
            op: "create spool",
            path: path.clone(),
            source,
        })?;
        Ok(Spool {
            path,
            file: BufWriter::new(file),
            hash: Hash64::new(),
            len: 0,
        })
    }

    fn write(&mut self, bytes: &[u8]) -> Result<(), StoreError> {
        self.hash.update(bytes);
        self.len += bytes.len() as u64;
        self.file.write_all(bytes).map_err(|source| StoreError::Io {
            op: "write spool",
            path: self.path.clone(),
            source,
        })
    }
}

/// Streaming writer for one pack file. See the module docs for the
/// protocol; dropping a writer without finishing removes its temp files.
pub struct PackWriter {
    path: PathBuf,
    opts: PackOptions,
    n: u32,
    directed: bool,
    next_vertex: u32,
    row_ptr: Vec<u64>,
    packed: Spool,
    hub: Spool,
    row_buf: Vec<u8>,
    hub_rows: u64,
    hub_arcs: u64,
    finished: bool,
}

impl std::fmt::Debug for PackWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PackWriter")
            .field("path", &self.path)
            .field("n", &self.n)
            .field("next_vertex", &self.next_vertex)
            .finish()
    }
}

impl PackWriter {
    /// Opens a writer targeting `path` for an `n`-vertex graph. Spool
    /// and temp files are created as `<path>.spool-*` / `<path>.tmp`
    /// siblings so the rename at the end stays on one filesystem.
    pub fn create(
        path: impl AsRef<Path>,
        n: u32,
        directed: bool,
        opts: PackOptions,
    ) -> Result<Self, StoreError> {
        let path = path.as_ref().to_path_buf();
        let packed = Spool::create(sibling(&path, ".spool-cols"))?;
        let hub = Spool::create(sibling(&path, ".spool-hub"))?;
        let mut row_ptr = Vec::with_capacity(n as usize + 1);
        row_ptr.push(0);
        Ok(PackWriter {
            path,
            opts,
            n,
            directed,
            next_vertex: 0,
            row_ptr,
            packed,
            hub,
            row_buf: Vec::new(),
            hub_rows: 0,
            hub_arcs: 0,
            finished: false,
        })
    }

    /// Appends the sorted neighbor row of the next vertex (vertex ids
    /// are implicit: call exactly `n` times, in order).
    pub fn push_row(&mut self, row: &[u32]) -> Result<(), StoreError> {
        if self.next_vertex >= self.n {
            return Err(StoreError::Malformed(format!(
                "push_row called more than n = {} times",
                self.n
            )));
        }
        if let Some(w) = row.windows(2).find(|w| w[0] > w[1]) {
            return Err(StoreError::Malformed(format!(
                "row {} not sorted ({} after {})",
                self.next_vertex, w[1], w[0]
            )));
        }
        if let Some(&v) = row.iter().find(|&&v| v >= self.n) {
            return Err(StoreError::Malformed(format!(
                "row {} references vertex {v} >= n = {}",
                self.next_vertex, self.n
            )));
        }
        // io-ok: row_ptr is seeded with a 0 entry in new() and only grows
        let arcs_so_far = *self.row_ptr.last().expect("row_ptr nonempty");
        self.row_ptr.push(arcs_so_far + row.len() as u64);

        let is_hub = self.opts.compress && row.len() as u64 >= u64::from(self.opts.hub_threshold);
        self.row_buf.clear();
        if !self.opts.compress || is_hub {
            for &v in row {
                self.row_buf.extend_from_slice(&v.to_le_bytes());
            }
            if self.opts.compress {
                self.hub_rows += 1;
                self.hub_arcs += row.len() as u64;
                let buf = std::mem::take(&mut self.row_buf);
                self.hub.write(&buf)?;
                self.row_buf = buf;
            } else {
                let buf = std::mem::take(&mut self.row_buf);
                self.packed.write(&buf)?;
                self.row_buf = buf;
            }
        } else {
            encode_row(row, &mut self.row_buf);
            let buf = std::mem::take(&mut self.row_buf);
            self.packed.write(&buf)?;
            self.row_buf = buf;
        }
        self.next_vertex += 1;
        Ok(())
    }

    /// Seals the pack: writes header, section table, and payloads into a
    /// `.tmp` sibling, fsyncs, and renames it over the target path.
    pub fn finish(mut self) -> Result<PackSummary, StoreError> {
        if self.next_vertex != self.n {
            return Err(StoreError::Malformed(format!(
                "finish after {} of {} rows",
                self.next_vertex, self.n
            )));
        }
        let arcs = *self.row_ptr.last().expect("row_ptr nonempty"); // io-ok: seeded in new()

        // Flush spools and collect their (path, len, checksum).
        self.packed.file.flush().map_err(|source| StoreError::Io {
            op: "flush spool",
            path: self.packed.path.clone(),
            source,
        })?;
        self.hub.file.flush().map_err(|source| StoreError::Io {
            op: "flush spool",
            path: self.hub.path.clone(),
            source,
        })?;

        // Row-pointer payload: hash it now; stream it to disk later.
        let mut rp_hash = Hash64::new();
        for chunk in self.row_ptr.chunks(128 * 1024) {
            let mut bytes = Vec::with_capacity(chunk.len() * 8);
            for &v in chunk {
                bytes.extend_from_slice(&v.to_le_bytes());
            }
            rp_hash.update(&bytes);
        }
        let rp_len = self.row_ptr.len() as u64 * 8;
        let rp_sum = rp_hash.clone().finish();

        // Section order: ROW_PTR, then COL_RAW or (COL_PACKED, HUB_COLS).
        let mut sections: Vec<(u32, u64, u64)> = vec![(SEC_ROW_PTR, rp_len, rp_sum)];
        if self.opts.compress {
            sections.push((
                SEC_COL_PACKED,
                self.packed.len,
                self.packed.hash.clone().finish(),
            ));
            sections.push((SEC_HUB_COLS, self.hub.len, self.hub.hash.clone().finish()));
        } else {
            sections.push((
                SEC_COL_RAW,
                self.packed.len,
                self.packed.hash.clone().finish(),
            ));
        }

        let table_end = HEADER_LEN as u64 + sections.len() as u64 * SECTION_ENTRY_LEN as u64;
        let mut offset = align8(table_end);
        let mut entries = Vec::with_capacity(sections.len());
        for &(id, len, checksum) in &sections {
            entries.push(SectionEntry {
                id,
                offset,
                len,
                checksum,
            });
            offset = align8(offset + len);
        }
        let file_bytes = offset;

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
            section_count: entries.len() as u32,
            n: self.n,
            arcs,
            hub_threshold: if self.opts.compress {
                self.opts.hub_threshold
            } else {
                0
            },
            partition_count: 0,
        };

        // Assemble the final file in a temp sibling.
        let tmp = sibling(&self.path, ".tmp");
        {
            let file = File::create(&tmp).map_err(|source| StoreError::Io {
                op: "create",
                path: tmp.clone(),
                source,
            })?;
            let mut out = BufWriter::new(file);
            let io = |op: &'static str, path: &Path, source: std::io::Error| StoreError::Io {
                op,
                path: path.to_path_buf(),
                source,
            };
            out.write_all(&header.encode())
                .map_err(|e| io("write", &tmp, e))?;
            for e in &entries {
                out.write_all(&e.encode())
                    .map_err(|e| io("write", &tmp, e))?;
            }
            pad_to(&mut out, table_end, align8(table_end)).map_err(|e| io("write", &tmp, e))?;

            // ROW_PTR payload.
            let mut written = align8(table_end);
            for chunk in self.row_ptr.chunks(128 * 1024) {
                let mut bytes = Vec::with_capacity(chunk.len() * 8);
                for &v in chunk {
                    bytes.extend_from_slice(&v.to_le_bytes());
                }
                out.write_all(&bytes).map_err(|e| io("write", &tmp, e))?;
            }
            written += rp_len;
            pad_to(&mut out, written, align8(written)).map_err(|e| io("write", &tmp, e))?;
            written = align8(written);

            // Column payloads, copied from the spools.
            let col_spools: Vec<&Spool> = if self.opts.compress {
                vec![&self.packed, &self.hub]
            } else {
                vec![&self.packed]
            };
            for spool in col_spools {
                let mut src = File::open(&spool.path).map_err(|source| StoreError::Io {
                    op: "open spool",
                    path: spool.path.clone(),
                    source,
                })?;
                let copied =
                    std::io::copy(&mut src, &mut out).map_err(|e| io("copy spool", &tmp, e))?;
                if copied != spool.len {
                    return Err(StoreError::Malformed(format!(
                        "spool {} changed size ({} vs {})",
                        spool.path.display(),
                        copied,
                        spool.len
                    )));
                }
                written += copied;
                pad_to(&mut out, written, align8(written)).map_err(|e| io("write", &tmp, e))?;
                written = align8(written);
            }
            debug_assert_eq!(written, file_bytes);
            let file = out.into_inner().map_err(|e| StoreError::Io {
                op: "flush",
                path: tmp.clone(),
                source: e.into_error(),
            })?;
            file.sync_all().map_err(|e| io("sync", &tmp, e))?;
        }
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
        self.cleanup_spools();

        Ok(PackSummary {
            n: self.n,
            arcs,
            file_bytes,
            csr_bytes: self.row_ptr.len() as u64 * 8 + arcs * 4,
            hub_rows: self.hub_rows,
            hub_arcs: self.hub_arcs,
        })
    }

    fn cleanup_spools(&self) {
        let _ = fs::remove_file(&self.packed.path);
        let _ = fs::remove_file(&self.hub.path);
    }
}

impl Drop for PackWriter {
    fn drop(&mut self) {
        if !self.finished {
            self.cleanup_spools();
            let _ = fs::remove_file(sibling(&self.path, ".tmp"));
        }
    }
}

/// Packs an in-RAM graph (the non-streaming convenience used by tests
/// and the CLI for small graphs).
pub fn pack_graph(
    g: &CsrGraph,
    path: impl AsRef<Path>,
    opts: PackOptions,
) -> Result<PackSummary, StoreError> {
    let mut w = PackWriter::create(path, g.num_vertices() as u32, g.is_directed(), opts)?;
    for u in 0..g.num_vertices() as u32 {
        w.push_row(g.neighbors(u))?;
    }
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

fn pad_to<W: Write>(out: &mut W, from: u64, to: u64) -> std::io::Result<()> {
    debug_assert!(to >= from && to - from < 8);
    let zeros = [0u8; 8];
    out.write_all(&zeros[..(to - from) as usize])
}
