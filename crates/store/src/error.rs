//! Typed errors for pack writing and loading.
//!
//! Everything that can go wrong with attacker-controlled pack bytes —
//! truncation, bad magic, checksum mismatches, malformed CSR — surfaces
//! as a [`StoreError`] variant. The serve path relies on this: a corrupt
//! `store:` graph degrades to a per-request error, never a panic.

use db_graph::csr::CsrError;
use db_graph::encode::DecodeError;
use std::fmt;
use std::path::PathBuf;

/// Any defect in packing or loading a graph store.
#[derive(Debug)]
pub enum StoreError {
    /// An I/O operation failed.
    Io {
        /// What we were doing (e.g. "open", "write", "rename").
        op: &'static str,
        /// The file involved.
        path: PathBuf,
        /// The underlying OS error.
        source: std::io::Error,
    },
    /// The file does not start with the `DBSTORE` magic.
    BadMagic,
    /// The format version is newer than this reader understands.
    UnsupportedVersion(u16),
    /// The file is shorter than a structure it claims to contain.
    Truncated {
        /// Bytes required.
        need: u64,
        /// Bytes present.
        have: u64,
    },
    /// The header checksum does not match the header bytes.
    HeaderChecksum {
        /// Checksum stored in the header.
        expected: u64,
        /// Checksum recomputed over the header bytes.
        got: u64,
    },
    /// A section's checksum does not match its payload bytes.
    SectionChecksum {
        /// Section id.
        id: u32,
        /// Checksum stored in the section table.
        expected: u64,
        /// Checksum recomputed over the payload.
        got: u64,
    },
    /// A required section is absent.
    MissingSection {
        /// The missing section id.
        id: u32,
    },
    /// A section's offset/length falls outside the file or breaks the
    /// 8-byte alignment rule.
    SectionBounds {
        /// Section id.
        id: u32,
    },
    /// A structural inconsistency between header counts and section
    /// payloads (e.g. packed stream longer than the arc count implies).
    Malformed(String),
    /// The varint/delta column stream is invalid.
    Decode(DecodeError),
    /// The assembled arrays violate a CSR invariant.
    Csr(CsrError),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { op, path, source } => {
                write!(f, "{op} {}: {source}", path.display())
            }
            StoreError::BadMagic => write!(f, "not a DBSTORE pack (bad magic)"),
            StoreError::UnsupportedVersion(v) => {
                write!(f, "unsupported pack version {v}")
            }
            StoreError::Truncated { need, have } => {
                write!(f, "pack truncated: need {need} bytes, have {have}")
            }
            StoreError::HeaderChecksum { expected, got } => {
                write!(
                    f,
                    "header checksum mismatch (stored {expected:#x}, computed {got:#x})"
                )
            }
            StoreError::SectionChecksum { id, expected, got } => write!(
                f,
                "section {id} checksum mismatch (stored {expected:#x}, computed {got:#x})"
            ),
            StoreError::MissingSection { id } => write!(f, "required section {id} missing"),
            StoreError::SectionBounds { id } => {
                write!(f, "section {id} exceeds file bounds or misaligned")
            }
            StoreError::Malformed(msg) => write!(f, "malformed pack: {msg}"),
            StoreError::Decode(e) => write!(f, "packed column stream: {e}"),
            StoreError::Csr(e) => write!(f, "csr invariant: {e}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io { source, .. } => Some(source),
            StoreError::Decode(e) => Some(e),
            StoreError::Csr(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DecodeError> for StoreError {
    fn from(e: DecodeError) -> Self {
        StoreError::Decode(e)
    }
}

impl From<CsrError> for StoreError {
    fn from(e: CsrError) -> Self {
        StoreError::Csr(e)
    }
}
