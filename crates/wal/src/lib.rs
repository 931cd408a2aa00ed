//! # db-wal — crash-consistent durability for delta graphs
//!
//! A checksummed, length-prefixed, group-commit write-ahead log for the
//! `db-delta` mutation stream, plus the checkpoint manifest and recovery
//! scan that together make an acknowledged write survive `kill -9`.
//!
//! The commit protocol, enforced by `db-serve`'s write path:
//!
//! 1. **Log** the batch ([`WalRecord`] with the epoch it *will* publish)
//!    and commit it per the [`FsyncPolicy`].
//! 2. **Apply** the batch to the in-memory `db-delta` graph.
//! 3. **Ack** the client.
//!
//! Checkpoints fold the durable prefix into a `db-store` pack and swap
//! the [`Manifest`] (temp + fsync + rename + dir-fsync), then truncate
//! the WAL. Recovery loads the manifest's packs and replays every WAL
//! record past each corpus's checkpoint LSN; the rebuilt epoch state is
//! bit-identical to the pre-crash graph or recovery refuses to start
//! ([`WalError::Replay`]).
//!
//! Every fault the `db-fault` storage domain can inject — torn appends,
//! short writes, lying fsyncs, seeded crashes — enters through the
//! [`WalFaultHook`] trait, so the crate has no dependency on the fault
//! plan grammar.

#![warn(missing_docs)]

mod error;
pub mod log;
pub mod manifest;
pub mod metrics;
pub mod record;
pub mod recover;

pub use error::WalError;
pub use log::{AppendFault, CkptPhase, FsyncPolicy, Wal, WalFaultHook, CRASH_EXIT_CODE};
pub use manifest::{Manifest, ManifestEntry};
pub use metrics::WalMetrics;
pub use record::{decode_frame, FrameError, WalRecord, MAX_FRAME_LEN};
pub use recover::{recover_file, scan_file, TailStatus, WalScan};

use std::io;
use std::path::Path;

/// Default WAL file name inside a `--wal-dir`.
pub const WAL_FILE: &str = "wal.log";

/// Default manifest file name inside a `--wal-dir`.
pub const MANIFEST_FILE: &str = "manifest";

/// Fsyncs a directory so a rename inside it survives power loss. An
/// empty path (the parent of a bare file name) is the current
/// directory. On non-Unix platforms this is a no-op (directory handles
/// cannot be fsynced portably).
pub fn fsync_dir(dir: &Path) -> io::Result<()> {
    #[cfg(unix)]
    {
        let dir = if dir.as_os_str().is_empty() {
            Path::new(".")
        } else {
            dir
        };
        std::fs::File::open(dir)?.sync_all()?;
    }
    #[cfg(not(unix))]
    {
        let _ = dir;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fsync_dir_on_real_directory() {
        let dir = std::env::temp_dir();
        fsync_dir(&dir).expect("fsync_dir");
    }

    #[test]
    fn fsync_dir_of_a_bare_file_names_parent_is_the_cwd() {
        let parent = Path::new("wal.log").parent().expect("parent");
        assert!(parent.as_os_str().is_empty());
        fsync_dir(parent).expect("fsync_dir");
    }

    #[test]
    fn error_display_names_op_and_path() {
        let e = WalError::Io {
            op: "append",
            path: std::path::PathBuf::from("/x/wal.log"),
            source: io::Error::other("disk on fire"),
        };
        let s = e.to_string();
        assert!(s.contains("append"), "{s}");
        assert!(s.contains("wal.log"), "{s}");
    }
}
