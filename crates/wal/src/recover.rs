//! Opening a WAL after a crash: sequential scan, torn-tail detection, and
//! physical truncation.
//!
//! The tail rule distinguishes "power died mid-append" from "the file is
//! corrupt":
//!
//! - a frame that decodes cleanly but whose LSN does not strictly
//!   increase → **corrupt** (the log was tampered with or double-opened);
//! - a frame cut off by end-of-file → **torn tail**, truncate and go on;
//! - a frame whose bytes are all present but fail CRC/structure checks:
//!   if its claimed extent reaches end-of-file it is still a tail (a
//!   partially-flushed page can scribble anywhere in the final frame) →
//!   truncate; if valid data *follows* it, truncating would silently drop
//!   acknowledged records → **corrupt**, refuse to open.
//!
//! This is exactly the property the proptests assert: any truncation or
//! single-bit flip yields a strict prefix of the acknowledged records or
//! a typed error — never a panic, never garbage replayed.

use std::fs::{self, OpenOptions};
use std::path::Path;

use crate::error::{io_err, WalError};
use crate::metrics::WalMetrics;
use crate::record::{decode_frame, FrameError, WalRecord};

/// What the scan found at the end of the file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TailStatus {
    /// A torn tail was detected.
    pub torn: bool,
    /// Bytes past the last valid frame (0 when the tail is clean).
    pub truncated_bytes: u64,
}

/// Result of scanning a WAL file.
#[derive(Debug)]
pub struct WalScan {
    /// Every intact record, in log order.
    pub records: Vec<WalRecord>,
    /// Tail disposition.
    pub tail: TailStatus,
    /// The next LSN a writer should use (`max(lsn) + 1`, or 0 if empty).
    pub next_lsn: u64,
}

fn scan_bytes(path: &Path, data: &[u8]) -> Result<(Vec<WalRecord>, u64), WalError> {
    let mut records: Vec<WalRecord> = Vec::new();
    let mut offset = 0usize;
    let valid_end = loop {
        if offset >= data.len() {
            break offset;
        }
        match decode_frame(&data[offset..]) {
            Ok((rec, used)) => {
                if let Some(last) = records.last() {
                    if rec.lsn <= last.lsn {
                        return Err(WalError::Corrupt {
                            path: path.to_path_buf(),
                            offset: offset as u64,
                            detail: format!("LSN regression: {} follows {}", rec.lsn, last.lsn),
                        });
                    }
                }
                records.push(rec);
                offset += used;
            }
            Err(FrameError::Truncated { .. }) => break offset,
            Err(FrameError::BadCrc { frame_len })
            | Err(FrameError::Malformed { frame_len, .. }) => {
                if offset + frame_len >= data.len() {
                    // The bad frame's claimed extent reaches EOF: torn tail.
                    break offset;
                }
                return Err(WalError::Corrupt {
                    path: path.to_path_buf(),
                    offset: offset as u64,
                    detail: "bad frame with valid data following it".to_string(),
                });
            }
        }
    };
    Ok((records, valid_end as u64))
}

/// Scans the log at `path` without modifying it. A missing file scans as
/// empty — a fresh WAL directory is not an error.
pub fn scan_file(path: &Path) -> Result<WalScan, WalError> {
    let data = match fs::read(path) {
        Ok(d) => d,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(io_err("read", path, e)),
    };
    let (records, valid_end) = scan_bytes(path, &data)?;
    let truncated_bytes = data.len() as u64 - valid_end;
    let next_lsn = records.last().map_or(0, |r| r.lsn + 1);
    Ok(WalScan {
        records,
        tail: TailStatus {
            torn: truncated_bytes > 0,
            truncated_bytes,
        },
        next_lsn,
    })
}

/// Scans the log and, if a torn tail is found, physically truncates it
/// (set_len + fsync) so a subsequent writer appends after the last intact
/// frame. Bumps `db_wal_torn_truncated_total` when a tail is cut.
pub fn recover_file(path: &Path, metrics: &WalMetrics) -> Result<WalScan, WalError> {
    let scan = scan_file(path)?;
    if scan.tail.torn {
        let file = OpenOptions::new()
            .write(true)
            .open(path)
            .map_err(|e| io_err("open", path, e))?;
        let keep = file
            .metadata()
            .map_err(|e| io_err("stat", path, e))?
            .len()
            .saturating_sub(scan.tail.truncated_bytes);
        file.set_len(keep)
            .map_err(|e| io_err("truncate", path, e))?;
        file.sync_all().map_err(|e| io_err("sync", path, e))?;
        metrics.torn_truncated.inc();
    }
    Ok(scan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use db_metrics::Registry;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("dbwal-rec-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).expect("mkdir");
        d
    }

    fn rec(lsn: u64) -> WalRecord {
        WalRecord {
            lsn,
            epoch: lsn + 1,
            tenant: "t".to_string(),
            corpus: "delta:g:8".to_string(),
            adds: vec![(lsn as u32, lsn as u32 + 1), (2, 3)],
            dels: vec![(4, 5)],
            tombs: vec![],
        }
    }

    fn log_bytes(n: u64) -> Vec<u8> {
        let mut out = Vec::new();
        for i in 0..n {
            out.extend_from_slice(&rec(i).encode_frame());
        }
        out
    }

    #[test]
    fn missing_file_scans_empty() {
        let dir = tmpdir("missing");
        let scan = scan_file(&dir.join("nope.log")).expect("scan");
        assert!(scan.records.is_empty());
        assert!(!scan.tail.torn);
        assert_eq!(scan.next_lsn, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn clean_log_scans_fully() {
        let dir = tmpdir("clean");
        let path = dir.join("wal.log");
        fs::write(&path, log_bytes(4)).expect("write");
        let scan = scan_file(&path).expect("scan");
        assert_eq!(scan.records.len(), 4);
        assert!(!scan.tail.torn);
        assert_eq!(scan.next_lsn, 4);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_truncated_and_counted() {
        let dir = tmpdir("torn");
        let path = dir.join("wal.log");
        let full = log_bytes(3);
        let frame_len = rec(0).encode_frame().len();
        // Cut the last frame in half: records 0 and 1 survive.
        let cut = full.len() - frame_len / 2;
        fs::write(&path, &full[..cut]).expect("write");
        let m = WalMetrics::register(&Registry::new());
        let scan = recover_file(&path, &m).expect("recover");
        assert_eq!(scan.records.len(), 2);
        assert!(scan.tail.torn);
        assert_eq!(scan.next_lsn, 2);
        assert_eq!(m.torn_truncated.get(), 1);
        // File is now physically clean: a re-scan sees no tail.
        let rescan = scan_file(&path).expect("rescan");
        assert_eq!(rescan.records.len(), 2);
        assert!(!rescan.tail.torn);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn mid_file_corruption_is_typed_error() {
        let dir = tmpdir("corrupt");
        let path = dir.join("wal.log");
        let mut data = log_bytes(3);
        // Flip a payload byte inside the FIRST frame — valid frames follow,
        // so truncation would drop acknowledged records 1 and 2.
        data[10] ^= 0x01;
        fs::write(&path, &data).expect("write");
        let err = scan_file(&path).expect_err("must be corrupt");
        assert!(matches!(err, WalError::Corrupt { .. }), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn lsn_regression_is_corrupt() {
        let dir = tmpdir("lsn");
        let path = dir.join("wal.log");
        let mut data = rec(5).encode_frame();
        data.extend_from_slice(&rec(5).encode_frame());
        fs::write(&path, &data).expect("write");
        let err = scan_file(&path).expect_err("must be corrupt");
        assert!(matches!(err, WalError::Corrupt { .. }), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bit_flip_in_final_frame_is_torn_tail() {
        let dir = tmpdir("flip-tail");
        let path = dir.join("wal.log");
        let mut data = log_bytes(3);
        // Corrupt the final frame's payload: its extent reaches EOF, so the
        // scan treats it as torn, keeping the intact prefix.
        let last = data.len() - 3;
        data[last] ^= 0x80;
        fs::write(&path, &data).expect("write");
        let m = WalMetrics::register(&Registry::new());
        let scan = recover_file(&path, &m).expect("recover");
        assert_eq!(scan.records.len(), 2);
        assert!(scan.tail.torn);
        let _ = fs::remove_dir_all(&dir);
    }
}

#[cfg(test)]
mod proptests {
    //! Satellite 3: arbitrary byte-level truncation or a single-bit flip
    //! of a WAL file either recovers a strict prefix of the acknowledged
    //! records or fails with a typed `WalError` — never panics, never
    //! replays garbage.

    use super::*;
    use proptest::prelude::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn arb_log() -> impl Strategy<Value = Vec<WalRecord>> {
        proptest::collection::vec(
            (
                0u64..1000,
                proptest::collection::vec((0u32..64, 0u32..64), 0..5),
                proptest::collection::vec((0u32..64, 0u32..64), 0..3),
                proptest::collection::vec(0u32..64, 0..3),
            ),
            1..6,
        )
        .prop_map(|parts| {
            parts
                .into_iter()
                .enumerate()
                .map(|(i, (epoch, adds, dels, tombs))| WalRecord {
                    lsn: i as u64,
                    epoch,
                    tenant: "t".to_string(),
                    corpus: "delta:g:64".to_string(),
                    adds,
                    dels,
                    tombs,
                })
                .collect()
        })
    }

    fn encode_all(recs: &[WalRecord]) -> Vec<u8> {
        let mut out = Vec::new();
        for r in recs {
            out.extend_from_slice(&r.encode_frame());
        }
        out
    }

    /// The directory of one proptest case, removed when the case ends
    /// (also when it fails).
    struct CaseDir(PathBuf);

    impl Drop for CaseDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    /// A log path in a directory of its own, named from the pid plus a
    /// process-wide counter so no two cases ever share a path. Keep the
    /// guard alive for as long as the path is used.
    fn case_log() -> (CaseDir, PathBuf) {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        // relaxed-ok: unique id allocation; only atomicity matters
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("dbwal-prop-{}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("w.log");
        (CaseDir(dir), path)
    }

    /// The recovered records must be exactly `recs[..k]` for some `k`.
    fn assert_strict_prefix(recovered: &[WalRecord], recs: &[WalRecord]) {
        assert!(recovered.len() <= recs.len(), "recovered more than written");
        for (got, want) in recovered.iter().zip(recs.iter()) {
            assert_eq!(got, want, "recovered record diverges from written one");
        }
    }

    proptest! {
        #[test]
        fn truncation_recovers_strict_prefix(
            recs in arb_log(),
            cut_frac in 0.0f64..1.0,
        ) {
            let data = encode_all(&recs);
            let cut = ((data.len() as f64) * cut_frac) as usize;
            let (_dir, path) = case_log();
            fs::write(&path, &data[..cut.min(data.len())]).expect("write");
            let m = WalMetrics::register(&db_metrics::Registry::new());
            // Truncation alone can never make the file corrupt: it must
            // recover, and recover a strict prefix.
            let scan = recover_file(&path, &m).expect("truncated log must recover");
            assert_strict_prefix(&scan.records, &recs);
        }

        #[test]
        fn single_bit_flip_prefix_or_typed_error(
            recs in arb_log(),
            pos_frac in 0.0f64..1.0,
            bit in 0u32..8,
        ) {
            let mut data = encode_all(&recs);
            let pos = (((data.len() - 1) as f64) * pos_frac) as usize;
            data[pos] ^= 1u8 << bit;
            let (_dir, path) = case_log();
            fs::write(&path, &data).expect("write");
            let m = WalMetrics::register(&db_metrics::Registry::new());
            match recover_file(&path, &m) {
                Ok(scan) => assert_strict_prefix(&scan.records, &recs),
                Err(WalError::Corrupt { .. }) => {}
                Err(e) => panic!("unexpected error class: {e}"),
            }
        }
    }
}
