//! File-backed [`Region`]s: a real `mmap` on 64-bit unix, a heap read
//! everywhere else.
//!
//! No `libc` crate: the syscall wrappers are declared directly (the C
//! library is already linked by `std`). The mapping is `PROT_READ` +
//! `MAP_PRIVATE`, so the kernel pages sections in lazily and the bytes
//! can never be written through this mapping — which is what makes the
//! zero-copy `SectionSlice` views sound, and what lets
//! [`Region::release`] drop pages a load has finished with: an unwritten
//! private file page reads back the same file bytes when touched again.

use crate::error::StoreError;
use db_graph::store::{HeapRegion, Region};
use std::fs::File;
use std::io::Read;
use std::path::Path;
use std::sync::Arc;

/// How a region was realized, for `store inspect` and cache accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegionKind {
    /// Kernel-managed mapping; pages are shared page cache.
    Mmap,
    /// Private heap copy (fallback platforms, or forced by the caller).
    Heap,
}

/// Opens `path` as an immutable region, preferring `mmap`.
///
/// `force_heap` skips the mapping and reads the file into an 8-aligned
/// heap buffer — used by the fault-injection path (which must mutate a
/// copy) and by the differential tests.
pub fn open_region(
    path: &Path,
    force_heap: bool,
) -> Result<(Arc<dyn Region>, RegionKind), StoreError> {
    let mut file = File::open(path).map_err(|source| StoreError::Io {
        op: "open",
        path: path.to_path_buf(),
        source,
    })?;
    let len = file
        .metadata()
        .map_err(|source| StoreError::Io {
            op: "stat",
            path: path.to_path_buf(),
            source,
        })?
        .len();
    if len > usize::MAX as u64 {
        return Err(StoreError::Malformed(format!(
            "file of {len} bytes exceeds address space"
        )));
    }
    let len = len as usize;

    if !force_heap && len > 0 {
        #[cfg(all(unix, target_pointer_width = "64"))]
        {
            if let Some(m) = MmapRegion::map(&file, len) {
                return Ok((Arc::new(m), RegionKind::Mmap));
            }
            // mmap failure falls through to the heap read.
        }
    }

    let mut bytes = Vec::with_capacity(len);
    file.read_to_end(&mut bytes)
        .map_err(|source| StoreError::Io {
            op: "read",
            path: path.to_path_buf(),
            source,
        })?;
    Ok((Arc::new(HeapRegion::from_bytes(&bytes)), RegionKind::Heap))
}

/// Resident bytes of this process's mapping that contains `addr`: the
/// `Rss:` field of its `/proc/self/smaps` entry. `None` off Linux, or
/// when no mapping contains `addr`.
pub(crate) fn resident_bytes(addr: usize) -> Option<u64> {
    if !cfg!(target_os = "linux") {
        return None;
    }
    let smaps = std::fs::read_to_string("/proc/self/smaps").ok()?;
    let mut inside = false;
    for line in smaps.lines() {
        if let Some(kb) = line.strip_prefix("Rss:") {
            if inside {
                let kb = kb.trim().strip_suffix("kB")?.trim().parse::<u64>().ok()?;
                return kb.checked_mul(1024);
            }
        } else if let Some((lo, hi)) = line
            .split_once(' ')
            .and_then(|(range, _)| range.split_once('-'))
        {
            // A mapping's header line: `start-end perms offset dev inode path`.
            if let (Ok(lo), Ok(hi)) = (usize::from_str_radix(lo, 16), usize::from_str_radix(hi, 16))
            {
                inside = (lo..hi).contains(&addr);
            }
        }
    }
    None
}

#[cfg(all(unix, target_pointer_width = "64"))]
pub use unix_mmap::MmapRegion;

#[cfg(all(unix, target_pointer_width = "64"))]
mod unix_mmap {
    use db_graph::store::Region;
    use std::ffi::c_void;
    use std::fs::File;
    use std::ops::Range;
    use std::os::unix::io::AsRawFd;

    const PROT_READ: i32 = 1;
    const MAP_PRIVATE: i32 = 2;
    const MADV_DONTNEED: i32 = 4;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> i32;
        fn madvise(addr: *mut c_void, len: usize, advice: i32) -> i32;
        fn getpagesize() -> i32;
    }

    /// A read-only private mapping of a whole file.
    pub struct MmapRegion {
        ptr: *const u8,
        len: usize,
    }

    // SAFETY: the mapping is PROT_READ for its whole lifetime — shared
    // references to immutable bytes are safe to move/share across
    // threads.
    unsafe impl Send for MmapRegion {}
    // SAFETY: as above.
    unsafe impl Sync for MmapRegion {}

    impl MmapRegion {
        /// Maps `len` bytes of `file` read-only. `len` must be nonzero
        /// (a zero-length mmap is an error on POSIX).
        pub fn map(file: &File, len: usize) -> Option<Self> {
            debug_assert!(len > 0);
            // SAFETY: fd is a valid open file for the duration of the
            // call; a NULL addr asks the kernel to choose; failure is
            // reported as MAP_FAILED which we check.
            let ptr = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    len,
                    PROT_READ,
                    MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr as isize == -1 || ptr.is_null() {
                return None;
            }
            Some(MmapRegion {
                ptr: ptr.cast::<u8>().cast_const(),
                len,
            })
        }
    }

    impl std::fmt::Debug for MmapRegion {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("MmapRegion")
                .field("len", &self.len)
                .finish()
        }
    }

    impl Region for MmapRegion {
        fn bytes(&self) -> &[u8] {
            // SAFETY: `ptr` is a live PROT_READ mapping of exactly `len`
            // bytes, valid until Drop unmaps it; `&self` ties the
            // borrow's lifetime to the region.
            unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
        }

        /// Drops the resident pages that lie wholly inside `range`; the
        /// pages it only partly covers stay.
        fn release(&self, range: Range<usize>) {
            // SAFETY: getpagesize has no preconditions.
            let page = usize::try_from(unsafe { getpagesize() }).unwrap_or(0);
            // `None` also when the page size is 0.
            let Some(start) = range.start.checked_next_multiple_of(page) else {
                return;
            };
            let end = range.end.min(self.len) / page * page;
            if start >= end {
                return;
            }
            // SAFETY: `ptr` is page-aligned (mmap returns page-aligned
            // addresses) and `start..end` is a whole number of pages
            // inside this live mapping. The mapping is PROT_READ and
            // MAP_PRIVATE over a file and is never written, so it holds
            // no private copies: MADV_DONTNEED only unmaps page-cache
            // pages, and a later read faults the same file bytes back
            // in. No byte seen through `bytes()` changes. A failure
            // (the result is ignored) leaves the pages resident.
            unsafe {
                madvise(
                    self.ptr.add(start).cast_mut().cast::<c_void>(),
                    end - start,
                    MADV_DONTNEED,
                );
            }
        }
    }

    impl Drop for MmapRegion {
        fn drop(&mut self) {
            // SAFETY: `ptr`/`len` came from a successful mmap and are
            // unmapped exactly once.
            unsafe {
                munmap(self.ptr.cast_mut().cast::<c_void>(), self.len);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_region_mmap_and_heap_agree() {
        let dir = std::env::temp_dir().join(format!("dbstore-mmapio-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("region.bin");
        let data: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();
        std::fs::write(&path, &data).unwrap();

        let (heap, hk) = open_region(&path, true).unwrap();
        assert_eq!(hk, RegionKind::Heap);
        assert_eq!(heap.bytes(), &data[..]);

        let (auto, _) = open_region(&path, false).unwrap();
        assert_eq!(auto.bytes(), &data[..]);
        #[cfg(all(unix, target_pointer_width = "64"))]
        {
            let (m, mk) = open_region(&path, false).unwrap();
            assert_eq!(mk, RegionKind::Mmap);
            assert_eq!(m.bytes(), &data[..]);
        }
        std::fs::remove_file(&path).unwrap();
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn missing_file_is_io_error() {
        let r = open_region(Path::new("/nonexistent/definitely/missing.dbsg"), false);
        assert!(matches!(r, Err(StoreError::Io { op: "open", .. })));
    }
}
