//! A pack's bytes for the length of one load: a read-only `mmap` on
//! 64-bit unix, a heap read everywhere else.
//!
//! No `libc` crate: the syscall wrappers are declared directly (the C
//! library is already linked by `std`). The mapping is `PROT_READ` +
//! `MAP_PRIVATE`, so the kernel pages the file in lazily, nothing can
//! write through it, and [`PackBytes::release`] can drop the pages a
//! load has finished with: an unwritten private file page reads back
//! the same file bytes when touched again. A load copies what it keeps
//! into the heap, so no mapping outlives it.

use crate::error::StoreError;
use std::fs::File;
use std::io::Read;
use std::ops::Range;
use std::path::Path;

/// The bytes of a pack file while it loads.
#[derive(Debug)]
pub(crate) enum PackBytes {
    /// A read-only private mapping of the whole file.
    #[cfg(all(unix, target_pointer_width = "64"))]
    Mapped(unix_mmap::Mmap),
    /// The file read into the heap: where mmap is unavailable or fails,
    /// and on the fault-injection path, which must edit a copy.
    Read(Vec<u8>),
}

impl PackBytes {
    /// Opens `path`, mapping it where mmap is available.
    pub(crate) fn open(path: &Path) -> Result<Self, StoreError> {
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
        let len = usize::try_from(len).map_err(|_| {
            StoreError::Malformed(format!("file of {len} bytes exceeds address space"))
        })?;
        #[cfg(all(unix, target_pointer_width = "64"))]
        if let Some(m) = unix_mmap::Mmap::map(&file, len) {
            return Ok(PackBytes::Mapped(m));
        }
        let mut bytes = Vec::with_capacity(len);
        file.read_to_end(&mut bytes)
            .map_err(|source| StoreError::Io {
                op: "read",
                path: path.to_path_buf(),
                source,
            })?;
        Ok(PackBytes::Read(bytes))
    }

    /// The whole file.
    pub(crate) fn bytes(&self) -> &[u8] {
        match self {
            #[cfg(all(unix, target_pointer_width = "64"))]
            PackBytes::Mapped(m) => m.bytes(),
            PackBytes::Read(bytes) => bytes,
        }
    }

    /// Hints that `bytes()[range]` will not be read again: a mapping
    /// gives this process's resident pages wholly inside it back to the
    /// kernel. The bytes do not change. A heap read keeps everything,
    /// since dropping its pages would zero them.
    pub(crate) fn release(&self, range: Range<usize>) {
        match self {
            #[cfg(all(unix, target_pointer_width = "64"))]
            PackBytes::Mapped(m) => m.release(range),
            PackBytes::Read(_) => {}
        }
    }
}

#[cfg(all(unix, target_pointer_width = "64"))]
mod unix_mmap {
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
    #[derive(Debug)]
    pub struct Mmap {
        ptr: *const u8,
        len: usize,
    }

    impl Mmap {
        /// Maps the first `len` bytes of `file` read-only; `None` when
        /// `len` is 0 (a zero-length mmap is an error on POSIX) or the
        /// kernel refuses.
        pub(super) fn map(file: &File, len: usize) -> Option<Self> {
            if len == 0 {
                return None;
            }
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
            Some(Mmap {
                ptr: ptr.cast::<u8>().cast_const(),
                len,
            })
        }

        pub(super) fn bytes(&self) -> &[u8] {
            // SAFETY: `ptr` is a live PROT_READ mapping of exactly `len`
            // bytes, valid until Drop unmaps it; `&self` ties the
            // borrow's lifetime to the mapping.
            unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
        }

        /// Drops the resident pages that lie wholly inside `range`; the
        /// pages it only partly covers stay.
        pub(super) fn release(&self, range: Range<usize>) {
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

    impl Drop for Mmap {
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
    fn open_maps_the_file_bytes() {
        let dir = std::env::temp_dir().join(format!("dbstore-mmapio-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("region.bin");
        let data: Vec<u8> = (0..3 * 4096u32).map(|i| (i % 251) as u8).collect();
        std::fs::write(&path, &data).unwrap();

        let pack = PackBytes::open(&path).unwrap();
        #[cfg(all(unix, target_pointer_width = "64"))]
        assert!(matches!(pack, PackBytes::Mapped(_)));
        assert_eq!(pack.bytes(), &data[..]);
        // Released pages read back the same bytes.
        pack.release(100..2 * 4096 + 100);
        assert_eq!(pack.bytes(), &data[..]);
        drop(pack);

        std::fs::write(&path, b"").unwrap();
        assert!(PackBytes::open(&path).unwrap().bytes().is_empty());
        std::fs::remove_file(&path).unwrap();
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn missing_file_is_io_error() {
        let r = PackBytes::open(Path::new("/nonexistent/definitely/missing.dbsg"));
        assert!(matches!(r, Err(StoreError::Io { op: "open", .. })));
    }
}
