//! Backing storage abstraction: heap-owned or zero-copy mapped slices.
//!
//! [`CsrGraph`](crate::CsrGraph)'s two big arrays (`row_ptr: [u64]`,
//! `col_idx: [u32]`) historically lived in `Vec`s. To serve packed
//! on-disk graphs without copying the offsets array, each array is now
//! a [`SectionSlice`]: either an owned `Vec<T>` (exactly the old
//! representation) or a typed window into an immutable byte [`Region`]
//! — typically an mmap'd pack file owned by the `db-store` crate.
//! Engines are oblivious: they see `&[T]` either way, with zero
//! per-access overhead beyond the enum discriminant at slice-borrow
//! time.
//!
//! Soundness of the mapped path rests on three invariants, all enforced
//! at construction by [`SectionSlice::mapped`]:
//!
//! 1. the byte window lies inside the region,
//! 2. the window is aligned for `T` (sections in the pack format are
//!    8-byte aligned, covering both `u32` and `u64`),
//! 3. the region is immutable for its lifetime ([`Region`] only exposes
//!    shared access) and outlives the slice (held via `Arc`).
//!
//! The format stores little-endian values, so the zero-copy cast is only
//! offered on little-endian hosts; big-endian hosts get a decode-copy
//! fallback at load time (in `db-store`), never a misinterpreted slice.

use std::fmt;
use std::ops::Range;
use std::sync::Arc;

/// An immutable block of bytes backing zero-copy sections — an mmap'd
/// file, or a heap buffer standing in for one on platforms without mmap.
///
/// Implementations guarantee the bytes never change and stay valid for
/// the lifetime of the value (mmap'd files must be opened from
/// already-sealed, temp+rename-published packs).
pub trait Region: Send + Sync + fmt::Debug {
    /// The full backing byte block.
    fn bytes(&self) -> &[u8];

    /// Hints that `bytes()[range]` will not be read again soon. A
    /// mapping may give this process's resident pages there back to
    /// the kernel; the bytes do not change, and a later read pages them
    /// back in. The default keeps everything: a heap region has no
    /// pages it could drop without losing their contents.
    fn release(&self, _range: Range<usize>) {}
}

/// A heap [`Region`] with 8-byte alignment (a `Vec<u8>` is only 1-aligned,
/// so the buffer is stored as `Vec<u64>` words internally).
pub struct HeapRegion {
    words: Vec<u64>,
    len: usize,
}

impl HeapRegion {
    /// Copies `bytes` into a fresh 8-aligned heap buffer.
    pub fn from_bytes(bytes: &[u8]) -> Self {
        let words = vec![0u64; bytes.len().div_ceil(8)];
        let mut r = Self {
            words,
            len: bytes.len(),
        };
        // Safe byte-level copy into the word buffer's storage.
        let dst = r.words.as_mut_ptr().cast::<u8>();
        // SAFETY: `words` owns `words.len() * 8 >= bytes.len()` writable
        // bytes and the ranges cannot overlap (fresh allocation).
        unsafe { std::ptr::copy_nonoverlapping(bytes.as_ptr(), dst, bytes.len()) };
        r
    }
}

impl fmt::Debug for HeapRegion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HeapRegion")
            .field("len", &self.len)
            .finish()
    }
}

impl Region for HeapRegion {
    fn bytes(&self) -> &[u8] {
        // SAFETY: the first `len` bytes of the word buffer were
        // initialized by `from_bytes` (zero-fill + copy).
        unsafe { std::slice::from_raw_parts(self.words.as_ptr().cast::<u8>(), self.len) }
    }
}

mod sealed {
    pub trait Sealed {}
    impl Sealed for u32 {}
    impl Sealed for u64 {}
}

/// Plain little-endian scalars a section may be viewed as. Sealed:
/// only `u32` and `u64` (the two CSR element types) implement it.
///
/// # Safety
///
/// Implementors must be plain-old-data: any bit pattern is a valid
/// value and the type has no padding or pointers.
pub unsafe trait Scalar: sealed::Sealed + Copy + Send + Sync + 'static {}
// SAFETY: u32/u64 are POD — every bit pattern is valid, no padding.
unsafe impl Scalar for u32 {}
// SAFETY: as above.
unsafe impl Scalar for u64 {}

/// A typed slice backed either by an owned `Vec` or by a window into a
/// shared immutable [`Region`] (zero-copy).
pub enum SectionSlice<T: Scalar> {
    /// Heap-owned storage — the classic `Vec` representation.
    Owned(Vec<T>),
    /// A typed window into `owner`'s bytes at `byte_off`, `len` elements
    /// long. Alignment and bounds were checked at construction.
    Mapped {
        /// The region keeping the bytes alive (e.g. an mmap).
        owner: Arc<dyn Region>,
        /// Byte offset of the window within the region.
        byte_off: usize,
        /// Number of `T` elements in the window.
        len: usize,
    },
}

/// A defect constructing a mapped section view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SectionError {
    /// The requested byte window falls outside the region.
    OutOfBounds {
        /// Requested window start.
        byte_off: usize,
        /// Requested window length in bytes.
        byte_len: usize,
        /// Region size in bytes.
        region_len: usize,
    },
    /// The window start is not aligned for the element type.
    Misaligned {
        /// Requested window start (absolute address modulo considered).
        byte_off: usize,
        /// Required alignment.
        align: usize,
    },
    /// Zero-copy mapping requires a little-endian host; the caller must
    /// fall back to a decode-copy load.
    BigEndianHost,
}

impl fmt::Display for SectionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SectionError::OutOfBounds {
                byte_off,
                byte_len,
                region_len,
            } => write!(
                f,
                "section window [{byte_off}, +{byte_len}) exceeds region of {region_len} bytes"
            ),
            SectionError::Misaligned { byte_off, align } => {
                write!(f, "section offset {byte_off} not {align}-byte aligned")
            }
            SectionError::BigEndianHost => {
                write!(f, "zero-copy mapping requires a little-endian host")
            }
        }
    }
}

impl std::error::Error for SectionError {}

impl<T: Scalar> SectionSlice<T> {
    /// Wraps an owned vector (no copy).
    #[inline]
    pub fn owned(v: Vec<T>) -> Self {
        SectionSlice::Owned(v)
    }

    /// Creates a zero-copy view of `len` elements at `byte_off` within
    /// `owner`, validating bounds, alignment, and host endianness.
    pub fn mapped(
        owner: Arc<dyn Region>,
        byte_off: usize,
        len: usize,
    ) -> Result<Self, SectionError> {
        if cfg!(target_endian = "big") {
            return Err(SectionError::BigEndianHost);
        }
        let elem = std::mem::size_of::<T>();
        let byte_len = len.checked_mul(elem).ok_or(SectionError::OutOfBounds {
            byte_off,
            byte_len: usize::MAX,
            region_len: owner.bytes().len(),
        })?;
        let region = owner.bytes();
        let end = byte_off.checked_add(byte_len);
        if end.is_none() || end.unwrap() > region.len() {
            return Err(SectionError::OutOfBounds {
                byte_off,
                byte_len,
                region_len: region.len(),
            });
        }
        let addr = region.as_ptr() as usize + byte_off;
        let align = std::mem::align_of::<T>();
        if !addr.is_multiple_of(align) {
            return Err(SectionError::Misaligned { byte_off, align });
        }
        Ok(SectionSlice::Mapped {
            owner,
            byte_off,
            len,
        })
    }

    /// Borrows the elements.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        match self {
            SectionSlice::Owned(v) => v.as_slice(),
            SectionSlice::Mapped {
                owner,
                byte_off,
                len,
            } => {
                let base = owner.bytes().as_ptr();
                // SAFETY: construction checked that [byte_off,
                // byte_off + len * size_of::<T>()) lies inside the region
                // and is aligned for T; T is POD (`Scalar`), the region is
                // immutable, and the borrow of `self` keeps `owner` (and
                // thus the bytes) alive.
                unsafe { std::slice::from_raw_parts(base.add(*byte_off).cast::<T>(), *len) }
            }
        }
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            SectionSlice::Owned(v) => v.len(),
            SectionSlice::Mapped { len, .. } => *len,
        }
    }

    /// Whether the slice is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes of private heap this slice owns (0 when mapped — the region
    /// is shared and accounted by whoever owns it).
    pub fn heap_bytes(&self) -> usize {
        match self {
            SectionSlice::Owned(v) => v.capacity() * std::mem::size_of::<T>(),
            SectionSlice::Mapped { .. } => 0,
        }
    }

    /// Bytes of shared mapped region this slice references (0 when
    /// owned).
    pub fn mapped_bytes(&self) -> usize {
        match self {
            SectionSlice::Owned(_) => 0,
            SectionSlice::Mapped { len, .. } => *len * std::mem::size_of::<T>(),
        }
    }
}

impl<T: Scalar> Clone for SectionSlice<T> {
    fn clone(&self) -> Self {
        match self {
            SectionSlice::Owned(v) => SectionSlice::Owned(v.clone()),
            SectionSlice::Mapped {
                owner,
                byte_off,
                len,
            } => SectionSlice::Mapped {
                owner: Arc::clone(owner),
                byte_off: *byte_off,
                len: *len,
            },
        }
    }
}

impl<T: Scalar> fmt::Debug for SectionSlice<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SectionSlice::Owned(v) => write!(f, "SectionSlice::Owned(len={})", v.len()),
            SectionSlice::Mapped { byte_off, len, .. } => {
                write!(f, "SectionSlice::Mapped(off={byte_off}, len={len})")
            }
        }
    }
}

impl<T: Scalar + PartialEq> PartialEq for SectionSlice<T> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Scalar + Eq> Eq for SectionSlice<T> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heap_region_round_trips_bytes() {
        for len in [0usize, 1, 7, 8, 9, 63, 64, 65] {
            let bytes: Vec<u8> = (0..len as u32).map(|i| (i * 37 + 11) as u8).collect();
            let r = HeapRegion::from_bytes(&bytes);
            assert_eq!(r.bytes(), &bytes[..]);
            assert_eq!(r.bytes().as_ptr() as usize % 8, 0, "8-aligned");
        }
    }

    #[test]
    fn mapped_slice_reads_little_endian_values() {
        let vals: Vec<u64> = vec![3, 1_000_000_007, u64::MAX];
        let mut bytes = Vec::new();
        for v in &vals {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        let region: Arc<dyn Region> = Arc::new(HeapRegion::from_bytes(&bytes));
        let s = SectionSlice::<u64>::mapped(region, 0, 3).unwrap();
        assert_eq!(s.as_slice(), &vals[..]);
        assert_eq!(s.heap_bytes(), 0);
        assert_eq!(s.mapped_bytes(), 24);
    }

    #[test]
    fn mapped_slice_rejects_out_of_bounds_and_misaligned() {
        let region: Arc<dyn Region> = Arc::new(HeapRegion::from_bytes(&[0u8; 16]));
        assert!(matches!(
            SectionSlice::<u64>::mapped(Arc::clone(&region), 8, 2),
            Err(SectionError::OutOfBounds { .. })
        ));
        assert!(matches!(
            SectionSlice::<u64>::mapped(Arc::clone(&region), 4, 1),
            Err(SectionError::Misaligned { .. })
        ));
        // u32 at offset 4 is fine.
        assert!(SectionSlice::<u32>::mapped(region, 4, 3).is_ok());
    }

    #[test]
    fn owned_and_mapped_compare_equal_by_contents() {
        let vals: Vec<u32> = vec![5, 6, 7];
        let mut bytes = Vec::new();
        for v in &vals {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        let region: Arc<dyn Region> = Arc::new(HeapRegion::from_bytes(&bytes));
        let mapped = SectionSlice::<u32>::mapped(region, 0, 3).unwrap();
        let owned = SectionSlice::owned(vals);
        assert_eq!(mapped, owned);
    }
}
