//! Raw memory segments.
//!
//! A [`Segment`] is a page-aligned, fixed-size byte region standing in for a
//! physical memory range that a node donates to the disaggregated pool. It
//! is the *only* place in the workspace that uses `unsafe`: all access goes
//! through bounds-checked raw-pointer copies so that several simulated nodes
//! (threads) can address the same region, exactly like hardware would.
//!
//! Each segment is its own private anonymous mapping. The kernel hands it
//! out page-aligned and zero-filled, and commits a page only when it is
//! first written, so a donated pool costs host memory for what is stored
//! in it, not for its capacity.
//!
//! # Safety discipline
//!
//! The simulator mirrors the hardware's (lack of) guarantees: concurrent
//! access to *disjoint* ranges is fine; concurrent writes overlapping other
//! accesses on the same range are torn, just as they would be on a real
//! fabric. Higher layers (the Plasma store) rule such races out by
//! construction — an object is written by exactly one producer before it is
//! sealed, and only sealed (immutable) objects are readable.

use std::ffi::c_void;
use std::fmt;
use std::ptr::NonNull;

/// Page alignment used for all segments (matches a 4 KiB OS page).
pub const SEGMENT_ALIGN: usize = 4096;

// Linux's values (`asm-generic/mman-common.h`).
const PROT_READ: i32 = 0x1;
const PROT_WRITE: i32 = 0x2;
const MAP_PRIVATE: i32 = 0x02;
const MAP_ANONYMOUS: i32 = 0x20;
const MAP_FAILED: *mut c_void = !0usize as *mut c_void;

extern "C" {
    // glibc wrappers.
    fn mmap(addr: *mut c_void, len: usize, prot: i32, flags: i32, fd: i32, off: i64)
        -> *mut c_void;
    fn munmap(addr: *mut c_void, len: usize) -> i32;
}

/// Errors from segment access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SegError {
    /// The requested `offset..offset+len` range falls outside the segment.
    OutOfBounds {
        offset: u64,
        len: usize,
        segment_len: u64,
    },
    /// A zero-length segment was requested.
    ZeroSize,
    /// The host refused to map a segment of `len` bytes.
    MapFailed { len: usize },
}

impl fmt::Display for SegError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SegError::OutOfBounds {
                offset,
                len,
                segment_len,
            } => write!(
                f,
                "segment access out of bounds: [{offset}, {offset}+{len}) in segment of {segment_len} bytes"
            ),
            SegError::ZeroSize => write!(f, "segment size must be non-zero"),
            SegError::MapFailed { len } => write!(f, "cannot map a segment of {len} bytes"),
        }
    }
}

impl std::error::Error for SegError {}

/// A page-aligned, zero-initialized byte region shared between simulated
/// nodes.
pub struct Segment {
    ptr: NonNull<u8>,
    len: usize,
}

// SAFETY: `Segment` hands out data only via bounds-checked copies through
// raw pointers; the region itself is plain bytes with no ownership
// semantics. Cross-thread use is the whole point (it models memory shared
// over a fabric); race discipline is documented at the module level.
unsafe impl Send for Segment {}
unsafe impl Sync for Segment {}

impl Segment {
    /// Map a zeroed segment of `len` bytes. No page is committed until it
    /// is first written.
    pub fn new(len: usize) -> Result<Self, SegError> {
        if len == 0 {
            return Err(SegError::ZeroSize);
        }
        // SAFETY: a fresh anonymous mapping at an address of the kernel's
        // choosing aliases no existing memory; the result is checked below.
        let raw = unsafe {
            mmap(
                std::ptr::null_mut(),
                len,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS,
                -1,
                0,
            )
        };
        match NonNull::new(raw.cast()) {
            Some(ptr) if raw != MAP_FAILED => Ok(Segment { ptr, len }),
            _ => Err(SegError::MapFailed { len }),
        }
    }

    /// Total size in bytes.
    pub fn len(&self) -> u64 {
        self.len as u64
    }

    /// Whether the segment is empty (never true: zero-size is rejected).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub(crate) fn check(&self, offset: u64, len: usize) -> Result<usize, SegError> {
        let off = usize::try_from(offset).ok();
        match off {
            Some(o) if o.checked_add(len).is_some_and(|end| end <= self.len) => Ok(o),
            _ => Err(SegError::OutOfBounds {
                offset,
                len,
                segment_len: self.len as u64,
            }),
        }
    }

    /// Copy `dst.len()` bytes starting at `offset` into `dst`.
    pub fn read_into(&self, offset: u64, dst: &mut [u8]) -> Result<(), SegError> {
        let o = self.check(offset, dst.len())?;
        // SAFETY: range checked; source and destination cannot overlap
        // because `dst` is a distinct Rust allocation borrowed mutably.
        unsafe {
            std::ptr::copy_nonoverlapping(self.ptr.as_ptr().add(o), dst.as_mut_ptr(), dst.len());
        }
        Ok(())
    }

    /// Hand `f` the `len` bytes starting at `offset`, in place: the
    /// source of a copy into another segment, which then reads each byte
    /// once. The range must not be written meanwhile (module-level race
    /// discipline: only an object's one producer writes it, before
    /// anyone reads it).
    pub fn read_with<R>(
        &self,
        offset: u64,
        len: usize,
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<R, SegError> {
        let o = self.check(offset, len)?;
        // SAFETY: range checked; the range is not written while it is
        // borrowed (see module-level race discipline).
        let bytes = unsafe { std::slice::from_raw_parts(self.ptr.as_ptr().add(o), len) };
        Ok(f(bytes))
    }

    /// Copy `src` into the segment starting at `offset`.
    pub fn write_from(&self, offset: u64, src: &[u8]) -> Result<(), SegError> {
        let o = self.check(offset, src.len())?;
        // SAFETY: range checked; see module-level race discipline.
        unsafe {
            std::ptr::copy_nonoverlapping(src.as_ptr(), self.ptr.as_ptr().add(o), src.len());
        }
        Ok(())
    }

    /// Fill `len` bytes starting at `offset` with `byte`.
    pub fn fill(&self, offset: u64, len: usize, byte: u8) -> Result<(), SegError> {
        let o = self.check(offset, len)?;
        // SAFETY: range checked.
        unsafe {
            std::ptr::write_bytes(self.ptr.as_ptr().add(o), byte, len);
        }
        Ok(())
    }

    /// Read `len` bytes at `offset` into a fresh vector, in one pass
    /// over the bytes.
    pub fn read_vec(&self, offset: u64, len: usize) -> Result<Vec<u8>, SegError> {
        self.read_with(offset, len, <[u8]>::to_vec)
    }
}

impl Drop for Segment {
    fn drop(&mut self) {
        // SAFETY: mapped with this exact length in `new`, and no copy of
        // the pointer outlives `self`.
        let rc = unsafe { munmap(self.ptr.as_ptr().cast(), self.len) };
        debug_assert_eq!(rc, 0, "munmap of a segment failed");
    }
}

impl fmt::Debug for Segment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Segment").field("len", &self.len).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn roundtrip() {
        let s = Segment::new(4096).unwrap();
        s.write_from(100, b"hello fabric").unwrap();
        assert_eq!(s.read_vec(100, 12).unwrap(), b"hello fabric");
    }

    #[test]
    fn zero_initialized() {
        let s = Segment::new(1 << 16).unwrap();
        assert!(s.read_vec(0, 1 << 16).unwrap().iter().all(|&b| b == 0));
    }

    #[test]
    fn bounds_are_enforced() {
        let s = Segment::new(128).unwrap();
        assert!(matches!(
            s.write_from(120, &[0u8; 16]),
            Err(SegError::OutOfBounds { .. })
        ));
        assert!(matches!(
            s.read_vec(u64::MAX, 1),
            Err(SegError::OutOfBounds { .. })
        ));
        // Exactly-at-the-end is fine.
        s.write_from(112, &[1u8; 16]).unwrap();
    }

    #[test]
    fn zero_size_rejected() {
        assert_eq!(Segment::new(0).unwrap_err(), SegError::ZeroSize);
    }

    #[test]
    fn an_unmappable_size_is_an_error() {
        assert_eq!(
            Segment::new(1 << 50).unwrap_err(),
            SegError::MapFailed { len: 1 << 50 }
        );
    }

    #[test]
    fn segments_are_page_aligned() {
        let s = Segment::new(100).unwrap();
        assert_eq!(s.ptr.as_ptr() as usize % SEGMENT_ALIGN, 0);
    }

    #[test]
    fn fill_works() {
        let s = Segment::new(256).unwrap();
        s.fill(10, 5, 0xAB).unwrap();
        assert_eq!(
            s.read_vec(9, 7).unwrap(),
            [0, 0xAB, 0xAB, 0xAB, 0xAB, 0xAB, 0]
        );
    }

    #[test]
    fn concurrent_disjoint_access() {
        let s = Arc::new(Segment::new(1 << 20).unwrap());
        let handles: Vec<_> = (0..8u64)
            .map(|i| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    let off = i * (1 << 16);
                    let data = vec![i as u8 + 1; 1 << 16];
                    s.write_from(off, &data).unwrap();
                    assert_eq!(s.read_vec(off, 1 << 16).unwrap(), data);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }
}
