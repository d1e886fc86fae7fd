//! # memalloc — region allocators for disaggregated memory
//!
//! The original Plasma store allocates objects with dlmalloc over memory
//! obtained from a file-descriptor/mmap dance. The paper replaces this with
//! "a simple allocation algorithm that receives the memory-mapped local
//! disaggregated memory region" and tracks free regions in "an ordered map
//! data structure with logarithmic time look-up".
//!
//! This crate implements that replacement *and* the alternatives needed for
//! the allocator ablation the paper defers to future work:
//!
//! * [`FirstFit`] — scans free regions in address order and takes the first
//!   that fits (the literal reading of the paper's description).
//! * [`SizeMap`] — keeps free regions in a size-ordered map and takes the
//!   smallest that fits in `O(log n)` (the paper's stated data structure;
//!   equivalently, best-fit).
//! * [`DlSeg`] — a dlmalloc-flavoured segregated-bin allocator standing in
//!   for the dlmalloc baseline the paper removed.
//! * [`Slab`] — size-class slabs over segment arenas tuned to the Table I
//!   object-size distribution: O(1) allocation from per-class free-slot
//!   lists, oversize requests falling through to first-fit (the
//!   allocator the store runs; see `slab.rs`).
//!
//! All allocators implement [`RegionAllocator`], operate on offsets into a
//! caller-owned region (they never touch memory themselves), coalesce
//! adjacent free regions on `free`, support power-of-two alignment, and
//! report [`AllocStats`] including fragmentation indicators.

pub mod dlseg;
pub mod firstfit;
pub mod freemap;
pub mod sizemap;
pub mod slab;
pub mod stats;
pub mod trace;

pub use dlseg::DlSeg;
pub use firstfit::FirstFit;
pub use sizemap::SizeMap;
pub use slab::{Slab, SIZE_CLASSES};
pub use stats::{AllocStats, ClassOccupancy};
pub use trace::{Trace, TraceOp, TraceSpec};

use std::fmt;

/// Errors returned by region allocators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocError {
    /// No free region can satisfy the request (possibly due to
    /// fragmentation: total free space may exceed the request).
    OutOfMemory { requested: u64, free: u64 },
    /// A zero-sized allocation was requested.
    ZeroSize,
    /// Alignment is not a power of two.
    BadAlign(u64),
    /// `free` was called with an offset that is not a live allocation.
    UnknownAllocation(u64),
}

impl fmt::Display for AllocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AllocError::OutOfMemory { requested, free } => {
                write!(f, "out of memory: requested {requested} bytes, {free} free")
            }
            AllocError::ZeroSize => write!(f, "zero-sized allocation"),
            AllocError::BadAlign(a) => write!(f, "alignment {a} is not a power of two"),
            AllocError::UnknownAllocation(o) => write!(f, "offset {o} is not a live allocation"),
        }
    }
}

impl std::error::Error for AllocError {}

/// Default alignment for object allocations (cacheline-friendly).
pub const DEFAULT_ALIGN: u64 = 64;

/// A bookkeeping-only allocator over a `[0, capacity)` offset space.
pub trait RegionAllocator: Send {
    /// Allocate `size` bytes aligned to `align` (a power of two). Returns
    /// the offset of the allocation.
    fn alloc_aligned(&mut self, size: u64, align: u64) -> Result<u64, AllocError>;

    /// Allocate `size` bytes at [`DEFAULT_ALIGN`].
    fn alloc(&mut self, size: u64) -> Result<u64, AllocError> {
        self.alloc_aligned(size, DEFAULT_ALIGN)
    }

    /// Free a previous allocation by its offset.
    fn free(&mut self, offset: u64) -> Result<(), AllocError>;

    /// Size of the live allocation at `offset`, if any.
    fn allocation_size(&self, offset: u64) -> Option<u64>;

    /// Total region capacity in bytes.
    fn capacity(&self) -> u64;

    /// Current statistics.
    fn stats(&self) -> AllocStats;

    /// Short human-readable allocator name (for benchmark tables).
    fn name(&self) -> &'static str;
}

pub(crate) fn check_request(size: u64, align: u64) -> Result<(), AllocError> {
    if size == 0 {
        return Err(AllocError::ZeroSize);
    }
    if !align.is_power_of_two() {
        return Err(AllocError::BadAlign(align));
    }
    Ok(())
}

pub(crate) fn align_up(x: u64, align: u64) -> u64 {
    debug_assert!(align.is_power_of_two());
    (x + align - 1) & !(align - 1)
}

#[cfg(test)]
mod conformance {
    //! Behavioural conformance tests run against every allocator, plus
    //! property-based invariants.

    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn allocators(capacity: u64) -> Vec<Box<dyn RegionAllocator>> {
        vec![
            Box::new(FirstFit::new(capacity)),
            Box::new(SizeMap::new(capacity)),
            Box::new(DlSeg::new(capacity)),
            Box::new(Slab::new(capacity)),
        ]
    }

    #[test]
    fn alloc_free_roundtrip() {
        for mut a in allocators(1 << 20) {
            let off = a.alloc(1000).unwrap();
            assert_eq!(a.allocation_size(off), Some(1000));
            a.free(off).unwrap();
            assert_eq!(a.allocation_size(off), None);
            assert_eq!(a.stats().allocated_bytes, 0);
        }
    }

    #[test]
    fn rejects_zero_and_bad_align() {
        for mut a in allocators(1 << 20) {
            assert_eq!(a.alloc(0), Err(AllocError::ZeroSize));
            assert_eq!(a.alloc_aligned(8, 3), Err(AllocError::BadAlign(3)));
        }
    }

    #[test]
    fn rejects_unknown_free_and_double_free() {
        for mut a in allocators(1 << 20) {
            assert_eq!(a.free(0), Err(AllocError::UnknownAllocation(0)));
            let off = a.alloc(64).unwrap();
            a.free(off).unwrap();
            assert_eq!(a.free(off), Err(AllocError::UnknownAllocation(off)));
        }
    }

    #[test]
    fn out_of_memory_reports_free_bytes() {
        for mut a in allocators(4096) {
            let _ = a.alloc(2048).unwrap();
            match a.alloc(4096) {
                Err(AllocError::OutOfMemory { requested, free }) => {
                    assert_eq!(requested, 4096);
                    assert!(free <= 2048);
                }
                other => panic!("expected OOM, got {other:?}"),
            }
        }
    }

    #[test]
    fn coalescing_allows_full_reuse() {
        for mut a in allocators(1 << 16) {
            // Fill the region with adjacent allocations, free all, then the
            // full capacity must be allocatable again (requires coalescing).
            let mut offs = Vec::new();
            while let Ok(o) = a.alloc(4096) {
                offs.push(o);
            }
            assert!(offs.len() >= 15, "{}: got {}", a.name(), offs.len());
            for o in offs {
                a.free(o).unwrap();
            }
            let o = a.alloc((1 << 16) - 64).unwrap();
            a.free(o).unwrap();
        }
    }

    #[test]
    fn alignment_is_respected() {
        for mut a in allocators(1 << 20) {
            for align in [1u64, 64, 256, 4096] {
                // Perturb the layout with an odd-sized allocation.
                let pad = a.alloc_aligned(37, 1).unwrap();
                let off = a.alloc_aligned(100, align).unwrap();
                assert_eq!(off % align, 0, "{}: align {align}", a.name());
                a.free(off).unwrap();
                a.free(pad).unwrap();
            }
        }
    }

    #[test]
    fn allocations_do_not_overlap() {
        for mut a in allocators(1 << 18) {
            let mut live: Vec<(u64, u64)> = Vec::new();
            for i in 0..64u64 {
                let size = 100 + i * 37;
                if let Ok(off) = a.alloc(size) {
                    for &(o, s) in &live {
                        assert!(
                            off + size <= o || o + s <= off,
                            "{}: [{off},{}) overlaps [{o},{})",
                            a.name(),
                            off + size,
                            o + s
                        );
                    }
                    live.push((off, size));
                }
            }
        }
    }

    #[test]
    fn stats_track_peaks_and_failures() {
        for mut a in allocators(8192) {
            let x = a.alloc(4096).unwrap();
            let _ = a.alloc(8192); // fails
            let s = a.stats();
            assert_eq!(s.total_allocs, 1);
            assert_eq!(s.failed_allocs, 1);
            assert_eq!(s.live_allocs, 1);
            assert!(s.allocated_bytes >= 4096);
            a.free(x).unwrap();
            assert_eq!(a.stats().total_frees, 1);
        }
    }

    /// Reference model: allocations must never overlap, never exceed
    /// capacity, and freeing must always return memory.
    fn run_model(mut a: Box<dyn RegionAllocator>, ops: &[(bool, u64)]) {
        let cap = a.capacity();
        let mut live: BTreeMap<u64, u64> = BTreeMap::new();
        for &(is_alloc, v) in ops {
            if is_alloc {
                let size = v % 5000 + 1;
                if let Ok(off) = a.alloc(size) {
                    assert!(off + size <= cap, "{}: past end", a.name());
                    // No overlap with any live allocation.
                    if let Some((&po, &ps)) = live.range(..=off).next_back() {
                        assert!(po + ps <= off, "{}: overlap below", a.name());
                    }
                    if let Some((&no, _)) = live.range(off + 1..).next() {
                        assert!(off + size <= no, "{}: overlap above", a.name());
                    }
                    live.insert(off, size);
                }
            } else if !live.is_empty() {
                let idx = (v as usize) % live.len();
                let &off = live.keys().nth(idx).unwrap();
                live.remove(&off);
                a.free(off).unwrap();
            }
            let s = a.stats();
            assert_eq!(s.live_allocs as usize, live.len(), "{}", a.name());
        }
        // Drain and verify the region is fully reusable.
        let keys: Vec<u64> = live.keys().copied().collect();
        for off in keys {
            a.free(off).unwrap();
        }
        assert_eq!(a.stats().allocated_bytes, 0);
        let all = a.alloc_aligned(cap, 1).unwrap();
        a.free(all).unwrap();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn model_first_fit(ops in proptest::collection::vec((any::<bool>(), any::<u64>()), 1..200)) {
            run_model(Box::new(FirstFit::new(1 << 20)), &ops);
        }

        #[test]
        fn model_size_map(ops in proptest::collection::vec((any::<bool>(), any::<u64>()), 1..200)) {
            run_model(Box::new(SizeMap::new(1 << 20)), &ops);
        }

        #[test]
        fn model_dlseg(ops in proptest::collection::vec((any::<bool>(), any::<u64>()), 1..200)) {
            run_model(Box::new(DlSeg::new(1 << 20)), &ops);
        }

        #[test]
        fn model_slab(ops in proptest::collection::vec((any::<bool>(), any::<u64>()), 1..200)) {
            run_model(Box::new(Slab::new(1 << 20)), &ops);
        }
    }
}
