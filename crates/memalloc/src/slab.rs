//! Size-class slab allocator — segregated free lists over segment arenas.
//!
//! The collective-allocator observation (Hideshima et al., PAPERS.md) is
//! that objects which travel together should live together: placement
//! policy, not just placement mechanism, dominates locality. Applied to
//! this store, the Table I workload allocates objects from a handful of
//! characteristic sizes over and over, and a first-fit scan re-derives
//! the same placement decision from scratch on every call — O(free
//! regions) per allocation, degrading exactly when churn fragments the
//! region. [`Slab`] instead rounds each request up to a *size class*
//! (a ladder derived from the Table I distribution — see
//! [`SIZE_CLASSES`]), carves class-sized slots out of contiguous *slab
//! extents*, and serves every subsequent allocation of that class from a
//! per-class free-slot list in O(1). Objects of the same class — the
//! ones that travel together in Table I batches — end up packed in the
//! same extents.
//!
//! Structure:
//!
//! * an inner [`FirstFit`] *extent allocator* owns the raw region and
//!   hands out slab extents (and oversized allocations — anything above
//!   the largest class falls through to it unchanged);
//! * each class keeps a set of slabs; a slab is one extent divided into
//!   equal slots, with a LIFO free-slot list;
//! * `free` returns a slot to its class (so the next same-class
//!   allocation reuses it exactly), and retires a slab whose last slot
//!   was freed back to the extent allocator, where it coalesces — the
//!   whole region is reusable by any class (or oversize) again;
//! * when a full-size slab extent does not fit, the carve degrades
//!   (fewer slots, down to one) before falling back to a plain first-fit
//!   allocation, so a nearly-full region behaves no worse than
//!   [`FirstFit`] alone.
//!
//! Alignment: extents are 64-byte aligned and every class size is a
//! multiple of 64, so slots satisfy any alignment up to
//! [`crate::DEFAULT_ALIGN`]; stricter alignments take the oversize path.

use crate::firstfit::FirstFit;
use crate::stats::StatsCore;
use crate::{
    check_request, AllocError, AllocStats, ClassOccupancy, RegionAllocator, DEFAULT_ALIGN,
};
use std::collections::{BTreeSet, HashMap};

/// The size-class ladder, in bytes. Power-of-two rungs give a worst-case
/// internal fragmentation of 50%; the three off-ladder rungs (10 240,
/// 102 400 and the 1 MiB top) sit just above the paper's Table I object
/// sizes (1 kB / 10 kB / 100 kB / 1 MB decimal) so the dominant workload
/// sizes fill their slots ≥ 95%. Requests above the top rung are not
/// slab-managed (Table I's 10 MB / 100 MB rows): they fall through to
/// the extent allocator's first-fit path.
pub const SIZE_CLASSES: [u64; 17] = [
    64, 128, 256, 512, 1_024, 2_048, 4_096, 8_192, 10_240, 16_384, 32_768, 65_536, 102_400,
    131_072, 262_144, 524_288, 1_048_576,
];

/// Target bytes per slab extent; classes larger than this get one slot
/// per slab.
const SLAB_TARGET_BYTES: u64 = 64 * 1024;

/// One slab extent: `slots` equal slots of the owning class's size.
#[derive(Debug, Clone)]
struct SlabMeta {
    /// Extent size in bytes (slots × class size).
    bytes: u64,
    /// Free slot offsets, reused LIFO (the hottest slot first).
    free: Vec<u64>,
    /// Live slots in this slab.
    live: u64,
}

/// Per-class state: all slabs of the class plus the subset with free
/// slots (lowest-addressed first, to keep placement packed).
#[derive(Debug, Clone, Default)]
struct ClassState {
    slabs: HashMap<u64, SlabMeta>,
    partial: BTreeSet<u64>,
    /// Requested bytes across the class's live slots. This and the two
    /// figures below are kept incrementally so occupancy reporting is
    /// O(classes): the store reads it under its table lock on every
    /// create and delete.
    live_bytes: u64,
    /// Extent bytes across the class's slabs (`carve` adds, retire
    /// subtracts).
    held_bytes: u64,
    /// Live slots across the class's slabs.
    live_slots: u64,
}

/// Where a live allocation's bytes came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LiveKind {
    /// A slot inside the slab extent starting at `slab_off` of `class`.
    Class { class: usize, slab_off: u64 },
    /// Allocated directly from the extent allocator.
    Oversize,
}

#[derive(Debug, Clone, Copy)]
struct LiveAlloc {
    size: u64,
    kind: LiveKind,
}

/// See the module docs.
#[derive(Debug, Clone)]
pub struct Slab {
    extents: FirstFit,
    classes: Vec<ClassState>,
    live: HashMap<u64, LiveAlloc>,
    stats: StatsCore,
}

impl Slab {
    pub fn new(capacity: u64) -> Self {
        Slab {
            extents: FirstFit::new(capacity),
            classes: vec![ClassState::default(); SIZE_CLASSES.len()],
            live: HashMap::new(),
            stats: StatsCore::default(),
        }
    }

    /// The smallest class that can hold `size`, if any.
    fn class_for(size: u64) -> Option<usize> {
        SIZE_CLASSES.iter().position(|&c| c >= size)
    }

    /// Slots a fresh slab of `slot` bytes should carry at full size.
    fn full_slots(slot: u64) -> u64 {
        (SLAB_TARGET_BYTES / slot).max(1)
    }

    /// Carve a new slab for `class`, degrading the slot count when the
    /// full-size extent does not fit. Returns the slab's extent offset.
    fn carve(&mut self, class: usize) -> Option<u64> {
        let slot = SIZE_CLASSES[class];
        let mut slots = Self::full_slots(slot);
        loop {
            match self.extents.alloc_aligned(slots * slot, DEFAULT_ALIGN) {
                Ok(off) => {
                    // Free list LIFO-ordered so the lowest slot pops first.
                    let free: Vec<u64> = (0..slots).rev().map(|i| off + i * slot).collect();
                    self.classes[class].slabs.insert(
                        off,
                        SlabMeta {
                            bytes: slots * slot,
                            free,
                            live: 0,
                        },
                    );
                    self.classes[class].partial.insert(off);
                    self.classes[class].held_bytes += slots * slot;
                    return Some(off);
                }
                Err(_) if slots > 1 => slots /= 2,
                Err(_) => return None,
            }
        }
    }

    /// Per-class occupancy, one item per [`SIZE_CLASSES`] rung in ladder
    /// order, without allocating: the store folds it into its gauges
    /// under the table lock on every create and delete.
    pub fn class_occupancy(&self) -> impl Iterator<Item = ClassOccupancy> + '_ {
        SIZE_CLASSES
            .iter()
            .zip(&self.classes)
            .map(|(&class_size, st)| ClassOccupancy {
                class_size,
                slabs: st.slabs.len() as u64,
                total_slots: st.held_bytes / class_size,
                live_slots: st.live_slots,
                live_bytes: st.live_bytes,
                held_bytes: st.held_bytes,
            })
    }

    /// [`Slab::class_occupancy`] collected, for callers that index it.
    pub fn occupancy(&self) -> Vec<ClassOccupancy> {
        self.class_occupancy().collect()
    }
}

impl RegionAllocator for Slab {
    fn alloc_aligned(&mut self, size: u64, align: u64) -> Result<u64, AllocError> {
        check_request(size, align)?;
        let class = if align <= DEFAULT_ALIGN {
            Self::class_for(size)
        } else {
            // Stricter alignment than slot granularity: first-fit path.
            None
        };
        if let Some(class) = class {
            let slab_off = match self.classes[class].partial.iter().next().copied() {
                Some(off) => Some(off),
                None => self.carve(class),
            };
            if let Some(slab_off) = slab_off {
                let slab = self.classes[class]
                    .slabs
                    .get_mut(&slab_off)
                    .expect("partial set and slab map agree");
                let off = slab.free.pop().expect("partial slab has a free slot");
                slab.live += 1;
                if slab.free.is_empty() {
                    self.classes[class].partial.remove(&slab_off);
                }
                self.classes[class].live_bytes += size;
                self.classes[class].live_slots += 1;
                self.live.insert(
                    off,
                    LiveAlloc {
                        size,
                        kind: LiveKind::Class { class, slab_off },
                    },
                );
                self.stats.on_alloc(size);
                return Ok(off);
            }
            // No slab fits even degraded: fall through to the extent
            // allocator with the raw request so a tight region still
            // serves what first-fit alone would.
        }
        match self.extents.alloc_aligned(size, align) {
            Ok(off) => {
                self.live.insert(
                    off,
                    LiveAlloc {
                        size,
                        kind: LiveKind::Oversize,
                    },
                );
                self.stats.on_alloc(size);
                Ok(off)
            }
            Err(AllocError::OutOfMemory { requested, free }) => {
                self.stats.on_fail();
                Err(AllocError::OutOfMemory { requested, free })
            }
            Err(e) => Err(e),
        }
    }

    fn free(&mut self, offset: u64) -> Result<(), AllocError> {
        let Some(alloc) = self.live.remove(&offset) else {
            return Err(AllocError::UnknownAllocation(offset));
        };
        match alloc.kind {
            LiveKind::Oversize => {
                self.extents
                    .free(offset)
                    .expect("live map and extent allocator agree");
            }
            LiveKind::Class { class, slab_off } => {
                let st = &mut self.classes[class];
                st.live_bytes -= alloc.size;
                st.live_slots -= 1;
                let slab = st.slabs.get_mut(&slab_off).expect("slab of a live slot");
                slab.free.push(offset);
                slab.live -= 1;
                if slab.live == 0 {
                    // Retire: the whole extent goes back (and coalesces)
                    // so any class — or an oversize request — can reuse it.
                    let retired = st.slabs.remove(&slab_off).expect("just looked up");
                    st.held_bytes -= retired.bytes;
                    st.partial.remove(&slab_off);
                    self.extents
                        .free(slab_off)
                        .expect("slab extents are live extent allocations");
                } else {
                    st.partial.insert(slab_off);
                }
            }
        }
        self.stats.on_free(alloc.size);
        Ok(())
    }

    fn allocation_size(&self, offset: u64) -> Option<u64> {
        self.live.get(&offset).map(|l| l.size)
    }

    fn capacity(&self) -> u64 {
        self.extents.capacity()
    }

    fn stats(&self) -> AllocStats {
        // Free-region shape comes from the extent map: slots held free
        // inside partial slabs are class-reserved, not general-purpose,
        // so they are deliberately not counted in `largest_free`.
        let ext = self.extents.stats();
        self.stats
            .render(ext.capacity, ext.free_regions, ext.largest_free)
    }

    fn name(&self) -> &'static str {
        "slab"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_are_aligned_and_sorted() {
        for w in SIZE_CLASSES.windows(2) {
            assert!(w[0] < w[1]);
        }
        for &c in &SIZE_CLASSES {
            assert_eq!(c % DEFAULT_ALIGN, 0, "class {c} not 64-aligned");
        }
        // Table I sizes (≤ 1 MB) land in a class with ≥ 95% slot fill.
        for size in [1_000u64, 10_000, 100_000, 1_000_000] {
            let class = SIZE_CLASSES[Slab::class_for(size).unwrap()];
            assert!(
                size as f64 / class as f64 >= 0.95,
                "size {size} fills class {class} poorly"
            );
        }
    }

    #[test]
    fn same_class_reuses_freed_slot() {
        let mut a = Slab::new(1 << 20);
        let x = a.alloc(1_000).unwrap();
        let y = a.alloc(1_000).unwrap();
        assert_ne!(x, y);
        a.free(x).unwrap();
        // The freed slot is the next slot handed out for this class.
        let z = a.alloc(900).unwrap();
        assert_eq!(z, x, "freed slot must be reused by its class");
    }

    #[test]
    fn classes_do_not_share_slots() {
        let mut a = Slab::new(1 << 20);
        let small1 = a.alloc(100).unwrap();
        let small2 = a.alloc(100).unwrap();
        a.free(small1).unwrap();
        // The small slab still lives (small2 pins it), so its freed slot
        // is class-reserved: a big allocation never lands on it.
        let big = a.alloc(50_000).unwrap();
        assert_ne!(big, small1);
        // The reserved slot goes back to its own class.
        assert_eq!(a.alloc(100).unwrap(), small1);
        a.free(small1).unwrap();
        a.free(small2).unwrap();
        a.free(big).unwrap();
        assert_eq!(a.stats().allocated_bytes, 0);
    }

    #[test]
    fn empty_slab_retires_to_extent_allocator() {
        let mut a = Slab::new(1 << 20);
        let offs: Vec<u64> = (0..8).map(|_| a.alloc(4_096).unwrap()).collect();
        assert!(a.stats().allocated_bytes > 0);
        for o in offs {
            a.free(o).unwrap();
        }
        // Everything retired: the full region is one coalesced extent.
        let s = a.stats();
        assert_eq!(s.allocated_bytes, 0);
        assert_eq!(s.free_regions, 1);
        assert_eq!(s.largest_free, 1 << 20);
        let all = a.alloc_aligned((1 << 20) - 64, 1).unwrap();
        a.free(all).unwrap();
    }

    #[test]
    fn oversize_falls_through_to_first_fit() {
        let mut a = Slab::new(8 << 20);
        let big = a.alloc(2_000_000).unwrap(); // above the largest class
        assert_eq!(a.allocation_size(big), Some(2_000_000));
        let occ = a.occupancy();
        assert!(occ.iter().all(|c| c.live_slots == 0), "no class involved");
        a.free(big).unwrap();
        assert_eq!(a.stats().allocated_bytes, 0);
    }

    #[test]
    fn strict_alignment_takes_the_extent_path() {
        let mut a = Slab::new(1 << 20);
        let pad = a.alloc_aligned(37, 1).unwrap();
        let off = a.alloc_aligned(100, 4_096).unwrap();
        assert_eq!(off % 4_096, 0);
        a.free(off).unwrap();
        a.free(pad).unwrap();
    }

    #[test]
    fn tight_region_degrades_to_first_fit_not_oom() {
        // 4 KiB region: a full 64 KiB slab never fits, so the carve must
        // degrade. The 2 KiB class lands a 2-slot slab covering the whole
        // region; both slots are usable, a third allocation is OOM.
        let mut a = Slab::new(4_096);
        let x = a.alloc(2_048).unwrap();
        let y = a.alloc(2_048).unwrap();
        assert!(matches!(
            a.alloc(2_048),
            Err(AllocError::OutOfMemory { .. })
        ));
        a.free(x).unwrap();
        a.free(y).unwrap();
        // Retired: the region is whole again for any request shape.
        let all = a.alloc_aligned(4_096, 1).unwrap();
        a.free(all).unwrap();
    }

    #[test]
    fn incremental_occupancy_equals_full_recount() {
        use crate::trace::SplitMix64;
        // Small enough that carves degrade and slabs retire along the way.
        let mut a = Slab::new(2 << 20);
        let mut rng = SplitMix64(0x51AB);
        let mut live: Vec<u64> = Vec::new();
        for step in 0..4_000 {
            if live.is_empty() || rng.below(5) < 3 {
                let class = SIZE_CLASSES[rng.below(14) as usize];
                let size = 1 + rng.below(class);
                if let Ok(off) = a.alloc(size) {
                    live.push(off);
                }
            } else {
                let i = rng.below(live.len() as u64) as usize;
                a.free(live.swap_remove(i)).unwrap();
            }
            if step % 97 != 0 {
                continue;
            }
            for (occ, st) in a.occupancy().iter().zip(&a.classes) {
                let held: u64 = st.slabs.values().map(|s| s.bytes).sum();
                let slots: u64 = st.slabs.values().map(|s| s.live).sum();
                assert_eq!(occ.held_bytes, held, "class {}", occ.class_size);
                assert_eq!(occ.live_slots, slots, "class {}", occ.class_size);
            }
        }
        for off in live {
            a.free(off).unwrap();
        }
        assert!(a
            .occupancy()
            .iter()
            .all(|c| c.held_bytes == 0 && c.live_slots == 0 && c.live_bytes == 0));
    }

    #[test]
    fn occupancy_tracks_slots_and_bytes() {
        let mut a = Slab::new(1 << 20);
        let offs: Vec<u64> = (0..3).map(|_| a.alloc(1_000).unwrap()).collect();
        let occ = a.occupancy();
        let c1k = occ.iter().find(|c| c.class_size == 1_024).unwrap();
        assert_eq!(c1k.live_slots, 3);
        assert_eq!(c1k.live_bytes, 3_000);
        assert_eq!(c1k.slabs, 1);
        assert!(c1k.total_slots >= c1k.live_slots);
        assert_eq!(c1k.held_bytes, c1k.total_slots * 1_024);
        for o in offs {
            a.free(o).unwrap();
        }
        let occ = a.occupancy();
        let c1k = occ.iter().find(|c| c.class_size == 1_024).unwrap();
        assert_eq!(c1k.live_slots, 0);
        assert_eq!(c1k.held_bytes, 0, "empty slab retired");
    }
}
