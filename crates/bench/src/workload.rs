//! Benchmark workloads.
//!
//! Table I of the paper defines six microbenchmarks varying object size by
//! orders of magnitude while scaling the object count down, "to mitigate
//! any potential influence of caching of smaller objects". This module
//! encodes those specs and the routines that commit and consume the
//! corresponding objects, plus the fragmented-region allocator trace of
//! experiment A1.

use memalloc::{RegionAllocator, Trace, TraceOp};
use plasma::{ObjectId, PlasmaClient, PlasmaError};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// One row of Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BenchSpec {
    /// Benchmark number (1-6).
    pub index: usize,
    /// Number of objects committed and retrieved.
    pub num_objects: usize,
    /// Size of each object in bytes (decimal kB as in the paper).
    pub object_size: usize,
}

impl BenchSpec {
    /// Total bytes across all objects.
    pub fn total_bytes(&self) -> u64 {
        self.num_objects as u64 * self.object_size as u64
    }

    /// Deterministic ids for this benchmark's objects, namespaced by `tag`
    /// so repeated runs / stores don't collide.
    pub fn ids(&self, tag: &str) -> Vec<ObjectId> {
        (0..self.num_objects)
            .map(|i| ObjectId::from_name(&format!("bench{}-{}-{}", self.index, tag, i)))
            .collect()
    }
}

/// The paper's Table I: (1000, 1 kB), (500, 10 kB), (200, 100 kB),
/// (100, 1 MB), (50, 10 MB), (10, 100 MB).
pub const TABLE_I: [BenchSpec; 6] = [
    BenchSpec {
        index: 1,
        num_objects: 1000,
        object_size: 1_000,
    },
    BenchSpec {
        index: 2,
        num_objects: 500,
        object_size: 10_000,
    },
    BenchSpec {
        index: 3,
        num_objects: 200,
        object_size: 100_000,
    },
    BenchSpec {
        index: 4,
        num_objects: 100,
        object_size: 1_000_000,
    },
    BenchSpec {
        index: 5,
        num_objects: 50,
        object_size: 10_000_000,
    },
    BenchSpec {
        index: 6,
        num_objects: 10,
        object_size: 100_000_000,
    },
];

/// A scaled-down Table I (sizes ÷ 100) for quick smoke runs and tests.
pub const TABLE_I_SMALL: [BenchSpec; 6] = [
    BenchSpec {
        index: 1,
        num_objects: 1000,
        object_size: 10,
    },
    BenchSpec {
        index: 2,
        num_objects: 500,
        object_size: 100,
    },
    BenchSpec {
        index: 3,
        num_objects: 200,
        object_size: 1_000,
    },
    BenchSpec {
        index: 4,
        num_objects: 100,
        object_size: 10_000,
    },
    BenchSpec {
        index: 5,
        num_objects: 50,
        object_size: 100_000,
    },
    BenchSpec {
        index: 6,
        num_objects: 10,
        object_size: 1_000_000,
    },
];

/// Generate `len` bytes of random data ("objects with random data"; the
/// contents "should not influence the system performance").
pub fn random_data(len: usize, seed: u64) -> Vec<u8> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut v = vec![0u8; len];
    rng.fill(&mut v[..]);
    v
}

/// Commit all of a benchmark's objects through `client` (create + write +
/// seal), reusing one random payload across objects to bound generation
/// cost. Returns the ids.
pub fn commit_objects(
    client: &PlasmaClient,
    spec: &BenchSpec,
    tag: &str,
    seed: u64,
) -> Result<Vec<ObjectId>, PlasmaError> {
    let ids = spec.ids(tag);
    commit_ids(client, &ids, spec.object_size, seed)?;
    Ok(ids)
}

/// Commit an explicit id list (create + write + seal each), for callers
/// that pick placement-aware ids instead of the default naming scheme.
pub fn commit_ids(
    client: &PlasmaClient,
    ids: &[ObjectId],
    object_size: usize,
    seed: u64,
) -> Result<(), PlasmaError> {
    let payload = random_data(object_size, seed);
    for id in ids {
        client.put(*id, &payload, &[])?;
    }
    Ok(())
}

/// Holes [`fragment_region`] leaves at the front of the region.
const FRAG_HOLES: usize = 5_000;

/// Churn `alloc` into the state a long-lived store reaches under
/// Table I traffic: 10 000 allocations of 1 KiB, every other one freed,
/// so 5 000 small holes sit ahead of all free space in address order
/// and the survivors pin them open.
pub fn fragment_region(alloc: &mut dyn RegionAllocator) {
    let offsets: Vec<u64> = (0..2 * FRAG_HOLES)
        .map(|_| alloc.alloc(1_024).expect("prelude alloc"))
        .collect();
    for off in offsets.into_iter().skip(1).step_by(2) {
        alloc.free(off).expect("prelude free");
    }
}

/// The trace measured over a [`fragment_region`]ed allocator: `allocs`
/// allocations of 4 016 B — too big for any prelude hole, so an
/// address-ordered scan walks past all of them — keeping a 64-object
/// live window (allocate the newest, free the oldest). The window is
/// drained at the end, so a replay leaves the allocator as it found it.
pub fn windowed_trace(allocs: usize) -> Trace {
    const WINDOW: usize = 64;
    let mut ops = Vec::with_capacity(2 * allocs);
    for i in 0..allocs + WINDOW {
        if i >= WINDOW {
            ops.push(TraceOp::Free { slot: i % WINDOW });
        }
        if i < allocs {
            ops.push(TraceOp::Alloc {
                slot: i % WINDOW,
                size: 4_016,
            });
        }
    }
    Trace { ops, slots: WINDOW }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_one_matches_paper() {
        assert_eq!(TABLE_I.len(), 6);
        assert_eq!(TABLE_I[0].num_objects, 1000);
        assert_eq!(TABLE_I[0].object_size, 1_000);
        assert_eq!(TABLE_I[5].num_objects, 10);
        assert_eq!(TABLE_I[5].object_size, 100_000_000);
        // Total volume per benchmark is 1 MB, 5 MB, 20 MB, 100 MB, 500 MB, 1 GB.
        let totals: Vec<u64> = TABLE_I.iter().map(BenchSpec::total_bytes).collect();
        assert_eq!(
            totals,
            vec![
                1_000_000,
                5_000_000,
                20_000_000,
                100_000_000,
                500_000_000,
                1_000_000_000
            ]
        );
    }

    #[test]
    fn ids_are_distinct_per_tag_and_index() {
        let a = TABLE_I[0].ids("x");
        let b = TABLE_I[0].ids("y");
        assert_eq!(a.len(), 1000);
        assert!(a.iter().zip(&b).all(|(x, y)| x != y));
        let set: std::collections::HashSet<_> = a.iter().collect();
        assert_eq!(set.len(), 1000);
    }

    #[test]
    fn windowed_trace_restores_the_fragmented_state() {
        let mut alloc = memalloc::Slab::new(64 << 20);
        fragment_region(&mut alloc);
        let before = alloc.stats();
        assert_eq!(before.live_allocs, FRAG_HOLES as u64);
        let out = windowed_trace(500).replay(&mut alloc).unwrap();
        assert_eq!((out.allocs_ok, out.allocs_failed, out.frees), (500, 0, 500));
        let after = alloc.stats();
        assert_eq!(after.allocated_bytes, before.allocated_bytes);
        assert_eq!(after.free_regions, before.free_regions);
    }

    #[test]
    fn random_data_is_seed_deterministic() {
        assert_eq!(random_data(64, 7), random_data(64, 7));
        assert_ne!(random_data(64, 7), random_data(64, 8));
    }
}
