//! How many times a remote get allocates. A client's get of an object
//! another node owns is one Plasma request to its own store, one
//! `GET_MANY` to the owner and their answers; its release is one Plasma
//! request and one `RELEASE` nobody waits on, whose answer is taken at
//! the next exchange with the owner. Each message is written once, into
//! the one buffer of the frame that carries it, and each answer is read
//! off its frame, so the round trip allocates its frames and a few
//! vectors of exactly their size: a small, fixed number of times, on
//! every thread together, whatever the ids.
//!
//! A test binary of its own: the counting allocator below sees every
//! thread of the process, so nothing else may run beside the one test.

use disagg::{Cluster, ClusterConfig};
use plasma::ObjectId;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Calls into the allocator that hand out a block: allocations, zeroed
/// allocations and reallocations.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to the system allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const GETS: usize = 64;

/// The most allocations one get and release of a remote object may make,
/// on every thread together, in the steady state: 25.3 are made, and a
/// round trip that encoded each message into a buffer of its own and
/// decoded each answer into vectors made 92.3.
const MOST: f64 = 27.5;

#[test]
fn a_remote_get_and_release_allocate_a_bounded_number_of_times() {
    let cluster = Cluster::launch(ClusterConfig::functional(2, 32 << 20)).unwrap();
    let client = cluster.client(0).unwrap();
    let ids: Vec<ObjectId> = cluster
        .owned_ids(1, "allocs/remote", GETS + 1)
        .iter()
        .map(|name| ObjectId::from_name(name))
        .collect();
    for &id in &ids {
        client.put(id, &[0x5A; 256], &[]).unwrap();
    }
    let get_and_release = |id: ObjectId| {
        let got = client.get(&[id], Duration::from_secs(5)).unwrap();
        assert!(got[0].is_some(), "{id} is found at its owner");
        drop(got);
        client.release(id).unwrap();
    };
    // The first get dials and maps what every later one reuses.
    get_and_release(ids[0]);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for &id in &ids[1..] {
        get_and_release(id);
    }
    let per_get = (ALLOCATIONS.load(Ordering::Relaxed) - before) as f64 / GETS as f64;
    assert!(
        per_get <= MOST,
        "a remote get and its release allocated {per_get:.2} times, over {MOST}"
    );
}
