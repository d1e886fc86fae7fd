//! How many times a put allocates where the bytes are written. A store
//! maps its own segment once, when it is made, and another node's
//! segment at the first copy out of it, so neither a local put nor an
//! owner's adoption of a forwarded put attaches a mapping of its own:
//! each allocates what its bookkeeping and its answer need, and one
//! mapping per call more would show here as one allocation per put.
//!
//! A test binary of its own: the counting allocator below sees every
//! thread of the process, so nothing else may run beside the one test.

use disagg::proto::{method, CallHeader, DelegateReq, Message};
use disagg::{DisaggConfig, DisaggStore};
use plasma::{ObjectId, ObjectStore, StoreConfig, StoreCore};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use tfsim::Fabric;

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

/// The most allocations a local put may make in the steady state, and
/// an owner's adoption of a forwarded put (whose answer is one more).
/// Before the store kept its mappings, an attach made its mapping on
/// the stack, and they read 0.145–0.148 and 1.146–1.148 (the spread is
/// the hash tables' random layout); an attach per put allocates now,
/// and reads one more.
const MOST_LOCAL: f64 = 0.25;
const MOST_ADOPTED: f64 = 1.25;

/// Puts before the count starts, and puts counted.
const WARM: usize = 256;
const PUTS: usize = 512;
/// How many puts back the object a put's round deletes was put: the
/// store holds this many objects throughout.
const LIVE: usize = 32;

/// Allocations made while `f` runs.
fn counted(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    f();
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

/// The mean of what `put` counts over the rounds after the warm-up:
/// round `k` puts object `k` and deletes object `k - LIVE`.
fn per_put(mut put: impl FnMut(usize) -> u64, mut delete: impl FnMut(usize)) -> f64 {
    let mut total = 0;
    for k in 0..WARM + PUTS {
        let made = put(k);
        if k >= WARM {
            total += made;
        }
        if let Some(old) = k.checked_sub(LIVE) {
            delete(old);
        }
    }
    total as f64 / PUTS as f64
}

#[test]
fn a_put_attaches_no_mapping_where_it_writes() {
    let fabric = Fabric::virtual_thymesisflow();
    let (creator, owner) = (fabric.register_node(), fabric.register_node());
    let config = |name| StoreConfig::new(name, 8 << 20);
    let local = StoreCore::new(&fabric, owner, config("local")).unwrap();
    let payload = [0x5A; 1000];
    // Named before the count: a name is formatted into a string.
    let ids: Vec<ObjectId> = (0..WARM + PUTS)
        .map(|k| ObjectId::from_name(&format!("put-allocs/{k}")))
        .collect();
    let id = |k: usize| ids[k];
    let local_put = per_put(
        |k| {
            counted(|| {
                local.put(id(k), &payload, b"m").unwrap();
            })
        },
        |k| local.delete(id(k)).unwrap(),
    );

    // The owner's half of a forwarded put: the creator wrote the object
    // into its own segment, and the owner copies it out of there.
    let creator = StoreCore::new(&fabric, creator, config("creator")).unwrap();
    let owner = DisaggStore::new(
        StoreCore::new(&fabric, owner, config("owner")).unwrap(),
        DisaggConfig::default(),
    );
    let service = owner.interconnect_service();
    let header = CallHeader {
        from: creator.node(),
    };
    let adoption = per_put(
        |k| {
            let location = creator.create_filled(id(k), &payload, b"m").unwrap();
            let request = header.frame(&DelegateReq { location }.encode());
            let made = counted(|| drop(service.call(method::CREATE_AT, request).unwrap()));
            creator.abort(id(k)).unwrap();
            made
        },
        |k| ObjectStore::delete(&owner, id(k)).unwrap(),
    );
    assert!(
        local_put <= MOST_LOCAL,
        "a local put allocated {local_put:.3} times, over {MOST_LOCAL}"
    );
    assert!(
        adoption <= MOST_ADOPTED,
        "an adoption allocated {adoption:.3} times, over {MOST_ADOPTED}"
    );
}
