//! What a small put allocates, per byte it carries. A put the client's
//! own store owns is its IPC request, and the store writes the payload
//! into its segment, which allocates nothing: about one byte per payload
//! byte. A forwarded put adds what its adoption allocates. The creator
//! writes the payload into its own segment, again allocating nothing,
//! and sends its owner the copy's descriptor, whose frame is a few dozen
//! bytes whatever the size; the owner reads the copy over the fabric
//! into one buffer and writes that into its segment. So a forwarded put
//! allocates about two bytes per payload byte: the client's request and
//! the owner's read.
//!
//! A test binary of its own: the counting allocator below sees every
//! thread of the process, so nothing else may run beside the one test.

use disagg::{Cluster, ClusterConfig};
use plasma::ObjectId;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Bytes handed out by the allocator: every allocation's size, and every
/// reallocation's new size (a block that grows may be a new block).
static ALLOCATED: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to the system allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Payloads below `plasma::INLINE_PUT_MAX`, so every put is inlined: a
/// mid-sized one, and one just under the threshold.
const PAYLOAD: usize = 60_000;
const LARGEST: usize = 250_000;
const PUTS: usize = 50;

/// Bytes allocated by all threads per payload byte, over `PUTS` puts of
/// `payload` bytes from node 0 of ids that node `owner` owns.
fn allocated_per_payload_byte(cluster: &Cluster, owner: usize, base: &str, payload: usize) -> f64 {
    let client = cluster.client(0).unwrap();
    let data = vec![0x5A; payload];
    let ids: Vec<ObjectId> = cluster
        .owned_ids(owner, base, PUTS + 1)
        .iter()
        .map(|name| ObjectId::from_name(name))
        .collect();
    // The first put dials and maps what every later one reuses.
    client.put(ids[0], &data, &[]).unwrap();
    let before = ALLOCATED.load(Ordering::Relaxed);
    for &id in &ids[1..] {
        client.put(id, &data, &[]).unwrap();
    }
    let allocated = ALLOCATED.load(Ordering::Relaxed) - before;
    allocated as f64 / (PUTS * payload) as f64
}

#[test]
fn a_put_copies_its_payload_once_per_hop() {
    let cluster = Cluster::launch(ClusterConfig::functional(2, 32 << 20)).unwrap();
    for (payload, base) in [(PAYLOAD, "copies/far"), (LARGEST, "copies/far-largest")] {
        let far = allocated_per_payload_byte(&cluster, 1, base, payload);
        assert!(
            far <= 2.5,
            "a forwarded put of {payload} B allocated {far:.2} B per payload byte"
        );
    }
    let near = allocated_per_payload_byte(&cluster, 0, "copies/near", PAYLOAD);
    assert!(
        near <= 1.5,
        "a put its own store owns allocated {near:.2} B per payload byte"
    );
}
