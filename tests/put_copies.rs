//! What a small put allocates, per byte it carries. Each hop copies the
//! payload once: into the client's IPC request, into the forwarded
//! `CREATE_AT` (then once more behind its call header), into the rpclite
//! frame, and on the owner into its segment, which allocates nothing. So
//! a forwarded put allocates about four bytes per payload byte and a put
//! the client's own store owns about one.
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

/// A payload below `plasma::INLINE_PUT_MAX`, so every put is inlined.
const PAYLOAD: usize = 60_000;
const PUTS: usize = 50;

/// Bytes allocated by all threads per payload byte, over `PUTS` puts
/// from node 0 of ids that node `owner` owns.
fn allocated_per_payload_byte(cluster: &Cluster, owner: usize, base: &str) -> f64 {
    let client = cluster.client(0).unwrap();
    let data = vec![0x5A; PAYLOAD];
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
    allocated as f64 / (PUTS * PAYLOAD) as f64
}

#[test]
fn a_put_copies_its_payload_once_per_hop() {
    let cluster = Cluster::launch(ClusterConfig::functional(2, 8 << 20)).unwrap();
    let far = allocated_per_payload_byte(&cluster, 1, "copies/far");
    assert!(
        far <= 4.5,
        "a forwarded put allocated {far:.2} B per payload byte"
    );
    let near = allocated_per_payload_byte(&cluster, 0, "copies/near");
    assert!(
        near <= 1.5,
        "a put its own store owns allocated {near:.2} B per payload byte"
    );
}
