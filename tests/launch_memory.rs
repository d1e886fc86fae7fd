//! What a launched cluster keeps per node. A store's peers are node ids
//! until it first calls one; the interconnect client to a peer is built
//! then. So the heap a launch leaves live grows with the nodes, not with
//! their pairs: per node, it reads the same at 128 nodes as at 16.
//!
//! A test binary of its own: the counting allocator below sees every
//! thread of the process, so nothing else may run beside the one test.

use disagg::{Cluster, ClusterConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};

/// Heap bytes live: allocated and not yet freed.
static LIVE: AtomicI64 = AtomicI64::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to the system allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap bytes a launched `nodes`-node cluster keeps live, per node.
fn live_per_node(nodes: usize) -> f64 {
    let before = LIVE.load(Ordering::Relaxed);
    let cluster = Cluster::launch(ClusterConfig::functional(nodes, 1 << 20)).unwrap();
    let live = LIVE.load(Ordering::Relaxed) - before;
    drop(cluster);
    live as f64 / nodes as f64
}

#[test]
fn launch_state_is_per_node_not_per_pair() {
    // A first launch sets up what every later one reuses.
    live_per_node(2);
    let small = live_per_node(16);
    let large = live_per_node(128);
    eprintln!("live heap per node: {small:.0} B at 16 nodes, {large:.0} B at 128");
    assert!(
        large <= small * 1.1,
        "per-pair state at launch: {large:.0} B per node at 128 nodes, {small:.0} B at 16"
    );
}
