//! How many times each kind of Plasma request allocates, on the client's
//! thread and on the store's, in the steady state: a real
//! `PlasmaClient` against the store a one-node `Cluster` serves, every id
//! local. One row per request kind, each with the count it read when its
//! bound was set and a margin over it.
//!
//! Each request and each answer is one frame, written once into one
//! buffer of its size: the client's side allocates its request (and a
//! get its buffers' vector, and a batch its release group), and the
//! store's side allocates its answer when the answer has a payload. The
//! store itself allocates nothing: a get's and a release's ids are read
//! off the request, a get's locations are filled into a list the
//! connection keeps, and recency lives in the object table.
//!
//! A test binary of its own: the counting allocator below sees every
//! thread of the process, so nothing else may run beside the one test.

use disagg::{Cluster, ClusterConfig};
use plasma::{ObjectId, PlasmaClient};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Calls into the allocator that hand out a block (allocations, zeroed
/// allocations and reallocations) on every thread but the client's, and
/// on the client's.
static STORE_SIDE: AtomicU64 = AtomicU64::new(0);
static CLIENT_SIDE: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Whether this thread is the client's. Constant-initialised and
    /// without a destructor, so the allocator may read it at any time.
    static CLIENT: Cell<bool> = const { Cell::new(false) };
}

fn count() {
    let client = CLIENT.try_with(Cell::get).unwrap_or(false);
    let side = if client { &CLIENT_SIDE } else { &STORE_SIDE };
    side.fetch_add(1, Ordering::Relaxed);
}

struct Counting;

// SAFETY: every call is forwarded unchanged to the system allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Calls before a row's count starts, and calls counted.
const WARM: usize = 64;
const CALLS: usize = 320;

/// Ids a batch get names.
const BATCH: usize = 32;

/// Allocations a row may make per call over its measured count, on each
/// side: room for a hash table that grows once in the counted calls,
/// never for one more allocation per call.
const MARGIN: f64 = 0.25;

const TIMEOUT: Duration = Duration::from_secs(5);
const OBJECT: [u8; 256] = [0x5A; 256];

/// What a row runs: before each call (not counted), the call, and after
/// it (not counted). Each takes the call's number.
type Step<'a> = Box<dyn FnMut(usize) + 'a>;

struct Row<'a> {
    name: &'static str,
    /// Allocations per call when the bound was set: client side, store
    /// side.
    measured: (f64, f64),
    before: Step<'a>,
    call: Step<'a>,
    after: Step<'a>,
}

/// Allocations per call of `row.call`, on the client's side and on the
/// store's, over [`CALLS`] calls after [`WARM`].
fn per_call(row: &mut Row) -> (f64, f64) {
    let (mut client, mut store) = (0, 0);
    for n in 0..WARM + CALLS {
        (row.before)(n);
        let counts = || {
            let client = CLIENT_SIDE.load(Ordering::Relaxed);
            (client, STORE_SIDE.load(Ordering::Relaxed))
        };
        let (client0, store0) = counts();
        (row.call)(n);
        let (client1, store1) = counts();
        (row.after)(n);
        if n >= WARM {
            client += client1 - client0;
            store += store1 - store0;
        }
    }
    (client as f64 / CALLS as f64, store as f64 / CALLS as f64)
}

fn get_all(client: &PlasmaClient, ids: &[ObjectId]) {
    let got = client.get(ids, TIMEOUT).unwrap();
    assert!(got.iter().all(Option::is_some), "every id is sealed here");
}

fn release_all(client: &PlasmaClient, ids: &[ObjectId]) {
    for &id in ids {
        client.release(id).unwrap();
    }
}

fn nothing<'a>() -> Step<'a> {
    Box::new(|_| {})
}

#[test]
fn each_request_kind_allocates_within_its_budget() {
    let cluster = Cluster::launch(ClusterConfig::functional(1, 32 << 20)).unwrap();
    let client = cluster.client(0).unwrap();
    let named = |base: &str, n: usize| -> Vec<ObjectId> {
        (0..n)
            .map(|i| ObjectId::from_name(&format!("allocs/{base}/{i}")))
            .collect()
    };
    let stored = named("stored", 2 * BATCH);
    let fresh = named("fresh", WARM + CALLS);
    for &id in &stored {
        client.put(id, &OBJECT, &[]).unwrap();
    }
    CLIENT.set(true);
    let (c, stored, fresh) = (&client, &stored, &fresh);
    // Alternate between two windows of the stored ids, so a get's ids
    // were released by the call before last.
    let one = |n: usize| &stored[n % 2..][..1];
    let batch = |n: usize| &stored[(n % 2) * BATCH..][..BATCH];
    let rows = vec![
        Row {
            name: "get (1 id)",
            measured: (2.0, 1.0),
            before: nothing(),
            call: Box::new(move |n| get_all(c, one(n))),
            after: Box::new(move |n| release_all(c, one(n))),
        },
        Row {
            name: "get (32 ids)",
            measured: (4.0, 1.0),
            before: nothing(),
            call: Box::new(move |n| get_all(c, batch(n))),
            after: Box::new(move |n| release_all(c, batch(n))),
        },
        Row {
            name: "release (1 id)",
            measured: (1.0, 0.0),
            before: Box::new(move |n| get_all(c, one(n))),
            call: Box::new(move |n| release_all(c, one(n))),
            after: nothing(),
        },
        Row {
            name: "release (32-member group)",
            measured: (1.0, 0.0),
            before: Box::new(move |n| get_all(c, batch(n))),
            call: Box::new(move |n| release_all(c, batch(n))),
            after: nothing(),
        },
        Row {
            name: "inline put",
            measured: (1.0, 1.0),
            before: nothing(),
            call: Box::new(move |n| {
                c.put(fresh[n], &OBJECT, &[]).unwrap();
            }),
            after: Box::new(move |n| c.delete(fresh[n]).unwrap()),
        },
        Row {
            name: "create + seal",
            measured: (3.0, 2.0),
            before: nothing(),
            call: Box::new(move |n| {
                let builder = c.create(fresh[n], OBJECT.len() as u64, 0).unwrap();
                builder.write(0, &OBJECT).unwrap();
                builder.seal().unwrap();
            }),
            after: Box::new(move |n| c.delete(fresh[n]).unwrap()),
        },
        Row {
            name: "delete",
            measured: (1.0, 0.0),
            before: Box::new(move |n| {
                c.put(fresh[n], &OBJECT, &[]).unwrap();
            }),
            call: Box::new(move |n| c.delete(fresh[n]).unwrap()),
            after: nothing(),
        },
        Row {
            name: "contains",
            measured: (1.0, 1.0),
            before: nothing(),
            call: Box::new(move |n| assert!(c.contains(one(n)[0]).unwrap())),
            after: nothing(),
        },
    ];
    let mut over = Vec::new();
    for mut row in rows {
        let (client_side, store_side) = per_call(&mut row);
        eprintln!(
            "{:<26} client {client_side:5.2}  store {store_side:5.2}  (measured {:.2}, {:.2})",
            row.name, row.measured.0, row.measured.1
        );
        if client_side > row.measured.0 + MARGIN || store_side > row.measured.1 + MARGIN {
            over.push(format!(
                "{}: {client_side:.2} + {store_side:.2} per call, over {:.2} + {:.2} and {MARGIN} each",
                row.name, row.measured.0, row.measured.1
            ));
        }
        if row.name == "get (1 id)" {
            assert_eq!(
                store_side, 1.0,
                "a local get's store side allocates its answer alone"
            );
        }
    }
    assert!(over.is_empty(), "over budget:\n{}", over.join("\n"));
}
