//! The counting allocator the allocation tests share, and the rows they
//! run through it.
//!
//! Each allocation test is a binary of its own that declares this
//! module: the counting allocator sees every thread of the process, so
//! nothing else may run beside the one test in it.

#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

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
pub const WARM: usize = 64;
pub const CALLS: usize = 320;

/// Allocations a row may make per call over its measured count, on each
/// side: room for a hash table that grows once in the counted calls,
/// never for one more allocation per call.
pub const MARGIN: f64 = 0.25;

/// What a row runs: before each call (not counted), the call, and after
/// it (not counted). Each takes the call's number.
pub type Step<'a> = Box<dyn FnMut(usize) + 'a>;

pub struct Row<'a> {
    pub name: &'static str,
    pub most: Most,
    pub before: Step<'a>,
    pub call: Step<'a>,
    pub after: Step<'a>,
}

/// The most allocations a row's call may make.
pub enum Most {
    /// Per call when the bound was set, client side and store side, each
    /// with [`MARGIN`] over it.
    Measured(f64, f64),
    /// On every thread together.
    Together(f64),
}

pub fn nothing<'a>() -> Step<'a> {
    Box::new(|_| {})
}

/// Counts the calling thread's allocations as the client's side.
pub fn on_client_thread() {
    CLIENT.set(true);
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

/// Runs each row in turn, fails unless every row is within its bound,
/// and gives each row's name with its allocations per call on the
/// client's side and on the store's.
pub fn within_budget(rows: Vec<Row>) -> Vec<(&'static str, f64, f64)> {
    let mut read = Vec::new();
    let mut over = Vec::new();
    for mut row in rows {
        let (client_side, store_side) = per_call(&mut row);
        let name = row.name;
        match row.most {
            Most::Measured(client_most, store_most) => {
                eprintln!(
                    "{name:<26} client {client_side:5.2}  store {store_side:5.2}  (measured {client_most:.2}, {store_most:.2})",
                );
                if client_side > client_most + MARGIN || store_side > store_most + MARGIN {
                    over.push(format!(
                        "{name}: {client_side:.2} + {store_side:.2} per call, over {client_most:.2} + {store_most:.2} and {MARGIN} each",
                    ));
                }
            }
            Most::Together(most) => {
                let together = client_side + store_side;
                eprintln!("{name:<26} together {together:5.3}  (at most {most})");
                if together > most {
                    over.push(format!("{name}: {together:.3} per call, over {most}"));
                }
            }
        }
        read.push((name, client_side, store_side));
    }
    assert!(over.is_empty(), "over budget:\n{}", over.join("\n"));
    read
}
