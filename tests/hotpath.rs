//! Hot-path contention battery for the object table.
//!
//! The workload is built so its *final* state is interleaving-free:
//! every object id is owned by exactly one writer thread, which runs a
//! fixed lifecycle script for it, while reader threads hammer the whole
//! namespace with `get`/`release`/`get_wait`/`peek`/`contains` (reads
//! never change the final object set — transient refs are paired with
//! releases, and deletions use `delete_deferred` so a read racing a
//! delete only postpones, never prevents, the removal). That makes the
//! end state checkable against a fate table computed without running a
//! store at all, and a full drain must return the allocator to zero
//! bytes.

use plasma::{ObjectId, ObjectState, StoreConfig, StoreCore};
use std::sync::{Arc, Barrier};
use std::time::Duration;
use tfsim::Fabric;

const WRITERS: usize = 8;
const IDS_PER_WRITER: usize = 48;
const READERS: usize = 4;
const READ_ROUNDS: usize = 6;
const CAPACITY: usize = 64 << 20;

/// Deterministic id for (owner, slot): owner threads mutate only their
/// own ids, so the final state never depends on thread interleaving.
fn oid(owner: usize, slot: usize) -> ObjectId {
    let mut bytes = [0u8; 20];
    bytes[0] = owner as u8;
    bytes[1] = slot as u8;
    bytes[2] = 0xA9; // namespace tag so ids differ from other tests
    ObjectId::from_bytes(bytes)
}

/// Deterministic payload size spanning several slab size classes plus
/// an oversized (> 1 MiB would be overkill here — "oversized" for the
/// small classes) tail.
fn size_of(owner: usize, slot: usize) -> u64 {
    let ladder = [48u64, 100, 640, 4_000, 9_000, 60_000];
    ladder[(owner + slot) % ladder.len()] + (slot as u64 % 7)
}

/// Lifecycle fate of a slot, fixed by its index. The final state each
/// fate leaves behind:
///   0 → sealed, ref_count 0 (created, sealed, creator ref released)
///   1 → sealed, ref_count 1 (extra get, one release: creator ref kept)
///   2 → absent (sealed then delete_deferred; racing readers only defer)
///   3 → created, ref_count 1 (never sealed; invisible to readers)
///   4 → absent (created then aborted)
fn fate(slot: usize) -> usize {
    slot % 5
}

fn build_store(cfg: StoreConfig) -> StoreCore {
    let fabric = Fabric::virtual_thymesisflow();
    let node = fabric.register_node();
    StoreCore::new(&fabric, node, cfg).expect("store must launch")
}

/// Run the full concurrent workload and return the store for
/// inspection. Writer errors are bugs (owners never race themselves);
/// reader results are unconstrained but every acquired ref is released.
fn run_workload(store: StoreCore) -> StoreCore {
    let store = Arc::new(store);
    let mut handles = Vec::new();

    for owner in 0..WRITERS {
        let s = Arc::clone(&store);
        handles.push(std::thread::spawn(move || {
            for slot in 0..IDS_PER_WRITER {
                let id = oid(owner, slot);
                let size = size_of(owner, slot);
                s.create(id, size, 16).expect("owned create");
                match fate(slot) {
                    0 => {
                        s.seal(id).expect("seal");
                        s.release(id).expect("release creator ref");
                    }
                    1 => {
                        s.seal(id).expect("seal");
                        s.get_local(id).expect("own sealed object");
                        s.release(id).expect("release read ref");
                    }
                    2 => {
                        s.seal(id).expect("seal");
                        s.release(id).expect("release creator ref");
                        // A reader may hold a transient ref: deferred
                        // deletion absorbs the race either way.
                        s.delete_deferred(id).expect("delete_deferred");
                    }
                    3 => {} // leave Created, creator ref held
                    4 => s.abort(id).expect("abort unsealed"),
                    _ => unreachable!(),
                }
            }
        }));
    }

    for reader in 0..READERS {
        let s = Arc::clone(&store);
        handles.push(std::thread::spawn(move || {
            // Per-thread LCG so each reader walks the namespace in a
            // different (but deterministic) order.
            let mut x = 0x9E37_79B9u64.wrapping_mul(reader as u64 + 1) | 1;
            for _ in 0..READ_ROUNDS * WRITERS * IDS_PER_WRITER {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let owner = (x >> 33) as usize % WRITERS;
                let slot = (x >> 21) as usize % IDS_PER_WRITER;
                let id = oid(owner, slot);
                match (x >> 8) % 4 {
                    0 => {
                        if s.get_local(id).is_some() {
                            s.release(id).expect("paired release");
                        }
                    }
                    1 => {
                        let got = s.get_wait(&[id], Duration::from_micros(50));
                        if got[0].is_some() {
                            s.release(id).expect("paired release");
                        }
                    }
                    2 => {
                        let _ = s.peek(id);
                    }
                    _ => {
                        let _ = s.contains(id);
                    }
                }
            }
        }));
    }

    for h in handles {
        h.join().expect("workload thread panicked");
    }
    Arc::try_unwrap(store)
        .map_err(|_| "clone leaked")
        .expect("all clones joined")
}

/// The comparable end state: sorted (id, size, state, refs) tuples.
fn fingerprint(store: &StoreCore) -> Vec<(ObjectId, u64, ObjectState, u64)> {
    let mut v: Vec<_> = store
        .list()
        .into_iter()
        .map(|o| (o.id, o.data_size, o.state, o.ref_count))
        .collect();
    v.sort_by_key(|t| t.0); // ids are unique, so this totally orders
    v
}

/// What the fate table says the end state must be, independent of any
/// store run at all.
fn expected_fingerprint() -> Vec<(ObjectId, u64, ObjectState, u64)> {
    let mut v = Vec::new();
    for owner in 0..WRITERS {
        for slot in 0..IDS_PER_WRITER {
            let (state, refs) = match fate(slot) {
                0 => (ObjectState::Sealed, 0),
                1 => (ObjectState::Sealed, 1),
                3 => (ObjectState::Created, 1),
                _ => continue, // deleted or aborted
            };
            v.push((oid(owner, slot), size_of(owner, slot), state, refs));
        }
    }
    v.sort_by_key(|t| t.0); // ids are unique, so this totally orders
    v
}

/// Drain every surviving object and verify the allocator hits zero —
/// no bytes leaked, no deferred delete was lost.
fn drain(store: &StoreCore) {
    for owner in 0..WRITERS {
        for slot in 0..IDS_PER_WRITER {
            let id = oid(owner, slot);
            match fate(slot) {
                0 => store.delete(id).expect("delete sealed idle"),
                1 => {
                    store.release(id).expect("release kept ref");
                    store.delete(id).expect("delete after release");
                }
                3 => store.abort(id).expect("abort created"),
                _ => assert!(
                    !store.exists_any_state(id),
                    "deleted/aborted object resurrected"
                ),
            }
        }
    }
    let stats = store.stats();
    assert_eq!(stats.objects, 0, "objects survived the drain");
    assert_eq!(stats.allocated_bytes, 0, "allocator leaked bytes");
}

/// Under contention from 8 writers and 4 readers the store finishes in
/// exactly the state the fate table — computed without running a store
/// at all — says it must, its counters agree with its listing, and it
/// drains to zero.
#[test]
fn concurrent_workload_matches_fate_table() {
    let store = run_workload(build_store(StoreConfig::new("hotpath", CAPACITY)));
    let fp = fingerprint(&store);
    assert_eq!(fp, expected_fingerprint(), "store diverged from fates");
    assert_eq!(store.stats().objects as usize, fp.len());
    drain(&store);
}

/// Creators racing on the *same* id, on a store already full of sealed,
/// released objects: exactly one create wins, the rest see
/// `ObjectExists`, and a refused create costs the store nothing — one
/// LRU victim is evicted, for the one winner only. (The window in which
/// a create that allocates before it is sure of uniqueness would evict
/// an innocent object is narrow, hence the rounds.)
#[test]
fn same_id_create_race_has_exactly_one_winner() {
    const ROUNDS: usize = 100;
    const SLOT: u64 = 256 << 10; // an exact slab class
    const FILL: u64 = 4;
    for round in 0..ROUNDS {
        let full = StoreConfig::new("race-full", (FILL * SLOT) as usize);
        let store = Arc::new(build_store(full));
        for slot in 0..FILL as usize {
            let filler = oid(6, slot);
            store.create(filler, SLOT, 0).expect("fill");
            store.seal(filler).expect("seal filler");
            store.release(filler).expect("release filler");
        }
        assert_eq!(store.stats().allocated_bytes, FILL * SLOT, "store is full");

        let id = oid(7, 200);
        let start = Arc::new(Barrier::new(8));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let (s, start) = (Arc::clone(&store), Arc::clone(&start));
                std::thread::spawn(move || {
                    start.wait();
                    s.create(id, SLOT, 0).is_ok()
                })
            })
            .collect();
        let wins = handles
            .into_iter()
            .map(|h| h.join().expect("creator thread panicked"))
            .filter(|&ok| ok)
            .count();
        assert_eq!(wins, 1, "round {round}: exactly one create wins");
        let st = store.stats();
        assert_eq!(st.evictions, 1, "round {round}: a loser evicted");
        assert_eq!(st.objects, FILL);
        assert_eq!(st.allocated_bytes, st.objects * SLOT);
        store.seal(id).unwrap();
        store.release(id).unwrap();
        store.delete(id).unwrap();
        assert_eq!(store.stats().allocated_bytes, (st.objects - 1) * SLOT);
    }
}
