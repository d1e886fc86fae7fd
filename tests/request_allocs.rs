//! How many times a request allocates in the steady state, one row per
//! kind of request.
//!
//! Each Plasma request kind is counted on the client's thread and on the
//! store's: a real `PlasmaClient` against the store a one-node `Cluster`
//! serves, every id local, each row with the count it read when its
//! bound was set and a margin over it. Each request and each answer is
//! one frame, written once into one buffer of its size: the client's
//! side allocates its request (and a get its buffers' vector, and a
//! batch its release group), and the store's side allocates its answer
//! when the answer has a payload. The store itself allocates nothing: a
//! get's and a release's ids are read off the request, a get's locations
//! are filled into a list the connection keeps, and recency lives in the
//! object table. The release of a pin in the store's own table is no
//! request, a batch's as a single get's: the client posts it to the
//! store's release ring, and the store applies it at its next table
//! access — in these rows, the next get's, whose store side is its
//! answer alone. A batch's release request is counted through the same
//! store answering every slot as pinned elsewhere, as a peer's or a
//! ledger's pin is.
//!
//! A remote get and a put where the bytes are written are counted on
//! every thread together, each in a binary of its own
//! (`tests/remote_get_allocs.rs`, `tests/put_allocs.rs`).
//!
//! A test binary of its own: the counting allocator in `allocs` sees
//! every thread of the process, so nothing else may run beside the one
//! test.

mod allocs;

use allocs::{nothing, Most, Row, CALLS, WARM};
use disagg::{Cluster, ClusterConfig, DisaggStore};
use plasma::{
    GetSlot, ObjectId, ObjectInfo, ObjectLocation, ObjectStore, PlasmaClient, PlasmaError,
    StoreStats,
};
use std::sync::mpsc::Receiver;
use std::sync::Arc;
use std::time::Duration;

/// Ids a batch get names.
const BATCH: usize = 32;

const TIMEOUT: Duration = Duration::from_secs(5);
const OBJECT: [u8; 256] = [0x5A; 256];

fn get_all(client: &PlasmaClient, ids: &[ObjectId]) {
    let got = client.get(ids, TIMEOUT).unwrap();
    assert!(got.iter().all(Option::is_some), "every id is sealed here");
}

fn release_all(client: &PlasmaClient, ids: &[ObjectId]) {
    for &id in ids {
        client.release(id).unwrap();
    }
}

/// A store answering every filled slot as pinned elsewhere (slot tag 1),
/// so its client requests every release.
struct Elsewhere(DisaggStore);

impl ObjectStore for Elsewhere {
    fn create(&self, id: ObjectId, d: u64, m: u64) -> Result<ObjectLocation, PlasmaError> {
        self.0.create(id, d, m)
    }
    fn seal(&self, id: ObjectId) -> Result<ObjectLocation, PlasmaError> {
        self.0.seal(id)
    }
    fn put(&self, id: ObjectId, d: &[u8], m: &[u8]) -> Result<ObjectLocation, PlasmaError> {
        self.0.put(id, d, m)
    }
    fn get_into(
        &self,
        ids: &[ObjectId],
        timeout: Duration,
        out: &mut Vec<GetSlot>,
    ) -> Result<(), PlasmaError> {
        self.0.get_into(ids, timeout, out)?;
        for slot in out {
            if let GetSlot::PinnedHere(loc) = *slot {
                *slot = GetSlot::Pinned(loc);
            }
        }
        Ok(())
    }
    fn release(&self, id: ObjectId) -> Result<(), PlasmaError> {
        self.0.release(id)
    }
    fn release_many(&self, ids: &[ObjectId]) -> Result<(), PlasmaError> {
        self.0.release_many(ids)
    }
    fn delete(&self, id: ObjectId) -> Result<(), PlasmaError> {
        self.0.delete(id)
    }
    fn delete_deferred(&self, id: ObjectId) -> Result<bool, PlasmaError> {
        self.0.delete_deferred(id)
    }
    fn abort(&self, id: ObjectId) -> Result<(), PlasmaError> {
        self.0.abort(id)
    }
    fn contains(&self, id: ObjectId) -> Result<bool, PlasmaError> {
        self.0.contains(id)
    }
    fn list(&self) -> Result<Vec<ObjectInfo>, PlasmaError> {
        self.0.list()
    }
    fn stats(&self) -> Result<StoreStats, PlasmaError> {
        self.0.stats()
    }
    fn evict(&self, bytes: u64) -> Result<u64, PlasmaError> {
        self.0.evict(bytes)
    }
    fn subscribe(&self) -> Receiver<ObjectLocation> {
        self.0.subscribe()
    }
}

fn named(base: &str, n: usize) -> Vec<ObjectId> {
    (0..n)
        .map(|i| ObjectId::from_name(&format!("allocs/{base}/{i}")))
        .collect()
}

#[test]
fn each_request_kind_allocates_within_its_budget() {
    let cluster = Cluster::launch(ClusterConfig::functional(1, 32 << 20)).unwrap();
    let client = cluster.client(0).unwrap();
    let hub = ipc::InprocHub::new();
    let elsewhere = Arc::new(Elsewhere(cluster.store(0).clone()));
    let _server = plasma::serve_store(Box::new(hub.bind("elsewhere").unwrap()), elsewhere);
    let requester = PlasmaClient::new(
        Box::new(hub.connect("elsewhere").unwrap()),
        cluster.store(0).core().release_ring(),
        cluster.fabric().clone(),
        cluster.node_id(0),
    );
    let stored = named("stored", 2 * BATCH);
    let fresh = named("fresh", WARM + CALLS);
    for &id in &stored {
        client.put(id, &OBJECT, &[]).unwrap();
    }

    allocs::on_client_thread();
    let (c, r, stored, fresh) = (&client, &requester, &stored, &fresh);
    // Alternate between two windows of the stored ids, so a get's ids
    // were released by the call before last.
    let one = |n: usize| &stored[n % 2..][..1];
    let batch = |n: usize| &stored[(n % 2) * BATCH..][..BATCH];
    let rows = vec![
        Row {
            name: "get (1 id)",
            most: Most::Measured(2.0, 1.0),
            before: nothing(),
            call: Box::new(move |n| get_all(c, one(n))),
            after: Box::new(move |n| release_all(c, one(n))),
        },
        Row {
            name: "get (32 ids)",
            most: Most::Measured(4.0, 1.0),
            before: nothing(),
            call: Box::new(move |n| get_all(c, batch(n))),
            after: Box::new(move |n| release_all(c, batch(n))),
        },
        Row {
            name: "release (1 id, posted)",
            most: Most::Measured(0.0, 0.0),
            before: Box::new(move |n| get_all(c, one(n))),
            call: Box::new(move |n| release_all(c, one(n))),
            after: nothing(),
        },
        Row {
            name: "release (32-group, posted)",
            most: Most::Measured(0.0, 0.0),
            before: Box::new(move |n| get_all(c, batch(n))),
            call: Box::new(move |n| release_all(c, batch(n))),
            after: nothing(),
        },
        Row {
            name: "release request (32-group)",
            most: Most::Measured(1.0, 0.0),
            before: Box::new(move |n| get_all(r, batch(n))),
            call: Box::new(move |n| release_all(r, batch(n))),
            after: nothing(),
        },
        Row {
            name: "inline put",
            most: Most::Measured(1.0, 1.0),
            before: nothing(),
            call: Box::new(move |n| {
                c.put(fresh[n], &OBJECT, &[]).unwrap();
            }),
            after: Box::new(move |n| c.delete(fresh[n]).unwrap()),
        },
        Row {
            name: "create + seal",
            most: Most::Measured(3.0, 2.0),
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
            most: Most::Measured(1.0, 0.0),
            before: Box::new(move |n| {
                c.put(fresh[n], &OBJECT, &[]).unwrap();
            }),
            call: Box::new(move |n| c.delete(fresh[n]).unwrap()),
            after: nothing(),
        },
        Row {
            name: "contains",
            most: Most::Measured(1.0, 1.0),
            before: nothing(),
            call: Box::new(move |n| assert!(c.contains(one(n)[0]).unwrap())),
            after: nothing(),
        },
    ];
    for (name, _, store_side) in allocs::within_budget(rows) {
        if name == "get (1 id)" {
            assert_eq!(
                store_side, 1.0,
                "a local get's store side, the drain of the release posted before it included, allocates its answer alone"
            );
        }
    }
}
