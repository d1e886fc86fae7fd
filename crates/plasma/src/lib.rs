//! # plasma — an Apache-Arrow-Plasma-style immutable object store
//!
//! A from-scratch reimplementation of the Plasma in-memory object store
//! that the paper modifies: an object table over a pluggable region
//! allocator, immutable-after-seal objects, reference-counted LRU
//! eviction, blocking batched `get`, seal notifications, and a framed IPC
//! protocol between store and clients.
//!
//! Two deliberate departures from stock Plasma, both taken from the paper:
//!
//! 1. **Objects live in disaggregated memory** — the store donates its
//!    region into a [`tfsim::Fabric`] at construction, so remote nodes can
//!    map and read object buffers directly.
//! 2. **`get` returns locations, not data** — clients receive a segment
//!    key + offset (the fabric analogue of Plasma's file-descriptor
//!    passing) and read the buffer through their own mapping, which makes
//!    the local/remote distinction a property of *where the client runs*.
//!
//! ## Example
//!
//! ```
//! use plasma::{ObjectId, ObjectStore, StoreConfig, StoreCore};
//! use std::time::Duration;
//! use tfsim::Fabric;
//!
//! let fabric = Fabric::virtual_thymesisflow();
//! let node = fabric.register_node();
//! let store = StoreCore::new(&fabric, node, StoreConfig::new("demo", 1 << 20)).unwrap();
//!
//! // Producer: create, write through the fabric, seal.
//! let id = ObjectId::from_name("greeting");
//! let loc = store.create(id, 5, 0).unwrap();
//! let mapping = store.local_mapping().unwrap();
//! mapping.write_at(loc.offset, b"hello").unwrap();
//! store.seal(id).unwrap();
//!
//! // Consumer: get and read.
//! let got = store.get_local(id).unwrap();
//! assert_eq!(mapping.read_vec(got.offset, 5).unwrap(), b"hello");
//! ```

pub mod api;
pub mod checksum;
pub mod client;
pub mod error;
pub mod id;
pub mod lru;
pub mod object;
pub mod protocol;
pub mod release;
pub mod server;
pub mod store;

pub use api::ObjectStore;
pub use client::{
    ClientCost, Notifications, ObjectBuffer, ObjectBuilder, PlasmaClient, INLINE_PUT_MAX,
};
pub use error::PlasmaError;
pub use id::{ObjectId, OBJECT_ID_LEN};
pub use object::{GetSlot, ObjectInfo, ObjectLocation, ObjectState};
pub use release::{ReleaseGroups, ReleaseRing};
pub use server::{serve_store, PlasmaServer, PlasmaServerMetrics};
pub use store::{StoreConfig, StoreCore, StoreStats};

#[cfg(test)]
mod end_to_end {
    //! Client/server integration tests over the in-process transport.

    use super::*;
    use ipc::InprocHub;
    use std::sync::atomic::Ordering;
    use std::sync::Arc;
    use std::time::Duration;
    use tfsim::{Fabric, Path};

    struct Rig {
        fabric: Fabric,
        _server: PlasmaServer,
        hub: InprocHub,
        store: StoreCore,
    }

    fn rig(bytes: usize) -> Rig {
        let fabric = Fabric::virtual_thymesisflow();
        let node = fabric.register_node();
        let store = StoreCore::new(&fabric, node, StoreConfig::new("s0", bytes)).unwrap();
        let hub = InprocHub::new();
        let listener = hub.bind("s0").unwrap();
        let server = serve_store(Box::new(listener), Arc::new(store.clone()));
        Rig {
            fabric,
            _server: server,
            hub,
            store,
        }
    }

    fn client_on(rig: &Rig, node: tfsim::NodeId) -> PlasmaClient {
        PlasmaClient::new(
            Box::new(rig.hub.connect("s0").unwrap()),
            rig.store.release_ring(),
            rig.fabric.clone(),
            node,
        )
    }

    #[test]
    fn put_get_roundtrip_over_ipc() {
        let r = rig(1 << 20);
        let client = client_on(&r, r.store.node());
        let id = ObjectId::from_name("obj");
        client.put(id, b"payload data", b"meta").unwrap();
        let buf = client.get_one(id, Duration::from_secs(1)).unwrap();
        assert_eq!(buf.read_all().unwrap(), b"payload data");
        assert_eq!(buf.metadata().read_all().unwrap(), b"meta");
        client.release(id).unwrap();
    }

    #[test]
    fn builder_writes_incrementally() {
        let r = rig(1 << 20);
        let client = client_on(&r, r.store.node());
        let id = ObjectId::from_name("chunks");
        let b = client.create(id, 10, 0).unwrap();
        b.write(0, b"01234").unwrap();
        b.write(5, b"56789").unwrap();
        b.seal().unwrap();
        let buf = client.get_one(id, Duration::from_secs(1)).unwrap();
        assert_eq!(buf.read_all().unwrap(), b"0123456789");
    }

    #[test]
    fn builder_dropped_unsealed_aborts_its_create() {
        let r = rig(1 << 20);
        let client = client_on(&r, r.store.node());
        let id = ObjectId::from_name("abandoned");
        let b = client.create(id, 4096, 0).unwrap();
        b.write(0, b"half").unwrap();
        assert!(r.store.exists_any_state(id));
        drop(b);
        assert!(!r.store.exists_any_state(id), "the drop aborted it");
        assert_eq!(r.store.stats().allocated_bytes, 0);
        // Sealed and aborted builders are left alone by their drop.
        client.create(id, 4, 0).unwrap().seal().unwrap();
        assert!(r.store.contains(id));
        let other = ObjectId::from_name("aborted");
        client.create(other, 4, 0).unwrap().abort().unwrap();
        let refused = &r._server.metrics().errors;
        let refused = refused.load(std::sync::atomic::Ordering::Relaxed);
        assert_eq!(refused, 0, "neither drop sent a second abort");
    }

    #[test]
    fn remote_client_reads_over_fabric() {
        let r = rig(1 << 20);
        let remote_node = r.fabric.register_node();
        let producer = client_on(&r, r.store.node());
        let consumer = client_on(&r, remote_node);
        let id = ObjectId::from_name("shared");
        producer.put(id, &vec![0x5A; 100_000], &[]).unwrap();
        let buf = consumer.get_one(id, Duration::from_secs(1)).unwrap();
        assert_eq!(buf.data().path(), Path::Remote);
        assert!(buf.read_all().unwrap().iter().all(|&b| b == 0x5A));
        let snap = r.fabric.stats().snapshot();
        assert_eq!(snap.remote_read_bytes, 100_000);
        // The store's ring is in another node's memory: the release is a
        // request.
        let requests = || r._server.metrics().requests.load(Ordering::Relaxed);
        let before = requests();
        consumer.release(id).unwrap();
        assert_eq!(requests(), before + 1);
        assert_eq!(refs(&r.store, &[id]), vec![0]);
    }

    #[test]
    fn errors_cross_the_wire() {
        let r = rig(1 << 20);
        let client = client_on(&r, r.store.node());
        let id = ObjectId::from_name("dup");
        client.put(id, b"x", &[]).unwrap();
        let err = client.create(id, 1, 0).unwrap_err();
        assert_eq!(err, PlasmaError::ObjectExists(id));
        let err = client.put(id, b"y", &[]).unwrap_err();
        assert_eq!(err, PlasmaError::ObjectExists(id));
        let missing = ObjectId::from_name("missing");
        assert_eq!(
            client.delete(missing).unwrap_err(),
            PlasmaError::ObjectNotFound(missing)
        );
    }

    #[test]
    fn get_timeout_over_ipc() {
        let r = rig(1 << 20);
        let client = client_on(&r, r.store.node());
        let missing = ObjectId::from_name("never");
        let out = client.get(&[missing], Duration::from_millis(40)).unwrap();
        assert!(out[0].is_none());
        assert_eq!(
            client
                .get_one(missing, Duration::from_millis(20))
                .unwrap_err(),
            PlasmaError::Timeout
        );
    }

    #[test]
    fn contains_list_stats_evict() {
        let r = rig(1 << 20);
        let client = client_on(&r, r.store.node());
        let id = ObjectId::from_name("a");
        client.put(id, &[1; 1000], &[]).unwrap();
        assert!(client.contains(id).unwrap());
        let list = client.list().unwrap();
        assert_eq!(list.len(), 1);
        assert_eq!(list[0].data_size, 1000);
        let stats = client.stats().unwrap();
        assert_eq!(stats.creates, 1);
        // Evict it (it's unreferenced after put).
        let evicted = client.evict(1).unwrap();
        assert!(evicted >= 1000);
        assert!(!client.contains(id).unwrap());
    }

    #[test]
    fn notifications_stream_seals() {
        let r = rig(1 << 20);
        let client = client_on(&r, r.store.node());
        let mut notif = Notifications::subscribe(Box::new(r.hub.connect("s0").unwrap())).unwrap();
        let id = ObjectId::from_name("announced");
        client.put(id, b"hello", &[]).unwrap();
        let loc = notif.recv().unwrap();
        assert_eq!(loc.id, id);
        assert_eq!(loc.data_size, 5);
    }

    #[test]
    fn client_cost_charges_clock() {
        let r = rig(1 << 20);
        let clock = r.fabric.clock().clone();
        let cost = ClientCost::local_plasma(clock.clone(), 7);
        let client = PlasmaClient::with_cost(
            Box::new(r.hub.connect("s0").unwrap()),
            r.store.release_ring(),
            r.fabric.clone(),
            r.store.node(),
            Some(cost),
        );
        let id = ObjectId::from_name("costed");
        let before = clock.now();
        client.put(id, b"x", &[]).unwrap();
        let put = clock.now() - before;
        // A small put is one request (~55 µs, σ 6): its byte rides along.
        assert!(put > Duration::from_micros(25), "{put:?}");
        assert!(put < Duration::from_micros(100), "{put:?}");
        let buf = client.get_one(id, Duration::from_secs(1)).unwrap();
        let _ = buf;
        // get = 1 request + 1 per-object charge.
        let get = clock.now() - before - put;
        assert!(get > Duration::from_micros(25), "{get:?}");
        assert!(get < Duration::from_micros(100), "{get:?}");
        // Past the threshold a put is three requests: create, seal,
        // release.
        let big = vec![7u8; INLINE_PUT_MAX + 1];
        let before = clock.now();
        client
            .put(ObjectId::from_name("costed-big"), &big, &[])
            .unwrap();
        let three = clock.now() - before;
        assert!(three > Duration::from_micros(130), "{three:?}");
        assert!(three < Duration::from_millis(5), "{three:?}");
    }

    /// Each request of one kind is charged the same modeled delay,
    /// request for request, whether or not requests of another kind
    /// went between them.
    #[test]
    fn removing_every_request_of_one_kind_leaves_anothers_delays_as_they_were() {
        let run = |with_other: bool| -> Vec<Duration> {
            let r = rig(1 << 20);
            let clock = r.fabric.clock().clone();
            let client = PlasmaClient::with_cost(
                Box::new(r.hub.connect("s0").unwrap()),
                r.store.release_ring(),
                r.fabric.clone(),
                r.store.node(),
                Some(ClientCost::local_plasma(clock.clone(), 7)),
            );
            let id = ObjectId::from_name("keyed");
            client.put(id, &[3; 64], &[]).unwrap();
            (0..16)
                .map(|i| {
                    if with_other && i % 4 != 2 {
                        client.stats().unwrap();
                    }
                    let before = clock.now();
                    assert!(client.contains(id).unwrap());
                    clock.now() - before
                })
                .collect()
        };
        let alone = run(false);
        assert_eq!(run(true), alone);
        assert!(alone.iter().any(|d| *d != alone[0]), "the draws differ");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]

        /// The frame `PlasmaClient::put` sends, written from the caller's
        /// slices, is the frame of the `Request::Put` it stands for, at
        /// every inlined size.
        #[test]
        fn a_client_put_sends_the_frame_of_its_request(
            len in 0..=INLINE_PUT_MAX,
            split in proptest::prelude::any::<usize>(),
            fill in proptest::prelude::any::<u8>(),
        ) {
            use protocol::{Request, Response};
            let hub = InprocHub::new();
            let mut listener = hub.bind("s0").unwrap();
            let fabric = Fabric::virtual_thymesisflow();
            let node = fabric.register_node();
            let ring = ReleaseRing::new(tfsim::SegKey { owner: node, index: 0 });
            let conn = Box::new(hub.connect("s0").unwrap());
            let client = PlasmaClient::new(conn, ring, fabric, node);
            let id = ObjectId::from_name("framed");
            let object: Vec<u8> = (0..len).map(|i| fill.wrapping_add(i as u8)).collect();
            let (data, metadata) = object.split_at(split % (len + 1));
            let store = std::thread::spawn(move || {
                let mut conn = ipc::Listener::accept(&mut listener).unwrap();
                let sent = conn.recv().unwrap();
                let sealed = ObjectLocation {
                    id,
                    seg: tfsim::SegKey { owner: node, index: 0 },
                    offset: 0,
                    data_size: 0,
                    metadata_size: 0,
                };
                conn.send(&Response::Location(sealed).to_frame()).unwrap();
                sent
            });
            client.put(id, data, metadata).unwrap();
            let expected = Request::Put {
                id,
                data: bytes::Bytes::copy_from_slice(data),
                metadata: bytes::Bytes::copy_from_slice(metadata),
            };
            proptest::prop_assert!(store.join().unwrap() == expected.to_frame());
        }
    }

    /// The references `store` counts on `ids`, in order.
    fn refs(store: &StoreCore, ids: &[ObjectId]) -> Vec<u64> {
        let list = store.list();
        let count = |id: &ObjectId| list.iter().find(|i| i.id == *id).map_or(0, |i| i.ref_count);
        ids.iter().map(count).collect()
    }

    fn put_named(client: &PlasmaClient, base: &str, n: usize) -> Vec<ObjectId> {
        let ids: Vec<ObjectId> = (0..n)
            .map(|i| ObjectId::from_name(&format!("{base}-{i}")))
            .collect();
        for id in &ids {
            client.put(*id, &[9; 64], &[]).unwrap();
        }
        ids
    }

    /// A batch of pins here costs one request, its get: each member's
    /// release but the last is held, and the last posts them all.
    #[test]
    fn a_batch_get_returns_its_references_in_one_request() {
        let r = rig(1 << 20);
        let client = client_on(&r, r.store.node());
        let ids = put_named(&client, "batch", 32);
        let requests = || r._server.metrics().requests.load(Ordering::Relaxed);
        let before = requests();
        let bufs = client.get(&ids, Duration::from_secs(1)).unwrap();
        assert!(bufs.iter().all(Option::is_some));
        for id in &ids[..31] {
            client.release(*id).unwrap();
        }
        assert_eq!(refs(&r.store, &ids), vec![1; 32], "the batch is held");
        client.release(ids[31]).unwrap();
        assert_eq!(requests(), before + 1, "the get alone");
        assert_eq!(refs(&r.store, &ids), vec![0; 32]);
        // A single get's release is posted too.
        client.get_one(ids[0], Duration::from_secs(1)).unwrap();
        client.release(ids[0]).unwrap();
        assert_eq!(requests(), before + 2, "the two gets");
        assert_eq!(refs(&r.store, &ids[..1]), vec![0]);
    }

    /// The batch-hold rule at the client: a released member stays
    /// referenced until the batch's last release, so another client's
    /// delete of it reads `ObjectInUse`; the client that released it
    /// sends that release before its own delete.
    #[test]
    fn a_released_member_is_deletable_by_its_client_while_a_sibling_is_held() {
        let r = rig(1 << 20);
        let client = client_on(&r, r.store.node());
        let other = client_on(&r, r.store.node());
        let ids = put_named(&client, "hold", 4);
        client.get(&ids, Duration::from_secs(1)).unwrap();
        for id in &ids[..3] {
            client.release(*id).unwrap();
            assert_eq!(other.delete(*id), Err(PlasmaError::ObjectInUse(*id)));
        }
        client.delete(ids[0]).unwrap();
        assert_eq!(client.delete_deferred(ids[1]), Ok(true), "deleted at once");
        assert!(!r.store.contains(ids[0]) && !r.store.contains(ids[1]));
        assert_eq!(
            refs(&r.store, &ids[2..]),
            vec![1, 1],
            "the siblings are held"
        );
        assert_eq!(other.delete(ids[2]), Err(PlasmaError::ObjectInUse(ids[2])));
        client.release(ids[3]).unwrap();
        assert_eq!(refs(&r.store, &ids[2..]), vec![0, 0]);
        other.delete(ids[2]).unwrap();
        other.delete(ids[3]).unwrap();
    }

    /// A single get's release is posted, not requested, and the store
    /// applies it before its next table access reads anything: another
    /// client's delete right after it succeeds. With the drain skipped
    /// (the mutant), the delete reads the reference and is refused.
    #[test]
    fn a_posted_release_is_applied_before_another_clients_delete() {
        let delete_after_post = |mutant: bool| {
            let r = rig(1 << 20);
            let (reader, deleter) = (client_on(&r, r.store.node()), client_on(&r, r.store.node()));
            let id = put_named(&reader, "posted", 1)[0];
            if mutant {
                r.store.skip_drain();
            }
            reader.get_one(id, Duration::from_secs(1)).unwrap();
            let requests = || r._server.metrics().requests.load(Ordering::Relaxed);
            let before = requests();
            reader.release(id).unwrap();
            assert_eq!(requests(), before, "the release sent no request");
            deleter.delete(id)
        };
        assert_eq!(delete_after_post(false), Ok(()));
        let id = ObjectId::from_name("posted-0");
        assert_eq!(delete_after_post(true), Err(PlasmaError::ObjectInUse(id)));
    }

    /// A create that needs the space of an object whose last reference
    /// was just posted back evicts it: the create's table access applies
    /// the release first. With the drain skipped, the object is still
    /// pinned and the create runs out of memory.
    #[test]
    fn a_posted_release_is_applied_before_a_create_that_evicts() {
        let create_after_post = |mutant: bool| {
            let r = rig(1 << 20);
            let client = client_on(&r, r.store.node());
            let old = ObjectId::from_name("old");
            r.store.put(old, &vec![1; 700_000], &[]).unwrap();
            if mutant {
                r.store.skip_drain();
            }
            client.get_one(old, Duration::from_secs(1)).unwrap();
            client.release(old).unwrap();
            let made = client.create(ObjectId::from_name("new"), 700_000, 0);
            made.map(|builder| builder.abort().unwrap())?;
            assert!(!r.store.contains(old), "the create evicted it");
            Ok::<_, PlasmaError>(r.store.stats().evictions)
        };
        assert_eq!(create_after_post(false), Ok(1));
        let refused = create_after_post(true);
        assert!(
            matches!(refused, Err(PlasmaError::OutOfMemory { .. })),
            "{refused:?}"
        );
    }

    /// A pin in the store's own table is posted, whichever get took it:
    /// a batch's as a single get's. A slot the store says it pinned
    /// elsewhere is released by request, a batch's in one, and so is a
    /// pin here taken by a client handed another store's ring.
    #[test]
    fn a_pin_here_from_any_get_is_posted() {
        let r = rig(1 << 20);
        let client = client_on(&r, r.store.node());
        let ids = put_named(&client, "kinds", 2);
        let requests = || r._server.metrics().requests.load(Ordering::Relaxed);
        client.get(&ids, Duration::from_secs(1)).unwrap();
        let before = requests();
        client.release(ids[0]).unwrap();
        client.release(ids[1]).unwrap();
        assert_eq!(requests(), before, "the batch's pins were posted");
        assert_eq!(refs(&r.store, &ids), vec![0, 0]);

        // A store answering every filled slot as pinned elsewhere.
        let elsewhere = |out: &mut [GetSlot]| {
            for slot in out {
                if let GetSlot::PinnedHere(loc) = *slot {
                    *slot = GetSlot::Pinned(loc);
                }
            }
        };
        let hub = InprocHub::new();
        let wrapped = Arc::new(Rewritten(r.store.clone(), elsewhere));
        let server = serve_store(Box::new(hub.bind("elsewhere").unwrap()), wrapped);
        let conn = Box::new(hub.connect("elsewhere").unwrap());
        let ring = r.store.release_ring();
        let client = PlasmaClient::new(conn, ring, r.fabric.clone(), r.store.node());
        client.get_one(ids[0], Duration::from_secs(1)).unwrap();
        client.release(ids[0]).unwrap();
        assert_eq!(server.metrics().requests.load(Ordering::Relaxed), 2);
        client.get(&ids, Duration::from_secs(1)).unwrap();
        client.release(ids[0]).unwrap();
        client.release(ids[1]).unwrap();
        let sent = server.metrics().requests.load(Ordering::Relaxed);
        assert_eq!(sent, 4, "the batch's get and its one release");
        assert_eq!(refs(&r.store, &ids), vec![0, 0]);

        // A client handed another store's ring requests the release of a
        // pin its own store took here.
        let other = ReleaseRing::new(tfsim::SegKey {
            owner: r.store.node(),
            index: u32::MAX,
        });
        let conn = Box::new(r.hub.connect("s0").unwrap());
        let client = PlasmaClient::new(conn, other, r.fabric.clone(), r.store.node());
        let before = requests();
        client.get_one(ids[0], Duration::from_secs(1)).unwrap();
        client.release(ids[0]).unwrap();
        assert_eq!(requests(), before + 2, "the get and the release");
        assert_eq!(refs(&r.store, &ids), vec![0, 0]);
    }

    /// A batch's pins here are posted at its last release and applied
    /// at the store's next table access: another client's delete of a
    /// member reads `ObjectInUse` until then and succeeds right after,
    /// and its deferred delete of one is carried out then, with no
    /// request sent for the release. With the drain skipped (the
    /// mutant), the delete is refused and the deferred one waits.
    #[test]
    fn a_groups_posted_release_is_applied_before_another_clients_delete() {
        let deletes_after_last = |mutant: bool| {
            let r = rig(1 << 20);
            let (reader, deleter) = (client_on(&r, r.store.node()), client_on(&r, r.store.node()));
            let ids = put_named(&reader, "group", 3);
            if mutant {
                r.store.skip_drain();
            }
            reader.get(&ids, Duration::from_secs(1)).unwrap();
            for &id in &ids[..2] {
                reader.release(id).unwrap();
                assert_eq!(deleter.delete(id), Err(PlasmaError::ObjectInUse(id)));
            }
            assert_eq!(deleter.delete_deferred(ids[2]), Ok(false), "held");
            let requests = || r._server.metrics().requests.load(Ordering::Relaxed);
            let before = requests();
            reader.release(ids[2]).unwrap();
            assert_eq!(requests(), before, "the last release sent no request");
            let deleted: Vec<_> = ids[..2].iter().map(|&id| deleter.delete(id)).collect();
            (deleted, r.store.exists_any_state(ids[2]))
        };
        assert_eq!(deletes_after_last(false), (vec![Ok(()); 2], false));
        let (refused, waiting) = deletes_after_last(true);
        let id = ObjectId::from_name("group-0");
        assert_eq!(refused[0], Err(PlasmaError::ObjectInUse(id)));
        assert!(waiting, "the deferred delete waits for the drain");
    }

    /// A store that answers each single get from a ledger, as a
    /// distributed store answers a lent id: the pin moves out of the
    /// table into the ledger, and the slot says it is pinned elsewhere.
    /// A release takes a ledger pin first, and a delete of an id the
    /// ledger pins reads `ObjectInUse`, as the distributed store's do.
    struct Ledgered(
        StoreCore,
        parking_lot::Mutex<std::collections::HashMap<ObjectId, u32>>,
    );

    impl Ledgered {
        fn pins(&self, id: ObjectId) -> u32 {
            self.1.lock().get(&id).copied().unwrap_or(0)
        }
    }

    impl ObjectStore for Ledgered {
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
            ObjectStore::get_into(&self.0, ids, timeout, out)?;
            if let [GetSlot::PinnedHere(loc)] = out[..] {
                self.0.release(loc.id)?;
                *self.1.lock().entry(loc.id).or_default() += 1;
                out[0] = GetSlot::Pinned(loc);
            }
            Ok(())
        }
        fn release(&self, id: ObjectId) -> Result<(), PlasmaError> {
            if let Some(pins @ 1..) = self.1.lock().get_mut(&id) {
                *pins -= 1;
                return Ok(());
            }
            self.0.release(id)
        }
        fn delete(&self, id: ObjectId) -> Result<(), PlasmaError> {
            if self.pins(id) > 0 {
                return Err(PlasmaError::ObjectInUse(id));
            }
            self.0.delete(id)
        }
        fn delete_deferred(&self, id: ObjectId) -> Result<bool, PlasmaError> {
            self.0.delete_deferred(id)
        }
        fn abort(&self, id: ObjectId) -> Result<(), PlasmaError> {
            self.0.abort(id)
        }
        fn contains(&self, id: ObjectId) -> Result<bool, PlasmaError> {
            Ok(self.0.contains(id))
        }
        fn list(&self) -> Result<Vec<ObjectInfo>, PlasmaError> {
            Ok(self.0.list())
        }
        fn stats(&self) -> Result<StoreStats, PlasmaError> {
            Ok(self.0.stats())
        }
        fn evict(&self, bytes: u64) -> Result<u64, PlasmaError> {
            Ok(self.0.evict(bytes))
        }
        fn subscribe(&self) -> std::sync::mpsc::Receiver<ObjectLocation> {
            self.0.subscribe()
        }
    }

    /// A batch member's deferred release of a pin here goes back by post
    /// on the client's own delete and on its drop, its credit taken. A
    /// request would reach the ledger first and take the ledger pin
    /// another client holds on the id, leaving the batch's pin counted
    /// in the table: that is what the mutant, which requests them and
    /// keeps the credits, does.
    #[test]
    fn a_deferred_pin_here_goes_back_by_post_on_delete_and_drop() {
        // The other client's ledger pin and the table's count of the id
        // once the batch's client deleted it (or, `dropped`, was dropped).
        let after = |mutant: bool, dropped: bool| {
            let r = rig(1 << 20);
            let ids = put_named(&client_on(&r, r.store.node()), "credit", 2);
            let hub = InprocHub::new();
            let store = Arc::new(Ledgered(r.store.clone(), Default::default()));
            let _server = serve_store(Box::new(hub.bind("ledgered").unwrap()), store.clone());
            let client = || {
                let conn = Box::new(hub.connect("ledgered").unwrap());
                let ring = r.store.release_ring();
                PlasmaClient::new(conn, ring, r.fabric.clone(), r.store.node())
            };
            let (batch, other) = (client(), client());
            if mutant {
                batch.request_deferred();
            }
            batch.get(&ids, Duration::from_secs(1)).unwrap();
            other.get_one(ids[0], Duration::from_secs(1)).unwrap();
            assert_eq!(store.pins(ids[0]), 1, "the other client's pin");
            batch.release(ids[0]).unwrap();
            if dropped {
                drop(batch);
            } else {
                let deleted = batch.delete(ids[0]);
                assert_eq!(deleted, Err(PlasmaError::ObjectInUse(ids[0])));
            }
            (store.pins(ids[0]), refs(&r.store, &ids[..1])[0])
        };
        for dropped in [false, true] {
            assert_eq!(after(false, dropped), (1, 0), "dropped: {dropped}");
            assert_eq!(after(true, dropped), (0, 1), "dropped: {dropped}");
        }
    }

    #[test]
    fn a_client_dropped_mid_batch_returns_every_reference_it_released() {
        let r = rig(1 << 20);
        let client = client_on(&r, r.store.node());
        let ids = put_named(&client, "dropped", 4);
        client.get(&ids, Duration::from_secs(1)).unwrap();
        client.get(&ids[..2], Duration::from_secs(1)).unwrap();
        for id in [ids[0], ids[1], ids[0], ids[2]] {
            client.release(id).unwrap();
        }
        // The second batch went back whole; the first is held.
        assert_eq!(refs(&r.store, &ids), vec![1, 1, 1, 1]);
        drop(client);
        // Only the two references never released are left.
        assert_eq!(refs(&r.store, &ids), vec![0, 1, 0, 1]);
    }

    /// Hands every `get` answer back rewritten by its function.
    struct Rewritten(StoreCore, fn(&mut [GetSlot]));

    impl ObjectStore for Rewritten {
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
            ObjectStore::get_into(&self.0, ids, timeout, out)?;
            (self.1)(out);
            Ok(())
        }
        fn release(&self, id: ObjectId) -> Result<(), PlasmaError> {
            self.0.release(id)
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
            Ok(self.0.contains(id))
        }
        fn list(&self) -> Result<Vec<ObjectInfo>, PlasmaError> {
            Ok(self.0.list())
        }
        fn stats(&self) -> Result<StoreStats, PlasmaError> {
            Ok(self.0.stats())
        }
        fn evict(&self, bytes: u64) -> Result<u64, PlasmaError> {
            Ok(self.0.evict(bytes))
        }
        fn subscribe(&self) -> std::sync::mpsc::Receiver<ObjectLocation> {
            self.0.subscribe()
        }
    }

    #[test]
    fn a_get_whose_buffer_cannot_be_mapped_returns_every_reference() {
        let r = rig(1 << 20);
        let ids = put_named(&client_on(&r, r.store.node()), "unmapped", 3);
        let hub = InprocHub::new();
        // The last filled slot moved past the end of the store's memory.
        let out_of_bounds = |out: &mut [GetSlot]| {
            let filled = out.iter_mut().rev().find(|s| s.is_filled());
            if let Some(GetSlot::PinnedHere(last)) = filled {
                last.offset = u64::MAX / 2;
            }
        };
        let wrapped = Rewritten(r.store.clone(), out_of_bounds);
        let _server = serve_store(Box::new(hub.bind("oob").unwrap()), Arc::new(wrapped));
        let conn = Box::new(hub.connect("oob").unwrap());
        let ring = r.store.release_ring();
        let client = PlasmaClient::new(conn, ring, r.fabric.clone(), r.store.node());
        for batch in [&ids[..1], &ids[..]] {
            client.get(batch, Duration::from_secs(1)).unwrap_err();
            assert_eq!(refs(&r.store, &ids), vec![0; 3], "{} ids", batch.len());
        }
        drop(client);
        assert_eq!(refs(&r.store, &ids), vec![0; 3], "no group was opened");
    }

    #[test]
    fn many_objects_many_clients() {
        let r = rig(8 << 20);
        let clients: Vec<PlasmaClient> = (0..4).map(|_| client_on(&r, r.store.node())).collect();
        std::thread::scope(|s| {
            for (ci, client) in clients.iter().enumerate() {
                s.spawn(move || {
                    for i in 0..50 {
                        let id = ObjectId::from_name(&format!("c{ci}-o{i}"));
                        client.put(id, &[ci as u8; 512], &[]).unwrap();
                    }
                });
            }
        });
        let reader = client_on(&r, r.store.node());
        let ids: Vec<ObjectId> = (0..4)
            .flat_map(|ci| (0..50).map(move |i| ObjectId::from_name(&format!("c{ci}-o{i}"))))
            .collect();
        let bufs = reader.get(&ids, Duration::from_secs(5)).unwrap();
        assert!(bufs.iter().all(Option::is_some));
        assert_eq!(r.store.stats().sealed_objects, 200);
    }
}
