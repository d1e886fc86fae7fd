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
pub mod server;
pub mod store;

pub use api::ObjectStore;
pub use client::{
    ClientCost, Notifications, ObjectBuffer, ObjectBuilder, PlasmaClient, INLINE_PUT_MAX,
};
pub use error::PlasmaError;
pub use id::{ObjectId, OBJECT_ID_LEN};
pub use object::{ObjectInfo, ObjectLocation, ObjectState};
pub use server::{serve_store, PlasmaServer, PlasmaServerMetrics};
pub use store::{StoreConfig, StoreCore, StoreStats};

#[cfg(test)]
mod end_to_end {
    //! Client/server integration tests over the in-process transport.

    use super::*;
    use ipc::InprocHub;
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
