//! End-to-end integration tests across tfsim + plasma + disagg: Plasma
//! clients of a running cluster, each connected to its store over the
//! in-process transport that stands in for the original's Unix socket.

use disagg::{Cluster, ClusterConfig};
use memdis::plasma::{ObjectId, ObjectStore, PlasmaError};
use std::sync::Arc;
use std::time::Duration;
use tfsim::Path;

#[test]
fn producer_consumer_pipeline_across_nodes() {
    // A chain: node 0 produces, node 1 transforms, node 2 consumes —
    // every handoff via the disaggregated store, discovery via blocking get.
    let cluster = Cluster::launch(ClusterConfig::functional(3, 8 << 20)).unwrap();
    let stages = 20usize;

    std::thread::scope(|s| {
        let c = &cluster;
        // Stage handoffs must cross nodes for the fabric-traffic assert
        // below: pin raw objects to node 0 and cooked ones to node 1.
        // Stage 1: producer.
        s.spawn(move || {
            let client = c.client(0).unwrap();
            for i in 0..stages {
                let id = ObjectId::from_name(&c.owned_id(0, &format!("pipe/raw-{i}")));
                client.put(id, &vec![i as u8; 4096], &[]).unwrap();
            }
        });
        // Stage 2: transformer (doubles every byte, waits for stage 1).
        s.spawn(move || {
            let client = c.client(1).unwrap();
            for i in 0..stages {
                let raw = ObjectId::from_name(&c.owned_id(0, &format!("pipe/raw-{i}")));
                let buf = client.get_one(raw, Duration::from_secs(30)).unwrap();
                let data: Vec<u8> = buf.read_all().unwrap().iter().map(|b| b * 2).collect();
                client.release(raw).unwrap();
                let cooked = ObjectId::from_name(&c.owned_id(1, &format!("pipe/cooked-{i}")));
                client.put(cooked, &data, &[]).unwrap();
            }
        });
        // Stage 3: consumer (validates, waits for stage 2).
        s.spawn(move || {
            let client = c.client(2).unwrap();
            for i in 0..stages {
                let cooked = ObjectId::from_name(&c.owned_id(1, &format!("pipe/cooked-{i}")));
                let buf = client.get_one(cooked, Duration::from_secs(30)).unwrap();
                let data = buf.read_all().unwrap();
                assert!(data.iter().all(|&b| b == (i as u8) * 2), "stage {i}");
                client.release(cooked).unwrap();
            }
        });
    });

    // All data was consumed in place: fabric carried the remote reads.
    let snap = cluster.fabric().stats().snapshot();
    assert!(snap.remote_read_bytes >= (stages as u64) * 4096 * 2);
}

#[test]
fn eviction_pressure_with_remote_readers_is_safe() {
    let cluster = Cluster::launch(ClusterConfig::functional(2, 2 << 20)).unwrap();
    let producer = cluster.client(0).unwrap();
    let consumer = cluster.client(1).unwrap();

    // A stream of objects larger than the store: old ones must be evicted,
    // but never those a remote reader currently holds.
    let mut held = Vec::new();
    for i in 0..12 {
        let id = ObjectId::from_name(&format!("stream/{i}"));
        producer.put(id, &vec![i as u8; 256 << 10], &[]).unwrap();
        if i % 3 == 0 {
            let buf = consumer.get_one(id, Duration::from_secs(5)).unwrap();
            held.push((id, buf));
        }
    }
    // Everything held must still read back intact.
    for (i, (id, buf)) in held.iter().enumerate() {
        let expected = (i * 3) as u8;
        assert!(
            buf.read_all().unwrap().iter().all(|&b| b == expected),
            "{id:?} corrupted under eviction pressure"
        );
        consumer.release(*id).unwrap();
    }
    assert!(
        cluster.store(0).core().stats().evictions > 0,
        "pressure existed"
    );
}

#[test]
fn store_trait_object_is_usable_via_dyn() {
    // DisaggStore is consumed through `dyn ObjectStore` by the server; make
    // sure the trait surface stands alone too.
    let cluster = Cluster::launch(ClusterConfig::functional(2, 1 << 20)).unwrap();
    let store: Arc<dyn ObjectStore> = Arc::new(cluster.store(0).clone());
    let id = ObjectId::from_name("dyn/object");
    let loc = store.create(id, 16, 0).unwrap();
    assert_eq!(loc.data_size, 16);
    store.seal(id).unwrap();
    assert!(store.contains(id).unwrap());
    let got = store.get(&[id], Duration::from_secs(1)).unwrap();
    assert!(got[0].is_some());
    store.release(id).unwrap();
    store.release(id).unwrap(); // creator's ref
    store.delete(id).unwrap();
    assert!(!store.contains(id).unwrap());
}

#[test]
fn duplicate_ids_rejected_everywhere_in_cluster() {
    let cluster = Cluster::launch(ClusterConfig::functional(3, 1 << 20)).unwrap();
    let id = ObjectId::from_name("cluster-unique");
    cluster.client(1).unwrap().put(id, b"v", &[]).unwrap();
    let owner = cluster.store(0).ring_owner(id);
    for node in 0..3 {
        // A builder's create is local: the owner's node refuses the id at
        // once, any other at the seal, and its copy goes with the abort.
        let client = cluster.client(node).unwrap();
        let built = client.create(id, 1, 0).and_then(|builder| {
            builder.write(0, b"w")?;
            builder.seal()
        });
        assert_eq!(
            built.unwrap_err(),
            PlasmaError::ObjectExists(id),
            "node {node}"
        );
        if owner != Some(cluster.node_id(node)) {
            assert!(!cluster.store(node).core().exists_any_state(id));
        }
    }
}

#[test]
fn remote_buffer_views_are_bounds_checked() {
    let cluster = Cluster::launch(ClusterConfig::functional(2, 1 << 20)).unwrap();
    let producer = cluster.client(0).unwrap();
    let consumer = cluster.client(1).unwrap();
    let id = ObjectId::from_name("bounds");
    producer.put(id, &[7; 100], &[]).unwrap();
    let buf = consumer.get_one(id, Duration::from_secs(1)).unwrap();
    assert_eq!(buf.data().path(), Path::Remote);
    let mut b = [0u8; 50];
    buf.data().read_at(50, &mut b).unwrap();
    assert!(
        buf.data().read_at(51, &mut b).is_err(),
        "read past object end"
    );
    assert!(buf.data().read_at(u64::MAX, &mut b).is_err());
    consumer.release(id).unwrap();
}

#[test]
fn deferred_delete_across_the_cluster() {
    let cluster = Cluster::launch(ClusterConfig::functional(2, 4 << 20)).unwrap();
    let producer = cluster.client(0).unwrap();
    let consumer = cluster.client(1).unwrap();
    let id = ObjectId::from_name("deferred/remote");
    producer.put(id, &[5; 2048], &[]).unwrap();

    // Remote consumer pins the object, then a *remote* deferred delete is
    // issued from node 1 (forwarded to the owner over the interconnect).
    let buf = consumer.get_one(id, Duration::from_secs(5)).unwrap();
    let deleted_now = consumer.delete_deferred(id).unwrap();
    assert!(!deleted_now, "object is pinned; deletion must defer");
    // Hidden from new gets cluster-wide, but the held buffer stays valid.
    assert!(!producer.contains(id).unwrap());
    assert!(buf.read_all().unwrap().iter().all(|&b| b == 5));
    // Releasing the pin completes the deletion at the owner, once the
    // owner has handled the release.
    consumer.release(id).unwrap();
    cluster.settle_releases();
    assert!(!cluster.store(0).core().exists_any_state(id));
}

/// The mapped data plane accounts every payload byte to the node that
/// pulled it: N remote `get_bytes` of an S-byte object add exactly N × S
/// to the reader's `disagg.fabric.mapped_payload_bytes` and nothing to
/// the owner's, whose segment was read in place.
#[test]
fn remote_reads_account_every_payload_byte_to_the_reader() {
    const READS: u64 = 5;
    const SIZE: usize = 64 << 10;
    let mapped_bytes = |store: &disagg::DisaggStore| {
        store
            .metrics_snapshot()
            .counter("disagg.fabric.mapped_payload_bytes")
    };
    let cluster = Cluster::launch(ClusterConfig::functional(3, 4 << 20)).unwrap();
    let id = ObjectId::from_name(&cluster.owned_id(0, "plane/bytes"));
    let payload: Vec<u8> = (0..SIZE).map(|i| (i % 251) as u8).collect();
    cluster.client(0).unwrap().put(id, &payload, &[]).unwrap();

    let reader = cluster.store(2);
    for _ in 0..READS {
        let bytes = reader.get_bytes(id, Duration::from_secs(5)).unwrap();
        assert_eq!(bytes.as_deref(), Some(&payload[..]));
    }
    assert_eq!(mapped_bytes(reader), READS * SIZE as u64);
    assert_eq!(mapped_bytes(cluster.store(0)), 0);
}

/// A stop wakes a parked reader, so tearing a cluster down joins its
/// `rpc-serve` reader without waiting out a poll. The bound is generous and the best of three launches
/// is judged, so a descheduled test thread cannot fail it but a poll of
/// any useful period would.
#[test]
fn dropping_an_idle_cluster_does_not_wait_on_a_poll() {
    let fastest = (0..3)
        .map(|_| {
            let cluster = Cluster::launch(ClusterConfig::functional(3, 4 << 20)).unwrap();
            let start = std::time::Instant::now();
            drop(cluster);
            start.elapsed()
        })
        .min()
        .unwrap();
    assert!(
        fastest < Duration::from_millis(50),
        "drop(Cluster) took {fastest:?}"
    );
}

#[test]
fn facade_crate_reexports_whole_api() {
    // Compile-time check that the memdis facade exposes every layer.
    use memdis::{
        disagg as d, ipc as i, memalloc as m, netsim as n, plasma as p, rpclite as r, tfsim as t,
    };
    let _ = t::Fabric::virtual_thymesisflow();
    let _ = m::FirstFit::new(1024);
    let _ = n::LinkModel::grpc_lan();
    let _ = i::InprocHub::new();
    let _ = r::Status::not_found("x");
    let _ = p::ObjectId::from_name("x");
    let _ = d::ClusterConfig::functional(1, 4096);
}

/// A store's peers are node ids until it calls one: `connect_peers`
/// builds nothing, and each client is built by the store's `dial` at the
/// first call to that peer, once however many callers race to make it.
/// A get asks the id's ring owner only, and a delete whose ring owner
/// answers walks no further, so neither builds the others' clients.
#[test]
fn one_client_per_peer_built_at_its_first_call() {
    use disagg::{DisaggConfig, DisaggStore, Membership};
    use plasma::{StoreConfig, StoreCore};
    use rpclite::RpcClient;
    use std::sync::{Barrier, Mutex};
    use tfsim::NodeId;

    let fabric = tfsim::Fabric::virtual_thymesisflow();
    let nodes: Vec<NodeId> = (0..3).map(|_| fabric.register_node()).collect();
    let hub = ipc::InprocHub::new();
    let mut servers = Vec::new();
    let mut stores = Vec::new();
    // The peers each store built a client to, in the order it built them.
    let mut built: Vec<Arc<Mutex<Vec<NodeId>>>> = Vec::new();
    for (i, &node) in nodes.iter().enumerate() {
        let core = StoreCore::new(
            &fabric,
            node,
            StoreConfig::new(format!("store-{i}"), 1 << 20),
        );
        let store = DisaggStore::new(core.unwrap(), DisaggConfig::default());
        store.set_membership(Membership::new(1, nodes.clone()));
        let listener = hub.bind(&format!("rpc-{i}")).unwrap();
        servers.push(rpclite::serve(
            Box::new(listener),
            store.interconnect_service(),
        ));
        let log: Arc<Mutex<Vec<NodeId>>> = Arc::default();
        let (dial_log, dial_hub) = (Arc::clone(&log), hub.clone());
        let peers = nodes.iter().copied().filter(|&peer| peer != node);
        store.connect_peers(peers, move |peer| {
            dial_log.lock().unwrap().push(peer);
            // Widens the window a second build would race through.
            std::thread::sleep(Duration::from_millis(10));
            let (hub, target) = (dial_hub.clone(), format!("rpc-{}", peer.0));
            let connect = move || {
                let conn = hub.connect(&target)?;
                Ok(Box::new(conn) as Box<dyn ipc::Conn>)
            };
            RpcClient::with_connector(Box::new(connect), None)
        });
        assert!(
            log.lock().unwrap().is_empty(),
            "connect_peers built a client"
        );
        stores.push(store);
        built.push(log);
    }
    let built_by = |i: usize| built[i].lock().unwrap().clone();
    let owned_by = |i: usize, base: &str| {
        (0..)
            .map(|k| ObjectId::from_name(&format!("{base}~{k}")))
            .find(|id| stores[0].ring_owner(*id) == Some(nodes[i]))
            .unwrap()
    };

    // A get of an object on node 1 builds node 0's client to node 1.
    let on_1 = owned_by(1, "lazy/on-1");
    stores[1].put(on_1, b"one", &[]).unwrap();
    let got = stores[0].get(&[on_1], Duration::from_secs(1)).unwrap();
    assert!(got[0].is_some());
    stores[0].release(on_1).unwrap();
    assert_eq!(built_by(0), vec![nodes[1]]);

    // Four threads racing their first call to node 2 build one client.
    let start = Barrier::new(4);
    std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(|| {
                start.wait();
                stores[0].peer_metrics(nodes[2]).unwrap();
            });
        }
    });
    assert_eq!(built_by(0), vec![nodes[1], nodes[2]]);

    // A delete from node 1 whose ring owner, node 0, answers builds only
    // node 1's client to node 0.
    let on_0 = owned_by(0, "lazy/on-0");
    stores[0].put(on_0, b"zero", &[]).unwrap();
    assert!(built_by(1).is_empty(), "node 1 has called nobody yet");
    stores[1].delete(on_0).unwrap();
    assert_eq!(built_by(1), vec![nodes[0]]);

    // An inventory asks every peer, so it builds the rest.
    let inventory = stores[1].global_list().unwrap();
    assert_eq!(inventory.len(), 3);
    assert_eq!(built_by(1), vec![nodes[0], nodes[2]]);
    assert!(built_by(2).is_empty(), "node 2 only answered");
    stores[0].settle_releases();
}
