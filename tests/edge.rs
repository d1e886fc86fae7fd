//! Edge-case regressions: GET_MANY batch shapes that historically leaked
//! pins (duplicate ids, empty batches, all-missing batches), the
//! zero-length-object lifecycle, local and remote, and a reconcile sweep
//! with a peer down.

use disagg::proto::{method, CallHeader, GetManyReq};
use disagg::{Cluster, ClusterConfig, Kind};
use memdis::plasma::{ObjectId, StoreConfig, StoreCore};
use std::time::Duration;
use tfsim::Fabric;

const GET: Duration = Duration::from_millis(200);

fn oid(name: &str) -> ObjectId {
    ObjectId::from_name(name)
}

/// Every pin ledger across the cluster must be empty, including the
/// parked-release backlog gauge each store exports.
fn assert_no_pins(cluster: &Cluster, nodes: usize) {
    for i in 0..nodes {
        let store = cluster.store(i);
        assert_eq!(store.remote_pin_count(), 0, "node {i} owner-side pins");
        assert_eq!(store.held_remote_pins(), 0, "node {i} requester ledger");
        assert_eq!(store.pending_release_count(), 0, "node {i} parked releases");
        assert_eq!(
            store.metrics_snapshot().gauge("disagg.pending_releases"),
            0,
            "node {i} pending-release gauge"
        );
    }
}

#[test]
fn get_many_duplicate_ids_in_one_batch() {
    let cluster = Cluster::launch(ClusterConfig::functional(2, 8 << 20)).unwrap();
    let id = oid("edge/dup");
    cluster
        .client(0)
        .unwrap()
        .put(id, &[7u8; 256], &[])
        .unwrap();

    // The same id twice in one remote batch: the owner pins once per
    // instance, so each filled slot carries its own releasable reference.
    let client = cluster.client(1).unwrap();
    let slots = client.get(&[id, id], GET).unwrap();
    assert_eq!(slots.len(), 2);
    for slot in &slots {
        let buf = slot.as_ref().expect("object exists");
        assert_eq!(buf.read_all().unwrap(), vec![7u8; 256]);
    }
    drop(slots);
    client.release(id).unwrap();
    client.release(id).unwrap();

    assert_no_pins(&cluster, 2);
}

#[test]
fn get_many_empty_batch() {
    let cluster = Cluster::launch(ClusterConfig::functional(2, 8 << 20)).unwrap();
    let client = cluster.client(0).unwrap();
    let slots = client.get(&[], GET).unwrap();
    assert!(slots.is_empty());
    assert_no_pins(&cluster, 2);
}

#[test]
fn get_many_all_ids_missing() {
    let cluster = Cluster::launch(ClusterConfig::functional(2, 8 << 20)).unwrap();
    let client = cluster.client(1).unwrap();
    let ids = [
        oid("edge/ghost-a"),
        oid("edge/ghost-b"),
        oid("edge/ghost-c"),
    ];
    let slots = client.get(&ids, Duration::from_millis(50)).unwrap();
    assert!(slots.iter().all(Option::is_none), "nothing was ever put");
    assert_no_pins(&cluster, 2);
}

#[test]
fn get_many_mixed_found_missing_and_duplicate() {
    let cluster = Cluster::launch(ClusterConfig::functional(3, 8 << 20)).unwrap();
    let present = oid("edge/mixed-present");
    cluster
        .client(0)
        .unwrap()
        .put(present, &[9u8; 64], &[])
        .unwrap();

    let client = cluster.client(2).unwrap();
    let ids = [present, oid("edge/mixed-ghost"), present];
    let slots = client.get(&ids, Duration::from_millis(50)).unwrap();
    assert!(slots[0].is_some());
    assert!(slots[1].is_none(), "absent id must not fill");
    assert!(slots[2].is_some(), "duplicate slot fills independently");
    drop(slots);
    client.release(present).unwrap();
    client.release(present).unwrap();

    assert_no_pins(&cluster, 3);
}

#[test]
fn zero_length_object_lifecycle_local_plasma() {
    let fabric = Fabric::virtual_thymesisflow();
    let node = fabric.register_node();
    let store = StoreCore::new(&fabric, node, StoreConfig::new("edge-zero", 1 << 20)).unwrap();

    let id = oid("edge/zero-local");
    let loc = store.create(id, 0, 0).unwrap();
    assert_eq!(loc.data_size, 0);
    store.seal(id).unwrap();
    store.release(id).unwrap(); // creator's reference

    assert!(store.contains(id));
    let loc = store.get_local(id).expect("sealed and present");
    assert_eq!(loc.data_size, 0);
    store.release(id).unwrap();

    store.delete(id).unwrap();
    assert!(!store.contains(id));

    // The id is reusable after delete.
    store.create(id, 0, 0).unwrap();
    store.seal(id).unwrap();
    store.release(id).unwrap();
    store.delete(id).unwrap();
}

#[test]
fn zero_length_object_lifecycle_remote_disagg() {
    let cluster = Cluster::launch(ClusterConfig::functional(2, 8 << 20)).unwrap();
    let id = oid("edge/zero-remote");
    cluster.client(0).unwrap().put(id, &[], b"meta").unwrap();

    // Remote read from the other node: zero data bytes, metadata intact.
    let client = cluster.client(1).unwrap();
    let buf = client.get_one(id, GET).unwrap();
    assert_eq!(buf.len(), 0);
    assert!(buf.read_all().unwrap().is_empty());
    assert_eq!(buf.metadata().read_all().unwrap(), b"meta");
    drop(buf);
    client.release(id).unwrap();

    assert!(client.contains(id).unwrap());
    client.delete(id).unwrap();
    assert!(!client.contains(id).unwrap());
    assert!(!cluster.client(0).unwrap().contains(id).unwrap());

    assert_no_pins(&cluster, 2);
}

/// A reconcile sweep visits every peer: one that cannot be reached is
/// named in the report, and the peers after it are still healed. (The
/// three per-kind sweeps this replaced returned `PeerUnavailable` from
/// inside the loop, so an orphan behind a dead peer was never trimmed.)
#[test]
fn reconcile_heals_the_peers_behind_an_unreachable_one() {
    let mut cluster = Cluster::launch(ClusterConfig::functional(3, 8 << 20)).unwrap();
    let id = oid(&cluster.owned_id(2, "edge/orphan-pin"));
    cluster
        .client(2)
        .unwrap()
        .put(id, &[5u8; 128], &[])
        .unwrap();

    // A lost GET_MANY response: node 2 pinned for node 0, node 0 never
    // heard — nothing will ever release that pin.
    let lost = GetManyReq {
        ids: vec![id],
        redirected: false,
    };
    let from_node0 = CallHeader {
        from: cluster.node_id(0),
        epoch: cluster.store(0).ring_epoch(),
    };
    let node2 = cluster.store(2).interconnect_service();
    node2
        .call(method::GET_MANY, from_node0.frame(&lost.encode()))
        .unwrap();
    assert_eq!(cluster.store(2).remote_pin_count(), 1);
    assert_eq!(cluster.store(0).held_remote_pins(), 0);

    // Node 1 sits before node 2 in node 0's peer list, and is down.
    cluster.stop_rpc(1);
    let healed = cluster.store(0).reconcile();
    assert_eq!(healed.unreachable, vec![cluster.node_id(1)]);
    assert_eq!(healed.trimmed[Kind::Pin], 1, "{healed:?}");
    assert_eq!(cluster.store(2).remote_pin_count(), 0, "orphan pin trimmed");
    // The object is evictable and deletable again.
    cluster.client(2).unwrap().delete(id).unwrap();
}
