//! Edge-case regressions: GET_MANY batch shapes that historically leaked
//! pins (duplicate ids, empty batches, all-missing batches, a batch left
//! half released), the
//! zero-length-object lifecycle, local and remote, a create whose sizes
//! overflow, a reconcile sweep with a peer down, and `RELEASE` lists
//! that name more pins than the caller holds.

use disagg::proto::{method, CallHeader, GetManyReq, IdsReq, Message, ReleaseResp, ReplyHeader};
use disagg::{Cluster, ClusterConfig, Kind, PeerState};
use memdis::plasma::{ObjectId, ObjectStore, PlasmaError, StoreConfig, StoreCore};
use std::time::Duration;
use tfsim::Fabric;

const GET: Duration = Duration::from_millis(200);

fn oid(name: &str) -> ObjectId {
    ObjectId::from_name(name)
}

/// The cluster keeps every promise `Cluster::audit` checks, and each
/// store's parked-release gauge agrees that nothing is parked.
fn assert_quiesced(cluster: &Cluster) {
    assert_eq!(cluster.audit(), Vec::<String>::new());
    for i in 0..cluster.len() {
        let parked = cluster
            .store(i)
            .metrics_snapshot()
            .gauge("disagg.pending_releases");
        assert_eq!(parked, 0, "node {i} pending-release gauge");
    }
}

#[test]
fn get_many_duplicate_ids_in_one_batch() {
    let cluster = Cluster::launch(ClusterConfig::functional(2, 8 << 20)).unwrap();
    let id = oid(&cluster.owned_id(0, "edge/dup"));
    cluster
        .client(0)
        .unwrap()
        .put(id, &[7u8; 256], &[])
        .unwrap();

    // The same id twice in one remote batch: the owner pins once per
    // instance, so each filled slot carries its own releasable reference
    // — and both go back in one `RELEASE` that lists the id twice.
    let client = cluster.client(1).unwrap();
    let slots = client.get(&[id, id], GET).unwrap();
    assert_eq!(slots.len(), 2);
    for slot in &slots {
        let buf = slot.as_ref().expect("object exists");
        assert_eq!(buf.read_all().unwrap(), vec![7u8; 256]);
    }
    drop(slots);
    client.release(id).unwrap();
    assert_eq!(cluster.store(0).remote_pin_count(), 2, "the first waits");
    client.release(id).unwrap();

    assert_quiesced(&cluster);
    let snap = cluster.store(1).metrics_snapshot();
    let releases = snap.histogram("rpc.client.release.latency_ns");
    assert_eq!(releases.map(|h| h.count), Some(1));
}

/// A batch left half released — its client went away before releasing
/// every slot — keeps its release group open and its pins at the owner.
/// The quiesce drain closes the group: the release it deferred and the
/// pins nobody released go out together, one `RELEASE` to the owner, so
/// nothing stays pinned.
#[test]
fn drain_closes_a_batch_left_half_released() {
    let cluster = Cluster::launch(ClusterConfig::functional(2, 8 << 20)).unwrap();
    let names = cluster.owned_ids(0, "edge/half", 3);
    let ids: Vec<ObjectId> = names.iter().map(|name| oid(name)).collect();
    let producer = cluster.client(0).unwrap();
    for id in &ids {
        producer.put(*id, &[1u8; 64], &[]).unwrap();
    }
    let reader = cluster.store(1);
    let slots = reader.get(&ids, GET).unwrap();
    assert!(slots.iter().all(Option::is_some));
    reader.release(ids[0]).unwrap();
    assert_eq!(reader.open_release_groups(), 1);
    assert_eq!(cluster.store(0).remote_pin_count(), 3);

    assert_eq!(reader.drain_remote_pins(), 2, "the two never released");
    assert_eq!(reader.open_release_groups(), 0);
    assert_quiesced(&cluster);
    let snap = reader.metrics_snapshot();
    let releases = snap.histogram("rpc.client.release.latency_ns");
    assert_eq!(releases.map(|h| h.count), Some(1), "one RELEASE per owner");
}

#[test]
fn get_many_empty_batch() {
    let cluster = Cluster::launch(ClusterConfig::functional(2, 8 << 20)).unwrap();
    let client = cluster.client(0).unwrap();
    let slots = client.get(&[], GET).unwrap();
    assert!(slots.is_empty());
    assert_quiesced(&cluster);
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
    assert_quiesced(&cluster);
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

    assert_quiesced(&cluster);
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

    assert_quiesced(&cluster);
}

/// A create whose data and metadata sizes overflow a `u64` when summed
/// fails `Protocol` at once, whether the client's own store owns the id
/// or forwards it to a peer. Nothing is left on either node, and the
/// owner takes the next put. (The unchecked sum panicked the owner's
/// `CREATE_AT` handler on every retry, and the caller got
/// `PeerUnavailable` with the owner marked down.)
#[test]
fn create_with_overflowing_sizes_fails_typed_and_leaves_nothing() {
    let cluster = Cluster::launch(ClusterConfig::functional(2, 1 << 20)).unwrap();
    let client = cluster.client(0).unwrap();
    for owner in [0usize, 1] {
        let id = oid(&cluster.owned_id(owner, "edge/overflow"));
        match client.create(id, u64::MAX, 1) {
            Err(PlasmaError::Protocol(m)) => assert!(m.contains("overflows"), "{m}"),
            other => panic!(
                "owner {owner}: expected Protocol, got {:?}",
                other.map(|_| ())
            ),
        }
        let store = cluster.store(0);
        assert_eq!(store.peer_state(cluster.node_id(1)), PeerState::Up);
        assert_eq!(store.metrics_snapshot().counter("disagg.peer.retries"), 0);
        for node in 0..2 {
            let store = cluster.store(node);
            assert!(
                !store.core().exists_any_state(id),
                "owner {owner}, node {node}"
            );
            assert_eq!(store.delegations(), vec![], "owner {owner}, node {node}");
        }

        let next = oid(&cluster.owned_id(owner, "edge/after-overflow"));
        client.put(next, b"fits", &[]).unwrap();
        let reader = cluster.client(1).unwrap();
        assert_eq!(
            reader.get_one(next, GET).unwrap().read_all().unwrap(),
            b"fits"
        );
        reader.release(next).unwrap();
    }
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
    let lost = GetManyReq { ids: vec![id] };
    let from_node0 = CallHeader {
        from: cluster.node_id(0),
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

/// `RELEASE` lists no honest peer sends, on a live cluster: an id listed
/// twice when the caller pinned it once, an id the caller never pinned
/// (present or absent), and an id another node pinned. Each listed id is
/// answered on its own — `true` only for a pin the owner recorded for
/// this caller, and only once — and no answer drops a reference that was
/// not the caller's: the object's count returns to exactly 0, it can be
/// deleted, and the cluster's promises hold.
#[test]
fn release_answers_each_listed_id_and_drops_only_the_callers_pins() {
    let cluster = Cluster::launch(ClusterConfig::functional(3, 8 << 20)).unwrap();
    let owner = cluster.store(0);
    let pinned = oid(&cluster.owned_id(0, "edge/release-pinned"));
    let unpinned = oid(&cluster.owned_id(0, "edge/release-unpinned"));
    let absent = oid(&cluster.owned_id(0, "edge/release-absent"));
    let writer = cluster.client(0).unwrap();
    writer.put(pinned, &[3u8; 64], &[]).unwrap();
    writer.put(unpinned, &[4u8; 64], &[]).unwrap();

    let service = owner.interconnect_service();
    let from = |node: usize| CallHeader {
        from: cluster.node_id(node),
    };
    let get = |node: usize, id: ObjectId| {
        let req = GetManyReq { ids: vec![id] };
        service
            .call(method::GET_MANY, from(node).frame(&req.encode()))
            .unwrap();
    };
    let release = |node: usize, ids: &[ObjectId]| {
        let req = IdsReq { ids: ids.to_vec() };
        let answer = service
            .call(method::RELEASE, from(node).frame(&req.encode()))
            .unwrap();
        let (_, body) = ReplyHeader::unframe(answer).unwrap();
        ReleaseResp::decode(body).unwrap().pinned
    };
    let refs = |id: ObjectId| {
        let info = owner.core().list().into_iter().find(|o| o.id == id);
        info.expect("object present").ref_count
    };

    // Node 1 pins once and lists the id twice, beside an unpinned and
    // an absent id: one `true`, then `false` for everything else.
    get(1, pinned);
    assert_eq!((refs(pinned), owner.remote_pin_count()), (1, 1));
    assert_eq!(
        release(1, &[pinned, pinned, unpinned, absent]),
        vec![true, false, false, false]
    );
    assert_eq!((refs(pinned), refs(unpinned)), (0, 0));
    assert_eq!(owner.remote_pin_count(), 0);

    // Node 2's pin is not node 1's to return.
    get(2, pinned);
    assert_eq!(release(1, &[pinned]), vec![false]);
    assert_eq!((refs(pinned), owner.remote_pin_count()), (1, 1));
    assert_eq!(release(2, &[pinned, pinned]), vec![true, false]);
    assert_eq!((refs(pinned), owner.remote_pin_count()), (0, 0));

    assert_quiesced(&cluster);
    writer.delete(pinned).unwrap();
    writer.delete(unpinned).unwrap();
    assert_quiesced(&cluster);
}
