//! Rendezvous-placement acceptance: creates land on their computed
//! owner, a stable remote get is exactly
//! **one** point-to-point RPC, membership epochs gossip on interconnect
//! traffic, and off-ring objects stay reachable through the broadcast
//! fallback.

use disagg::proto::{method, CallHeader, CreateAtReq, CreateAtResp, CreateAtStatus, ReplyHeader};
use disagg::{Cluster, ClusterConfig, Membership, RetryPolicy};
use plasma::{ObjectId, ObjectStore, PlasmaError, INLINE_PUT_MAX};
use std::time::Duration;

/// The tentpole claim: creates route deterministically to the rendezvous
/// owner.
#[test]
fn creates_land_on_their_owner() {
    let cluster = Cluster::launch(ClusterConfig::functional(3, 4 << 20)).unwrap();
    for node in 0..3 {
        let client = cluster.client(node).unwrap();
        for i in 0..8 {
            let id = ObjectId::from_name(&format!("spread/{node}/{i}"));
            client.put(id, &[node as u8 + 1; 256], &[]).unwrap();
        }
    }
    for node in 0..3 {
        let store = cluster.store(node);
        // Every object this store holds is one the ring assigns to it.
        let node_id = cluster.node_id(node);
        for info in store.core().list() {
            assert_eq!(
                store.ring_owner(info.id),
                Some(node_id),
                "node {node} holds {:?} off-ring",
                info.id
            );
        }
    }
}

/// Under stable membership, a remote get is one targeted `GET_MANY` to
/// the computed owner — a ring hit, never a broadcast.
#[test]
fn stable_remote_get_is_exactly_one_point_to_point_rpc() {
    let cluster = Cluster::launch(ClusterConfig::functional(2, 4 << 20)).unwrap();
    let producer = cluster.client(0).unwrap();
    let id = ObjectId::from_name(&cluster.owned_id(0, "one-rpc"));
    producer.put(id, &[7; 2048], &[]).unwrap();

    let s1 = cluster.store(1).clone();
    let got = s1.get(&[id], Duration::from_secs(1)).unwrap();
    assert!(got[0].is_some());
    let stats = s1.disagg_stats();
    assert_eq!(stats.lookup_rpcs, 1, "one targeted GET_MANY, no broadcast");
    assert_eq!(stats.ring_hits, 1);
    assert_eq!(stats.ring_fallbacks, 0);
    let snap = s1.metrics_snapshot();
    assert_eq!(
        snap.histogram("rpc.client.store-0.get_many.latency_ns")
            .map_or(0, |h| h.count),
        1
    );
    s1.release(id).unwrap();
}

/// Cluster-scale regression: on a 16-node tiered fabric under stable
/// membership, every remote get is exactly one targeted RPC — ring
/// fallbacks stay at zero and the lookup bill equals the get count, no
/// matter which tier the client/owner pair spans.
#[test]
fn sixteen_node_fabric_resolves_every_get_in_one_rpc() {
    let spec = topo::ClusterSpec {
        pods: 2,
        racks_per_pod: 2,
        hosts_per_rack: 4,
        ..topo::ClusterSpec::small_fabric(0x16A)
    };
    let mut config = ClusterConfig::functional(spec.nodes(), 4 << 20);
    config.seed = spec.seed;
    config.link_map = Some(spec.link_map());
    let cluster = Cluster::launch(config).unwrap();
    assert_eq!(cluster.len(), 16);

    // One object pinned to every node, via the same owned_id probing the
    // 2-node tests use.
    let ids: Vec<_> = (0..16)
        .map(|home| {
            let id = ObjectId::from_name(&cluster.owned_id(home, &format!("fab/{home}")));
            cluster
                .client(home)
                .unwrap()
                .put(id, &[home as u8; 128], &[])
                .unwrap();
            id
        })
        .collect();

    // Every node gets one object from every tier: its rack-mate, a
    // cross-rack node, and a cross-pod node (and itself, locally).
    let mut remote_gets_by_node = [0u64; 16];
    for (client, remote_gets) in remote_gets_by_node.iter_mut().enumerate() {
        for home in [
            client,
            spec.rack_members(client).find(|&j| j != client).unwrap(),
            spec.pod_members(spec.coord(client).pod)
                .find(|&j| spec.tier(client, j) == topo::Tier::CrossRack)
                .unwrap(),
            spec.farthest_from(client),
        ] {
            let store = cluster.store(client);
            let got = store.get(&[ids[home]], Duration::from_secs(5)).unwrap();
            assert!(
                got[0].is_some(),
                "client {client} missed node {home}'s object"
            );
            store.release(ids[home]).unwrap();
            if home != client {
                *remote_gets += 1;
            }
        }
    }

    for (node, remote_gets) in remote_gets_by_node.iter().enumerate() {
        let stats = cluster.store(node).disagg_stats();
        assert_eq!(
            stats.ring_fallbacks, 0,
            "node {node} fell back to broadcast"
        );
        assert_eq!(
            stats.lookup_rpcs, *remote_gets,
            "node {node}: each remote get must cost exactly one RPC"
        );
        assert_eq!(stats.ring_hits, *remote_gets);
    }
}

/// A singleton cluster short-circuits create entirely: the local
/// existence check *is* the uniqueness check, and no RPC of any kind is
/// issued.
#[test]
fn singleton_cluster_creates_without_any_rpc() {
    let cluster = Cluster::launch(ClusterConfig::functional(1, 1 << 20)).unwrap();
    let client = cluster.client(0).unwrap();
    for i in 0..5 {
        let id = ObjectId::from_name(&format!("solo/{i}"));
        client.put(id, b"alone", &[]).unwrap();
    }
    assert_eq!(cluster.store(0).disagg_stats().lookup_rpcs, 0);
}

/// Every interconnect verb node `node` has called so far, with its count
/// (one `<peer>.<verb>.latency_ns` sample per call).
fn rpc_bill(cluster: &Cluster, node: usize) -> Vec<(String, u64)> {
    let snap = cluster.store(node).metrics_snapshot();
    snap.histograms_with_prefix("rpc.client.")
        .filter(|(name, h)| name.ends_with(".latency_ns") && h.count > 0)
        .map(|(name, h)| (name.to_string(), h.count))
        .collect()
}

/// The RPC bill of the two-step put — create, write through the fabric,
/// seal — which every object above `INLINE_PUT_MAX` takes: an id the
/// requester owns costs no RPC at all, and an id a peer owns costs
/// exactly one `CREATE_AT` and one `SEAL_AT` — the seal drops the
/// creator's reference at the owner, so no `RELEASE` follows it.
#[test]
fn forwarded_put_costs_one_create_at_and_one_seal_at_and_a_local_put_nothing() {
    let cluster = Cluster::launch(ClusterConfig::functional(2, 4 << 20)).unwrap();
    let client = cluster.client(0).unwrap();
    let two_step = |id: ObjectId, data: &[u8]| {
        let builder = client.create(id, data.len() as u64, 0).unwrap();
        builder.write(0, data).unwrap();
        builder.seal().unwrap();
    };

    let own = ObjectId::from_name(&cluster.owned_id(0, "bill/own"));
    two_step(own, &[1; 1024]);
    assert_eq!(
        rpc_bill(&cluster, 0),
        vec![],
        "a self-owned put stays on its node"
    );

    let forwarded = ObjectId::from_name(&cluster.owned_id(1, "bill/forwarded"));
    two_step(forwarded, &[2; 1024]);
    let create_and_seal = vec![
        ("rpc.client.store-1.create_at.latency_ns".to_string(), 1),
        ("rpc.client.store-1.seal_at.latency_ns".to_string(), 1),
    ];
    assert_eq!(rpc_bill(&cluster, 0), create_and_seal);

    // A `put` one byte past the threshold is that same path.
    let cluster = Cluster::launch(ClusterConfig::functional(2, 4 << 20)).unwrap();
    let client = cluster.client(0).unwrap();
    let big = ObjectId::from_name(&cluster.owned_id(1, "bill/past-the-threshold"));
    client.put(big, &vec![3; INLINE_PUT_MAX + 1], &[]).unwrap();
    assert_eq!(rpc_bill(&cluster, 0), create_and_seal);
}

/// The RPC bill of a small `put` — one that carries its bytes: an id the
/// requester owns costs no RPC, an id a peer owns exactly one `CREATE_AT`
/// and nothing else, up to and including `INLINE_PUT_MAX` bytes. Nothing
/// is staged or pinned on either node afterwards, and the object reads
/// back whole from both.
#[test]
fn small_forwarded_put_costs_one_create_at_and_leaves_no_ledger_entry() {
    let cluster = Cluster::launch(ClusterConfig::functional(2, 4 << 20)).unwrap();
    let client = cluster.client(0).unwrap();

    let own = ObjectId::from_name(&cluster.owned_id(0, "inline/own"));
    client.put(own, &[1; 1024], b"md").unwrap();
    assert_eq!(
        rpc_bill(&cluster, 0),
        vec![],
        "a self-owned put stays on its node"
    );

    let small = ObjectId::from_name(&cluster.owned_id(1, "inline/small"));
    let largest = ObjectId::from_name(&cluster.owned_id(1, "inline/largest"));
    client.put(small, &[2; 1024], b"md").unwrap();
    let one_create_at = |n| vec![("rpc.client.store-1.create_at.latency_ns".to_string(), n)];
    assert_eq!(rpc_bill(&cluster, 0), one_create_at(1));
    let data = vec![3; INLINE_PUT_MAX - 2];
    client.put(largest, &data, b"md").unwrap();
    assert_eq!(rpc_bill(&cluster, 0), one_create_at(2));

    for node in 0..2 {
        let store = cluster.store(node);
        assert_eq!(store.delegations(), vec![], "node {node}");
        assert_eq!(store.remote_pin_count(), 0, "node {node}");
    }
    let at_owner = cluster.store(1).core().list();
    assert_eq!(at_owner.len(), 2);
    for info in at_owner {
        assert_eq!(info.state, plasma::ObjectState::Sealed);
        assert_eq!(info.ref_count, 0, "the creator's reference is consumed");
    }
    for node in 0..2 {
        let reader = cluster.client(node).unwrap();
        let buf = reader.get_one(largest, Duration::from_secs(1)).unwrap();
        assert_eq!(buf.read_all().unwrap(), data, "node {node}");
        assert_eq!(buf.metadata().read_all().unwrap(), b"md");
        reader.release(largest).unwrap();
    }
}

/// Uniqueness stays where it was — checked at the owner, at create time:
/// once an id is put, a `put` of other bytes and a `create` are both
/// `ObjectExists`, from the owner's node and from a peer's.
#[test]
fn put_and_create_of_an_inline_put_id_are_object_exists_from_every_node() {
    let cluster = Cluster::launch(ClusterConfig::functional(3, 4 << 20)).unwrap();
    let id = ObjectId::from_name(&cluster.owned_id(1, "inline/taken"));
    cluster.client(0).unwrap().put(id, &[1; 512], &[]).unwrap();
    for node in 0..3 {
        let client = cluster.client(node).unwrap();
        let put = client.put(id, &[2; 512], &[]).unwrap_err();
        assert_eq!(put, PlasmaError::ObjectExists(id), "put from node {node}");
        let create = client.create(id, 512, 0).unwrap_err();
        assert_eq!(
            create,
            PlasmaError::ObjectExists(id),
            "create from node {node}"
        );
    }
    let got = cluster.store(2).get_bytes(id, Duration::from_secs(1));
    assert_eq!(got.unwrap().unwrap(), vec![1; 512], "the first put stands");
}

/// A `CREATE_AT` response lost on the wire is retried by `scatter`, and
/// the owner — which kept no entry for the first attempt — recognises
/// the retry by its content: the put succeeds, the object exists once.
#[test]
fn inline_put_survives_a_lost_create_at_response() {
    use ipc::fault::{Direction, FaultAction, FaultPolicy};
    use std::sync::atomic::{AtomicBool, Ordering};

    /// Drops the first frame node 0 receives from node 1.
    struct DropFirstAnswer(AtomicBool);
    impl FaultPolicy for DropFirstAnswer {
        fn on_frame(&self, link: &str, dir: Direction, _: &ipc::Frame) -> FaultAction {
            let answer = link == "0->1" && dir == Direction::Inbound;
            if answer && !self.0.swap(true, Ordering::SeqCst) {
                return FaultAction::Drop;
            }
            FaultAction::Deliver
        }
    }

    let mut config = ClusterConfig::functional(2, 4 << 20);
    config.fault_policy = Some(std::sync::Arc::new(DropFirstAnswer(AtomicBool::new(false))));
    config.interconnect.call_deadline = Some(Duration::from_millis(200));
    let cluster = Cluster::launch(config).unwrap();
    let id = ObjectId::from_name(&cluster.owned_id(1, "inline/lost-answer"));
    cluster.client(0).unwrap().put(id, &[9; 2048], &[]).unwrap();

    let snap = cluster.store(0).metrics_snapshot();
    assert_eq!(snap.counter("disagg.peer.retries"), 1);
    let owner = cluster.store(1);
    assert_eq!(owner.core().list().len(), 1, "created once");
    assert_eq!(owner.core().stats().creates, 1, "the retry created nothing");
    assert_eq!(owner.delegations(), vec![]);
    assert_eq!(cluster.store(0).delegations(), vec![]);
    let got = cluster.store(0).get_bytes(id, Duration::from_secs(1));
    assert_eq!(got.unwrap().unwrap(), vec![9; 2048]);
}

/// The owner's half of a payload-carrying `CREATE_AT`, called by hand:
/// the same bytes for a sealed id are the caller's own retry (`Ok`, the
/// same location), other bytes or other sizes a duplicate (`Exists`), an
/// id somebody staged a duplicate, and a payload that is not exactly
/// data + metadata is refused before anything else is looked at.
#[test]
fn payload_carrying_create_at_is_idempotent_by_content_and_nothing_else() {
    let cluster = Cluster::launch(ClusterConfig::functional(2, 4 << 20)).unwrap();
    let owner = cluster.store(1).interconnect_service();
    let header = CallHeader {
        from: cluster.node_id(0),
        epoch: cluster.store(0).ring_epoch(),
    };
    let create_at = |id: ObjectId, data_size: u64, metadata_size: u64, payload: &[u8]| {
        let req = CreateAtReq {
            id,
            data_size,
            metadata_size,
            payload: Some(payload.to_vec().into()),
        };
        let reply = owner.call(method::CREATE_AT, header.frame(&req.encode()))?;
        let (_, body) = ReplyHeader::split(reply).unwrap();
        Ok::<_, rpclite::Status>(CreateAtResp::decode(body).unwrap())
    };

    let id = ObjectId::from_name(&cluster.owned_id(1, "inline/by-hand"));
    let first = create_at(id, 5, 2, b"hellomd").unwrap();
    assert_eq!(first.status, CreateAtStatus::Ok);
    assert_eq!(cluster.store(1).core().peek(id), first.location);
    // Its own retry.
    assert_eq!(create_at(id, 5, 2, b"hellomd").unwrap(), first);
    // Other bytes; the same bytes split differently.
    let exists = CreateAtResp {
        status: CreateAtStatus::Exists,
        location: None,
    };
    assert_eq!(create_at(id, 5, 2, b"HELLOmd").unwrap(), exists);
    assert_eq!(create_at(id, 4, 3, b"hellomd").unwrap(), exists);
    assert_eq!(create_at(id, 5, 0, b"hello").unwrap(), exists);
    assert_eq!(cluster.store(1).core().stats().creates, 1);

    // An id somebody is still writing.
    let staged = ObjectId::from_name(&cluster.owned_id(1, "inline/staged"));
    let writer = cluster.client(0).unwrap();
    let builder = writer.create(staged, 7, 0).unwrap();
    assert_eq!(create_at(staged, 7, 0, b"hellomd").unwrap(), exists);
    builder.abort().unwrap();

    // A payload that is not data then metadata, no more and no less.
    let fresh = ObjectId::from_name(&cluster.owned_id(1, "inline/bad-length"));
    for (data_size, metadata_size) in [(5, 1), (5, 3), (u64::MAX, 8)] {
        let refused = create_at(fresh, data_size, metadata_size, b"hellomd").unwrap_err();
        assert_eq!(refused.code, rpclite::StatusCode::InvalidArgument);
    }
    assert!(!cluster.store(1).core().exists_any_state(fresh));
    // Not this node's id: the caller's table is stale.
    let elsewhere = ObjectId::from_name(&cluster.owned_id(0, "inline/elsewhere"));
    let wrong = create_at(elsewhere, 5, 2, b"hellomd").unwrap();
    assert_eq!(wrong.status, CreateAtStatus::WrongOwner);
    assert!(!cluster.store(1).core().exists_any_state(elsewhere));
}

/// A put routed by a stale table is answered `WrongOwner`; the reply's
/// header carried the newer epoch, so the requester has the table by
/// then and the payload goes out again, once, to the right owner.
#[test]
fn wrong_owner_re_routes_a_payload_carrying_create() {
    let cluster = Cluster::launch(ClusterConfig::functional(3, 4 << 20)).unwrap();
    // Epoch 2 drains node 2, installed on nodes 1 and 2 only; node 0
    // still routes by epoch 1.
    let survivors = vec![cluster.node_id(0), cluster.node_id(1)];
    for node in [1, 2] {
        let shrunk = Membership::new(2, survivors.clone());
        assert!(cluster.store(node).set_membership(shrunk));
    }
    // An id epoch 1 gives to node 2 and epoch 2 to node 1.
    let id = (0..)
        .map(|k| ObjectId::from_name(&cluster.owned_id(2, &format!("inline/moved/{k}"))))
        .find(|id| cluster.store(1).ring_owner(*id) == Some(cluster.node_id(1)))
        .unwrap();
    cluster.client(0).unwrap().put(id, &[5; 4096], &[]).unwrap();

    assert_eq!(
        cluster.store(0).ring_epoch(),
        2,
        "the reply carried the epoch"
    );
    assert!(
        cluster.store(1).core().contains(id),
        "landed on the new owner"
    );
    assert!(!cluster.store(2).core().exists_any_state(id));
    let bill = rpc_bill(&cluster, 0);
    let calls = |name: &str| bill.iter().find(|(n, _)| n == name).map_or(0, |(_, c)| *c);
    assert_eq!(calls("rpc.client.store-2.create_at.latency_ns"), 1);
    assert_eq!(calls("rpc.client.store-1.create_at.latency_ns"), 1);
    for node in 0..3 {
        assert_eq!(cluster.store(node).delegations(), vec![], "node {node}");
    }
}

/// `contains` of an id nobody holds asks each peer once: the ring owner's
/// point-to-point "no" is not repeated by the fallback fan-out. An owner
/// that could *not* answer stays in the fan-out, which still finds an
/// off-ring copy elsewhere.
#[test]
fn contains_fallback_asks_an_answered_owner_once_and_a_silent_one_again() {
    let mut config = ClusterConfig::functional(3, 4 << 20);
    config.interconnect.retry = RetryPolicy::none();
    let mut cluster = Cluster::launch(config).unwrap();
    let s0 = cluster.store(0).clone();
    let contains_calls = |peer: usize| {
        let name = format!("rpc.client.store-{peer}.contains.latency_ns");
        s0.metrics_snapshot()
            .histogram(&name)
            .map_or(0, |h| h.count)
    };

    let absent = ObjectId::from_name(&cluster.owned_id(1, "contains/absent"));
    assert!(!s0.contains(absent).unwrap());
    assert_eq!(contains_calls(1), 1, "the owner is asked exactly once");
    assert_eq!(contains_calls(2), 1, "the fan-out covers the other peer");
    assert_eq!(s0.disagg_stats().ring_fallbacks, 1);

    // An id the ring assigns to node 1 but that lives on node 2 (what an
    // epoch change leaves behind), with node 1's interconnect down.
    let stray = ObjectId::from_name(&cluster.owned_id(1, "contains/stray"));
    let core2 = cluster.store(2).core();
    core2.create(stray, 64, 0).unwrap();
    core2.seal(stray).unwrap();
    core2.release(stray).unwrap();
    cluster.stop_rpc(1);
    assert!(
        s0.contains(stray).unwrap(),
        "fan-out finds the off-ring copy"
    );
    assert_eq!(
        s0.peer_health_stats(cluster.node_id(1)).failures,
        2,
        "the silent owner is probed point-to-point and again by the fan-out"
    );
}

/// The twin of the `contains` test above for `get`: a miss asks each peer
/// once — the broadcast sends a ring owner only the ids it has not just
/// answered for. An owner that could *not* answer stays in the
/// broadcast, which still finds an off-ring copy elsewhere.
#[test]
fn get_fallback_asks_an_answered_owner_once_and_a_silent_one_again() {
    let mut config = ClusterConfig::functional(3, 4 << 20);
    config.interconnect.retry = RetryPolicy::none();
    let mut cluster = Cluster::launch(config).unwrap();
    let s0 = cluster.store(0).clone();
    let get_many_calls = |peer: usize| {
        let name = format!("rpc.client.store-{peer}.get_many.latency_ns");
        s0.metrics_snapshot()
            .histogram(&name)
            .map_or(0, |h| h.count)
    };

    let absent = ObjectId::from_name(&cluster.owned_id(1, "get/absent"));
    let got = s0.get(&[absent], Duration::ZERO).unwrap();
    assert!(got[0].is_none());
    assert_eq!(get_many_calls(1), 1, "the owner is asked exactly once");
    assert_eq!(get_many_calls(2), 1, "the broadcast covers the other peer");
    assert_eq!(s0.disagg_stats().lookup_rpcs, 2);
    assert_eq!(s0.disagg_stats().ring_fallbacks, 1);

    // An id the ring assigns to node 1 but that lives on node 2 (what an
    // epoch change leaves behind), with node 1's interconnect down.
    let stray = ObjectId::from_name(&cluster.owned_id(1, "get/stray"));
    let core2 = cluster.store(2).core();
    core2.create(stray, 64, 0).unwrap();
    core2.seal(stray).unwrap();
    core2.release(stray).unwrap();
    cluster.stop_rpc(1);
    let got = s0.get(&[stray], Duration::ZERO).unwrap();
    assert!(got[0].is_some(), "the broadcast finds the off-ring copy");
    assert_eq!(
        s0.peer_health_stats(cluster.node_id(1)).failures,
        2,
        "the silent owner is asked point-to-point and again by the broadcast"
    );
    s0.release(stray).unwrap();
}

/// A membership bump gossips epoch-first: peers that see a newer epoch on
/// any interconnect call pull the full table. Objects stranded off-ring
/// by the change stay reachable via the broadcast fallback.
#[test]
fn epoch_bump_gossips_and_off_ring_objects_stay_reachable() {
    let cluster = Cluster::launch(ClusterConfig::functional(3, 4 << 20)).unwrap();
    let producer = cluster.client(2).unwrap();
    let id = ObjectId::from_name(&cluster.owned_id(2, "survivor"));
    producer.put(id, &[9; 1024], &[]).unwrap();

    // Drain node 2 from the ring (epoch 2), installed on node 0 only:
    // the other nodes must learn it through gossip, not configuration.
    let shrunk = Membership::new(2, vec![cluster.node_id(0), cluster.node_id(1)]);
    assert!(cluster.store(0).set_membership(shrunk.clone()));
    assert_eq!(cluster.store(0).ring_epoch(), 2);

    // Node 0's get routes by the new ring, misses (the copy is off-ring
    // on node 2), and the fallback broadcast finds it anyway.
    let s0 = cluster.store(0).clone();
    let got = s0.get(&[id], Duration::from_secs(1)).unwrap();
    assert!(got[0].is_some(), "off-ring object must stay reachable");
    assert!(s0.disagg_stats().ring_fallbacks >= 1);
    s0.release(id).unwrap();

    // The broadcast carried epoch 2 to both peers; each pulled the table.
    assert_eq!(cluster.store(1).ring_epoch(), 2, "node 1 adopted the epoch");
    assert_eq!(cluster.store(2).ring_epoch(), 2, "node 2 adopted the epoch");
    assert_eq!(cluster.store(1).membership(), Some(shrunk));

    // And the object is still visible cluster-wide after convergence.
    assert!(cluster.client(1).unwrap().contains(id).unwrap());
}

/// The epoch rides the header of *every* interconnect call, not the
/// body of a few: a bare `release`, `contains` and `delete` each carry a
/// newer epoch to a peer that then pulls the table, and a reply carries
/// one back to its caller.
#[test]
fn release_contains_and_delete_each_carry_the_epoch() {
    let cluster = Cluster::launch(ClusterConfig::functional(2, 4 << 20)).unwrap();
    let (s0, s1) = (cluster.store(0).clone(), cluster.store(1).clone());
    let members = vec![cluster.node_id(0), cluster.node_id(1)];
    let id = ObjectId::from_name(&cluster.owned_id(1, "epoch/carried"));
    cluster.client(1).unwrap().put(id, &[3; 256], &[]).unwrap();
    let got = s0.get(&[id], Duration::from_secs(1)).unwrap();
    assert!(got[0].is_some());

    // Each bump is installed on node 0 only; the one call that follows
    // is node 1's only way to hear of it.
    let bump = |epoch: u64| {
        assert!(s0.set_membership(Membership::new(epoch, members.clone())));
        assert_eq!(s1.ring_epoch(), epoch - 1, "not yet gossiped");
    };
    bump(2);
    s0.release(id).unwrap();
    assert_eq!(s1.ring_epoch(), 2, "RELEASE carried the epoch");
    bump(3);
    assert!(s0.contains(id).unwrap());
    assert_eq!(s1.ring_epoch(), 3, "CONTAINS carried the epoch");
    bump(4);
    s0.delete(id).unwrap();
    assert_eq!(s1.ring_epoch(), 4, "DELETE carried the epoch");
    assert!(!s1.contains(id).unwrap());

    // The other direction: node 1 is ahead, and its *reply* says so.
    assert!(s1.set_membership(Membership::new(5, members.clone())));
    assert!(!s0.contains(id).unwrap());
    assert_eq!(s0.ring_epoch(), 5, "the reply carried the epoch back");
    assert_eq!(s0.membership(), Some(Membership::new(5, members)));
}

/// Epoch-transition regression: an object created under epoch 1 stays
/// reachable across a membership bump that reassigns its ring owner,
/// through the broadcast fallback (nothing re-homes it yet — ROADMAP
/// item 4). A further bump restoring the original member set keeps it
/// reachable again.
#[test]
fn objects_survive_epoch_bumps_via_fallback() {
    let cluster = Cluster::launch(ClusterConfig::functional(3, 4 << 20)).unwrap();
    let id = ObjectId::from_name(&cluster.owned_id(2, "epoch/survivor"));
    cluster.client(2).unwrap().put(id, &[4; 1024], &[]).unwrap();

    // Epoch 2 drains node 2; the id's new ring owner is node 0 or 1.
    let survivors = vec![cluster.node_id(0), cluster.node_id(1)];
    assert!(cluster
        .store(0)
        .set_membership(Membership::new(2, survivors.clone())));
    let new_owner = cluster.store(0).ring_owner(id).unwrap();
    let owner_idx = (0..2).find(|&i| cluster.node_id(i) == new_owner).unwrap();
    let reader_idx = 1 - owner_idx;

    // Fallback phase: the new owner doesn't hold the object yet, so a
    // get routed by the epoch-2 ring must fall back to the broadcast —
    // and still find the copy stranded on node 2.
    let reader = cluster.store(reader_idx).clone();
    let before = reader.disagg_stats();
    let got = reader.get(&[id], Duration::from_secs(1)).unwrap();
    assert!(got[0].is_some(), "epoch bump must not strand the object");
    assert!(
        reader.disagg_stats().ring_fallbacks > before.ring_fallbacks,
        "a read of the stranded object must use the fallback"
    );
    reader.release(id).unwrap();

    // Epoch 3 restores the full member set; ownership may move again,
    // and the object stays reachable from every node regardless.
    let full = (0..3).map(|i| cluster.node_id(i)).collect();
    assert!(cluster.store(1).set_membership(Membership::new(3, full)));
    let s2 = cluster.store(2).clone();
    let got = s2.get(&[id], Duration::from_secs(1)).unwrap();
    assert!(
        got[0].is_some(),
        "re-adding a node must not strand the object"
    );
    s2.release(id).unwrap();
    for node in 0..3 {
        assert!(cluster.store(node).contains(id).unwrap(), "node {node}");
    }
}
