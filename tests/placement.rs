//! Rendezvous-placement acceptance: creates land on their computed
//! owner, a stable remote get is exactly
//! **one** point-to-point RPC, membership epochs gossip on interconnect
//! traffic, and off-ring objects stay reachable through the broadcast
//! fallback.

use disagg::{Cluster, ClusterConfig, Membership, RetryPolicy};
use plasma::{ObjectId, ObjectStore};
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

/// The RPC bill of a client `put`, read off the requester's per-verb
/// `rpc.client.*` histograms: an id the requester owns costs no RPC at
/// all, and an id a peer owns costs exactly one `CREATE_AT` and one
/// `SEAL_AT` — the seal drops the creator's reference at the owner, so
/// no `RELEASE` follows it.
#[test]
fn forwarded_put_costs_one_create_at_and_one_seal_at_and_a_local_put_nothing() {
    let cluster = Cluster::launch(ClusterConfig::functional(2, 4 << 20)).unwrap();
    let client = cluster.client(0).unwrap();
    // Every interconnect verb node 0 has called so far, with its count
    // (one `<peer>.<verb>.latency_ns` sample per call).
    let bill = || -> Vec<(String, u64)> {
        let snap = cluster.store(0).metrics_snapshot();
        snap.histograms_with_prefix("rpc.client.")
            .filter(|(name, h)| name.ends_with(".latency_ns") && h.count > 0)
            .map(|(name, h)| (name.to_string(), h.count))
            .collect()
    };

    let own = ObjectId::from_name(&cluster.owned_id(0, "bill/own"));
    client.put(own, &[1; 1024], &[]).unwrap();
    assert_eq!(bill(), vec![], "a self-owned put stays on its node");

    let forwarded = ObjectId::from_name(&cluster.owned_id(1, "bill/forwarded"));
    client.put(forwarded, &[2; 1024], &[]).unwrap();
    assert_eq!(
        bill(),
        vec![
            ("rpc.client.store-1.create_at.latency_ns".to_string(), 1),
            ("rpc.client.store-1.seal_at.latency_ns".to_string(), 1),
        ]
    );
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
