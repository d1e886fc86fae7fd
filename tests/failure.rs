//! Failure injection: fabric link loss and degradation, peer store
//! crashes, hung peers, memory pressure, and protocol misuse must surface
//! as errors (or degraded partial answers), not corruption or hangs.

use disagg::{
    Cluster, ClusterConfig, DisaggConfig, DisaggStore, InterconnectConfig, Peer, PeerState,
    RetryPolicy,
};
use plasma::{ObjectId, ObjectStore, PlasmaError};
use std::time::Duration;
use tfsim::LinkState;

#[test]
fn link_down_fails_remote_reads_and_recovers() {
    let cluster = Cluster::launch(ClusterConfig::functional(2, 4 << 20)).unwrap();
    let producer = cluster.client(0).unwrap();
    let consumer = cluster.client(1).unwrap();
    let id = ObjectId::from_name("flaky");
    producer.put(id, &[9; 4096], &[]).unwrap();

    let buf = consumer.get_one(id, Duration::from_secs(5)).unwrap();
    let a = cluster.node_id(0);
    let b = cluster.node_id(1);

    // Cut the fabric link: the data plane fails...
    cluster.fabric().set_link(a, b, LinkState::Down);
    let err = buf.read_all().unwrap_err();
    assert!(matches!(err, PlasmaError::Fabric(_)), "{err:?}");

    // ...and recovers when the link comes back.
    cluster.fabric().set_link(a, b, LinkState::Up);
    assert!(buf.read_all().unwrap().iter().all(|&x| x == 9));
    consumer.release(id).unwrap();
}

#[test]
fn degraded_link_slows_but_preserves_data() {
    let cluster = Cluster::launch(ClusterConfig::functional(2, 4 << 20)).unwrap();
    let producer = cluster.client(0).unwrap();
    let consumer = cluster.client(1).unwrap();
    // Pin placement to node 0 so the consumer's read crosses the link.
    let id = ObjectId::from_name(&cluster.owned_id(0, "slow-link"));
    producer.put(id, &[3; 1 << 20], &[]).unwrap();
    let buf = consumer.get_one(id, Duration::from_secs(5)).unwrap();

    let (_, nominal) = cluster.clock().time(|| buf.read_all().unwrap());
    cluster.fabric().set_link(
        cluster.node_id(0),
        cluster.node_id(1),
        LinkState::Degraded(8.0),
    );
    let (data, degraded) = cluster.clock().time(|| buf.read_all().unwrap());
    assert!(data.iter().all(|&x| x == 3), "data intact on degraded link");
    assert!(
        degraded > nominal * 4,
        "degradation must show in modeled time: {degraded:?} vs {nominal:?}"
    );
    consumer.release(id).unwrap();
}

#[test]
fn store_oom_is_reported_not_hung() {
    let cluster = Cluster::launch(ClusterConfig::functional(1, 1 << 20)).unwrap();
    let client = cluster.client(0).unwrap();
    // Pin one big object so eviction can't help.
    let big = ObjectId::from_name("pinned-big");
    let builder = client.create(big, 800 << 10, 0).unwrap();
    builder.write(0, &[1; 1024]).unwrap();
    // Unsealed + referenced -> unevictable; the next create must fail fast.
    let err = client
        .create(ObjectId::from_name("too-big"), 800 << 10, 0)
        .unwrap_err();
    match err {
        PlasmaError::OutOfMemory {
            requested,
            capacity,
        } => {
            assert_eq!(requested, 800 << 10);
            assert_eq!(capacity, 1 << 20);
        }
        other => panic!("expected OutOfMemory, got {other:?}"),
    }
}

#[test]
fn object_too_large_for_store_is_oom() {
    let cluster = Cluster::launch(ClusterConfig::functional(1, 1 << 20)).unwrap();
    let client = cluster.client(0).unwrap();
    let err = client
        .create(ObjectId::from_name("galaxy"), 1 << 30, 0)
        .unwrap_err();
    assert!(matches!(err, PlasmaError::OutOfMemory { .. }));
}

#[test]
fn misuse_errors_are_precise() {
    let cluster = Cluster::launch(ClusterConfig::functional(2, 1 << 20)).unwrap();
    let client = cluster.client(0).unwrap();
    // Local placement: misuse errors come from the client's own store.
    let id = ObjectId::from_name(&cluster.owned_id(0, "misuse"));
    client.put(id, b"x", &[]).unwrap();

    // Release without holding a reference.
    assert_eq!(
        client.release(id).unwrap_err(),
        PlasmaError::NotReferenced(id)
    );
    // Delete while a reference is held.
    let _buf = client.get_one(id, Duration::from_secs(1)).unwrap();
    assert_eq!(client.delete(id).unwrap_err(), PlasmaError::ObjectInUse(id));
    client.release(id).unwrap();
    client.delete(id).unwrap();
    // Double delete.
    assert_eq!(
        client.delete(id).unwrap_err(),
        PlasmaError::ObjectNotFound(id)
    );
}

#[test]
fn get_with_zero_timeout_returns_immediately() {
    let cluster = Cluster::launch(ClusterConfig::functional(2, 1 << 20)).unwrap();
    let client = cluster.client(0).unwrap();
    let missing = ObjectId::from_name("zero-timeout");
    let start = std::time::Instant::now();
    let out = client.get(&[missing], Duration::ZERO).unwrap();
    assert!(out[0].is_none());
    assert!(start.elapsed() < Duration::from_secs(1));
}

#[test]
fn empty_batch_get_is_a_noop() {
    let cluster = Cluster::launch(ClusterConfig::functional(2, 1 << 20)).unwrap();
    let client = cluster.client(0).unwrap();
    let out = client.get(&[], Duration::from_secs(1)).unwrap();
    assert!(out.is_empty());
}

// ---------------------------------------------------------------------------
// Peer-store crashes: a dead interconnect degrades reads and queries to
// partial answers, fails creates fast with a typed error, and never leaks
// cross-node reference counts.
// ---------------------------------------------------------------------------

#[test]
fn dead_peer_degrades_reads_and_queries_but_fails_create() {
    let mut cluster = Cluster::launch(ClusterConfig::functional(3, 4 << 20)).unwrap();
    let c0 = cluster.client(0).unwrap();
    let c1 = cluster.client(1).unwrap();
    let c2 = cluster.client(2).unwrap();
    let live = ObjectId::from_name(&cluster.owned_id(1, "on-live-peer"));
    let dead = ObjectId::from_name(&cluster.owned_id(2, "on-dead-peer"));
    c1.put(live, b"still here", &[]).unwrap();
    c2.put(dead, b"unreachable", &[]).unwrap();

    cluster.stop_rpc(2);

    // Objects on live peers resolve: the ring routes the lookup straight
    // to the live owner, so the dead peer is never even consulted.
    let buf = c0.get_one(live, Duration::from_secs(5)).unwrap();
    assert_eq!(buf.read_all().unwrap(), b"still here");
    c0.release(live).unwrap();

    // Objects on the dead peer miss rather than error: the ring-targeted
    // probe fails, the broadcast fallback finds no other copy.
    let out = c0.get(&[dead], Duration::ZERO).unwrap();
    assert!(out[0].is_none());

    // Three straight transport failures marked the peer Down — and only
    // the peer that was actually dialed.
    assert_eq!(
        cluster.store(0).peer_state(cluster.node_id(2)),
        PeerState::Down
    );
    assert_eq!(
        cluster.store(0).peer_state(cluster.node_id(1)),
        PeerState::Up
    );

    // contains / global_list return partial answers, not errors.
    assert!(c0.contains(live).unwrap());
    assert!(!c0.contains(dead).unwrap());
    let inventory = cluster.store(0).global_list().unwrap();
    assert_eq!(inventory.len(), 2, "dead peer omitted from the inventory");

    // create is the one op that cannot degrade (the ring owner is the
    // uniqueness arbiter): typed failure, no residue.
    let fresh = ObjectId::from_name(&cluster.owned_id(2, "fresh"));
    let err = c0.put(fresh, b"x", &[]).unwrap_err();
    match &err {
        // The detail must survive the client wire protocol and name the
        // unreachable peer.
        PlasmaError::PeerUnavailable(m) => assert!(m.contains("store-2"), "{m:?}"),
        other => panic!("expected PeerUnavailable, got {other:?}"),
    }
    assert!(!cluster.store(0).core().exists_any_state(fresh));

    // And it fails *fast*: the Down peer is skipped, not re-dialed.
    let skips_before = cluster.store(0).peer_health_stats(cluster.node_id(2)).skips;
    let err = c0.put(fresh, b"x", &[]).unwrap_err();
    assert!(matches!(err, PlasmaError::PeerUnavailable(_)), "{err:?}");
    assert!(cluster.store(0).peer_health_stats(cluster.node_id(2)).skips > skips_before);
}

#[test]
fn peer_returns_to_rotation_after_restart_and_probe() {
    let mut cluster = Cluster::launch(ClusterConfig::functional(2, 1 << 20)).unwrap();
    let a = cluster.client(0).unwrap();
    let b = cluster.client(1).unwrap();
    let id = ObjectId::from_name("come-back");
    b.put(id, b"back soon", &[]).unwrap();

    cluster.stop_rpc(1);
    assert!(
        !a.contains(id).unwrap(),
        "degraded partial answer while down"
    );
    assert_eq!(
        cluster.store(0).peer_state(cluster.node_id(1)),
        PeerState::Down
    );
    let out = a.get(&[id], Duration::ZERO).unwrap();
    assert!(out[0].is_none());

    cluster.restart_rpc(1).unwrap();
    // The failure detector probes only after its backoff window; advance
    // virtual time past it, then the next call carries the probe, the
    // connector re-dials, and the peer is restored to rotation.
    cluster.clock().charge(Duration::from_secs(1));
    assert!(a.contains(id).unwrap());
    assert_eq!(
        cluster.store(0).peer_state(cluster.node_id(1)),
        PeerState::Up
    );
    assert!(
        cluster
            .store(0)
            .peer_health_stats(cluster.node_id(1))
            .probes
            >= 1
    );

    // Full service is back: cluster-wide create works again.
    a.put(ObjectId::from_name("post-recovery"), b"x", &[])
        .unwrap();
    let buf = a.get_one(id, Duration::from_secs(5)).unwrap();
    assert_eq!(buf.read_all().unwrap(), b"back soon");
    a.release(id).unwrap();
}

#[test]
fn metrics_from_unreachable_peer_degrade_to_partial_snapshot() {
    let mut cluster = Cluster::launch(ClusterConfig::functional(3, 1 << 20)).unwrap();
    let c1 = cluster.client(1).unwrap();
    c1.put(ObjectId::from_name("metrics-live"), b"x", &[])
        .unwrap();

    cluster.stop_rpc(2);

    // Cluster introspection degrades like global_list: the unreachable
    // peer is omitted, the live peers' snapshots still come back.
    let parts = cluster.store(0).cluster_metrics().unwrap();
    assert_eq!(
        parts.len(),
        2,
        "dead peer omitted from the cluster snapshot"
    );
    assert!(parts.iter().any(|(n, _)| *n == cluster.node_id(0)));
    assert!(parts.iter().any(|(n, _)| *n == cluster.node_id(1)));
    assert!(!parts.iter().any(|(n, _)| *n == cluster.node_id(2)));
    // Node 1's answer is a real snapshot, not an empty shell.
    let (_, snap1) = parts
        .iter()
        .find(|(n, _)| *n == cluster.node_id(1))
        .unwrap();
    assert!(snap1
        .histogram("plasma.create.latency_ns")
        .is_some_and(|h| h.count >= 1));
    // The merged view still works over the partial set.
    let merged = cluster.store(0).merged_cluster_metrics().unwrap();
    assert!(merged.histogram("plasma.create.latency_ns").is_some());

    // Directly targeting the dead peer is a typed error, not a hang.
    let err = cluster
        .store(0)
        .peer_metrics(cluster.node_id(2))
        .unwrap_err();
    assert!(matches!(err, PlasmaError::PeerUnavailable(_)), "{err:?}");

    // Restart + probe window: the full cluster snapshot is back, and the
    // very first introspection call doubles as the recovery probe.
    cluster.restart_rpc(2).unwrap();
    cluster.clock().charge(Duration::from_secs(1));
    let parts = cluster.store(0).cluster_metrics().unwrap();
    assert_eq!(parts.len(), 3, "recovered peer rejoins the snapshot");
    assert_eq!(
        cluster.store(0).peer_state(cluster.node_id(2)),
        PeerState::Up
    );
}

#[test]
fn deadline_bounds_calls_to_a_hung_peer() {
    use plasma::{StoreConfig, StoreCore};
    use rpclite::{RpcClient, Status, StatusCode};
    use std::sync::Arc;

    let fabric = tfsim::Fabric::virtual_thymesisflow();
    let node = fabric.register_node();
    let core = StoreCore::new(&fabric, node, StoreConfig::new("impatient", 1 << 20)).unwrap();
    let store = DisaggStore::new(
        core,
        DisaggConfig {
            interconnect: InterconnectConfig {
                call_deadline: Some(Duration::from_millis(50)),
                retry: RetryPolicy::none(),
                ..InterconnectConfig::default()
            },
            ..DisaggConfig::default()
        },
    );

    // A peer that accepts the call and then wedges far past the deadline.
    let hub = ipc::InprocHub::new();
    let listener = hub.bind("hung-peer").unwrap();
    let svc = Arc::new(
        |_m: u32, _b: bytes::Bytes| -> Result<bytes::Bytes, Status> {
            std::thread::sleep(Duration::from_secs(1));
            Err(Status::new(StatusCode::Unavailable, "eventually"))
        },
    );
    let _srv = rpclite::serve(Box::new(listener), svc);
    let hung = tfsim::NodeId(7);
    store.add_peer(Peer {
        node: hung,
        name: "hung".into(),
        client: Arc::new(RpcClient::new(Box::new(hub.connect("hung-peer").unwrap()))),
    });

    let start = std::time::Instant::now();
    let present = store.contains(ObjectId::from_name("anything")).unwrap();
    let elapsed = start.elapsed();
    assert!(!present, "hung peer degrades to a partial answer");
    assert!(
        elapsed < Duration::from_millis(600),
        "call must return near its 50ms deadline, not the handler's 1s: {elapsed:?}"
    );
    assert_eq!(store.peer_health_stats(hung).failures, 1);
}

/// Every call of one exchange is sent before any answer is waited for,
/// and each deadline runs from its own send: two wedged peers cost one
/// deadline between them, and the peer that does answer is not lost.
#[test]
fn two_hung_peers_in_one_exchange_cost_one_deadline() {
    use plasma::{StoreConfig, StoreCore};
    use rpclite::{RpcClient, Status, StatusCode};
    use std::sync::Arc;

    const DEADLINE: Duration = Duration::from_millis(100);
    let fabric = tfsim::Fabric::virtual_thymesisflow();
    let store_on = |name: &str| {
        let core = StoreCore::new(
            &fabric,
            fabric.register_node(),
            StoreConfig::new(name, 1 << 20),
        );
        DisaggStore::new(
            core.unwrap(),
            DisaggConfig {
                interconnect: InterconnectConfig {
                    call_deadline: Some(DEADLINE),
                    retry: RetryPolicy::none(),
                    ..InterconnectConfig::default()
                },
                ..DisaggConfig::default()
            },
        )
    };
    let store = store_on("impatient");
    let healthy = store_on("healthy");
    let id = ObjectId::from_name("on-the-healthy-peer");
    healthy.create(id, 64, 0).unwrap();
    healthy.seal(id).unwrap();
    healthy.release(id).unwrap();

    // Two peers that accept the call and wedge far past the deadline,
    // listed before the one that answers.
    let hub = ipc::InprocHub::new();
    let wedged = Arc::new(
        |_m: u32, _b: bytes::Bytes| -> Result<bytes::Bytes, Status> {
            std::thread::sleep(4 * DEADLINE);
            Err(Status::new(StatusCode::Unavailable, "eventually"))
        },
    );
    let mut servers = Vec::new();
    for (name, node) in [("hung-a", 7), ("hung-b", 8)] {
        servers.push(rpclite::serve(
            Box::new(hub.bind(name).unwrap()),
            wedged.clone(),
        ));
        store.add_peer(Peer {
            node: tfsim::NodeId(node),
            name: name.into(),
            client: Arc::new(RpcClient::new(Box::new(hub.connect(name).unwrap()))),
        });
    }
    servers.push(rpclite::serve(
        Box::new(hub.bind("healthy").unwrap()),
        healthy.interconnect_service(),
    ));
    store.add_peer(Peer {
        node: healthy.node(),
        name: "healthy".into(),
        client: Arc::new(RpcClient::new(Box::new(hub.connect("healthy").unwrap()))),
    });

    let start = std::time::Instant::now();
    let inventory = store.global_list().unwrap();
    let elapsed = start.elapsed();
    let nodes: Vec<_> = inventory.iter().map(|(node, _)| *node).collect();
    assert_eq!(nodes, vec![store.node(), healthy.node()]);
    assert_eq!(inventory[1].1.len(), 1, "the healthy peer's answer is kept");
    assert!(
        elapsed >= DEADLINE && elapsed < DEADLINE * 19 / 10,
        "two hung peers must cost one {DEADLINE:?} deadline, not two: {elapsed:?}"
    );
    for hung in [7, 8] {
        assert_eq!(store.peer_health_stats(tfsim::NodeId(hung)).failures, 1);
    }
}

// ---------------------------------------------------------------------------
// Reference-count regressions: failed cross-node operations must roll
// back every pin they took (remote_pin_count returns to zero).
// ---------------------------------------------------------------------------

#[test]
fn failed_payload_read_releases_its_pin() {
    let cluster = Cluster::launch(ClusterConfig::functional(2, 1 << 20)).unwrap();
    let producer = cluster.client(0).unwrap();
    let id = ObjectId::from_name(&cluster.owned_id(0, "stranded"));
    producer.put(id, &[0xAB; 32 << 10], &[]).unwrap();

    // Data plane down, control plane up: `get_bytes` pins the owner's
    // copy over RPC, then fails reading the bytes over the fabric.
    cluster
        .fabric()
        .set_link(cluster.node_id(0), cluster.node_id(1), LinkState::Down);
    let err = cluster
        .store(1)
        .get_bytes(id, Duration::from_secs(5))
        .unwrap_err();
    assert!(matches!(err, PlasmaError::Fabric(_)), "{err:?}");

    // The guard released the read's pin, on both sides of the ledger.
    assert_eq!(
        cluster.store(0).remote_pin_count(),
        0,
        "pin leaked on failed payload read"
    );
    assert_eq!(cluster.store(1).held_remote_pins(), 0);

    // Nothing still pins the object: the owner can delete it.
    cluster
        .fabric()
        .set_link(cluster.node_id(0), cluster.node_id(1), LinkState::Up);
    producer.delete(id).unwrap();
}

/// A two-step put whose payload write fails — the fabric link to the
/// owner is down, the control plane up — abandons its staged create: the
/// builder is dropped by the early return, and its drop aborts. Left
/// alone the create would stay staged on both nodes' books, with the
/// buffer allocated at the owner, until a reconcile.
#[test]
fn failed_payload_write_aborts_the_staged_create() {
    let cluster = Cluster::launch(ClusterConfig::functional(2, 1 << 20)).unwrap();
    let client = cluster.client(0).unwrap();
    let id = ObjectId::from_name(&cluster.owned_id(1, "write-fails"));
    cluster
        .fabric()
        .set_link(cluster.node_id(0), cluster.node_id(1), LinkState::Down);
    // 100 KiB: above the inline threshold, so create → write → seal.
    let err = client.put(id, &[7; 100 << 10], &[]).unwrap_err();
    assert!(matches!(err, PlasmaError::Fabric(_)), "{err:?}");
    assert_eq!(cluster.store(0).delegations(), vec![], "requester's books");
    assert_eq!(cluster.store(1).delegations(), vec![], "owner's books");
    assert!(
        !cluster.store(1).core().exists_any_state(id),
        "buffer freed"
    );
    assert_eq!(cluster.store(1).core().stats().allocated_bytes, 0);
}

/// A two-step put whose forwarded seal fails abandons its staged create:
/// the builder is consumed either way, so nothing could abort it later,
/// and left alone it would stay staged on both nodes' books for good (a
/// reconcile keeps what both sides still claim).
#[test]
fn failed_forwarded_seal_aborts_the_staged_create() {
    use disagg::proto::method;
    use disagg::Membership;
    use plasma::{PlasmaClient, StoreConfig, StoreCore};
    use rpclite::{RpcClient, Status};
    use std::sync::Arc;

    let fabric = tfsim::Fabric::virtual_thymesisflow();
    let nodes = [fabric.register_node(), fabric.register_node()];
    let store_on = |i: usize, name: &str| {
        let core = StoreCore::new(&fabric, nodes[i], StoreConfig::new(name, 1 << 20)).unwrap();
        let store = DisaggStore::new(core, DisaggConfig::default());
        store.set_membership(Membership::new(1, nodes.to_vec()));
        store
    };
    let requester = store_on(0, "requester");
    let owner = store_on(1, "owner");

    // The owner stages creates as usual but refuses every SEAL_AT with a
    // definite error — what a garbled frame on the connection amounts to.
    let hub = ipc::InprocHub::new();
    let real = owner.interconnect_service();
    let refusing = Arc::new(move |m: u32, b: bytes::Bytes| {
        if m == method::SEAL_AT {
            return Err(Status::internal("seal refused"));
        }
        real.call(m, b)
    });
    let _rpc = rpclite::serve(Box::new(hub.bind("owner").unwrap()), refusing);
    requester.add_peer(Peer {
        node: nodes[1],
        name: "owner".into(),
        client: Arc::new(RpcClient::new(Box::new(hub.connect("owner").unwrap()))),
    });
    let _plasma = plasma::serve_store(
        Box::new(hub.bind("plasma").unwrap()),
        Arc::new(requester.clone()),
    );
    let client = PlasmaClient::new(
        Box::new(hub.connect("plasma").unwrap()),
        fabric.clone(),
        nodes[0],
    );

    let id = (0..)
        .map(|k| ObjectId::from_name(&format!("seal-refused/{k}")))
        .find(|id| requester.ring_owner(*id) == Some(nodes[1]))
        .unwrap();
    let builder = client.create(id, 256, 0).unwrap();
    builder.write(0, &[7; 256]).unwrap();
    builder.seal().unwrap_err();
    assert_eq!(requester.delegations(), vec![], "no staged entry is kept");
    assert_eq!(owner.delegations(), vec![], "the owner's half is aborted");
    assert!(!owner.core().exists_any_state(id), "and its buffer freed");
}

#[test]
fn failed_release_keeps_the_pin_accounted() {
    let mut cluster = Cluster::launch(ClusterConfig::functional(2, 1 << 20)).unwrap();
    let producer = cluster.client(1).unwrap();
    let id = ObjectId::from_name("restore-pin");
    producer.put(id, &[5; 2048], &[]).unwrap();

    let s0 = cluster.store(0).clone();
    let got = s0.get(&[id], Duration::from_secs(1)).unwrap();
    assert!(got[0].is_some());
    assert_eq!(cluster.store(1).remote_pin_count(), 1);

    cluster.stop_rpc(1);
    let err = s0.release(id).unwrap_err();
    assert!(matches!(err, PlasmaError::PeerUnavailable(_)), "{err:?}");
    // The optimistic decrement was rolled back: a second attempt still
    // reaches for the owner. (ObjectNotFound here would mean the pin fell
    // out of the local table while the owner still counts it — the leak.)
    let err = s0.release(id).unwrap_err();
    assert!(matches!(err, PlasmaError::PeerUnavailable(_)), "{err:?}");
    assert_eq!(
        cluster.store(1).remote_pin_count(),
        1,
        "owner still counts the pin"
    );
    assert_eq!(cluster.store(0).disagg_stats().releases_forwarded, 0);

    // Once the owner is back, the held pin releases normally.
    cluster.restart_rpc(1).unwrap();
    cluster.clock().charge(Duration::from_secs(1));
    s0.release(id).unwrap();
    assert_eq!(cluster.store(1).remote_pin_count(), 0);
    assert_eq!(cluster.store(0).disagg_stats().releases_forwarded, 1);
}

#[test]
fn pin_ledger_tracks_owners_separately_across_migration_races() {
    let mut cluster = Cluster::launch(ClusterConfig::functional(3, 1 << 20)).unwrap();
    // Owned by the observer: neither copy matches ring placement, so the
    // lookups below exercise the broadcast-fallback path deterministically.
    let id = ObjectId::from_name(&cluster.owned_id(0, "dual-copy"));
    // Force the dual-copy state a migration race can leave behind: two
    // peers each hold a sealed copy of the same id (created through the
    // core, bypassing the reserve handshake exactly as migration staging
    // does).
    for i in [1, 2] {
        let core = cluster.store(i).core();
        core.create(id, 256, 0).unwrap();
        core.seal(id).unwrap();
        core.release(id).unwrap();
    }
    let s0 = cluster.store(0).clone();

    // First lookup pins whichever copy was absorbed first; the duplicate
    // pin is released straight back, so exactly one pin stands.
    let got = s0.get(&[id], Duration::from_secs(1)).unwrap();
    assert!(got[0].is_some());
    assert_eq!(
        cluster.store(1).remote_pin_count() + cluster.store(2).remote_pin_count(),
        1
    );

    // Peer 1 crashes; the next lookup resolves — and pins — on peer 2.
    cluster.stop_rpc(1);
    let got = s0.get(&[id], Duration::ZERO).unwrap();
    assert!(got[0].is_some());
    assert_eq!(cluster.store(2).remote_pin_count(), 1);

    // Each pin must release to the owner that took it. (A ledger keyed
    // only by id would merge both under peer 1, leaving peer 2's pin —
    // and its copy — unevictable forever.)
    cluster.restart_rpc(1).unwrap();
    for _ in 0..2 {
        cluster.clock().charge(Duration::from_secs(2));
        s0.release(id).unwrap();
    }
    assert_eq!(cluster.store(1).remote_pin_count(), 0, "peer 1 pin stuck");
    assert_eq!(cluster.store(2).remote_pin_count(), 0, "peer 2 pin stuck");
}

#[test]
fn unreachable_duplicate_release_is_parked_then_flushed() {
    use disagg::proto::method;
    use plasma::{StoreConfig, StoreCore};
    use rpclite::{RpcClient, Status, StatusCode};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let fabric = tfsim::Fabric::virtual_thymesisflow();
    let nodes: Vec<_> = (0..3).map(|_| fabric.register_node()).collect();
    let mk = |i: usize, name: &str| {
        let core = StoreCore::new(&fabric, nodes[i], StoreConfig::new(name, 1 << 20)).unwrap();
        DisaggStore::new(core, DisaggConfig::default())
    };
    let s0 = mk(0, "observer");
    let s1 = mk(1, "winner");
    let s2 = mk(2, "loser");

    // Dual-copy state again: both peers hold the id.
    let id = ObjectId::from_name("parked-release");
    for s in [&s1, &s2] {
        s.create(id, 128, 0).unwrap();
        s.seal(id).unwrap();
        s.release(id).unwrap();
    }

    let hub = ipc::InprocHub::new();
    let _srv1 = rpclite::serve(
        Box::new(hub.bind("winner").unwrap()),
        s1.interconnect_service(),
    );
    // Peer 2 answers lookups but drops every RELEASE while `flaky` holds.
    let real = s2.interconnect_service();
    let flaky = Arc::new(AtomicBool::new(true));
    let f = Arc::clone(&flaky);
    let svc2 = Arc::new(move |m: u32, b: bytes::Bytes| {
        if m == method::RELEASE && f.load(Ordering::SeqCst) {
            return Err(Status::new(StatusCode::Unavailable, "flaky"));
        }
        real.call(m, b)
    });
    let _srv2 = rpclite::serve(Box::new(hub.bind("loser").unwrap()), svc2);
    for (i, name) in [(1usize, "winner"), (2, "loser")] {
        s0.add_peer(Peer {
            node: nodes[i],
            name: name.into(),
            client: Arc::new(RpcClient::new(Box::new(hub.connect(name).unwrap()))),
        });
    }

    // The broadcast pins on both peers; the duplicate-pin release to the
    // loser fails and must be parked for retry, not silently dropped.
    let got = s0.get(&[id], Duration::from_secs(1)).unwrap();
    assert!(got[0].is_some());
    assert_eq!(s1.remote_pin_count(), 1);
    assert_eq!(s2.remote_pin_count(), 1, "duplicate pin still on the loser");
    assert_eq!(s0.pending_release_count(), 1);

    // The loser heals; the next successful call to it flushes the parked
    // release and the stranded pin drains.
    flaky.store(false, Ordering::SeqCst);
    fabric.clock().charge(Duration::from_secs(10)); // past the probe window
    assert!(s0.contains(id).unwrap());
    assert_eq!(s2.remote_pin_count(), 0, "parked release flushed");
    assert_eq!(s0.pending_release_count(), 0);
    assert_eq!(s1.remote_pin_count(), 1, "winning pin untouched");
    s0.release(id).unwrap();
    assert_eq!(s1.remote_pin_count(), 0);
}

// ---------------------------------------------------------------------------
// Property: no interleaving of gets, releases, peer crashes, restarts,
// and probe windows ever loses a pin — the owner's remote-pin count
// always equals the references the model says are outstanding, and every
// outstanding pin is releasable once the peer is back.
// ---------------------------------------------------------------------------

mod health_pin_props {
    use super::*;
    use proptest::prelude::*;

    #[derive(Debug, Clone, Copy)]
    enum Op {
        Get,
        Release,
        StopPeer,
        RestartPeer,
        Advance,
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn health_transitions_never_lose_pins(ops in prop::collection::vec(prop_oneof![
            Just(Op::Get),
            Just(Op::Get),
            Just(Op::Release),
            Just(Op::Release),
            Just(Op::StopPeer),
            Just(Op::RestartPeer),
            Just(Op::Advance),
        ], 1..16)) {
            let mut cluster = Cluster::launch(ClusterConfig::functional(2, 1 << 20)).unwrap();
            let producer = cluster.client(1).unwrap();
            let id = ObjectId::from_name("prop/pinned");
            producer.put(id, &[1; 512], &[]).unwrap();
            let store0 = cluster.store(0).clone();
            let mut expected: u64 = 0;
            for op in &ops {
                match op {
                    Op::Get => {
                        // A successful lookup takes a pin; a degraded miss
                        // (peer down) must not.
                        let got = store0.get(&[id], Duration::ZERO).unwrap();
                        if got[0].is_some() {
                            expected += 1;
                        }
                    }
                    Op::Release => {
                        // A forwarded release drops exactly one pin; a
                        // failed one must leave the count untouched.
                        if store0.release(id).is_ok() {
                            expected -= 1;
                        }
                    }
                    Op::StopPeer => cluster.stop_rpc(1),
                    Op::RestartPeer => cluster.restart_rpc(1).unwrap(),
                    Op::Advance => cluster.clock().charge(Duration::from_millis(400)),
                }
                prop_assert_eq!(
                    cluster.store(1).remote_pin_count(),
                    expected,
                    "pin count diverged after {:?} (ops: {:?})",
                    op,
                    ops
                );
            }
            // Drain: with the peer back and probe windows elapsed, every
            // outstanding pin must be releasable — none were lost.
            cluster.restart_rpc(1).unwrap();
            for _ in 0..32 {
                if expected == 0 {
                    break;
                }
                cluster.clock().charge(Duration::from_secs(2));
                if store0.release(id).is_ok() {
                    expected -= 1;
                }
            }
            prop_assert_eq!(expected, 0, "outstanding pins could not be released");
            prop_assert_eq!(cluster.store(1).remote_pin_count(), 0);
        }
    }
}

#[test]
fn zero_byte_objects_are_supported() {
    let cluster = Cluster::launch(ClusterConfig::functional(2, 1 << 20)).unwrap();
    let producer = cluster.client(0).unwrap();
    let consumer = cluster.client(1).unwrap();
    let id = ObjectId::from_name("empty-object");
    producer.put(id, &[], b"only-metadata").unwrap();
    let buf = consumer.get_one(id, Duration::from_secs(5)).unwrap();
    assert!(buf.is_empty());
    assert_eq!(buf.metadata().read_all().unwrap(), b"only-metadata");
    consumer.release(id).unwrap();
}
