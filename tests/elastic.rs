//! Elastic capacity tier acceptance: pressure-driven spill keeps spilled
//! objects readable from every node through one-hop `Moved` redirects
//! and picks its lender by the ring, not by asking peers,
//! admission control surfaces typed `Overloaded` rejections locally and
//! through the forwarded-create path, deletes of lent objects retire
//! both ledgers, and borrow reconciliation heals an owner that
//! re-acquired a local copy.

use disagg::elastic::{HIGH_WATERMARK_PPM, HOT_AFTER_HITS, LOW_WATERMARK_PPM, RETRY_AFTER_MS};
use disagg::{Cluster, ClusterConfig, DisaggStore, Kind, NodeId, ReconcileReport, Ring, Side};
use plasma::{ObjectId, ObjectStore, PlasmaError};
use std::time::Duration;

const GET_TIMEOUT: Duration = Duration::from_secs(1);

/// The `(id, peer)` pairs one side of a store's ledger holds of `kind`.
fn entries(store: &DisaggStore, side: Side, kind: Kind) -> Vec<(ObjectId, NodeId)> {
    let all = store.delegations().into_iter();
    all.filter(|r| r.side == side && r.kind == kind)
        .map(|r| (r.id, r.peer))
        .collect()
}

/// How many leases a store has out, and how many it holds.
fn lease_counts(store: &DisaggStore) -> (usize, usize) {
    let count = |side| entries(store, side, Kind::Lease).len();
    (count(Side::Out), count(Side::Held))
}

/// Spill one object from its ring owner to a lender, then read it back
/// from every vantage point: a third party (owner redirect), the holder
/// itself (redirect pointing home), and the owner (chasing its own
/// ledger). The bytes survive verbatim and both ledgers agree.
#[test]
fn spilled_object_reads_from_every_node() {
    let cluster = Cluster::launch(ClusterConfig::functional(3, 4 << 20)).unwrap();
    let id = ObjectId::from_name(&cluster.owned_id(0, "spill/rt"));
    let payload = vec![0xAB; 2048];
    cluster.client(0).unwrap().put(id, &payload, &[]).unwrap();

    let owner = cluster.store(0);
    let holder_node = cluster.node_id(1);
    assert!(owner.spill_to(id, holder_node).unwrap(), "lender refused");

    // Ledgers: the owner lent exactly this id to node 1, node 1 borrowed
    // it back from node 0, and the gauges mirror both sides.
    assert_eq!(
        entries(owner, Side::Out, Kind::Lease),
        vec![(id, holder_node)]
    );
    assert_eq!(
        entries(cluster.store(1), Side::Held, Kind::Lease),
        vec![(id, cluster.node_id(0))]
    );
    let owner_snap = owner.metrics_snapshot();
    assert_eq!(owner_snap.gauge("disagg.elastic.lent_objects"), 1);
    assert!(owner_snap.gauge("plasma.spilled_bytes") >= 2048);
    assert_eq!(
        cluster
            .store(1)
            .metrics_snapshot()
            .gauge("disagg.elastic.borrowed_objects"),
        1
    );
    // The owner's local copy is gone — the delegation freed real memory.
    assert!(owner.core().get_local(id).is_none());

    // Third party: ring-targeted GET_MANY to the owner answers `Moved`,
    // and the follow-up to the holder serves the bytes.
    let third = cluster.client(2).unwrap();
    let buf = third.get_one(id, GET_TIMEOUT).unwrap();
    assert_eq!(buf.read_all().unwrap(), payload);
    third.release(id).unwrap();
    assert_eq!(
        owner_snap.counter("disagg.elastic.redirects_served") + 1,
        owner
            .metrics_snapshot()
            .counter("disagg.elastic.redirects_served")
    );
    assert!(
        cluster
            .store(2)
            .metrics_snapshot()
            .counter("disagg.elastic.redirects_followed")
            >= 1
    );

    // Holder: its local fast path hides the borrowed replica, but the
    // owner's redirect points home and the replica is served locally.
    let at_holder = cluster.client(1).unwrap();
    let buf = at_holder.get_one(id, GET_TIMEOUT).unwrap();
    assert_eq!(buf.read_all().unwrap(), payload);
    at_holder.release(id).unwrap();

    // Owner: no local copy and the ring points at itself, so the get
    // chases the owner's own lent ledger straight to the holder.
    let at_owner = cluster.client(0).unwrap();
    let buf = at_owner.get_one(id, GET_TIMEOUT).unwrap();
    assert_eq!(buf.read_all().unwrap(), payload);
    at_owner.release(id).unwrap();

    // Everyone still agrees the object exists.
    for node in 0..3 {
        assert!(cluster.store(node).contains(id).unwrap(), "node {node}");
    }
}

/// Admission control: once `max_inflight_creates` objects sit created
/// but unsealed, further creates are refused with the typed
/// `Overloaded` rejection — locally, through the client IPC surface,
/// and through the forwarded-create path from a peer. Sealing one
/// in-flight object re-admits.
#[test]
fn admission_control_rejects_with_typed_overload() {
    let mut config = ClusterConfig::functional(2, 4 << 20);
    config.max_inflight_creates = 2;
    let cluster = Cluster::launch(config).unwrap();
    let store = cluster.store(0);

    let ids: Vec<ObjectId> = (0..3)
        .map(|i| ObjectId::from_name(&cluster.owned_id(0, &format!("adm/{i}"))))
        .collect();
    store.create(ids[0], 128, 0).unwrap();
    store.create(ids[1], 128, 0).unwrap();

    // Local path.
    match store.create(ids[2], 128, 0) {
        Err(PlasmaError::Overloaded { retry_after_ms }) => {
            assert_eq!(retry_after_ms, RETRY_AFTER_MS)
        }
        other => panic!("expected Overloaded, got {other:?}"),
    }
    let overloads = store
        .metrics_snapshot()
        .counter("disagg.elastic.overload_rejected");
    assert!(overloads >= 1);

    // Client IPC path: the typed rejection survives the wire format.
    match cluster.client(0).unwrap().create(ids[2], 128, 0) {
        Err(PlasmaError::Overloaded { retry_after_ms }) => {
            assert_eq!(retry_after_ms, RETRY_AFTER_MS)
        }
        other => panic!("expected Overloaded via IPC, got {:?}", other.map(|_| ())),
    }

    // Forwarded-create path: a peer routing a create to the overloaded
    // ring owner gets `ResourceExhausted` back and re-types it, with the
    // hint the owner itself would have given.
    match cluster.store(1).create(ids[2], 128, 0) {
        Err(PlasmaError::Overloaded { retry_after_ms }) => {
            assert_eq!(retry_after_ms, RETRY_AFTER_MS)
        }
        other => panic!("expected Overloaded via CREATE_AT, got {other:?}"),
    }

    // Sealing one in-flight object frees an admission slot.
    store.seal(ids[0]).unwrap();
    store.release(ids[0]).unwrap();
    store.create(ids[2], 128, 0).unwrap();
    store.abort(ids[2]).unwrap();
}

/// Deleting a lent object retires it everywhere: the holder's replica,
/// the owner's lent entry, and the holder's borrowed entry — whether
/// the delete lands on the owner or on a third party.
#[test]
fn delete_of_lent_object_cleans_both_ledgers() {
    let cluster = Cluster::launch(ClusterConfig::functional(3, 4 << 20)).unwrap();
    for (name, delete_from) in [("del/via-owner", 0usize), ("del/via-third", 2usize)] {
        let id = ObjectId::from_name(&cluster.owned_id(0, name));
        cluster.client(0).unwrap().put(id, &[9; 256], &[]).unwrap();
        assert!(cluster.store(0).spill_to(id, cluster.node_id(1)).unwrap());

        // While lent, the id still exists: re-creating it anywhere is
        // refused, so the name cannot fork.
        match cluster.store(0).create(id, 64, 0) {
            Err(PlasmaError::ObjectExists(_)) => {}
            other => panic!("owner re-create must fail ObjectExists, got {other:?}"),
        }
        match cluster.store(2).create(id, 64, 0) {
            Err(PlasmaError::ObjectExists(_)) => {}
            other => panic!("remote re-create must fail ObjectExists, got {other:?}"),
        }

        cluster.store(delete_from).delete(id).unwrap();
        for node in 0..3 {
            assert_eq!(
                lease_counts(cluster.store(node)),
                (0, 0),
                "node {node} ledger not clean after delete from {delete_from}"
            );
            assert!(
                !cluster.store(node).contains(id).unwrap(),
                "node {node} still answers contains after delete"
            );
        }
        // And the id is free again.
        cluster.store(0).create(id, 64, 0).unwrap();
        cluster.store(0).abort(id).unwrap();
    }
}

/// A delete that has to chase a lent object answers the same typed
/// outcome from everywhere: while a client on the holder still reads
/// the bytes, `delete` and `delete_deferred` are `ObjectInUse` whether
/// issued at the owner or forwarded to it by a third node — and change
/// nothing. (A forwarded `DELETE_DEFERRED` used to come back as
/// `Protocol("peer status: Internal…")`.)
#[test]
fn forwarded_delete_of_a_lent_object_in_use_keeps_its_typed_outcome() {
    let cluster = Cluster::launch(ClusterConfig::functional(3, 4 << 20)).unwrap();
    let id = ObjectId::from_name(&cluster.owned_id(0, "del/in-use"));
    let payload = vec![0x4C; 300];
    cluster.client(0).unwrap().put(id, &payload, &[]).unwrap();
    assert!(cluster.store(0).spill_to(id, cluster.node_id(1)).unwrap());
    let ledgers = |cluster: &Cluster| -> Vec<_> {
        let all = (0..3).map(|node| cluster.store(node));
        all.map(|s| {
            (
                entries(s, Side::Out, Kind::Lease),
                entries(s, Side::Held, Kind::Lease),
            )
        })
        .collect()
    };
    let before = ledgers(&cluster);

    let reader = cluster.client(1).unwrap();
    let buf = reader.get_one(id, GET_TIMEOUT).unwrap();
    for node in [2usize, 0] {
        let store = cluster.store(node);
        assert_eq!(
            store.delete_deferred(id),
            Err(PlasmaError::ObjectInUse(id)),
            "node {node}"
        );
        assert_eq!(
            store.delete(id),
            Err(PlasmaError::ObjectInUse(id)),
            "node {node}"
        );
    }
    assert_eq!(
        ledgers(&cluster),
        before,
        "a refused delete changes no ledger"
    );
    assert_eq!(buf.read_all().unwrap(), payload);
    let third = cluster.client(2).unwrap();
    assert_eq!(
        third.get_one(id, GET_TIMEOUT).unwrap().read_all().unwrap(),
        payload
    );
    third.release(id).unwrap();

    drop(buf);
    reader.release(id).unwrap();
    assert_eq!(cluster.store(2).delete_deferred(id), Ok(true));
    for node in 0..3 {
        assert_eq!(lease_counts(cluster.store(node)), (0, 0), "node {node}");
        assert!(!cluster.store(node).contains(id).unwrap(), "node {node}");
    }
}

/// Borrow reconciliation heals the owner-re-acquired case: when the
/// owner holds a local sealed copy of an id it also has on lease, the
/// holder's reconcile drops the redundant replica and both ledger
/// entries retire.
#[test]
fn reconcile_drops_replica_once_owner_reacquires() {
    let cluster = Cluster::launch(ClusterConfig::functional(2, 4 << 20)).unwrap();
    let id = ObjectId::from_name(&cluster.owned_id(0, "rec/drop"));
    cluster.client(0).unwrap().put(id, &[3; 512], &[]).unwrap();
    assert!(cluster.store(0).spill_to(id, cluster.node_id(1)).unwrap());

    // Manufacture the ambiguous-spill aftermath: the owner re-acquires
    // a local sealed copy while the lease is still on the books.
    cluster.store(0).core().create(id, 512, 0).unwrap();
    cluster.store(0).core().seal(id).unwrap();
    cluster.store(0).core().release(id).unwrap();

    let healed = cluster.store(1).reconcile();
    assert_eq!(healed.dropped[Kind::Lease], 1);
    assert_eq!((healed.dropped.total(), healed.trimmed.total()), (1, 0));
    assert_eq!(lease_counts(cluster.store(0)), (0, 0));
    assert_eq!(lease_counts(cluster.store(1)), (0, 0));
    // The holder's replica is gone; the owner's copy serves.
    assert!(cluster.store(1).core().get_local(id).is_none());
    assert!(cluster.store(0).core().contains(id));

    // A second reconcile is a no-op — the protocol is idempotent.
    assert_eq!(cluster.store(1).reconcile(), ReconcileReport::default());
}

/// `spill_cold` under real pressure, at the watermarks every workload
/// runs with: fill the owner past the high watermark, run `maybe_spill`,
/// and occupancy drops to the low one — no further — with the lender
/// left inside its headroom and every spilled object still reachable.
#[test]
fn pressure_spill_sheds_load_and_keeps_objects_reachable() {
    const OBJECT: u64 = 64 << 10;
    let cluster = Cluster::launch(ClusterConfig::functional(2, 1 << 20)).unwrap();

    // 87.5 % full: 14 × 64 KiB objects owned by node 0, oldest coldest.
    let producer = cluster.client(0).unwrap();
    let ids: Vec<ObjectId> = (0..14)
        .map(|i| {
            let id = ObjectId::from_name(&cluster.owned_id(0, &format!("load/{i}")));
            producer.put(id, &[i as u8; OBJECT as usize], &[]).unwrap();
            id
        })
        .collect();
    let store = cluster.store(0);
    assert!(store.memory_pressure_ppm() >= HIGH_WATERMARK_PPM);

    // Three objects take 87.5 % to 68.75 %: the first occupancy at or
    // under the low watermark, where the pass stops.
    let spilled = store.maybe_spill().unwrap();
    assert_eq!(spilled, 3 * OBJECT, "spill down to the low watermark");
    assert!(store.memory_pressure_ppm() <= LOW_WATERMARK_PPM);
    assert!(
        cluster.store(1).memory_pressure_ppm() <= 600_000,
        "the lender stays inside its headroom"
    );
    assert_eq!(
        lease_counts(store).0 as u64,
        store.metrics_snapshot().counter("disagg.elastic.spills")
    );

    // Every object — spilled or resident — still reads back.
    let reader = cluster.store(1).clone();
    let got = reader.get(&ids, GET_TIMEOUT).unwrap();
    for (i, slot) in got.iter().enumerate() {
        assert!(slot.is_some(), "object {i} unreachable after spill");
    }
    for id in &ids {
        reader.release(*id).unwrap();
    }
    // And a subsequent maybe_spill below the watermark is a no-op.
    assert_eq!(store.maybe_spill().unwrap(), 0);
}

/// A spill asks the ring, not the peers: each cold object is offered to
/// its rendezvous successor first, and the lender's own headroom gate
/// decides. With the successor filled past its headroom, it refuses once,
/// is not asked again in the pass, and every spilled object lands on its
/// third choice. `METRICS` is an operator read: neither the spill pass
/// nor any other path the benchmarks and the chaos soak drive — a put
/// at the owner and a forwarded one, a get that follows a `Moved`
/// redirect, a forwarded delete that invalidates a replica, a
/// replication pass, a rebalance pass, a reconcile — asks a peer for it.
#[test]
fn spill_walks_the_rendezvous_order_and_asks_no_peer_for_metrics() {
    const OBJECT: usize = 64 << 10;
    let cluster = Cluster::launch(ClusterConfig::functional(3, 1 << 20)).unwrap();
    let nodes: Vec<NodeId> = (0..3).map(|i| cluster.node_id(i)).collect();
    let ring = Ring::new(cluster.store(0).membership().unwrap());

    // The successor, node 1, at 56.25 %: one more object would lift it
    // past its 60 % lending headroom.
    let filler = cluster.client(1).unwrap();
    for i in 0..9 {
        let id = ObjectId::from_name(&cluster.owned_id(1, &format!("succ/fill/{i}")));
        filler.put(id, &[1; OBJECT], &[]).unwrap();
    }
    // Node 0 at 87.5 %, every object ranked node 0, then 1, then 2.
    let producer = cluster.client(0).unwrap();
    let ids: Vec<ObjectId> = (0..)
        .map(|k| ObjectId::from_name(&format!("succ/cold/{k}")))
        .filter(|&id| ring.ranked(id) == nodes)
        .take(14)
        .collect();
    for &id in &ids {
        producer.put(id, &[0; OBJECT], &[]).unwrap();
    }

    let owner = cluster.store(0);
    assert_eq!(owner.maybe_spill().unwrap(), 3 * OBJECT as u64);
    assert!(owner.memory_pressure_ppm() <= LOW_WATERMARK_PPM);
    let lent = entries(owner, Side::Out, Kind::Lease);
    assert_eq!(lent.len(), 3);
    assert!(
        lent.iter().all(|&(_, holder)| holder == nodes[2]),
        "{lent:?}"
    );
    assert_eq!(lease_counts(cluster.store(1)), (0, 0));
    let snap = owner.metrics_snapshot();
    assert_eq!(snap.counter("disagg.elastic.spills"), 3);
    assert_eq!(snap.counter("disagg.elastic.spills_refused"), 1);

    // Node 1 asks the owner, which answers `Moved` for the three it lent.
    let got = cluster.store(1).get(&ids, GET_TIMEOUT).unwrap();
    assert!(got.iter().all(Option::is_some), "every object still reads");
    for &id in &ids {
        cluster.store(1).release(id).unwrap();
    }
    let snap = cluster.store(1).metrics_snapshot();
    assert_eq!(snap.counter("disagg.elastic.redirects_followed"), 3);

    // A put at the owner and one forwarded to it; each object then turns
    // hot at one reader, and the owner's passes copy the first to it and
    // move the second to it.
    let replicated = ObjectId::from_name(&cluster.owned_id(0, "succ/replicated"));
    let rebalanced = ObjectId::from_name(&cluster.owned_id(0, "succ/rebalanced"));
    producer.put(replicated, &[2; 1024], &[]).unwrap();
    let forwarder = cluster.client(1).unwrap();
    forwarder.put(rebalanced, &[3; 1024], &[]).unwrap();
    let heat = |id: ObjectId, reader: usize| {
        let store = cluster.store(reader);
        for _ in 0..HOT_AFTER_HITS {
            assert!(store.get(&[id], GET_TIMEOUT).unwrap()[0].is_some());
            store.release(id).unwrap();
        }
    };
    heat(replicated, 1);
    assert_eq!(owner.replicate_hot().unwrap(), 1);
    heat(rebalanced, 2);
    assert_eq!(owner.rebalance_once().unwrap(), 1);
    // Forwarded to the owner, which invalidates node 1's replica first.
    cluster.store(2).delete(replicated).unwrap();
    assert!(entries(cluster.store(1), Side::Held, Kind::Replica).is_empty());
    for node in 0..3 {
        assert_eq!(cluster.store(node).reconcile(), ReconcileReport::default());
    }

    let asked = || -> Vec<(usize, String, u64)> {
        let mut asked = Vec::new();
        for node in 0..3 {
            let snap = cluster.store(node).metrics_snapshot();
            let histograms = snap.histograms_with_prefix("rpc.client.");
            asked.extend(
                histograms
                    .filter(|(name, h)| name.ends_with(".metrics.latency_ns") && h.count > 0)
                    .map(|(name, h)| (node, name.to_string(), h.count)),
            );
        }
        asked
    };
    assert_eq!(asked(), vec![], "a protocol path asked a peer for METRICS");
    // The operator read is what the filter above would have caught.
    owner.peer_metrics(nodes[1]).unwrap();
    assert_eq!(asked().len(), 1, "{:?}", asked());
}

/// Heat-driven rebalance: a remote reader hammering one object pulls it
/// to itself once its hit count reaches `HOT_AFTER_HITS`, converting
/// future remote reads into local ones.
#[test]
fn rebalance_moves_hot_object_to_its_dominant_reader() {
    let cluster = Cluster::launch(ClusterConfig::functional(2, 4 << 20)).unwrap();
    let id = ObjectId::from_name(&cluster.owned_id(0, "hot/obj"));
    cluster.client(0).unwrap().put(id, &[5; 1024], &[]).unwrap();

    let reader = cluster.store(1).clone();
    for _ in 0..HOT_AFTER_HITS {
        let got = reader.get(&[id], GET_TIMEOUT).unwrap();
        assert!(got[0].is_some());
        reader.release(id).unwrap();
    }

    let moved = cluster.store(0).rebalance_once().unwrap();
    assert_eq!(moved, 1, "hot object must migrate to its reader");
    assert_eq!(
        entries(cluster.store(0), Side::Out, Kind::Lease),
        vec![(id, cluster.node_id(1))]
    );
    assert_eq!(
        cluster
            .store(0)
            .metrics_snapshot()
            .counter("disagg.elastic.rebalances"),
        1
    );
    // The reader now holds the replica; the owner redirect still serves
    // everyone, including the owner itself.
    let buf = cluster.client(0).unwrap().get_one(id, GET_TIMEOUT).unwrap();
    assert_eq!(buf.read_all().unwrap(), vec![5; 1024]);
    cluster.client(0).unwrap().release(id).unwrap();
}
