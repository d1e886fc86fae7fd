//! Elastic capacity tier acceptance: pressure-driven spill keeps spilled
//! objects readable from every node — the owner answers a lent id with
//! its holder's descriptor, so a spilled object costs one lookup like
//! any other — and picks its lender by the ring, not by asking peers;
//! a holder keeps its leased copy whatever it evicts; pins on a lent id
//! live in the owner's ledger and keep the lease; admission control
//! surfaces typed `Overloaded` rejections locally and through the
//! forwarded-create path, deletes of lent objects retire both ledgers,
//! and borrow reconciliation heals an owner that re-acquired a local
//! copy.

use disagg::elastic::{HIGH_WATERMARK_PPM, HOT_AFTER_HITS, LOW_WATERMARK_PPM, RETRY_AFTER_MS};
use disagg::proto::method;
use disagg::{Cluster, ClusterConfig, DisaggStore, Kind, NodeId, ReconcileReport, Ring, Side};
use ipc::fault::{Direction, FaultAction, FaultPolicy};
use plasma::{ObjectId, ObjectStore, PlasmaError};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

const GET_TIMEOUT: Duration = Duration::from_secs(1);

/// A tapped interconnect: every request frame any node sends, as its
/// link (`"from->to"`) and verb, and — once armed — the next reply
/// node 2 reads from node 0, dropped.
#[derive(Default)]
struct Wire {
    sent: Mutex<Vec<(String, u32)>>,
    drop_reply: AtomicBool,
}

impl FaultPolicy for Wire {
    fn on_frame(&self, link: &str, dir: Direction, frame: &ipc::Frame) -> FaultAction {
        if dir == Direction::Outbound {
            if let Ok(request) = rpclite::Request::from_frame(frame) {
                self.sent
                    .lock()
                    .unwrap()
                    .push((link.to_string(), request.method));
            }
        }
        let reply = link == "2->0" && dir == Direction::Inbound;
        if reply && self.drop_reply.swap(false, Ordering::SeqCst) {
            return FaultAction::Drop;
        }
        FaultAction::Deliver
    }
}

impl Wire {
    /// The requests sent while `act` ran, in order.
    fn during(&self, act: impl FnOnce()) -> Vec<(String, u32)> {
        self.sent.lock().unwrap().clear();
        act();
        std::mem::take(&mut *self.sent.lock().unwrap())
    }
}

/// A 3-node cluster on a tapped wire, with one 2 KiB object node 0 owns
/// spilled to node 1.
fn lent_on_a_tapped_wire(name: &str) -> (Cluster, Arc<Wire>, ObjectId, Vec<u8>) {
    let wire = Arc::new(Wire::default());
    let mut config = ClusterConfig::functional(3, 4 << 20);
    config.fault_policy = Some(wire.clone());
    config.interconnect.call_deadline = Some(Duration::from_millis(100));
    config.interconnect.max_attempts = 1;
    let cluster = Cluster::launch(config).unwrap();
    let id = ObjectId::from_name(&cluster.owned_id(0, name));
    let payload: Vec<u8> = (0..2048u32).map(|i| i as u8).collect();
    cluster.client(0).unwrap().put(id, &payload, &[]).unwrap();
    assert!(cluster.store(0).spill_to(id, cluster.node_id(1)).unwrap());
    (cluster, wire, id, payload)
}

/// A counter of node `i`'s registry.
fn counter(cluster: &Cluster, i: usize, name: &str) -> u64 {
    cluster.store(i).metrics_snapshot().counter(name)
}

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
/// from every vantage point: a third party and the holder itself (each
/// asks the owner, which answers with the holder's descriptor), and the
/// owner (its own ledger is the answer). The bytes survive verbatim and
/// both ledgers agree.
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

    // Third party: ring-targeted GET_MANY to the owner answers `Moved`
    // with the holder's descriptor, and the bytes are read through it.
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

    // Holder: its local fast path hides the borrowed copy — only its
    // owner hands it out — and the owner's answer names the holder's own
    // segment.
    let at_holder = cluster.client(1).unwrap();
    let buf = at_holder.get_one(id, GET_TIMEOUT).unwrap();
    assert_eq!(buf.read_all().unwrap(), payload);
    at_holder.release(id).unwrap();

    // Owner: no local copy and the ring points at itself, so its own
    // lease names the holder's copy, read without a call.
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

/// A third party's read of a lent object is one `GET_MANY`, at the
/// owner, and its `RELEASE`: no call reaches the holder, and one
/// redirect is served and followed. The holder's own read is that same
/// one lookup and maps its own segment; the owner's own read makes no
/// call at all. The bytes come back verbatim each time.
#[test]
fn a_lent_object_costs_one_lookup_and_no_call_at_its_holder() {
    let (cluster, wire, id, payload) = lent_on_a_tapped_wire("spill/one-lookup");
    let gets = |i: usize| {
        let snap = cluster.store(i).metrics_snapshot();
        let h = snap.histogram("rpc.client.get_many.latency_ns");
        h.map_or(0, |h| h.count)
    };
    let (served, followed) = (
        counter(&cluster, 0, "disagg.elastic.redirects_served"),
        counter(&cluster, 2, "disagg.elastic.redirects_followed"),
    );
    let third = cluster.client(2).unwrap();
    let calls = wire.during(|| {
        let buf = third.get_one(id, GET_TIMEOUT).unwrap();
        assert_eq!(buf.read_all().unwrap(), payload);
        third.release(id).unwrap();
    });
    let at_owner = |verb| ("2->0".to_string(), verb);
    assert_eq!(
        calls,
        [at_owner(method::GET_MANY), at_owner(method::RELEASE)]
    );
    assert_eq!(gets(2), 1);
    assert_eq!(
        counter(&cluster, 0, "disagg.elastic.redirects_served"),
        served + 1
    );
    assert_eq!(
        counter(&cluster, 2, "disagg.elastic.redirects_followed"),
        followed + 1
    );

    // The holder asks the owner too — its copy is the owner's to hand
    // out — and the answer is its own segment.
    let holder = cluster.store(1);
    let calls = wire.during(|| {
        let got = holder.get(&[id], GET_TIMEOUT).unwrap()[0].unwrap();
        assert_eq!(got.seg.owner, cluster.node_id(1));
        assert_eq!(holder.read_payload(&got).unwrap(), payload);
        holder.release(id).unwrap();
    });
    let from_holder = |verb| ("1->0".to_string(), verb);
    assert_eq!(
        calls,
        [from_holder(method::GET_MANY), from_holder(method::RELEASE)]
    );

    // The owner reads the holder's copy on its own authority: no call.
    let owner = cluster.client(0).unwrap();
    let calls = wire.during(|| {
        let buf = owner.get_one(id, GET_TIMEOUT).unwrap();
        assert_eq!(buf.read_all().unwrap(), payload);
        owner.release(id).unwrap();
    });
    assert_eq!(calls, []);
    assert_eq!(gets(0), 0);
    assert_eq!(cluster.audit(), Vec::<String>::new());
}

/// A holder keeps the reference of every copy it holds on lease: it
/// evicts what it must for its own puts, never the lent object, which
/// stays readable from every node. An evicted leased copy would be lost
/// while its owner still ledgers the lease: every get would miss, and
/// the id could never be created again.
#[test]
fn a_holder_under_pressure_never_evicts_a_lent_object() {
    const OBJECT: usize = 64 << 10;
    let cluster = Cluster::launch(ClusterConfig::functional(3, 1 << 20)).unwrap();
    let id = ObjectId::from_name(&cluster.owned_id(0, "spill/evict"));
    let payload = vec![0x6C; OBJECT];
    cluster.client(0).unwrap().put(id, &payload, &[]).unwrap();
    assert!(cluster.store(0).spill_to(id, cluster.node_id(1)).unwrap());

    let filler = cluster.client(1).unwrap();
    for i in 0..64 {
        let fill = ObjectId::from_name(&format!("spill/evict/fill/{i}"));
        filler.put(fill, &[i as u8; OBJECT], &[]).unwrap();
    }
    assert!(
        cluster.store(1).core().stats().evictions > 0,
        "the holder evicted"
    );
    assert!(
        cluster.store(1).core().contains(id),
        "but not the lent object"
    );
    let reader = cluster.client(2).unwrap();
    let buf = reader.get_one(id, GET_TIMEOUT).unwrap();
    assert_eq!(buf.read_all().unwrap(), payload);
    reader.release(id).unwrap();
    assert_eq!(cluster.audit(), Vec::<String>::new());
}

/// A pin on a lent object keeps its lease: a delete while a third party
/// reads it is `ObjectInUse`, immediate or deferred, from the owner and
/// forwarded, and changes nothing. Once the reader releases, the delete
/// retires the holder's copy — its memory is freed — and leaves both
/// ledgers empty.
#[test]
fn a_pinned_lent_object_is_in_use_until_its_reader_releases() {
    let cluster = Cluster::launch(ClusterConfig::functional(3, 4 << 20)).unwrap();
    let id = ObjectId::from_name(&cluster.owned_id(0, "spill/in-use"));
    cluster
        .client(0)
        .unwrap()
        .put(id, &[0x33; 4096], &[])
        .unwrap();
    assert!(cluster.store(0).spill_to(id, cluster.node_id(1)).unwrap());
    let holder_bytes = || cluster.store(1).core().stats().allocated_bytes;
    let lent = holder_bytes();

    let reader = cluster.client(2).unwrap();
    let buf = reader.get_one(id, GET_TIMEOUT).unwrap();
    assert_eq!(
        cluster.store(0).remote_pin_count(),
        1,
        "pinned at the owner"
    );
    assert_eq!(cluster.store(1).remote_pin_count(), 0, "and nowhere else");
    for node in [0usize, 2] {
        let store = cluster.store(node);
        assert_eq!(
            store.delete(id),
            Err(PlasmaError::ObjectInUse(id)),
            "node {node}"
        );
        let deferred = store.delete_deferred(id);
        assert_eq!(deferred, Err(PlasmaError::ObjectInUse(id)), "node {node}");
    }
    assert_eq!(lease_counts(cluster.store(0)), (1, 0));
    assert_eq!(lease_counts(cluster.store(1)), (0, 1));
    assert_eq!(buf.read_all().unwrap(), vec![0x33; 4096]);
    drop(buf);
    reader.release(id).unwrap();

    cluster.store(2).delete(id).unwrap();
    assert!(
        !cluster.store(1).core().contains(id),
        "the holder's copy went"
    );
    assert!(holder_bytes() < lent, "and its memory with it");
    for node in 0..3 {
        assert!(cluster.store(node).delegations().is_empty(), "node {node}");
    }
    assert_eq!(cluster.audit(), Vec::<String>::new());
}

/// The two kinds of pin an owner counts stay apart. A reader that pinned
/// the owner's own copy before the spill keeps reading that copy, and
/// its release frees it — the deferred delete completes — while the pin
/// another reader took on the lease since is left alone and still keeps
/// the lease.
#[test]
fn a_pin_on_the_spilled_copy_frees_it_and_leaves_the_lease_pinned() {
    let cluster = Cluster::launch(ClusterConfig::functional(3, 4 << 20)).unwrap();
    let id = ObjectId::from_name(&cluster.owned_id(0, "spill/two-pins"));
    cluster
        .client(0)
        .unwrap()
        .put(id, &[0x5E; 8192], &[])
        .unwrap();
    let owner = cluster.store(0);
    let owner_bytes = || owner.core().stats().allocated_bytes;

    let early = cluster.store(1).clone();
    let before = early.get(&[id], GET_TIMEOUT).unwrap()[0].unwrap();
    assert_eq!(before.seg.owner, cluster.node_id(0));
    let resident = owner_bytes();
    assert!(owner.spill_to(id, cluster.node_id(2)).unwrap());
    assert_eq!(
        owner_bytes(),
        resident,
        "a reader still holds the spilled copy"
    );

    // The holder reads now: a pin on the lease, in the owner's ledger.
    let late = cluster.store(2).clone();
    let after = late.get(&[id], GET_TIMEOUT).unwrap()[0].unwrap();
    assert_eq!(after.seg.owner, cluster.node_id(2));
    assert_eq!(owner.remote_pin_count(), 2);

    early.release(id).unwrap();
    assert!(owner_bytes() < resident, "the spilled copy is freed");
    assert_eq!(owner.remote_pin_count(), 1, "the lease's pin stays");
    assert_eq!(owner.delete(id), Err(PlasmaError::ObjectInUse(id)));
    late.release(id).unwrap();
    assert_eq!(owner.remote_pin_count(), 0);
    owner.delete(id).unwrap();
    assert_eq!(cluster.audit(), Vec::<String>::new());
}

/// A `GET_MANY` whose answer for a lent id is lost leaves the owner a pin
/// on the lease nobody will release. The reader's reconcile trims it,
/// and gives no core reference back at the owner — the pin held none.
#[test]
fn an_orphan_pin_on_a_lent_id_is_trimmed_without_a_core_release() {
    let (cluster, wire, id, _) = lent_on_a_tapped_wire("spill/orphan");
    let owner = cluster.store(0);
    let reader = cluster.store(2).clone();
    wire.drop_reply.store(true, Ordering::SeqCst);
    let got = reader.get(&[id], Duration::ZERO).unwrap();
    if got[0].is_some() {
        // The broadcast asked the owner again and was answered.
        reader.release(id).unwrap();
    }
    assert_eq!(owner.remote_pin_count(), 1, "the lost answer's pin");
    assert_eq!(reader.held_remote_pins(), 0);
    let core_releases = owner.core().stats().releases;

    cluster.clock().charge(Duration::from_secs(10)); // past the probe window
    let healed = reader.reconcile();
    assert!(healed.unreachable.is_empty(), "{healed:?}");
    assert_eq!(healed.trimmed[Kind::Pin], 1, "{healed:?}");
    assert_eq!(owner.remote_pin_count(), 0);
    assert_eq!(owner.core().stats().releases, core_releases);
    owner.delete(id).unwrap();
    assert_eq!(cluster.audit(), Vec::<String>::new());
}

/// Drops the next reply node 0 reads from node 1, once armed.
#[derive(Default)]
struct DropSpillAnswer(AtomicBool);

impl FaultPolicy for DropSpillAnswer {
    fn on_frame(&self, link: &str, dir: Direction, _: &ipc::Frame) -> FaultAction {
        let reply = link == "0->1" && dir == Direction::Inbound;
        if reply && self.0.swap(false, Ordering::SeqCst) {
            return FaultAction::Drop;
        }
        FaultAction::Deliver
    }
}

/// A spill whose answer is lost leaves the holder a copy the owner never
/// recorded. The owner's delete then succeeds without it, and the
/// reconcile that follows must not bring the deleted object back: the
/// owner drops the holder's claim instead of installing it as a lease.
#[test]
fn a_deleted_object_stays_deleted_after_an_ambiguous_spill_reconciles() {
    let drop = Arc::new(DropSpillAnswer::default());
    let mut config = ClusterConfig::functional(3, 4 << 20);
    config.fault_policy = Some(drop.clone());
    config.interconnect.call_deadline = Some(Duration::from_millis(100));
    config.interconnect.max_attempts = 1;
    let cluster = Cluster::launch(config).unwrap();
    let id = ObjectId::from_name(&cluster.owned_id(0, "spill/ambiguous-delete"));
    cluster
        .client(0)
        .unwrap()
        .put(id, &[0x7A; 512], &[])
        .unwrap();
    drop.0.store(true, Ordering::SeqCst);
    let spilled = cluster.store(0).spill_to(id, cluster.node_id(1));
    assert_eq!(spilled, Ok(false), "no answer: the owner keeps its copy");
    assert!(cluster.store(1).core().contains(id), "the holder adopted");
    assert_eq!(
        lease_counts(cluster.store(0)),
        (0, 0),
        "the owner never heard"
    );
    cluster.store(0).delete(id).unwrap();

    cluster.clock().charge(Duration::from_secs(10));
    for node in 0..3 {
        cluster.store(node).reconcile();
    }
    let got = cluster.store(2).get(&[id], Duration::ZERO).unwrap();
    assert!(got[0].is_none(), "a deleted object came back");
    assert_eq!(cluster.audit(), Vec::<String>::new());
}

/// A create racing a spill of the same id never seals beside the lease.
/// The owner records the lease before its own copy goes, and a create
/// asks the ledger only once the core has taken the id, so a create that
/// finds the id free has already seen the lease. Asked first, a spill
/// could complete between the two: the owner sealed a second object
/// under a lent id, and retiring the holder's copy for it freed bytes the
/// owner still handed to readers. Node 1's two-step creates hammer each
/// id while node 0 spills it.
#[test]
fn a_create_racing_a_spill_never_seals_beside_the_lease() {
    let cluster = Cluster::launch(ClusterConfig::functional(3, 16 << 20)).unwrap();
    for n in 0..200u64 {
        let id = ObjectId::from_name(&cluster.owned_id(0, &format!("spill/race-{n}")));
        cluster.client(0).unwrap().put(id, &[1; 512], &[]).unwrap();
        let spilled = AtomicBool::new(false);
        std::thread::scope(|s| {
            let creator = cluster.client(1).unwrap();
            let spilled = &spilled;
            s.spawn(move || {
                while !spilled.load(Ordering::SeqCst) {
                    let _ = creator.create(id, 512, 0).and_then(|b| {
                        b.write(0, &[2; 512])?;
                        b.seal()
                    });
                }
            });
            std::thread::sleep(Duration::from_micros(100 + n * 37 % 300));
            assert!(cluster.store(0).spill_to(id, cluster.node_id(2)).unwrap());
            spilled.store(true, Ordering::SeqCst);
        });
        assert_eq!(lease_counts(cluster.store(0)).0 as u64, n + 1);
        assert!(
            cluster.store(0).core().peek(id).is_none(),
            "iteration {n}: node 0 seals an id it lends"
        );
    }
    assert_eq!(cluster.audit(), Vec::<String>::new());
}

/// A delete that reaches no holder gives the lease back. With the
/// holder's interconnect down, the delete's `INVALIDATE` never leaves:
/// the delete fails, the owner — told so by a requester elsewhere, or
/// as the requester itself — opens the lease the delete closed, and
/// every node still reads the object verbatim through the holder's copy.
/// With the holder back, the delete retires the copy and leaves both
/// ledgers empty.
#[test]
fn a_delete_that_reaches_no_holder_leaves_the_lent_object_readable() {
    let mut cluster = Cluster::launch(ClusterConfig::functional(3, 4 << 20)).unwrap();
    let id = ObjectId::from_name(&cluster.owned_id(0, "spill/unreached"));
    let payload = vec![0x4D; 4096];
    cluster.client(0).unwrap().put(id, &payload, &[]).unwrap();
    assert!(cluster.store(0).spill_to(id, cluster.node_id(1)).unwrap());
    cluster.stop_rpc(1);
    for requester in [2usize, 0] {
        let deleted = cluster.store(requester).delete(id);
        assert!(
            matches!(deleted, Err(PlasmaError::PeerUnavailable(_))),
            "node {requester}: {deleted:?}"
        );
        assert_eq!(lease_counts(cluster.store(0)), (1, 0));
        for node in [0usize, 2] {
            let read = cluster.store(node).get_bytes(id, GET_TIMEOUT).unwrap();
            assert_eq!(read.as_deref(), Some(&payload[..]), "node {node}");
        }
    }
    cluster.restart_rpc(1).unwrap();
    cluster.clock().charge(Duration::from_secs(1));
    cluster.store(2).delete(id).unwrap();
    assert!(
        !cluster.store(1).core().contains(id),
        "the holder's copy went"
    );
    for node in 0..3 {
        assert!(cluster.store(node).delegations().is_empty(), "node {node}");
    }
    assert_eq!(cluster.audit(), Vec::<String>::new());
}
