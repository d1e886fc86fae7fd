//! Hot-object read replication acceptance: replicas serve reads locally
//! at the holder, deletes invalidate every replica before they proceed
//! (an unreachable holder fails the delete with the object intact), the
//! single-lease elastic tier and replication are mutually exclusive,
//! zero-length objects replicate cleanly, and a `Moved` (lent) object is
//! always served from its holder — never from a stale replica left by an
//! earlier incarnation.

use disagg::proto::{
    method, BoolResp, CallHeader, DeleteReq, DeleteResp, Message, ReplyHeader, RetireReq,
};
use disagg::{Cluster, ClusterConfig, DisaggStore, Kind, NodeId, Side};
use ipc::fault::{Direction, FaultAction, FaultPolicy};
use plasma::{ObjectId, ObjectStore, PlasmaError};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

const GET_TIMEOUT: Duration = Duration::from_secs(1);

/// The `(id, peer)` pairs one side of a store's ledger holds of `kind`.
fn entries(store: &DisaggStore, side: Side, kind: Kind) -> Vec<(ObjectId, NodeId)> {
    let all = store.delegations().into_iter();
    all.filter(|r| r.side == side && r.kind == kind)
        .map(|r| (r.id, r.peer))
        .collect()
}

/// How many replicas a store has out, and how many it holds.
fn replica_counts(store: &DisaggStore) -> (usize, usize) {
    let count = |side| entries(store, side, Kind::Replica).len();
    (count(Side::Out), count(Side::Held))
}

/// Replicate one object owner → holder, then read it at the holder: the
/// get is served from the local replica (no interconnect round trip),
/// both ledger sides agree, and the owner keeps its copy and authority.
#[test]
fn replica_serves_reads_locally_at_the_holder() {
    let cluster = Cluster::launch(ClusterConfig::functional(3, 4 << 20)).unwrap();
    let id = ObjectId::from_name(&cluster.owned_id(0, "rep/rt"));
    let payload = vec![0xCD; 1024];
    cluster.client(0).unwrap().put(id, &payload, &[]).unwrap();

    let owner = cluster.store(0);
    let holder_node = cluster.node_id(1);
    assert!(owner.replicate_to(id, holder_node).unwrap(), "refused");

    // Both ledger sides, and the owner still holds its sealed copy —
    // this is a read replica, not a lease handoff.
    assert_eq!(
        entries(owner, Side::Out, Kind::Replica),
        vec![(id, holder_node)]
    );
    assert_eq!(
        entries(cluster.store(1), Side::Held, Kind::Replica),
        vec![(id, cluster.node_id(0))]
    );
    assert!(owner.core().peek(id).is_some());
    let owner_snap = owner.metrics_snapshot();
    assert_eq!(owner_snap.counter("disagg.replica.created"), 1);
    assert_eq!(owner_snap.gauge("disagg.replica.outstanding"), 1);
    assert_eq!(
        cluster
            .store(1)
            .metrics_snapshot()
            .gauge("disagg.replica.held"),
        1
    );

    // The holder serves its own read locally: the replica-hit counter
    // moves, and the owner serves no remote get for it.
    let at_holder = cluster.client(1).unwrap();
    let buf = at_holder.get_one(id, GET_TIMEOUT).unwrap();
    assert_eq!(buf.read_all().unwrap(), payload);
    at_holder.release(id).unwrap();
    assert_eq!(
        cluster
            .store(1)
            .metrics_snapshot()
            .counter("disagg.replica.local_hits"),
        1
    );

    // A third party still reads through the owner as usual.
    let third = cluster.client(2).unwrap();
    let buf = third.get_one(id, GET_TIMEOUT).unwrap();
    assert_eq!(buf.read_all().unwrap(), payload);
    third.release(id).unwrap();
}

/// Delete invalidates every replica before it proceeds: after a
/// successful delete no node — holder included — still serves the id,
/// and both replica ledgers are empty.
#[test]
fn delete_invalidates_replicas_first() {
    let cluster = Cluster::launch(ClusterConfig::functional(3, 4 << 20)).unwrap();
    let id = ObjectId::from_name(&cluster.owned_id(0, "rep/del"));
    cluster.client(0).unwrap().put(id, &[9; 256], &[]).unwrap();
    assert!(cluster
        .store(0)
        .replicate_to(id, cluster.node_id(1))
        .unwrap());
    assert!(cluster
        .store(0)
        .replicate_to(id, cluster.node_id(2))
        .unwrap());

    // Delete through a holder's client: routed to the owner, which must
    // fan out invalidations before dropping its copy.
    cluster.client(1).unwrap().delete(id).unwrap();

    for node in 0..3 {
        assert!(
            !cluster.store(node).contains(id).unwrap(),
            "stale copy on node {node} after delete"
        );
        assert_eq!(replica_counts(cluster.store(node)), (0, 0));
    }
    assert_eq!(
        cluster
            .store(1)
            .metrics_snapshot()
            .counter("disagg.replica.invalidated"),
        1
    );
}

/// Two nodes delete each other's replicated objects at the same moment,
/// round after round. Each forwarded `DELETE` waits on an `INVALIDATE`
/// back to the node that sent it, so were `DELETE` served on the
/// reader that read it, the cluster's one reader would wait on itself
/// until the deadline, and both deletes would fail.
#[test]
fn crossing_deletes_of_each_others_replicated_objects_both_succeed() {
    let mut config = ClusterConfig::functional(2, 4 << 20);
    config.interconnect.call_deadline = Some(Duration::from_millis(100));
    config.interconnect.max_attempts = 1;
    let cluster = Cluster::launch(config).unwrap();
    for round in 0..20 {
        let ids = [0, 1].map(|owner| {
            let name = cluster.owned_id(owner, &format!("rep/cross/{round}"));
            let id = ObjectId::from_name(&name);
            cluster
                .client(owner)
                .unwrap()
                .put(id, &[7; 64], &[])
                .unwrap();
            let other = cluster.node_id(1 - owner);
            assert!(cluster.store(owner).replicate_to(id, other).unwrap());
            id
        });
        let barrier = std::sync::Barrier::new(2);
        let deleted: Vec<_> = std::thread::scope(|s| {
            let deleters: Vec<_> = [0, 1]
                .map(|node| {
                    let (barrier, store, id) = (&barrier, cluster.store(node), ids[1 - node]);
                    s.spawn(move || {
                        barrier.wait();
                        store.delete(id)
                    })
                })
                .into_iter()
                .collect();
            deleters.into_iter().map(|d| d.join().unwrap()).collect()
        });
        for (node, outcome) in deleted.into_iter().enumerate() {
            assert!(outcome.is_ok(), "round {round}, node {node}: {outcome:?}");
        }
        for node in 0..2 {
            assert_eq!(replica_counts(cluster.store(node)), (0, 0));
        }
    }
}

/// `f`'s result, or a failure if it takes longer than `secs`: a delete
/// that waits on a reader busy with a delete of its own would otherwise
/// hang the test instead of failing it.
fn within<T: Send + 'static>(secs: u64, what: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (done, outcome) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = done.send(f());
    });
    let outcome = outcome.recv_timeout(Duration::from_secs(secs));
    outcome.unwrap_or_else(|_| panic!("{what} hung for {secs} s"))
}

/// A cluster of two whose calls wait for ever: a delete that deadlocks
/// hangs rather than failing at a deadline, and the watchdog names it.
fn two_nodes_without_deadline() -> Cluster {
    let mut config = ClusterConfig::functional(2, 4 << 20);
    config.interconnect.call_deadline = None;
    Cluster::launch(config).unwrap()
}

/// Put one object owned by each of the two nodes and hand a copy of it
/// to the other node, as `kinds[owner]` says; return the two ids.
fn delegated_pair(cluster: &Cluster, round: usize, kinds: [Kind; 2]) -> [ObjectId; 2] {
    [0, 1].map(|owner| {
        let name = cluster.owned_id(owner, &format!("rep/pair/{round}"));
        let id = ObjectId::from_name(&name);
        let client = cluster.client(owner).unwrap();
        client.put(id, &[7; 64], &[]).unwrap();
        let (store, other) = (cluster.store(owner), cluster.node_id(1 - owner));
        let handed = match kinds[owner] {
            Kind::Lease => store.spill_to(id, other),
            _ => store.replicate_to(id, other),
        };
        assert!(handed.unwrap(), "round {round}: node {owner} kept its copy");
        id
    })
}

/// Each node deletes, at the same moment, the object the other owns and
/// it holds a copy of. Every outcome must be `Ok`, and no copy or row
/// may survive.
fn crossing_deletes(cluster: &Arc<Cluster>, ids: [ObjectId; 2]) {
    let barrier = Arc::new(std::sync::Barrier::new(2));
    let deleters: Vec<_> = [0, 1]
        .map(|node| {
            let (cluster, barrier, id) = (cluster.clone(), barrier.clone(), ids[1 - node]);
            std::thread::spawn(move || {
                barrier.wait();
                cluster.store(node).delete(id)
            })
        })
        .into_iter()
        .collect();
    for (node, deleter) in deleters.into_iter().enumerate() {
        let outcome = deleter.join().unwrap();
        assert!(outcome.is_ok(), "node {node}: {outcome:?}");
    }
    for (node, id) in (0..2).flat_map(|node| ids.map(|id| (node, id))) {
        assert!(!cluster.store(node).core().contains(id), "node {node}");
    }
}

/// The lent twin of the crossing test above: each node spilled its
/// object to the other, then each deletes the object it holds the lease
/// of. Were the owner's half of a delete to call its holder back from
/// the reader that read it, the cluster's one reader would wait on
/// itself for ever.
#[test]
fn crossing_deletes_of_each_others_lent_objects_both_succeed() {
    let cluster = Arc::new(two_nodes_without_deadline());
    let shared = cluster.clone();
    within(30, "crossing deletes of lent objects", move || {
        for round in 0..20 {
            let ids = delegated_pair(&shared, round, [Kind::Lease; 2]);
            crossing_deletes(&shared, ids);
        }
    });
    assert_eq!(cluster.audit(), Vec::<String>::new());
}

/// A delete issued from the node that holds the copy — a replica one
/// way, a lease the other — crossing the other node's: the holder
/// retires its own copy without a call, and neither owner calls out.
#[test]
fn deletes_issued_by_a_replica_holder_and_a_lease_holder_at_once_both_succeed() {
    let cluster = Arc::new(two_nodes_without_deadline());
    let shared = cluster.clone();
    within(30, "crossing deletes from the holders", move || {
        for round in 0..20 {
            let ids = delegated_pair(&shared, round, [Kind::Replica, Kind::Lease]);
            crossing_deletes(&shared, ids);
        }
    });
    assert_eq!(cluster.audit(), Vec::<String>::new());
    for node in 0..2 {
        assert_eq!(replica_counts(cluster.store(node)), (0, 0));
        let copies = cluster.store(node).delegations().into_iter();
        assert_eq!(
            copies.filter(|r| r.kind.is_copy()).count(),
            0,
            "node {node}"
        );
    }
}

/// A replica made between a delete's two steps would survive it: the
/// confirm names the holder as cleared, and the owner would erase the new
/// row for the copy the requester retired. So once a delete has named
/// the replicas, the owner makes none of that object until the confirm;
/// the delete then leaves no copy anywhere.
#[test]
fn no_replica_is_made_between_a_deletes_two_steps() {
    let cluster = Cluster::launch(ClusterConfig::functional(3, 4 << 20)).unwrap();
    let owner = cluster.store(0);
    let id = ObjectId::from_name(&cluster.owned_id(0, "rep/between"));
    cluster.client(0).unwrap().put(id, &[9; 256], &[]).unwrap();
    let holder = cluster.node_id(1);
    assert!(owner.replicate_to(id, holder).unwrap());
    let call = |store: &DisaggStore, method: u32, body: &[u8]| {
        let header = CallHeader {
            from: cluster.node_id(2),
        };
        let answer = store
            .interconnect_service()
            .call(method, header.frame(body));
        ReplyHeader::unframe(answer.unwrap()).unwrap().1
    };
    let ask = |cleared: Vec<NodeId>| DeleteReq {
        id,
        deferred: false,
        cleared,
        kept: vec![],
    };

    // Step one names the replica, and the requester retires it.
    let answer = DeleteResp::decode(call(owner, method::DELETE, &ask(vec![]).encode()));
    assert_eq!(
        answer.unwrap(),
        DeleteResp::Clear(vec![(holder, Kind::Replica)])
    );
    let retire = RetireReq {
        id,
        owner: owner.node(),
    };
    let retired = call(cluster.store(1), method::INVALIDATE, &retire.encode());
    assert!(BoolResp::decode(retired).unwrap().value);

    // The owner's replication pass comes before the confirm: refused.
    assert!(!owner.replicate_to(id, holder).unwrap());
    assert!(!cluster.store(1).core().contains(id));

    let answer = DeleteResp::decode(call(owner, method::DELETE, &ask(vec![holder]).encode()));
    assert_eq!(answer.unwrap(), DeleteResp::Done(true));
    for node in 0..3 {
        assert!(!cluster.store(node).core().contains(id), "node {node}");
    }
    assert_eq!(cluster.audit(), Vec::<String>::new());
}

/// The owner drops exactly the rows of the holders a delete names as
/// cleared. With replicas at two holders and only one named, the answer
/// names the other; the object and that holder's row stay until a delete
/// that cleared it says so.
#[test]
fn a_delete_naming_one_cleared_holder_drops_only_that_holders_row() {
    let cluster = Cluster::launch(ClusterConfig::functional(3, 4 << 20)).unwrap();
    let owner = cluster.store(0);
    let id = ObjectId::from_name(&cluster.owned_id(0, "rep/confirm"));
    cluster.client(0).unwrap().put(id, &[8; 256], &[]).unwrap();
    let (first, second) = (cluster.node_id(1), cluster.node_id(2));
    for holder in [first, second] {
        assert!(owner.replicate_to(id, holder).unwrap());
    }
    let call = |store: &DisaggStore, method: u32, body: &[u8]| {
        let header = CallHeader { from: first };
        let answer = store
            .interconnect_service()
            .call(method, header.frame(body));
        ReplyHeader::unframe(answer.unwrap()).unwrap().1
    };
    // The first holder's replica really is retired, as a requester
    // would retire it.
    let retire = RetireReq {
        id,
        owner: owner.node(),
    }
    .encode();
    let retired = call(cluster.store(1), method::INVALIDATE, &retire);
    assert!(BoolResp::decode(retired).unwrap().value);

    let confirm = DeleteReq {
        id,
        deferred: false,
        cleared: vec![first],
        kept: vec![],
    };
    let answer = call(owner, method::DELETE, &confirm.encode());
    let answer = DeleteResp::decode(answer).unwrap();
    assert_eq!(answer, DeleteResp::Clear(vec![(second, Kind::Replica)]));
    assert!(owner.core().contains(id), "a copy is out: the object stays");
    assert_eq!(entries(owner, Side::Out, Kind::Replica), vec![(id, second)]);

    // The delete run as a requester runs it clears the second holder too.
    cluster.client(1).unwrap().delete(id).unwrap();
    for node in 0..3 {
        assert!(!cluster.store(node).core().contains(id), "node {node}");
    }
    assert_eq!(cluster.audit(), Vec::<String>::new());
}

/// Drops the `nth` frame (1-based) node 1 sends to or reads from node 0
/// in direction `dir`, counting from when `armed` is set.
struct DropNth {
    dir: Direction,
    nth: usize,
    seen: AtomicUsize,
    armed: AtomicBool,
}

impl DropNth {
    fn new(dir: Direction, nth: usize) -> Arc<DropNth> {
        Arc::new(DropNth {
            dir,
            nth,
            seen: AtomicUsize::new(0),
            armed: AtomicBool::new(false),
        })
    }
}

impl FaultPolicy for DropNth {
    fn on_frame(&self, link: &str, dir: Direction, _: &ipc::Frame) -> FaultAction {
        let counted = link == "1->0" && dir == self.dir && self.armed.load(Ordering::SeqCst);
        if counted && self.seen.fetch_add(1, Ordering::SeqCst) + 1 == self.nth {
            FaultAction::Drop
        } else {
            FaultAction::Deliver
        }
    }
}

/// Node 0 owns an object node 1 holds a replica of; node 1's delete of
/// it runs on a cluster whose one fault is `policy`, armed for the
/// delete alone. Returns the cluster, the id and the delete's outcome.
fn delete_from_the_holder_under(
    policy: Arc<DropNth>,
) -> (Cluster, ObjectId, Result<(), PlasmaError>) {
    let mut config = ClusterConfig::functional(2, 4 << 20);
    config.fault_policy = Some(policy.clone());
    config.interconnect.call_deadline = Some(Duration::from_millis(100));
    config.interconnect.max_attempts = 1;
    let cluster = Cluster::launch(config).unwrap();
    let id = ObjectId::from_name(&cluster.owned_id(0, "rep/twostep"));
    cluster.client(0).unwrap().put(id, &[5; 128], &[]).unwrap();
    assert!(cluster
        .store(0)
        .replicate_to(id, cluster.node_id(1))
        .unwrap());
    policy.armed.store(true, Ordering::SeqCst);
    let outcome = cluster.store(1).delete(id);
    policy.armed.store(false, Ordering::SeqCst);
    (cluster, id, outcome)
}

/// The owner's answer to the confirm is lost: the delete happened, every
/// copy with it, though its requester reports the peer unavailable.
#[test]
fn a_delete_whose_confirm_answer_is_lost_leaves_no_copy() {
    // The answers node 1 reads during its delete: the owner's list of
    // copies, then the answer to the confirm.
    let (cluster, id, outcome) = delete_from_the_holder_under(DropNth::new(Direction::Inbound, 2));
    let err = outcome.unwrap_err();
    assert!(matches!(err, PlasmaError::PeerUnavailable(_)), "{err:?}");
    for node in 0..2 {
        assert!(!cluster.store(node).core().contains(id), "node {node}");
        assert_eq!(replica_counts(cluster.store(node)), (0, 0));
    }
    assert_eq!(cluster.audit(), Vec::<String>::new());
}

/// The requester retires the copies and is never heard from again — its
/// confirm does not arrive. The owner keeps the object and the row of the
/// copy it was not told of; the object stays readable, reconcile trims
/// the row, and a later delete finishes in one step.
#[test]
fn a_delete_whose_requester_never_confirms_leaves_the_object_whole() {
    let (cluster, id, outcome) = delete_from_the_holder_under(DropNth::new(Direction::Outbound, 2));
    let err = outcome.unwrap_err();
    assert!(matches!(err, PlasmaError::PeerUnavailable(_)), "{err:?}");
    assert!(
        cluster.store(0).core().contains(id),
        "the owner's copy stays"
    );
    assert!(!cluster.store(1).core().contains(id), "the replica went");
    assert_eq!(replica_counts(cluster.store(0)), (1, 0));
    assert_eq!(replica_counts(cluster.store(1)), (0, 0));

    // Past the failed call's probe window, the object reads whole from
    // node 1 through its owner.
    cluster.clock().charge(Duration::from_secs(10));
    let reader = cluster.client(1).unwrap();
    let buf = reader.get_one(id, GET_TIMEOUT).unwrap();
    assert_eq!(buf.read_all().unwrap(), vec![5; 128]);
    reader.release(id).unwrap();

    for node in 0..2 {
        let report = cluster.store(node).reconcile();
        assert!(report.unreachable.is_empty(), "node {node}: {report:?}");
    }
    assert_eq!(replica_counts(cluster.store(0)), (0, 0));
    assert_eq!(cluster.audit(), Vec::<String>::new());
    cluster.client(1).unwrap().delete(id).unwrap();
    assert!(!cluster.store(0).core().contains(id));
    assert_eq!(cluster.audit(), Vec::<String>::new());
}

/// An unreachable replica holder fails the delete — with the object
/// intact everywhere — until the holder is back and can confirm.
#[test]
fn unconfirmed_invalidation_fails_the_delete_with_object_intact() {
    let mut cluster = Cluster::launch(ClusterConfig::functional(2, 4 << 20)).unwrap();
    let id = ObjectId::from_name(&cluster.owned_id(0, "rep/fail"));
    let payload = vec![0x5A; 512];
    cluster.client(0).unwrap().put(id, &payload, &[]).unwrap();
    assert!(cluster
        .store(0)
        .replicate_to(id, cluster.node_id(1))
        .unwrap());

    cluster.stop_rpc(1);
    let err = cluster.client(0).unwrap().delete(id).unwrap_err();
    assert!(
        matches!(
            err,
            PlasmaError::PeerUnavailable(_) | PlasmaError::Transport(_)
        ),
        "unexpected error: {err:?}"
    );
    // Object and ledger entry both intact: the failed delete left no
    // half-state behind.
    assert!(cluster.store(0).contains(id).unwrap());
    assert_eq!(
        entries(cluster.store(0), Side::Out, Kind::Replica),
        vec![(id, cluster.node_id(1))]
    );
    let buf = cluster.client(0).unwrap().get_one(id, GET_TIMEOUT).unwrap();
    assert_eq!(buf.read_all().unwrap(), payload);
    cluster.client(0).unwrap().release(id).unwrap();

    // Holder back: the delete completes and nothing survives.
    cluster.restart_rpc(1).unwrap();
    cluster.clock().charge(Duration::from_millis(200));
    // The failure detector marked the holder Down; probe until the
    // admission gate reopens (bounded — instant links, clean network).
    for _ in 0..100 {
        if cluster.client(0).unwrap().delete(id).is_ok() {
            break;
        }
        cluster.clock().charge(Duration::from_millis(50));
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(!cluster.store(0).contains(id).unwrap());
    assert!(!cluster.store(1).contains(id).unwrap());
    assert_eq!(replica_counts(cluster.store(0)).0, 0);
    assert_eq!(replica_counts(cluster.store(1)).1, 0);
}

/// A zero-length object (empty data, empty metadata) replicates,
/// serves an empty read at the holder, and invalidates cleanly.
#[test]
fn zero_length_object_replicates_and_invalidates() {
    let cluster = Cluster::launch(ClusterConfig::functional(2, 4 << 20)).unwrap();
    let id = ObjectId::from_name(&cluster.owned_id(0, "rep/zero"));
    cluster.client(0).unwrap().put(id, &[], &[]).unwrap();
    assert!(cluster
        .store(0)
        .replicate_to(id, cluster.node_id(1))
        .unwrap());

    let at_holder = cluster.client(1).unwrap();
    let buf = at_holder.get_one(id, GET_TIMEOUT).unwrap();
    assert_eq!(buf.read_all().unwrap(), Vec::<u8>::new());
    at_holder.release(id).unwrap();
    assert_eq!(
        cluster
            .store(1)
            .metrics_snapshot()
            .counter("disagg.replica.local_hits"),
        1
    );

    cluster.client(1).unwrap().delete(id).unwrap();
    assert!(!cluster.store(0).contains(id).unwrap());
    assert!(!cluster.store(1).contains(id).unwrap());
    assert_eq!(replica_counts(cluster.store(0)).0, 0);
    assert_eq!(replica_counts(cluster.store(1)).1, 0);
}

/// Lease and replica are mutually exclusive, both directions: a lent
/// object is never replicated, and a replicated object is never spilled
/// (its extra copies would dodge the single-lease accounting).
#[test]
fn lease_and_replica_are_mutually_exclusive() {
    let cluster = Cluster::launch(ClusterConfig::functional(3, 4 << 20)).unwrap();

    // Lent first: replicate_to refuses.
    let lent = ObjectId::from_name(&cluster.owned_id(0, "rep/lent"));
    cluster
        .client(0)
        .unwrap()
        .put(lent, &[1; 128], &[])
        .unwrap();
    assert!(cluster.store(0).spill_to(lent, cluster.node_id(1)).unwrap());
    assert!(!cluster
        .store(0)
        .replicate_to(lent, cluster.node_id(2))
        .unwrap());
    assert_eq!(replica_counts(cluster.store(0)).0, 0);

    // Replicated first: spill_to refuses, and the object stays put.
    let rep = ObjectId::from_name(&cluster.owned_id(0, "rep/pinned"));
    cluster.client(0).unwrap().put(rep, &[2; 128], &[]).unwrap();
    assert!(cluster
        .store(0)
        .replicate_to(rep, cluster.node_id(1))
        .unwrap());
    assert!(!cluster.store(0).spill_to(rep, cluster.node_id(2)).unwrap());
    assert!(cluster.store(0).core().peek(rep).is_some());
    assert!(
        !entries(cluster.store(0), Side::Out, Kind::Lease)
            .iter()
            .any(|(i, _)| *i == rep),
        "replicated object must never gain a lease"
    );
}

/// Regression: a `Moved` (lent) object is served from its holder — never
/// from a stale replica a previous incarnation of the id left behind.
/// Sequence: v1 is replicated to node 2, deleted (which invalidates that
/// replica), re-created as v2, then spilled to node 1. A read at node 2
/// must follow owner → holder and observe v2; serving its old local
/// replica would resurrect v1.
#[test]
fn moved_object_is_served_from_holder_not_stale_replica() {
    let cluster = Cluster::launch(ClusterConfig::functional(3, 4 << 20)).unwrap();
    let id = ObjectId::from_name(&cluster.owned_id(0, "rep/moved"));
    let v1 = vec![0x11; 512];
    let v2 = vec![0x22; 512];

    cluster.client(0).unwrap().put(id, &v1, &[]).unwrap();
    assert!(cluster
        .store(0)
        .replicate_to(id, cluster.node_id(2))
        .unwrap());
    cluster.client(0).unwrap().delete(id).unwrap();
    // The invalidation removed node 2's replica entirely.
    assert!(!cluster.store(2).contains(id).unwrap());

    cluster.client(0).unwrap().put(id, &v2, &[]).unwrap();
    assert!(cluster.store(0).spill_to(id, cluster.node_id(1)).unwrap());

    let reader = cluster.client(2).unwrap();
    let buf = reader.get_one(id, GET_TIMEOUT).unwrap();
    assert_eq!(
        buf.read_all().unwrap(),
        v2,
        "stale replica served for a moved object"
    );
    reader.release(id).unwrap();
    assert_eq!(
        cluster
            .store(2)
            .metrics_snapshot()
            .counter("disagg.replica.local_hits"),
        0,
        "read must not have been attributed to a replica"
    );
}

/// Heat-driven propagation: enough remote reads from one node push the
/// object to `HOT_AFTER_HITS`, and the next `replicate_hot` pass plants
/// a replica at that reader.
#[test]
fn replicate_hot_offers_replica_to_the_dominant_reader() {
    let cluster = Cluster::launch(ClusterConfig::functional(2, 4 << 20)).unwrap();
    let id = ObjectId::from_name(&cluster.owned_id(0, "rep/hot"));
    cluster.client(0).unwrap().put(id, &[7; 256], &[]).unwrap();

    let reader = cluster.client(1).unwrap();
    for _ in 0..disagg::elastic::HOT_AFTER_HITS {
        let buf = reader.get_one(id, GET_TIMEOUT).unwrap();
        buf.read_all().unwrap();
        drop(buf);
        reader.release(id).unwrap();
    }
    assert_eq!(cluster.store(0).replicate_hot().unwrap(), 1);
    assert_eq!(
        entries(cluster.store(0), Side::Out, Kind::Replica),
        vec![(id, cluster.node_id(1))]
    );
    // The reader's next get is local.
    let before = cluster
        .store(1)
        .metrics_snapshot()
        .counter("disagg.replica.local_hits");
    let buf = reader.get_one(id, GET_TIMEOUT).unwrap();
    buf.read_all().unwrap();
    drop(buf);
    reader.release(id).unwrap();
    assert_eq!(
        cluster
            .store(1)
            .metrics_snapshot()
            .counter("disagg.replica.local_hits"),
        before + 1
    );
}

/// Replica reconciliation heals one-sided state: a holder whose replica
/// vanished behind the owner's back reports its (now empty) survivor
/// set, and the owner trims the orphaned entry.
#[test]
fn reconcile_trims_orphaned_owner_replica_entries() {
    let cluster = Cluster::launch(ClusterConfig::functional(2, 4 << 20)).unwrap();
    let id = ObjectId::from_name(&cluster.owned_id(0, "rep/heal"));
    cluster.client(0).unwrap().put(id, &[3; 128], &[]).unwrap();
    assert!(cluster
        .store(0)
        .replicate_to(id, cluster.node_id(1))
        .unwrap());

    // The holder loses its replica without telling the owner (models a
    // local eviction).
    cluster.store(1).core().delete(id).unwrap();
    assert_eq!(replica_counts(cluster.store(0)).0, 1);

    let healed = cluster.store(1).reconcile();
    assert_eq!(healed.dropped.total(), 0);
    assert_eq!(healed.trimmed[Kind::Replica], 1);
    assert_eq!(healed.trimmed.total(), 1);
    assert_eq!(replica_counts(cluster.store(0)).0, 0);
    assert_eq!(replica_counts(cluster.store(1)).1, 0);
}

/// A replica's payload reaches the holder over the mapped data plane:
/// the `REPLICATE_AT` frame carries only the descriptor, and the bytes
/// are accounted on the holder's `mapped_payload_bytes` counter.
#[test]
fn replication_moves_the_payload_over_the_mapped_plane() {
    let cluster = Cluster::launch(ClusterConfig::functional(2, 4 << 20)).unwrap();
    let id = ObjectId::from_name(&cluster.owned_id(0, "rep/plane"));
    let payload = vec![0xEE; 2048];
    cluster.client(0).unwrap().put(id, &payload, &[]).unwrap();
    assert!(cluster
        .store(0)
        .replicate_to(id, cluster.node_id(1))
        .unwrap());
    assert_eq!(
        cluster
            .store(1)
            .metrics_snapshot()
            .counter("disagg.fabric.mapped_payload_bytes"),
        2048,
        "the holder pulled exactly the payload over the fabric"
    );

    let at_holder = cluster.client(1).unwrap();
    let buf = at_holder.get_one(id, GET_TIMEOUT).unwrap();
    assert_eq!(buf.read_all().unwrap(), payload);
    at_holder.release(id).unwrap();
    cluster.client(1).unwrap().delete(id).unwrap();
    assert!(!cluster.store(0).contains(id).unwrap());
}
