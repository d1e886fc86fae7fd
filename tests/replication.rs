//! Hot-object read replication acceptance: replicas serve reads locally
//! at the holder, deletes invalidate every replica before they proceed
//! (an unreachable holder fails the delete with the object intact), the
//! single-lease elastic tier and replication are mutually exclusive,
//! zero-length objects replicate cleanly, and a `Moved` (lent) object is
//! always served from its holder — never from a stale replica left by an
//! earlier incarnation.

use disagg::{Cluster, ClusterConfig, DisaggStore, Kind, NodeId, Side};
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
