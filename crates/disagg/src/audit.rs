//! The cluster's promises at rest, checked on demand: [`Cluster::audit`]
//! (DESIGN §9, "Checked invariants", lists them). It reads each store's
//! local state — its ledger, its core's object table and its membership
//! table — so it sends no request and works with any node's interconnect
//! stopped.

use crate::cluster::Cluster;
use crate::delegation::{DelegationRecord, Kind, Side};
use crate::ring::Ring;
use plasma::{ObjectId, ObjectState};
use std::collections::{HashMap, HashSet};
use tfsim::NodeId;

impl Cluster {
    /// Every promise the cluster breaks right now, one line each; empty
    /// means it is consistent. Meant for a quiesced cluster: a get in
    /// flight holds a pin, so under load the list is not empty.
    pub fn audit(&self) -> Vec<String> {
        let mut violations = dangling(self);
        violations.extend(placement(self));
        violations
    }
}

/// The pin, release and reference ledgers: every one reads zero.
fn dangling(cluster: &Cluster) -> Vec<String> {
    let mut violations = Vec::new();
    for i in 0..cluster.len() {
        let store = cluster.store(i);
        let owner_pins = store.remote_pin_count();
        if owner_pins != 0 {
            violations.push(format!(
                "pin leak: node {i} still holds {owner_pins} owner-side remote pins at quiesce"
            ));
        }
        let held = store.held_remote_pins();
        if held != 0 {
            violations.push(format!(
                "pin leak: node {i} still ledgers {held} requester-side remote pins at quiesce"
            ));
        }
        let parked = store.pending_release_count();
        if parked != 0 {
            violations.push(format!(
                "release leak: node {i} still has {parked} parked releases after settle"
            ));
        }
        // An open group would defer a later release of one of its ids
        // for ever.
        let groups = store.open_release_groups();
        if groups != 0 {
            violations.push(format!(
                "release leak: node {i} still has {groups} open release groups after settle"
            ));
        }
        // Every reference a get handed out was released: a client that
        // held one back would keep its object undeletable for ever. A
        // leased copy keeps exactly one, its lease's, for as long as its
        // owner may hand the copy out.
        let leased: HashSet<ObjectId> = store
            .delegations()
            .into_iter()
            .filter(|r| (r.side, r.kind) == (Side::Held, Kind::Lease))
            .map(|r| r.id)
            .collect();
        let mut refs = 0;
        for object in store.core().list() {
            let lease = u64::from(leased.contains(&object.id));
            refs += object.ref_count.saturating_sub(lease);
            if object.ref_count < lease {
                violations.push(format!(
                    "Lease violation: node {i} holds {:?} on lease without the lease's reference",
                    object.id
                ));
            }
        }
        if refs != 0 {
            violations.push(format!(
                "reference leak: node {i} still counts {refs} object references at quiesce"
            ));
        }
    }
    violations
}

/// Ring ownership and the delegation ledgers: with rendezvous placement
/// every sealed survivor must live where the ring computes its owner, or
/// at a holder that owner's ledger names — the one holder of its lease,
/// or a holder of one of its replicas — and all nodes must have
/// converged on one membership epoch. Both sides of every lease and
/// replica must agree: an owner-side entry whose holder has no sealed
/// copy (or no matching `held` entry) is an orphan, and so is the
/// reverse. Holders must be cluster members, a lease means the owner
/// gave its copy up and hands out the holder's copy, a replica means it
/// kept it, and no id is both lent and replicated. A violation here
/// means a forwarded create, a spill or a replication landed (or left
/// residue) somewhere the ledgers cannot account for.
fn placement(cluster: &Cluster) -> Vec<String> {
    let nodes = cluster.len();
    let mut violations = Vec::new();
    let membership = cluster
        .store(0)
        .membership()
        .expect("Cluster::launch installs a membership table on every store");
    let ring = Ring::new(membership);
    for i in 0..nodes {
        let epoch = cluster.store(i).ring_epoch();
        if epoch != ring.epoch() {
            violations.push(format!(
                "epoch split: node {i} is at epoch {epoch}, node 0 at {}",
                ring.epoch()
            ));
        }
    }

    // Gather each node's sealed set and its lease and replica entries.
    let index_of: HashMap<NodeId, usize> = (0..nodes).map(|i| (cluster.node_id(i), i)).collect();
    let mut sealed_at: Vec<HashSet<ObjectId>> = vec![HashSet::new(); nodes];
    let mut sealers: HashMap<ObjectId, Vec<usize>> = HashMap::new();
    for (i, sealed) in sealed_at.iter_mut().enumerate() {
        for info in cluster.store(i).core().list() {
            if info.state == ObjectState::Sealed {
                sealed.insert(info.id);
                sealers.entry(info.id).or_default().push(i);
            }
        }
    }
    let copies: Vec<Vec<DelegationRecord>> = (0..nodes)
        .map(|i| {
            let all = cluster.store(i).delegations().into_iter();
            all.filter(|r| r.kind.is_copy()).collect()
        })
        .collect();
    // out[(owner idx, id, kind)] = holder idxs, from the owners' side.
    // Every recorded holder must be a cluster member, and the copy a
    // lease hands out must be the one its holder seals.
    let mut out: HashMap<(usize, ObjectId, Kind), HashSet<usize>> = HashMap::new();
    for (i, records) in copies.iter().enumerate() {
        for r in records.iter().filter(|r| r.side == Side::Out) {
            match index_of.get(&r.peer) {
                Some(&h) => {
                    out.entry((i, r.id, r.kind)).or_default().insert(h);
                    let held = cluster.store(h).core().peek(r.id);
                    if r.kind == Kind::Lease && held.is_some() && r.at != held {
                        violations.push(format!(
                            "Lease violation: node {i} hands out {:?} for {:?}, which is not \
                             node {h}'s copy {held:?}",
                            r.at, r.id
                        ));
                    }
                }
                None => violations.push(format!(
                    "{:?} violation: node {i} records {:?} at unknown node {:?} \
                     (holder outside membership)",
                    r.kind, r.id, r.peer
                )),
            }
        }
    }
    let names = |owner: usize, id: ObjectId, kind: Kind, holder: usize| {
        out.get(&(owner, id, kind))
            .is_some_and(|holders| holders.contains(&holder))
    };

    for (i, sealed) in sealed_at.iter().enumerate() {
        let node_id = cluster.node_id(i);
        for &id in sealed {
            let owner = ring.owner_of(id);
            if owner == Some(node_id) {
                continue; // on-ring: the normal case
            }
            // Off-ring: legitimate only as a recorded holder of the ring
            // owner's lease or read replica.
            let accounted = owner
                .and_then(|o| index_of.get(&o))
                .is_some_and(|&o| names(o, id, Kind::Lease, i) || names(o, id, Kind::Replica, i));
            if !accounted {
                violations.push(format!(
                    "ring violation: node {i} holds {id:?} off-ring with no matching \
                     lease or replica entry at its ring owner {owner:?}"
                ));
            }
        }
    }
    for (id, sealers) in &sealers {
        if sealers.len() <= 1 {
            continue;
        }
        // Multiple sealed copies are legal only for read replication:
        // one sealer is the ring owner (the write/metadata authority)
        // and every other sealer is a replica holder it recorded.
        // Anything else is a fork.
        let owner_idx = ring.owner_of(*id).and_then(|o| index_of.get(&o)).copied();
        let legal = owner_idx.is_some_and(|o| {
            sealers.contains(&o)
                && sealers
                    .iter()
                    .all(|&h| h == o || names(o, *id, Kind::Replica, h))
        });
        if !legal {
            violations.push(format!(
                "ring violation: {id:?} is sealed on multiple nodes {sealers:?} not \
                 accounted for by the ring owner's replica entries"
            ));
        }
    }

    // Owner-side entries must be honored by their holders, and say the
    // truth about the owner's own copy.
    for (&(owner, id, kind), holders) in &out {
        let owner_seals = sealed_at[owner].contains(&id);
        if kind == Kind::Lease && owner_seals {
            violations.push(format!(
                "Lease violation: node {owner} both seals {id:?} and lends it to {holders:?}"
            ));
        }
        if kind == Kind::Replica && !owner_seals {
            violations.push(format!(
                "Replica violation: node {owner} records replicas of {id:?} but seals no \
                 owner copy (stale replica outlives its object)"
            ));
        }
        if kind == Kind::Replica && out.contains_key(&(owner, id, Kind::Lease)) {
            violations.push(format!(
                "Replica violation: node {owner} both lends {id:?} and records replicas \
                 of it (lent and replicated are mutually exclusive)"
            ));
        }
        for &h in holders {
            if !sealed_at[h].contains(&id) {
                violations.push(format!(
                    "{kind:?} violation: node {owner} records {id:?} at node {h}, \
                     which seals no copy (orphaned owner-side entry)"
                ));
            }
            let backref = copies[h].iter().any(|r| {
                (r.side, r.kind, r.id) == (Side::Held, kind, id)
                    && index_of.get(&r.peer) == Some(&owner)
            });
            if !backref {
                violations.push(format!(
                    "{kind:?} violation: node {owner} records {id:?} at node {h}, \
                     but the holder has no matching held entry"
                ));
            }
        }
    }
    // Holder-side entries must be backed by the owner's ledger.
    for (i, records) in copies.iter().enumerate() {
        for r in records.iter().filter(|r| r.side == Side::Held) {
            let backed = index_of
                .get(&r.peer)
                .is_some_and(|&owner| names(owner, r.id, r.kind, i));
            if !backed {
                violations.push(format!(
                    "{:?} violation: node {i} holds {:?} for node {:?}, which has no \
                     matching owner-side entry (orphaned held entry)",
                    r.kind, r.id, r.peer
                ));
            }
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;
    use std::time::Duration;

    /// A 3-node cluster and an id node 0 owns.
    fn three_nodes(name: &str) -> (Cluster, ObjectId) {
        let cluster = Cluster::launch(ClusterConfig::functional(3, 1 << 20)).unwrap();
        let id = ObjectId::from_name(&cluster.owned_id(0, name));
        (cluster, id)
    }

    /// `id`, created and sealed on node `i` by its core alone.
    fn seal_at(cluster: &Cluster, i: usize, id: ObjectId) {
        let core = cluster.store(i).core();
        core.create(id, 256, 0).unwrap();
        core.seal(id).unwrap();
        core.release(id).unwrap();
    }

    /// A lease row of `id` on `side` of node `at`'s ledger, naming `peer`,
    /// as a spill leaves it where the holder seals a copy: the owner's
    /// row hands that copy out, and the holder keeps its reference.
    fn plant(cluster: &Cluster, at: usize, side: Side, id: ObjectId, peer: usize) {
        let ledger = cluster.store(at).ledger();
        let holder = if side == Side::Out { peer } else { at };
        let copy = cluster.store(holder).core().peek(id);
        let peer = cluster.node_id(peer);
        match (side, copy) {
            (Side::Out, Some(copy)) => ledger.lend_out(id, peer, copy),
            (Side::Held, Some(_)) => {
                cluster.store(at).core().get_local(id);
                ledger.record(side, id, Kind::Lease, peer, 256);
            }
            _ => ledger.record(side, id, Kind::Lease, peer, 256),
        }
    }

    /// The audit's only line, which must name `promise`.
    fn the_one(cluster: &Cluster, promise: &str) -> String {
        let violations = cluster.audit();
        assert_eq!(violations.len(), 1, "{violations:#?}");
        assert!(violations[0].contains(promise), "{violations:#?}");
        violations[0].clone()
    }

    /// Put, remote get, spill, replicate and release leave nothing for
    /// the audit to report.
    #[test]
    fn a_cluster_that_carried_traffic_reads_an_empty_audit() {
        let (cluster, _) = three_nodes("audit/traffic");
        let (producer, reader) = (cluster.client(0).unwrap(), cluster.client(1).unwrap());
        let names = cluster.owned_ids(0, "audit/traffic", 3);
        let ids: Vec<ObjectId> = names.iter().map(|n| ObjectId::from_name(n)).collect();
        for id in &ids {
            producer.put(*id, &[3; 512], &[]).unwrap();
        }
        let store = cluster.store(0);
        assert!(store.spill_to(ids[1], cluster.node_id(2)).unwrap());
        assert!(store.replicate_to(ids[2], cluster.node_id(1)).unwrap());
        let got = reader.get(&ids, Duration::from_secs(1)).unwrap();
        assert!(got.iter().all(Option::is_some));
        assert!(!cluster.audit().is_empty(), "a held batch is dangling");
        for id in &ids {
            reader.release(*id).unwrap();
        }
        assert_eq!(cluster.audit(), Vec::<String>::new());
    }

    /// The audit sees a reference nobody released, and only while it is
    /// held.
    #[test]
    fn an_unreleased_reference_fails_the_quiesce_audit() {
        let cluster = Cluster::launch(ClusterConfig::functional(2, 1 << 20)).unwrap();
        let client = cluster.client(1).unwrap();
        let id = ObjectId::from_name(&cluster.owned_id(1, "chaos/held"));
        client.put(id, &[1; 64], &[]).unwrap();
        assert!(cluster.audit().is_empty());
        let _buf = client.get_one(id, Duration::from_secs(1)).unwrap();
        let leak = the_one(&cluster, "reference leak");
        assert!(leak.contains("node 1"), "{leak}");
        client.release(id).unwrap();
        assert!(cluster.audit().is_empty());
    }

    #[test]
    fn an_off_ring_copy_no_ledger_names_is_a_ring_violation() {
        let (cluster, id) = three_nodes("audit/stray");
        seal_at(&cluster, 2, id);
        the_one(&cluster, "ring violation: node 2 holds");
    }

    #[test]
    fn an_out_row_whose_holder_seals_nothing_is_an_orphan() {
        let (cluster, id) = three_nodes("audit/lent");
        plant(&cluster, 0, Side::Out, id, 1);
        plant(&cluster, 1, Side::Held, id, 0);
        the_one(&cluster, "at node 1, which seals no copy");
    }

    #[test]
    fn a_held_row_with_no_out_row_is_an_orphan() {
        let (cluster, id) = three_nodes("audit/borrowed");
        plant(&cluster, 1, Side::Held, id, 0);
        the_one(&cluster, "orphaned held entry");
    }

    #[test]
    fn a_lease_whose_owner_still_seals_the_object_is_a_violation() {
        let (cluster, id) = three_nodes("audit/kept");
        seal_at(&cluster, 0, id);
        // Lent to itself: the holder then seals a copy and has the held
        // row, so of a lease's promises only "the owner gave its copy up"
        // is broken.
        plant(&cluster, 0, Side::Out, id, 0);
        plant(&cluster, 0, Side::Held, id, 0);
        the_one(&cluster, "Lease violation: node 0 both seals");
    }
}
