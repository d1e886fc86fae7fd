//! Deterministic object placement: a rendezvous-hash (HRW) ring over a
//! versioned membership table.
//!
//! Every node hashes `(object id, candidate node)` and the candidate with
//! the highest score owns the id — a pure local computation, so any node
//! resolves any id's owner in O(nodes) with **zero RPCs**. Rendezvous
//! hashing is minimally disruptive: removing one node reassigns only the
//! ids that node owned (each surviving node's scores are unchanged, so an
//! id only moves when its argmax disappears).
//!
//! The membership table is versioned by an epoch. Nodes gossip epochs on
//! interconnect requests/responses; a node that observes a newer epoch
//! pulls the full table with the `MEMBERSHIP` verb. While epochs disagree
//! (a membership change in flight), or when the computed owner does not
//! hold an id (e.g. an earlier epoch placed it elsewhere), gets fall back to a
//! `GET_MANY` broadcast — the ring is a router, never an oracle about
//! where bytes actually live.

use plasma::ObjectId;
use tfsim::NodeId;

/// A versioned view of cluster membership: the node set the ring hashes
/// over, tagged with the epoch that produced it. Higher epochs supersede
/// lower ones; equal epochs are identical tables by construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Membership {
    /// Version of this table. Epoch 0 is reserved for "no membership
    /// installed".
    pub epoch: u64,
    /// Member nodes, sorted and deduplicated.
    pub nodes: Vec<NodeId>,
}

impl Membership {
    /// Build a membership table; `nodes` is sorted and deduplicated so
    /// equal member sets compare equal regardless of insertion order.
    pub fn new(epoch: u64, mut nodes: Vec<NodeId>) -> Self {
        nodes.sort_unstable_by_key(|n| n.0);
        nodes.dedup();
        Membership { epoch, nodes }
    }

    /// Whether `node` is a member.
    pub fn contains(&self, node: NodeId) -> bool {
        self.nodes.binary_search_by_key(&node.0, |n| n.0).is_ok()
    }
}

/// The rendezvous (highest-random-weight) ring over a [`Membership`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ring {
    membership: Membership,
}

impl Ring {
    /// Ring over `membership`.
    pub fn new(membership: Membership) -> Self {
        Ring { membership }
    }

    /// The membership this ring hashes over.
    pub fn membership(&self) -> &Membership {
        &self.membership
    }

    /// The table's epoch.
    pub fn epoch(&self) -> u64 {
        self.membership.epoch
    }

    /// The owner of `id`: the member with the highest `(id, node)` score.
    /// Ties break toward the lowest node id (they require a 64-bit hash
    /// collision, but the rule keeps placement total and deterministic).
    /// `None` when the membership is empty.
    pub fn owner_of(&self, id: ObjectId) -> Option<NodeId> {
        let id_hash = fnv1a64(id.as_bytes());
        let nodes = self.membership.nodes.iter().copied();
        nodes.max_by_key(|&node| rank(id_hash, node))
    }

    /// Every member in `id`'s rendezvous order: the owner first, then
    /// the node that would own `id` were the owner gone, and so on. The
    /// spill tier offers a cold object to its successors in this order.
    pub fn ranked(&self, id: ObjectId) -> Vec<NodeId> {
        let id_hash = fnv1a64(id.as_bytes());
        let mut nodes = self.membership.nodes.clone();
        nodes.sort_by_cached_key(|&node| std::cmp::Reverse(rank(id_hash, node)));
        nodes
    }
}

/// `node`'s standing for an id: its score, ties to the lowest node id.
fn rank(id_hash: u64, node: NodeId) -> (u64, std::cmp::Reverse<u16>) {
    (score(id_hash, node), std::cmp::Reverse(node.0))
}

/// Per-(id, node) rendezvous score: the id hash mixed with the node
/// through one round of splitmix64, so each node sees an independent
/// permutation of id scores.
fn score(id_hash: u64, node: NodeId) -> u64 {
    splitmix64(id_hash ^ splitmix64(0x9e37_79b9_7f4a_7c15 ^ u64::from(node.0)))
}

/// FNV-1a over the id bytes: cheap, stable, and good enough dispersion
/// once post-mixed by splitmix64.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// splitmix64 finalizer: a full-avalanche bijection on u64.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn oid(name: &str) -> ObjectId {
        ObjectId::from_name(name)
    }

    fn ring(epoch: u64, nodes: &[u16]) -> Ring {
        Ring::new(Membership::new(
            epoch,
            nodes.iter().map(|&n| NodeId(n)).collect(),
        ))
    }

    #[test]
    fn empty_membership_has_no_owner() {
        assert_eq!(ring(1, &[]).owner_of(oid("x")), None);
    }

    #[test]
    fn single_node_owns_everything() {
        let r = ring(1, &[3]);
        for i in 0..100 {
            assert_eq!(r.owner_of(oid(&format!("obj/{i}"))), Some(NodeId(3)));
        }
    }

    #[test]
    fn membership_normalizes_order_and_duplicates() {
        let a = Membership::new(1, vec![NodeId(2), NodeId(0), NodeId(1), NodeId(2)]);
        let b = Membership::new(1, vec![NodeId(0), NodeId(1), NodeId(2)]);
        assert_eq!(a, b);
        assert!(a.contains(NodeId(1)));
        assert!(!a.contains(NodeId(9)));
    }

    #[test]
    fn placement_spreads_across_nodes() {
        // Not a uniformity proof — just that no node is starved or
        // monopolizing, which would defeat sharding entirely.
        let r = ring(1, &[0, 1, 2, 3]);
        let mut counts = [0usize; 4];
        for i in 0..4000 {
            let owner = r.owner_of(oid(&format!("spread/{i}"))).unwrap();
            counts[owner.0 as usize] += 1;
        }
        for (node, &c) in counts.iter().enumerate() {
            assert!(
                (500..=1500).contains(&c),
                "node {node} owns {c} of 4000 ids: {counts:?}"
            );
        }
    }

    /// Sorted-deduped member list (the vendored proptest has no set
    /// strategy, so tests draw a vec and normalize it here).
    fn members_of(nodes: Vec<u16>) -> Vec<u16> {
        let mut members = nodes;
        members.sort_unstable();
        members.dedup();
        members
    }

    proptest! {
        /// Stable: the owner is a pure function of (membership, id) —
        /// recomputing with an equal table always yields the same owner,
        /// and the owner is always a member.
        #[test]
        fn placement_is_stable_and_total(
            nodes in proptest::collection::vec(0u16..32, 1..8),
            names in proptest::collection::vec("[a-z]{1,12}", 1..40),
        ) {
            let members = members_of(nodes);
            let r1 = ring(7, &members);
            let r2 = ring(7, &members);
            for name in &names {
                let owner = r1.owner_of(oid(name)).unwrap();
                prop_assert_eq!(owner, r2.owner_of(oid(name)).unwrap());
                prop_assert!(r1.membership().contains(owner));
            }
        }

        /// Minimally disruptive: removing one node moves only the ids that
        /// node owned; every other id keeps its owner.
        #[test]
        fn removal_only_moves_the_removed_nodes_ids(
            nodes in proptest::collection::vec(0u16..32, 2..8),
            victim_index in 0usize..8,
            names in proptest::collection::vec("[a-z]{1,12}", 1..40),
        ) {
            let members = members_of(nodes);
            if members.len() < 2 {
                return Ok(()); // dedup can collapse to one node
            }
            let victim = members[victim_index % members.len()];
            let survivors: Vec<u16> =
                members.iter().copied().filter(|&n| n != victim).collect();
            let before = ring(1, &members);
            let after = ring(2, &survivors);
            for name in &names {
                let owner_before = before.owner_of(oid(name)).unwrap();
                let owner_after = after.owner_of(oid(name)).unwrap();
                if owner_before == NodeId(victim) {
                    prop_assert_ne!(owner_after, NodeId(victim));
                } else {
                    prop_assert_eq!(owner_before, owner_after,
                        "id {} moved although its owner survived", name);
                }
            }
        }

        /// Cross-node agreement: two nodes with equal epochs (hence equal
        /// tables) compute identical owners even if their local node ids
        /// differ — placement carries no observer dependence.
        #[test]
        fn nodes_with_equal_epochs_agree(
            nodes in proptest::collection::vec(0u16..32, 1..8),
            shuffled_seed in any::<u64>(),
            names in proptest::collection::vec("[a-z]{1,12}", 1..40),
        ) {
            let members = members_of(nodes);
            // A peer may have learned members in any order; Membership
            // normalizes, so the rings must agree.
            let mut reordered = members.clone();
            let n = reordered.len();
            for i in 0..n {
                let j = (shuffled_seed as usize).wrapping_add(i * 7) % n;
                reordered.swap(i, j);
            }
            let here = ring(5, &members);
            let there = Ring::new(Membership::new(
                5,
                reordered.into_iter().map(NodeId).collect(),
            ));
            prop_assert_eq!(here.membership(), there.membership());
            for name in &names {
                prop_assert_eq!(here.owner_of(oid(name)), there.owner_of(oid(name)));
            }
        }

        /// The rendezvous order is every member once, led by the owner,
        /// and its second entry owns the id once the owner is gone: a
        /// spill lands where the id would move next.
        #[test]
        fn ranked_is_the_succession_of_owners(
            nodes in proptest::collection::vec(0u16..32, 1..8),
            names in proptest::collection::vec("[a-z]{1,12}", 1..40),
        ) {
            let members = members_of(nodes);
            let r = ring(3, &members);
            for name in &names {
                let ranked: Vec<u16> = r.ranked(oid(name)).iter().map(|n| n.0).collect();
                prop_assert_eq!(ranked.len(), members.len());
                prop_assert_eq!(members_of(ranked.clone()), members.clone());
                prop_assert_eq!(r.owner_of(oid(name)), Some(NodeId(ranked[0])));
                let successor = ring(4, &ranked[1..]).owner_of(oid(name));
                prop_assert_eq!(successor, ranked.get(1).map(|&n| NodeId(n)));
            }
        }
    }
}
