//! Distributed object-usage tracking.
//!
//! The paper identifies "distributed object-usage sharing" as a required
//! constraint — a store must not evict objects that *remote* clients are
//! still reading — but defers the implementation to future work. This
//! module implements it: when a store answers a `GET_MANY`, each found
//! object gains a store-side reference attributed to the requesting node
//! in a [`RemoteRefs`] table; a later `RELEASE` RPC from that node drops
//! it. Together with the store's rule that referenced objects are never
//! evicted, remote readers are safe from eviction.

use parking_lot::Mutex;
use plasma::ObjectId;
use std::collections::HashMap;

use tfsim::NodeId;

/// References this store holds on behalf of remote requesters.
#[derive(Debug, Default)]
pub struct RemoteRefs {
    map: Mutex<HashMap<(NodeId, ObjectId), u64>>,
}

impl RemoteRefs {
    /// New, empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one reference held for `requester`.
    pub fn pin(&self, requester: NodeId, id: ObjectId) {
        *self.map.lock().entry((requester, id)).or_insert(0) += 1;
    }

    /// Drop one reference held for `requester`. Returns false if none was
    /// recorded (protocol misuse or duplicate release).
    pub fn unpin(&self, requester: NodeId, id: ObjectId) -> bool {
        let mut map = self.map.lock();
        match map.get_mut(&(requester, id)) {
            Some(n) if *n > 1 => {
                *n -= 1;
                true
            }
            Some(_) => {
                map.remove(&(requester, id));
                true
            }
            None => false,
        }
    }

    /// Total references currently held for remote nodes.
    pub fn total(&self) -> u64 {
        self.map.lock().values().sum()
    }

    /// References held for a specific requester.
    pub fn held_for(&self, requester: NodeId) -> u64 {
        self.map
            .lock()
            .iter()
            .filter(|((n, _), _)| *n == requester)
            .map(|(_, c)| *c)
            .sum()
    }

    /// Trim the pins held for `requester` down to the counts it reports
    /// actually ledgering (ids absent from `holds` are held zero times).
    /// Returns the `(id, excess)` pairs that were trimmed, so the caller
    /// can drop the matching object references.
    ///
    /// This heals pins orphaned by lost responses: the owner pinned
    /// while serving a lookup, but the response never reached the
    /// requester, so nothing will ever release the pin. Only sound while
    /// no lookup/release traffic from `requester` is in flight (a
    /// response in flight carries pins the requester has not ledgered
    /// yet) — reconcile at quiesce, not under load.
    pub fn reconcile(
        &self,
        requester: NodeId,
        holds: &HashMap<ObjectId, u64>,
    ) -> Vec<(ObjectId, u64)> {
        let mut map = self.map.lock();
        let mut trimmed = Vec::new();
        map.retain(|(node, id), count| {
            if *node != requester {
                return true;
            }
            let reported = holds.get(id).copied().unwrap_or(0);
            if *count > reported {
                trimmed.push((*id, *count - reported));
                *count = reported;
            }
            *count > 0
        });
        trimmed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(n: u8) -> ObjectId {
        ObjectId::from_bytes([n; 20])
    }

    #[test]
    fn pin_unpin_counts() {
        let r = RemoteRefs::new();
        r.pin(NodeId(1), id(1));
        r.pin(NodeId(1), id(1));
        r.pin(NodeId(2), id(1));
        assert_eq!(r.total(), 3);
        assert_eq!(r.held_for(NodeId(1)), 2);
        assert!(r.unpin(NodeId(1), id(1)));
        assert!(r.unpin(NodeId(1), id(1)));
        assert!(!r.unpin(NodeId(1), id(1)), "no refs left for node 1");
        assert_eq!(r.total(), 1);
    }

    #[test]
    fn reconcile_trims_to_reported_counts() {
        let r = RemoteRefs::new();
        for _ in 0..3 {
            r.pin(NodeId(1), id(1)); // requester reports 1 → trim 2
        }
        r.pin(NodeId(1), id(2)); // unreported → trim 1
        r.pin(NodeId(1), id(3)); // reported exactly → untouched
        r.pin(NodeId(2), id(1)); // other requester → untouched

        let holds = HashMap::from([(id(1), 1), (id(3), 1), (id(9), 5)]);
        let mut trimmed = r.reconcile(NodeId(1), &holds);
        trimmed.sort();
        assert_eq!(trimmed, vec![(id(1), 2), (id(2), 1)]);
        assert_eq!(r.held_for(NodeId(1)), 2);
        assert_eq!(r.held_for(NodeId(2)), 1);
        // Reporting more than held never inflates the ledger.
        assert!(r.reconcile(NodeId(1), &holds).is_empty());
        // id(9) was never pinned here; the report alone creates nothing.
        assert!(!r.unpin(NodeId(1), id(9)));
    }
}
