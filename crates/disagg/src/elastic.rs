//! Elastic capacity tier: pressure model and heat tracking.
//!
//! Three small mechanisms that together let a node's effective capacity
//! stretch across the cluster:
//!
//! * **Pressure-driven spill** — a node above its high watermark offers
//!   cold sealed objects (the LRU tail) to each id's rendezvous
//!   successors in turn; the lender's own headroom gate decides. It
//!   seals its copy before the owner deletes, so a lost response can
//!   duplicate an immutable object but never lose it.
//! * **The lease** — both ends record the delegation in the
//!   [`crate::delegation`] ledger. The ring owner keeps the `out` entry
//!   so `get`s routed to it answer with a one-hop `Moved` redirect; the
//!   holder keeps the `held` entry so quiesce reconciliation can prove
//!   no delegation is orphaned.
//! * **Heat tracking** — owners count remote hits per (object, reader)
//!   and push sufficiently hot objects *toward* their dominant reader
//!   (rebalance) or copy them there (read replication), turning remote
//!   reads into local ones.
//!
//! Admission control rides the same tier: a bounded number of in-flight
//! (created-but-unsealed) objects per node
//! ([`crate::DisaggConfig::max_inflight_creates`]), beyond which `create`
//! sheds load with [`plasma::PlasmaError::Overloaded`] instead of
//! collapsing.
//!
//! The thresholds below are constants, not settings: every workload runs
//! the tier at these values (DESIGN.md §5, "Options").

use parking_lot::Mutex;
use plasma::ObjectId;
use std::collections::HashMap;
use tfsim::NodeId;

/// Local occupancy (parts-per-million of capacity) from which
/// [`maybe_spill`](crate::DisaggStore::maybe_spill) pushes cold objects
/// to lenders.
pub const HIGH_WATERMARK_PPM: u64 = 850_000;

/// Spilling stops once occupancy drops to this level.
pub const LOW_WATERMARK_PPM: u64 = 700_000;

/// A lender refuses to adopt an object that would push its own occupancy
/// (parts-per-million of capacity) above this level.
pub(crate) const LEND_HEADROOM_PPM: u64 = 600_000;

// A lender must never be pushed into spilling by what it adopted.
const _: () =
    assert!(LEND_HEADROOM_PPM < LOW_WATERMARK_PPM && LOW_WATERMARK_PPM < HIGH_WATERMARK_PPM);

/// Remote hits from one reader, per [`HeatMap`] window, before a
/// rebalance or replication pass considers the object hot enough to move
/// toward — or be copied to — that reader.
pub const HOT_AFTER_HITS: u32 = 8;

/// Backoff hint carried by every `Overloaded` rejection, milliseconds.
pub const RETRY_AFTER_MS: u64 = 25;

/// Owner-side remote-hit accounting: how many times each remote reader
/// fetched each object, so rebalancing can move hot objects toward their
/// dominant consumer. Complements the aggregate
/// `disagg.get.remote_hit.latency_ns` histogram with the per-object
/// attribution that histogram cannot carry.
#[derive(Debug, Default)]
pub struct HeatMap {
    state: Mutex<HashMap<ObjectId, HashMap<NodeId, u32>>>,
}

impl HeatMap {
    /// An empty heat map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Count one remote hit on `id` by `reader`.
    pub fn record(&self, id: ObjectId, reader: NodeId) {
        *self
            .state
            .lock()
            .entry(id)
            .or_default()
            .entry(reader)
            .or_insert(0) += 1;
    }

    /// The hottest reader of `id` and its hit count, if any.
    pub fn hottest(&self, id: ObjectId) -> Option<(NodeId, u32)> {
        self.state.lock().get(&id).and_then(|readers| {
            // Deterministic tie-break: lowest node id wins.
            readers
                .iter()
                .max_by_key(|(node, hits)| (**hits, std::cmp::Reverse(node.0)))
                .map(|(node, hits)| (*node, *hits))
        })
    }

    /// Drain every object whose hottest reader reached `min_hits`,
    /// returning `(id, reader, hits)` triples. Drained objects restart
    /// cold; objects below the threshold keep accumulating.
    pub fn drain_hot(&self, min_hits: u32) -> Vec<(ObjectId, NodeId, u32)> {
        let mut st = self.state.lock();
        let hot: Vec<(ObjectId, NodeId, u32)> = st
            .iter()
            .filter_map(|(id, readers)| {
                readers
                    .iter()
                    .max_by_key(|(node, hits)| (**hits, std::cmp::Reverse(node.0)))
                    .filter(|(_, hits)| **hits >= min_hits)
                    .map(|(node, hits)| (*id, *node, *hits))
            })
            .collect();
        let mut out = hot;
        out.sort_by_key(|(id, _, _)| *id);
        for (id, _, _) in &out {
            st.remove(id);
        }
        out
    }

    /// Forget everything recorded about `id` (deleted or already moved).
    pub fn clear(&self, id: ObjectId) {
        self.state.lock().remove(&id);
    }

    /// Number of objects currently tracked.
    pub fn len(&self) -> usize {
        self.state.lock().len()
    }

    /// True when no object has recorded heat.
    pub fn is_empty(&self) -> bool {
        self.state.lock().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(n: u8) -> ObjectId {
        ObjectId::from_bytes([n; 20])
    }

    #[test]
    fn heat_map_finds_dominant_reader() {
        let heat = HeatMap::new();
        for _ in 0..3 {
            heat.record(id(1), NodeId(4));
        }
        heat.record(id(1), NodeId(9));
        assert_eq!(heat.hottest(id(1)), Some((NodeId(4), 3)));
        assert_eq!(heat.hottest(id(2)), None);
    }

    #[test]
    fn heat_ties_break_to_lowest_node() {
        let heat = HeatMap::new();
        heat.record(id(1), NodeId(9));
        heat.record(id(1), NodeId(3));
        assert_eq!(heat.hottest(id(1)), Some((NodeId(3), 1)));
    }

    #[test]
    fn drain_hot_removes_only_objects_over_threshold() {
        let heat = HeatMap::new();
        for _ in 0..5 {
            heat.record(id(1), NodeId(2));
        }
        heat.record(id(2), NodeId(3));
        let hot = heat.drain_hot(4);
        assert_eq!(hot, vec![(id(1), NodeId(2), 5)]);
        assert_eq!(heat.len(), 1, "cold object keeps accumulating");
        assert_eq!(heat.hottest(id(2)), Some((NodeId(3), 1)));
        assert!(heat.drain_hot(4).is_empty(), "drained objects restart cold");
    }
}
