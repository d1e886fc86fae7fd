//! Hot-object **read replication** bookkeeping.
//!
//! Sealed objects are immutable, so a replica can serve reads forever —
//! until the owner deletes the object. The protocol therefore has
//! exactly one dangerous transition: delete. The store handles it by
//! invalidating every replica *before* the owner's local delete (see
//! DESIGN.md §13, §15); a live replica thus implies the object has not been
//! successfully deleted, which is what lets replicas be served as plain
//! sealed local objects with no per-read coordination.
//!
//! This module holds the policy, [`ReplicationConfig`] (what gets
//! replicated, how widely). The bookkeeping is the `Replica` kind of the
//! [`crate::delegation`] ledger — owners remember which peers hold
//! replicas of their objects, holders remember which owner each replica
//! came from — and the chaos quiesce audit cross-checks both sides
//! against cluster state (replica set ⊆ membership, never lent and
//! replicated at once, no stale replica after a delete).

/// What the replication machinery is allowed to do on one store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicationConfig {
    /// Master switch. When false the store neither offers nor accepts
    /// replicas (existing benches and chaos plans replay unchanged).
    pub enabled: bool,
    /// Remote-read heat (per `HeatMap` window) an object must reach
    /// before it is offered a replica on its hottest reader.
    pub min_hits: u32,
    /// Cap on replica holders per object — bounds the invalidation
    /// fan-out a delete must complete before it may proceed.
    pub max_holders: usize,
}

impl Default for ReplicationConfig {
    fn default() -> Self {
        ReplicationConfig {
            enabled: true,
            min_hits: 8,
            max_holders: 2,
        }
    }
}
