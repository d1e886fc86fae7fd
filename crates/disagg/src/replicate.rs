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
//! replicated). The bookkeeping is the `Replica` kind of the
//! [`crate::delegation`] ledger — owners remember which peers hold
//! replicas of their objects, holders remember which owner each replica
//! came from — and the chaos quiesce audit cross-checks both sides
//! against cluster state (replica set ⊆ membership, never lent and
//! replicated at once, no stale replica after a delete).

/// What the replication machinery is allowed to do on one store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicationConfig {
    /// Remote-read heat (per `HeatMap` window) an object must reach
    /// before it is offered a replica on its hottest reader.
    pub min_hits: u32,
}

impl Default for ReplicationConfig {
    fn default() -> Self {
        ReplicationConfig { min_hits: 8 }
    }
}
