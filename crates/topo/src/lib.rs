//! # topo — cluster topology as data + a seeded workload generator
//!
//! The paper's testbed is two hosts on one switch; its claims are about
//! rack-scale disaggregation. This crate provides the missing fabric: a
//! serializable [`ClusterSpec`] (pods / racks-per-pod / hosts-per-rack
//! with per-tier link models, in the spirit of parsimon-eval's
//! `mkCluster` parameter blocks) that expands into a per-node-pair
//! [`netsim::LinkModel`] matrix where intra-rack ≠ cross-rack ≠
//! cross-pod, and a deterministic multi-tenant workload generator
//! ([`WorkloadSpec`]) emitting a replayable op schedule: zipf object
//! popularity, lognormal inter-arrivals derived from a target load,
//! and spatial traffic matrices (rack-local / uniform / hot-pod skews).
//!
//! Everything is a pure function of `(spec, seed)`:
//!
//! * link delays use [`netsim::Latency::sample_at`], so draw `seq` of the
//!   pair `(i, j)` has the same duration in any evaluation order;
//! * every op's arrival time and every per-op choice (client, target
//!   node, object rank, op kind, payload size) is seeded from its own
//!   `(workload seed, tenant, sequence)` coordinates, so two generations
//!   from equal specs are byte-identical and independent of thread
//!   interleaving.
//!
//! Both spec types hold integer fields only, so equal specs compare
//! equal exactly, and a generated [`Schedule`] has an exact text form
//! and digest as its identity. `bench --bin cluster` (experiment A6)
//! drives a [`ClusterSpec`]-built cluster with a generated schedule and
//! reports latency percentiles per tier.

#![deny(missing_docs)]

pub mod spec;
pub mod workload;

pub use spec::{ClusterSpec, Coord, Tier, TierLink};
pub use workload::{
    CatalogObject, Op, OpKind, Schedule, SizeClass, Spatial, TenantSpec, WorkloadSpec, ZipfCdf,
};
