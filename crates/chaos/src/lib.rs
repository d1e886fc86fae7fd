//! # chaos — deterministic fault injection + history-checked soaks
//!
//! A chaos-engineering harness for the memory-disaggregated object
//! store: it perturbs the store-to-store interconnect at the *wire*
//! level (dropped, delayed, duplicated, corrupted and truncated frames;
//! partitions; frozen nodes) while recording every client-visible
//! operation, then checks the recorded history against the store's
//! consistency contract.
//!
//! Three properties make it a debugging tool rather than a fuzzer:
//!
//! * **Seeded** — a [`FaultPlan`] fully determines the fault schedule.
//!   Every per-frame decision is a pure function of
//!   `(plan, link, direction, sequence number)`
//!   ([`ChaosInjector::decision_at`]), independent of thread timing.
//! * **Serializable** — plans print to a stable text format
//!   ([`FaultPlan::serialize`] / [`FaultPlan::parse`]), so a failing
//!   soak's exact schedule can be attached to a bug report and replayed.
//! * **Minimizing** — [`minimize`] greedily strips faults that aren't
//!   needed to reproduce a failure, leaving the smallest schedule the
//!   greedy pass can find.
//!
//! The soak itself is [`run_plan`]: launch a cluster with the injector
//! spliced into every interconnect connection
//! (`disagg::ClusterConfig::fault_policy`), drive it with per-node
//! worker threads writing checksummed payloads
//! ([`plasma::checksum`]), settle on a clean network, audit the
//! cluster ([`disagg::Cluster::audit`]), and hand the history to
//! [`check`]. The `bench` crate's
//! `chaos` binary wraps this in a CLI with seed sweep and replay modes.

#![deny(missing_docs)]

pub mod checker;
pub mod history;
pub mod inject;
pub mod plan;
pub mod runner;

pub use checker::{check, Verdict};
pub use history::{Event, EventKind, HistoryRecorder, Observed};
pub use inject::ChaosInjector;
pub use plan::{minimize, FaultPlan, Partition, StepPlan};
pub use runner::{chaos_oid, run_plan, SoakConfig, SoakReport};
