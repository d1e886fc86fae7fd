//! Topology-driven cluster construction and the A6 workload runner.
//!
//! [`cluster_config`] expands a [`topo::ClusterSpec`] into a
//! [`disagg::ClusterConfig`]: same per-pair delay seeding as the uniform
//! mesh, but each channel's [`netsim::LinkModel`] comes from the spec's
//! tier taxonomy (intra-rack / cross-rack / cross-pod). The paper's
//! 2-node testbed is the degenerate 1-rack spec —
//! `cluster_config(&ClusterSpec::paper_testbed(), m)` launches a mesh
//! byte-identical to `ClusterConfig::paper_testbed(m)`, so fig6, fig7
//! and table1 keep the paper's mesh while they route through the
//! topology path.
//!
//! [`run_cluster_workload`] replays a generated [`topo::Schedule`]
//! against the cluster on the virtual clock: catalog objects are pinned
//! to their home nodes via [`disagg::Cluster::owned_id`], each get is
//! issued store-side from the op's client node, and each get's latency
//! is kept once, as an exact sample of its tier, so the report can show
//! intra-rack < cross-rack < cross-pod directly.

use disagg::{Cluster, ClusterConfig, DisaggStats};
use plasma::{ObjectId, ObjectStore, PlasmaError};
use std::time::Duration;
use topo::{ClusterSpec, OpKind, Schedule, Tier, WorkloadSpec};

/// Expand a topology spec into cluster construction parameters: paper
/// interconnect calibration, virtual clock, placement ring — with the
/// node count, delay seed, and per-pair tiered links taken from `spec`.
pub fn cluster_config(spec: &ClusterSpec, memory_per_node: usize) -> ClusterConfig {
    let mut config = ClusterConfig::paper_testbed(memory_per_node);
    config.nodes = spec.nodes();
    config.seed = spec.seed;
    config.link_map = Some(spec.link_map());
    // Benches charge delay on the virtual clock; the wall-clock RPC
    // deadline only measures host scheduling jitter. On a loaded machine
    // a large fabric can stall any one call past the 2 s default, which
    // would spuriously mark healthy peers Down mid-replay.
    config.interconnect.call_deadline = None;
    config
}

/// Per-tier latency digest of one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TierStat {
    /// The tier this row summarizes.
    pub tier: Tier,
    /// Gets measured on this tier.
    pub ops: u64,
    /// Median get latency, nanoseconds.
    pub p50_ns: u64,
    /// 90th-percentile get latency, nanoseconds.
    pub p90_ns: u64,
    /// 99th-percentile get latency, nanoseconds.
    pub p99_ns: u64,
}

/// Outcome of replaying one schedule against a cluster.
#[derive(Debug, Clone)]
pub struct ClusterRunReport {
    /// Ops replayed (gets + puts).
    pub ops: u64,
    /// Catalog gets issued.
    pub gets: u64,
    /// Churn puts issued.
    pub puts: u64,
    /// FNV digest of the replayed schedule (equal seeds ⇒ equal digests).
    pub schedule_digest: u64,
    /// Get-latency digest per tier, in `Tier::ALL` order, tiers with no
    /// traffic omitted.
    pub tiers: Vec<TierStat>,
    /// Virtual time consumed by the replay.
    pub virtual_elapsed: Duration,
    /// Cluster-wide placement-ring stats summed over all stores.
    pub ring_hits: u64,
    /// Ring misses that fell back to the lookup broadcast.
    pub ring_fallbacks: u64,
    /// Lookup RPCs issued cluster-wide.
    pub lookup_rpcs: u64,
}

/// The nearest-rank `q`-quantile of ascending `sorted`: the sample at
/// rank `round((n - 1) · q)`, or 0 when there is none.
pub fn nearest_rank(sorted: &[u64], q: f64) -> u64 {
    match sorted.len() {
        0 => 0,
        n => sorted[((n - 1) as f64 * q).round() as usize],
    }
}

/// Replay `load` (generated against `spec`) on `cluster`.
///
/// The run is deterministic: ops are issued in schedule order on one
/// thread, the virtual clock is advanced to each op's arrival time, and
/// every interconnect delay comes from the per-pair seeded link
/// samplers — so two runs of the same `(spec, load)` produce identical
/// per-tier op counts and latency samples.
pub fn run_cluster_workload(
    cluster: &Cluster,
    spec: &ClusterSpec,
    load: &WorkloadSpec,
) -> Result<ClusterRunReport, PlasmaError> {
    let schedule = load.generate(spec);
    run_cluster_schedule(cluster, spec, load, &schedule)
}

/// Replay an already-generated schedule (see [`run_cluster_workload`]).
pub fn run_cluster_schedule(
    cluster: &Cluster,
    spec: &ClusterSpec,
    load: &WorkloadSpec,
    schedule: &Schedule,
) -> Result<ClusterRunReport, PlasmaError> {
    assert_eq!(
        cluster.len(),
        spec.nodes(),
        "cluster was not launched from this spec"
    );
    let clock = cluster.clock();
    let started = clock.now();

    // Commit the catalog: every (tenant, home) pool becomes a run of
    // sealed objects pinned to its home node, so a get targeting node v
    // is local iff the issuing client is v, and crosses exactly the
    // client→v link otherwise.
    let mut pools: Vec<Vec<Vec<ObjectId>>> = Vec::with_capacity(load.tenants.len());
    for (t, tenant) in load.tenants.iter().enumerate() {
        let mut homes = Vec::with_capacity(spec.nodes());
        for home in 0..spec.nodes() {
            let names = cluster.owned_ids(home, &format!("wl/{t}/{home}"), tenant.objects_per_node);
            homes.push(names.iter().map(|n| ObjectId::from_name(n)).collect());
        }
        pools.push(homes);
    }
    // The producer reference from create is kept for the whole replay: a
    // pinned catalog cannot be evicted mid-run, so every scheduled get is
    // servable and the replay stays deterministic.
    for object in load.catalog(spec) {
        let id = pools[object.tenant as usize][object.home as usize][object.index as usize];
        let store = cluster.store(object.home as usize);
        store.create(id, object.bytes, 0)?;
        store.seal(id)?;
    }

    let tier_slot = |tier: Tier| Tier::ALL.iter().position(|t| *t == tier).unwrap();
    // Exact get-latency samples per tier: a log₂ histogram bucket is too
    // coarse to order adjacent tiers (2.3 ms and 3.1 ms medians share
    // one), so the reported percentiles come from the raw samples.
    let mut samples: Vec<Vec<u64>> = vec![Vec::new(); Tier::ALL.len()];

    let mut gets = 0u64;
    let mut puts = 0u64;
    let timeout = Duration::from_secs(600);
    for op in &schedule.ops {
        clock.advance_to(started + Duration::from_nanos(op.at_ns));
        let client = op.client as usize;
        let store = cluster.store(client);
        match op.kind {
            OpKind::Get => {
                let target = op.target as usize;
                let id = pools[op.tenant as usize][target][op.object as usize];
                let (found, elapsed) = clock.time(|| store.get(&[id], timeout));
                let found = found?;
                if found[0].is_none() {
                    return Err(PlasmaError::Timeout);
                }
                store.release(id)?;
                samples[tier_slot(spec.tier(client, target))].push(elapsed.as_nanos() as u64);
                gets += 1;
            }
            OpKind::Put { bytes } => {
                let id = ObjectId::from_name(&format!("wl-churn/{}/{}", op.tenant, op.seq));
                store.create(id, bytes, 0)?;
                store.seal(id)?;
                // Drop the producer reference and delete at once, so
                // churn does not accumulate into eviction pressure.
                store.release(id)?;
                store.delete(id)?;
                puts += 1;
            }
        }
    }

    let virtual_elapsed = clock.now() - started;
    // No timed operation is left: hand the catalog's references back, so
    // the cluster ends quiesced.
    for homes in &pools {
        for (home, ids) in homes.iter().enumerate() {
            for &id in ids {
                cluster.store(home).release(id)?;
            }
        }
    }

    let stats: Vec<DisaggStats> = (0..cluster.len())
        .map(|i| cluster.store(i).disagg_stats())
        .collect();
    let tiers = Tier::ALL
        .iter()
        .zip(&mut samples)
        .filter_map(|(t, lat)| {
            if lat.is_empty() {
                return None;
            }
            lat.sort_unstable();
            Some(TierStat {
                tier: *t,
                ops: lat.len() as u64,
                p50_ns: nearest_rank(lat, 0.50),
                p90_ns: nearest_rank(lat, 0.90),
                p99_ns: nearest_rank(lat, 0.99),
            })
        })
        .collect();

    Ok(ClusterRunReport {
        ops: gets + puts,
        gets,
        puts,
        schedule_digest: schedule.digest(),
        tiers,
        virtual_elapsed,
        ring_hits: stats.iter().map(|s| s.ring_hits).sum(),
        ring_fallbacks: stats.iter().map(|s| s.ring_fallbacks).sum(),
        lookup_rpcs: stats.iter().map(|s| s.lookup_rpcs).sum(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_testbed_spec_reproduces_the_recorded_mesh() {
        let spec = ClusterSpec::paper_testbed();
        let config = cluster_config(&spec, 1 << 20);
        let reference = ClusterConfig::paper_testbed(1 << 20);
        assert_eq!(config.nodes, reference.nodes);
        assert_eq!(config.seed, reference.seed);
        // The degenerate 1-rack spec expands every pair to exactly the
        // calibrated uniform link, so the mesh is byte-identical.
        let map = config.link_map.as_ref().unwrap();
        for i in 0..2 {
            for j in 0..2 {
                if i != j {
                    assert_eq!(map(i, j), reference.rpc_link);
                }
            }
        }
    }

    #[test]
    fn small_fabric_run_is_deterministic_and_tiered() {
        let spec = ClusterSpec::small_fabric(11);
        let mut load = WorkloadSpec::default_for(&spec, 600);
        load.classes = topo::workload::table1_classes_small();
        let run = |spec: &ClusterSpec, load: &WorkloadSpec| {
            let cluster = Cluster::launch(cluster_config(spec, 8 << 20)).unwrap();
            let report = run_cluster_workload(&cluster, spec, load).unwrap();
            assert_eq!(cluster.audit(), Vec::<String>::new());
            report
        };
        let a = run(&spec, &load);
        let b = run(&spec, &load);
        assert_eq!(a.ops, 600);
        assert_eq!(a.schedule_digest, b.schedule_digest);
        assert_eq!(a.tiers, b.tiers);
        assert_eq!(
            a.ring_fallbacks, 0,
            "stable membership must never fall back"
        );
        assert!(a.tiers.len() >= 2, "expected traffic on several tiers");
        // Network tiers are ordered nearest-fastest at the median.
        let median = |tier: Tier| a.tiers.iter().find(|t| t.tier == tier).map(|t| t.p50_ns);
        if let (Some(intra), Some(pod)) = (median(Tier::IntraRack), median(Tier::CrossPod)) {
            assert!(intra < pod, "intra-rack {intra} >= cross-pod {pod}");
        }
    }
}
