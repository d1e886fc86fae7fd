//! Rack-scale deployment: six nodes, a sharded dataset, and a global
//! aggregation — the multi-node future-work scenario of the paper.
//!
//! Every node commits one shard of a dataset (the placement ring decides
//! where each lands); every node then computes a global sum by reading
//! *all* shards, local and remote. The shards one ring owner holds
//! travel in one targeted lookup RPC to it — no peer is probed.
//!
//! Run with: `cargo run --example rack_scale --release`

use disagg::{Cluster, ClusterConfig};
use plasma::{ObjectId, PlasmaError};
use std::time::Duration;

const NODES: usize = 6;
const VALUES_PER_SHARD: usize = 10_000;

fn shard_id(node: usize) -> ObjectId {
    ObjectId::from_name(&format!("dataset/shard-{node}"))
}

fn shard_values(node: usize) -> Vec<u64> {
    (0..VALUES_PER_SHARD)
        .map(|i| (node * VALUES_PER_SHARD + i) as u64)
        .collect()
}

fn encode(values: &[u64]) -> Vec<u8> {
    values.iter().flat_map(|v| v.to_le_bytes()).collect()
}

fn global_sum(cluster: &Cluster, node: usize) -> Result<u64, PlasmaError> {
    let client = cluster.client(node)?;
    let ids: Vec<ObjectId> = (0..NODES).map(shard_id).collect();
    let bufs = client.get(&ids, Duration::from_secs(30))?;
    let mut sum = 0u64;
    for buf in bufs.into_iter().flatten() {
        for chunk in buf.read_all()?.chunks_exact(8) {
            sum += u64::from_le_bytes(chunk.try_into().unwrap());
        }
        client.release(buf.id)?;
    }
    Ok(sum)
}

fn main() -> Result<(), PlasmaError> {
    let mut cfg = ClusterConfig::paper_testbed(32 << 20);
    cfg.nodes = NODES;
    let cluster = Cluster::launch(cfg)?;

    // Shard the dataset: node i commits shard i.
    for node in 0..NODES {
        let client = cluster.client(node)?;
        client.put(shard_id(node), &encode(&shard_values(node)), &[])?;
    }
    let expected: u64 = (0..(NODES * VALUES_PER_SHARD) as u64).sum();
    println!("{NODES} shards committed, one per node ({VALUES_PER_SHARD} values each)");

    let (sums, elapsed) = cluster.clock().time(|| {
        (0..NODES)
            .map(|n| global_sum(&cluster, n))
            .collect::<Result<Vec<_>, _>>()
    });
    for (n, sum) in sums?.iter().enumerate() {
        assert_eq!(*sum, expected, "node {n} computed a wrong global sum");
    }
    let stats: Vec<_> = (0..NODES)
        .map(|i| cluster.store(i).disagg_stats())
        .collect();
    let lookup_rpcs: u64 = stats.iter().map(|s| s.lookup_rpcs).sum();
    let ring_hits: u64 = stats.iter().map(|s| s.ring_hits).sum();
    let fallbacks: u64 = stats.iter().map(|s| s.ring_fallbacks).sum();
    println!("every node aggregated all shards correctly");
    println!(
        "  simulated time {elapsed:?}, {lookup_rpcs} lookup RPCs (one batch per ring owner) \
         resolved {ring_hits} remote shards, {fallbacks} broadcast fallbacks"
    );

    let snap = cluster.fabric().stats().snapshot();
    println!(
        "fabric: {:.2} MB remote reads, {:.2} MB local reads",
        snap.remote_read_bytes as f64 / 1e6,
        snap.local_read_bytes as f64 / 1e6,
    );
    Ok(())
}
