//! Cluster-wide observability, end to end on a live cluster: the
//! `METRICS` interconnect verb (any node introspects any peer), snapshot
//! merge semantics, and the per-layer instrumentation.

use disagg::{Cluster, ClusterConfig};
use obs::MetricsSnapshot;
use plasma::{ObjectId, ObjectStore};
use std::time::Duration;

const N: usize = 7;

fn ids(prefix: &str) -> Vec<ObjectId> {
    (0..N)
        .map(|i| ObjectId::from_name(&format!("{prefix}/{i}")))
        .collect()
}

/// `N` ids that the rendezvous ring places on `node` — for tests whose
/// counter arithmetic needs every object on one known store.
fn owned_ids(cluster: &Cluster, node: usize, prefix: &str) -> Vec<ObjectId> {
    cluster
        .owned_ids(node, prefix, N)
        .iter()
        .map(|name| ObjectId::from_name(name))
        .collect()
}

/// The headline acceptance path: after `N` remote gets by node B, node
/// A's snapshot *of node B* (fetched over the Metrics RPC) shows exactly
/// `N` remote-hit lookups with a non-zero p50.
#[test]
fn remote_gets_show_in_peer_snapshot_with_nonzero_latency() {
    let cluster = Cluster::launch(ClusterConfig::functional(2, 4 << 20)).unwrap();
    let producer = cluster.client(0).unwrap();
    // Pin placement to node 0 so every one of node B's gets is remote.
    let ids = owned_ids(&cluster, 0, "obs");
    for id in &ids {
        producer.put(*id, &[0xA5; 1024], &[]).unwrap();
    }

    // Node B resolves each id remotely (one pinning lookup per get).
    let store_b = cluster.store(1).clone();
    for id in &ids {
        let got = store_b.get(&[*id], Duration::from_secs(5)).unwrap();
        assert!(got[0].is_some());
    }

    // Node A introspects node B over the interconnect.
    let snap_b = cluster.store(0).peer_metrics(cluster.node_id(1)).unwrap();
    let remote = snap_b
        .histogram("disagg.get.remote_hit.latency_ns")
        .expect("remote-hit histogram on node B");
    assert_eq!(
        remote.count, N as u64,
        "exactly one remote-hit sample per remote get"
    );
    assert!(remote.p50() > 0, "remote-hit p50 must be non-zero");
    assert!(remote.max >= remote.p50());
    // No local hits were recorded on B...
    assert_eq!(
        snap_b
            .histogram("disagg.get.local_hit.latency_ns")
            .map_or(0, |h| h.count),
        0
    );
    // ...and B's interconnect client recorded one GET_MANY RPC per get
    // (remote lookups travel over the batched multi-get verb), each
    // carrying a single id.
    let lookups = snap_b
        .histogram("rpc.client.store-0.get_many.latency_ns")
        .expect("per-verb client histogram on node B");
    assert_eq!(lookups.count, N as u64);
    assert!(lookups.p50() > 0);
    let batch = snap_b
        .histogram("disagg.get_many.batch_size")
        .expect("batch-size histogram on node B");
    assert_eq!((batch.count, batch.max), (N as u64, 1));

    for id in &ids {
        store_b.release(*id).unwrap();
    }
}

/// Every layer lands in one per-node snapshot: plasma core latencies,
/// distributed-layer classification, and per-verb RPC client latencies.
#[test]
fn one_snapshot_covers_plasma_disagg_and_rpc_layers() {
    let cluster = Cluster::launch(ClusterConfig::functional(2, 4 << 20)).unwrap();
    let producer = cluster.client(0).unwrap();
    // Node-0-owned ids: creates and gets stay entirely on the local store.
    let ids = owned_ids(&cluster, 0, "layers");
    for id in &ids {
        producer.put(*id, &[1; 512], &[]).unwrap();
    }
    // Local reads on the producer's own store.
    for id in &ids {
        let buf = producer.get_one(*id, Duration::from_secs(5)).unwrap();
        drop(buf);
        producer.release(*id).unwrap();
    }
    // One peer-owned id exercises the interconnect layer: its create is
    // forwarded to the ring owner over CREATE_AT (and sealed via SEAL_AT).
    let forwarded = ObjectId::from_name(&cluster.owned_id(1, "layers/remote"));
    producer.put(forwarded, &[1; 512], &[]).unwrap();

    let snap = cluster.store(0).metrics_snapshot();
    // plasma core: N creates and seals.
    assert_eq!(
        snap.histogram("plasma.create.latency_ns")
            .map_or(0, |h| h.count),
        N as u64
    );
    assert_eq!(
        snap.histogram("plasma.seal.latency_ns")
            .map_or(0, |h| h.count),
        N as u64
    );
    // distributed layer: the local gets classified as local hits.
    assert_eq!(
        snap.histogram("disagg.get.local_hit.latency_ns")
            .map_or(0, |h| h.count),
        N as u64
    );
    // N local creates plus the one forwarded create.
    assert_eq!(
        snap.histogram("disagg.create.latency_ns")
            .map_or(0, |h| h.count),
        N as u64 + 1
    );
    // interconnect client: ring placement makes a locally-owned create an
    // owner-local check; the one peer-owned create shows up as a single
    // CREATE_AT to the owner.
    assert_eq!(
        snap.histogram("rpc.client.store-1.create_at.latency_ns")
            .map_or(0, |h| h.count),
        1
    );
}

/// The merged cluster snapshot is exactly the element-wise sum of the
/// per-node snapshots (max for histogram maxima), independent of order.
#[test]
fn merged_cluster_snapshot_is_sum_of_per_node_snapshots() {
    let cluster = Cluster::launch(ClusterConfig::functional(2, 4 << 20)).unwrap();
    let producer = cluster.client(0).unwrap();
    let consumer = cluster.client(1).unwrap();
    let ids = ids("merge");
    for id in &ids {
        producer.put(*id, &[2; 256], &[]).unwrap();
    }
    for id in &ids {
        let buf = consumer.get_one(*id, Duration::from_secs(5)).unwrap();
        drop(buf);
        consumer.release(*id).unwrap();
    }

    let parts = cluster.store(0).cluster_metrics().unwrap();
    assert_eq!(parts.len(), 2, "both nodes answer");
    let merged = MetricsSnapshot::merged(parts.iter().map(|(_, s)| s));

    for (name, v) in &merged.counters {
        let sum: u64 = parts.iter().map(|(_, s)| s.counter(name)).sum();
        assert_eq!(*v, sum, "counter {name}");
    }
    for (name, v) in &merged.gauges {
        let sum: i64 = parts.iter().map(|(_, s)| s.gauge(name)).sum();
        assert_eq!(*v, sum, "gauge {name}");
    }
    for (name, h) in &merged.histograms {
        let count: u64 = parts
            .iter()
            .map(|(_, s)| s.histogram(name).map_or(0, |x| x.count))
            .sum();
        let sum: u64 = parts
            .iter()
            .map(|(_, s)| s.histogram(name).map_or(0, |x| x.sum))
            .sum();
        let max: u64 = parts
            .iter()
            .map(|(_, s)| s.histogram(name).map_or(0, |x| x.max))
            .max()
            .unwrap_or(0);
        assert_eq!(h.count, count, "histogram {name} count");
        assert_eq!(h.sum, sum, "histogram {name} sum");
        assert_eq!(h.max, max, "histogram {name} max");
    }

    // Folding in the opposite order gives the identical snapshot.
    let mut reversed = MetricsSnapshot::default();
    for (_, s) in parts.iter().rev() {
        reversed.merge(s);
    }
    assert_eq!(reversed, merged, "merge must be order-independent");
}

/// The snapshot survives its wire round trip bit-for-bit, through the
/// actual interconnect: the local registry snapshot equals what a peer
/// decodes from the METRICS response.
#[test]
fn metrics_rpc_transports_the_exact_snapshot() {
    let cluster = Cluster::launch(ClusterConfig::functional(2, 1 << 20)).unwrap();
    let producer = cluster.client(1).unwrap();
    producer
        .put(ObjectId::from_name("wire-exact"), &[3; 128], &[])
        .unwrap();

    // Quiesce: nothing mutates node 1's metrics between the two reads
    // (node 0's fetch only touches node 1's registry read-side).
    let direct = cluster.store(1).metrics_snapshot();
    let via_rpc = cluster.store(0).peer_metrics(cluster.node_id(1)).unwrap();
    assert_eq!(direct, via_rpc);
}
