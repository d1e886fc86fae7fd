//! Metrics dump: drive a little traffic through a 2-node cluster, then
//! introspect every node over the `METRICS` interconnect verb and print
//! the text exposition — per node, then merged cluster-wide.
//!
//! This is the observability quickstart: any node can fetch any peer's
//! live metric registry (counters, gauges, log₂-bucket latency
//! histograms) as one serialized snapshot, and snapshots merge by
//! element-wise sum (max for histogram maxima).
//!
//! It ends with the other half of "what is this cluster doing": the
//! delegation dump — every pin, staged create, lease and replica each
//! store holds for or at a peer (`DisaggStore::delegations()`), which
//! answers "who holds a copy of this object, and under what authority?"
//!
//! Run with: `cargo run --example metrics_dump --release`

use disagg::{Cluster, ClusterConfig};
use obs::MetricsSnapshot;
use plasma::ObjectId;
use std::time::Duration;

fn main() {
    let cluster = Cluster::launch(ClusterConfig::paper_testbed(64 << 20)).expect("launch");

    // Traffic: node 0 produces, node 1 consumes remotely (and once more,
    // so repeat-lookup paths record too), node 0 reads its own object.
    let producer = cluster.client(0).expect("producer client");
    let consumer = cluster.client(1).expect("consumer client");
    for i in 0..16 {
        let id = ObjectId::from_name(&format!("dump/{i}"));
        producer.put(id, &[i; 4096], b"demo").expect("put");
        let buf = consumer.get_one(id, Duration::from_secs(5)).expect("get");
        buf.read_all().expect("read");
        consumer.release(id).expect("release");
    }
    let local = ObjectId::from_name("dump/0");
    let buf = producer
        .get_one(local, Duration::from_secs(5))
        .expect("get");
    buf.read_all().expect("read");
    producer.release(local).expect("release");

    // Node 0 introspects the whole cluster: its own registry directly,
    // every peer via the METRICS RPC. Unreachable peers would simply be
    // omitted (same partial-degradation semantics as global_list).
    let per_node = cluster.store(0).cluster_metrics().expect("cluster metrics");
    for (node, snap) in &per_node {
        println!("=== node {} ===", node.0);
        print!("{}", snap.to_text());
        println!();
    }

    let merged = MetricsSnapshot::merged(per_node.iter().map(|(_, s)| s));
    println!("=== merged cluster snapshot ({} nodes) ===", per_node.len());
    print!("{}", merged.to_text());

    let remote_hits = merged
        .histogram("disagg.get.remote_hit.latency_ns")
        .expect("remote hits recorded");
    println!(
        "\n{} remote-hit gets cluster-wide, store-side p50 {:.1} µs / p99 {:.1} µs",
        remote_hits.count,
        remote_hits.p50() as f64 / 1e3,
        remote_hits.p99() as f64 / 1e3,
    );

    // Capacity gauges feed the elastic tier's pressure gossip; the same
    // numbers any peer sees over METRICS when deciding where to spill.
    println!("\nper-node capacity (plasma.* gauges):");
    for (node, snap) in &per_node {
        println!(
            "  node {}: capacity={} used={} free={} spilled={}",
            node.0,
            snap.gauge("plasma.capacity_bytes"),
            snap.gauge("plasma.used_bytes"),
            snap.gauge("plasma.free_bytes"),
            snap.gauge("plasma.spilled_bytes"),
        );
    }

    // Hot-path observability: the table lock counts the acquisitions
    // that found it held, and the slab allocator exposes one live/held
    // pair per size class — held − live is internal fragmentation,
    // visible without touching the store.
    let (node0, snap0) = &per_node[0];
    println!(
        "\nnode {} table-lock contention events (plasma.shard.contention): {}",
        node0.0,
        snap0.counter("plasma.shard.contention")
    );

    println!(
        "\nnode {} slab classes (plasma.alloc.class.* gauges):",
        node0.0
    );
    for (name, live) in snap0.gauges.iter().filter(|(name, v)| {
        name.ends_with(".live_bytes") && name.starts_with("plasma.alloc.class.") && **v > 0
    }) {
        let held = snap0.gauge(&name.replace(".live_bytes", ".held_bytes"));
        println!("  {name}: live={live} held={held} (slack={})", held - live);
    }

    // Who holds what on whose authority, live: spill one object from
    // node 0 to node 1, replicate another, leave a reader's pin open, and
    // dump every store's side of each delegation.
    let spilled = ObjectId::from_name(&cluster.owned_id(0, "dump/spilled"));
    let shared = ObjectId::from_name(&cluster.owned_id(0, "dump/shared"));
    for id in [spilled, shared] {
        producer.put(id, &[7; 2048], &[]).expect("put");
    }
    let holder = cluster.node_id(1);
    cluster.store(0).spill_to(spilled, holder).expect("spill");
    cluster
        .store(0)
        .replicate_to(shared, holder)
        .expect("replicate");
    let pinned = ObjectId::from_name("dump/1");
    let open_buf = consumer
        .get_one(pinned, Duration::from_secs(5))
        .expect("get");
    println!("\ndelegations (DisaggStore::delegations()):");
    for i in 0..cluster.len() {
        for d in cluster.store(i).delegations() {
            println!(
                "  node {}: {:?} {:?} of {:?} {} node {} (count={} bytes={} {:?})",
                cluster.node_id(i).0,
                d.side,
                d.kind,
                d.id,
                if d.side == disagg::Side::Out {
                    "by"
                } else {
                    "for"
                },
                d.peer.0,
                d.count,
                d.bytes,
                d.phase,
            );
        }
    }
    drop(open_buf);
    consumer.release(pinned).expect("release");
    let healed = cluster.store(1).reconcile();
    println!(
        "reconcile() from node 1 at quiesce: dropped {} trimmed {} unreachable {:?}",
        healed.dropped.total(),
        healed.trimmed.total(),
        healed.unreachable
    );
}
