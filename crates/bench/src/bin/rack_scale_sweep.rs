//! Experiment A3 — rack-scale node sweep (paper future work).
//!
//! "The currently presented system is implemented to accommodate a 2 node
//! system. For rack-scale solutions, this needs to be modified to
//! accommodate multiple nodes. The current system design allows for this
//! modification." — this harness runs the modified design at N = 2..8
//! nodes and measures how remote `get` latency scales with cluster size.
//! Every object ring-places on the last node and is read from node 0:
//! a get resolves the owner locally and sends it one targeted `GET_MANY`
//! — no fan-out, so its cost does not grow with peer count.
//!
//! Usage: `cargo run -p bench --bin rack_scale_sweep --release [-- --reps N]`

use bench::{commit_ids, render_table, BenchSpec, HarnessOpts, Summary};
use disagg::{Cluster, ClusterConfig};
use plasma::ObjectId;
use std::time::Duration;

fn main() {
    let opts = HarnessOpts::parse();
    let spec = BenchSpec {
        index: 0,
        num_objects: 50,
        object_size: 100_000,
    };
    println!(
        "A3: remote get latency vs cluster size ({} x {} B objects, {} reps)",
        spec.num_objects, spec.object_size, opts.reps
    );

    let mut rows = Vec::new();
    for nodes in [2usize, 3, 4, 6, 8] {
        let mut cfg = ClusterConfig::paper_testbed(32 << 20);
        cfg.nodes = nodes;
        let cluster = Cluster::launch(cfg).expect("launch");

        // Objects place on the LAST node and are read from node 0.
        let producer = cluster.client(nodes - 1).expect("producer");
        let consumer = cluster.client(0).expect("consumer");
        let ids: Vec<ObjectId> = cluster
            .owned_ids(nodes - 1, &format!("a3/n{nodes}"), spec.num_objects)
            .iter()
            .map(|name| ObjectId::from_name(name))
            .collect();
        commit_ids(&producer, &ids, spec.object_size, opts.seed).expect("commit");

        let mut latencies = Vec::new();
        for _ in 0..opts.reps {
            let (bufs, lat) = cluster
                .clock()
                .time(|| consumer.get(&ids, Duration::from_secs(60)).expect("get"));
            latencies.push(lat);
            for b in bufs.iter().flatten() {
                consumer.release(b.id).expect("release");
            }
        }
        let lat = Summary::of_durations_ms(&latencies);
        let d = cluster.store(0).disagg_stats();
        rows.push(vec![
            nodes.to_string(),
            format!("{:.3}", lat.median),
            format!("{:.3}", lat.min),
            format!("{:.3}", lat.max),
            d.lookup_rpcs.to_string(),
        ]);
        eprintln!("  {nodes} nodes done");
    }
    println!(
        "{}",
        render_table(
            &[
                "nodes",
                "get med (ms)",
                "min (ms)",
                "max (ms)",
                "lookup RPCs"
            ],
            &rows
        )
    );
    println!("(the ring resolves the owner locally: every get costs one targeted RPC,");
    println!(" independent of cluster size)");
}
