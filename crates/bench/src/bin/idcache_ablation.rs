//! Experiment A2 — remote-identifier cache ablation (paper future work).
//!
//! "A caching mechanism for previously requested remote objects could be
//! implemented. This would increase the performance of repeated requests
//! for identifiers." This harness measures repeated remote gets of the
//! same object set (all ring-placed on one remote owner) under three
//! configurations:
//!
//! * **no cache** — every get resolves the ring owner locally and sends
//!   it one targeted `GET_MANY`;
//! * **pinning cache** — repeat gets send the cached holder one targeted
//!   `GET_MANY` (safe; the same bill as the ring);
//! * **direct cache** — repeat gets skip RPC entirely and read straight
//!   through the fabric (fast, but unpinned: the paper's corruption
//!   hazard).
//!
//! Usage: `cargo run -p bench --bin idcache_ablation --release [-- --reps N]`

use bench::{commit_ids, render_table, BenchSpec, HarnessOpts, Summary};
use disagg::{CacheMode, Cluster, ClusterConfig};
use plasma::ObjectId;
use std::time::Duration;

fn run_config(
    label: &str,
    cache: Option<(CacheMode, usize)>,
    reps: usize,
    seed: u64,
    rows: &mut Vec<Vec<String>>,
) {
    let spec = BenchSpec {
        index: 0,
        num_objects: 100,
        object_size: 10_000,
    };
    let mut cfg = ClusterConfig::paper_testbed(64 << 20);
    cfg.nodes = 4;
    cfg.id_cache = cache;
    let cluster = Cluster::launch(cfg).expect("launch");
    let producer = cluster.client(3).expect("producer");
    let consumer = cluster.client(1).expect("consumer");
    // Every object places on the producer's node, so each get is one
    // remote batch against a single owner.
    let ids: Vec<ObjectId> = cluster
        .owned_ids(3, &format!("a2/{label}"), spec.num_objects)
        .iter()
        .map(|name| ObjectId::from_name(name))
        .collect();
    commit_ids(&producer, &ids, spec.object_size, seed).expect("commit");

    // Cold get warms the cache (not measured).
    let bufs = consumer
        .get(&ids, Duration::from_secs(60))
        .expect("cold get");
    for b in bufs.iter().flatten() {
        consumer.release(b.id).expect("release");
    }

    // Warm repetitions.
    let mut warm = Vec::with_capacity(reps);
    for _ in 0..reps {
        let (bufs, lat) = cluster.clock().time(|| {
            consumer
                .get(&ids, Duration::from_secs(60))
                .expect("warm get")
        });
        warm.push(lat);
        for b in bufs.iter().flatten() {
            consumer.release(b.id).expect("release");
        }
    }
    let s = Summary::of_durations_ms(&warm);
    let d = cluster.store(1).disagg_stats();
    rows.push(vec![
        label.to_string(),
        format!("{:.3}", s.median),
        format!("{:.3}", s.std),
        d.lookup_rpcs.to_string(),
        d.direct_cache_reads.to_string(),
    ]);
}

fn main() {
    let opts = HarnessOpts::parse();
    println!(
        "A2: repeated remote get of 100 x 10 kB objects on a 4-node cluster, {} warm reps",
        opts.reps
    );
    let mut rows = Vec::new();
    run_config("no cache", None, opts.reps, opts.seed, &mut rows);
    run_config(
        "pinning cache",
        Some((CacheMode::Pinning, 4096)),
        opts.reps,
        opts.seed,
        &mut rows,
    );
    run_config(
        "direct cache",
        Some((CacheMode::Direct, 4096)),
        opts.reps,
        opts.seed,
        &mut rows,
    );
    println!(
        "{}",
        render_table(
            &[
                "config",
                "warm get med (ms)",
                "σ",
                "lookup RPCs (total)",
                "direct reads"
            ],
            &rows
        )
    );
    println!("(direct mode trades the usage-tracking pin for RPC-free repeat gets —");
    println!(" the hazard the paper flags; see the disagg crate tests for a demonstration)");
}
