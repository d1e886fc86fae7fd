//! Pipelined vs batched interconnect — remote lookup resolution cost.
//!
//! For each Table I benchmark, node 0 commits the objects and node 1
//! resolves all of them remotely three ways, measuring the modeled
//! (virtual-clock) time each strategy spends on the interconnect:
//!
//! * **unary** — one lock-step `get` per id: every lookup pays its own
//!   full round trip, `T ≈ K·RTT`.
//! * **pipelined** — the same per-id gets, but `DEPTH` of them in flight
//!   at once on the shared connection: round trips overlap, so a window
//!   costs roughly one RTT instead of `DEPTH`.
//! * **batched** — a single `get` carrying every id: one `GET_MANY`
//!   round trip total, `T ≈ RTT`.
//!
//! Only identifier resolution (the RPC hot path this bench isolates) is
//! timed; object payloads are not read back. The trailing RPC-count
//! columns prove the structural claim behind the latency: unary issues
//! one interconnect call per object, batched exactly one per benchmark.
//!
//! Usage: `cargo run -p bench --bin pipeline --release [-- --small --reps N]`

use bench::{commit_objects, render_table, write_result, HarnessOpts, Summary};
use disagg::{Cluster, ClusterConfig, DisaggStore};
use plasma::{ObjectId, ObjectStore};
use std::time::Duration;

/// Concurrent gets kept in flight by the pipelined strategy.
const DEPTH: usize = 8;

const GET_TIMEOUT: Duration = Duration::from_secs(30);

/// A resolution strategy: resolve all `ids` against the consumer store.
type Strategy = fn(&DisaggStore, &[ObjectId]);

/// Resolve every id with one blocking `get` each, sequentially.
fn unary(store: &DisaggStore, ids: &[ObjectId]) {
    for id in ids {
        let got = store.get(&[*id], GET_TIMEOUT).expect("unary get");
        assert!(got[0].is_some(), "object must resolve");
    }
}

/// Resolve every id with one blocking `get` each, `DEPTH` at a time.
fn pipelined(store: &DisaggStore, ids: &[ObjectId]) {
    for chunk in ids.chunks(DEPTH) {
        std::thread::scope(|s| {
            for id in chunk {
                s.spawn(move || {
                    let got = store.get(&[*id], GET_TIMEOUT).expect("pipelined get");
                    assert!(got[0].is_some(), "object must resolve");
                });
            }
        });
    }
}

/// Resolve every id in one batched multi-get (a single GET_MANY RPC).
fn batched(store: &DisaggStore, ids: &[ObjectId]) {
    let got = store.get(ids, GET_TIMEOUT).expect("batch get");
    assert!(got.iter().all(Option::is_some), "all objects must resolve");
}

fn main() {
    let opts = HarnessOpts::parse();
    let cluster =
        Cluster::launch(ClusterConfig::paper_testbed(opts.store_memory())).expect("launch cluster");
    let clock = cluster.clock().clone();

    println!(
        "Pipelined vs batched remote resolution (virtual ms), depth {DEPTH}, {} reps{}",
        opts.reps,
        if opts.small { ", scaled objects" } else { "" }
    );
    let mut rows = Vec::new();
    let mut json_rows: Vec<String> = Vec::new();
    for spec in opts.specs() {
        let producer = cluster.client(0).expect("producer client");
        let ids = commit_objects(&producer, spec, "pipe", opts.seed).expect("commit");
        let store = cluster.store(1).clone();

        let strategies: [(&str, Strategy); 3] = [
            ("unary", unary),
            ("pipelined", pipelined),
            ("batched", batched),
        ];
        let mut medians: Vec<f64> = Vec::new();
        let mut rpcs = Vec::new();
        for (_, run) in &strategies {
            let mut samples = Vec::with_capacity(opts.reps);
            let before_rpcs = store.disagg_stats().lookup_rpcs;
            for _ in 0..opts.reps {
                let t0 = clock.now();
                run(&store, &ids);
                samples.push(clock.now() - t0);
                // Drop the pins taken by this rep so the next one (and the
                // next strategy) measures a cold resolution again.
                for id in &ids {
                    store.release(*id).expect("release");
                }
            }
            medians.push(Summary::of_durations_ms(&samples).median);
            rpcs.push((store.disagg_stats().lookup_rpcs - before_rpcs) / opts.reps as u64);
        }

        rows.push(vec![
            spec.index.to_string(),
            spec.num_objects.to_string(),
            format!("{:.3}", medians[0]),
            format!("{:.3}", medians[1]),
            format!("{:.3}", medians[2]),
            format!("{:.1}x", medians[0] / medians[1].max(1e-9)),
            format!("{:.1}x", medians[0] / medians[2].max(1e-9)),
            rpcs[0].to_string(),
            rpcs[2].to_string(),
        ]);
        // Batched resolution rate is the ratchetable throughput figure:
        // serial and virtual-clocked, so it is deterministic per seed
        // (the pipelined strategy races real threads and is reported as
        // latency only).
        json_rows.push(format!(
            "    {{\"bench\": {}, \"objects\": {}, \"unary_ms\": {:.3}, \
             \"pipelined_ms\": {:.3}, \"batched_ms\": {:.3}, \"unary_rpcs\": {}, \
             \"batched_rpcs\": {}, \"batched_gets_per_sec\": {:.1}}}",
            spec.index,
            spec.num_objects,
            medians[0],
            medians[1],
            medians[2],
            rpcs[0],
            rpcs[2],
            spec.num_objects as f64 / (medians[2] / 1e3).max(1e-9),
        ));
        for id in &ids {
            producer.delete(*id).expect("cleanup");
        }
        eprintln!("  bench {} done", spec.index);
    }
    println!(
        "{}",
        render_table(
            &[
                "#",
                "objects",
                "unary (ms)",
                "pipelined (ms)",
                "batched (ms)",
                "pipe gain",
                "batch gain",
                "unary RPCs",
                "batch RPCs"
            ],
            &rows
        )
    );

    // The store-side evidence: batching factor and in-flight depth.
    let snap = cluster.store(1).metrics_snapshot();
    if let Some(h) = snap.histogram("disagg.get_many.batch_size") {
        println!(
            "get_many batch size: count={} p50={} max={}",
            h.count,
            h.p50(),
            h.max
        );
    }
    if let Some(h) = snap.histogram("rpc.client.store-0.in_flight") {
        println!(
            "client in-flight depth: count={} p50={} p99={} max={}",
            h.count,
            h.p50(),
            h.p99(),
            h.max
        );
    }

    let json = format!(
        "{{\n  \"bench\": \"pipeline\",\n  \"small\": {},\n  \"reps\": {},\n  \
         \"seed\": {},\n  \"depth\": {},\n  \"rows\": [\n{}\n  ]\n}}\n",
        opts.small,
        opts.reps,
        opts.seed,
        DEPTH,
        json_rows.join(",\n"),
    );
    write_result("pipeline", &json);
}
