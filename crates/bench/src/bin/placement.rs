//! Experiment A5 — create-path cost of rendezvous placement.
//!
//! Rendezvous placement computes an id's owner locally and either
//! creates in place or forwards a `CREATE_AT` / `SEAL_AT` pair to the
//! owner. This harness runs an unpinned create workload (ids land
//! wherever the ring hashes them) and reports per-create latency
//! percentiles plus the RPC bill.
//!
//! Usage: `cargo run -p bench --bin placement --release [-- --reps N]`
//! (creates per config = 100 × reps). Writes `BENCH_placement.json` to
//! the current directory alongside the stdout table.

use bench::{percentile, render_table, HarnessOpts};
use disagg::{Cluster, ClusterConfig};
use plasma::ObjectId;

const NODES: usize = 3;
const OBJECT_SIZE: usize = 1024;

/// Create-path verbs whose client-side histograms make up the RPC bill.
const CREATE_VERBS: [&str; 3] = [".create_at.", ".seal_at.", ".abort_at."];

struct Row {
    label: &'static str,
    creates: usize,
    create_path_rpcs: u64,
    p50_us: f64,
    p90_us: f64,
    p99_us: f64,
}

fn run_config(label: &'static str, creates: usize, seed: u64) -> Row {
    let mut cfg = ClusterConfig::paper_testbed(64 << 20);
    cfg.nodes = NODES; // a 3-node ring makes forwarded creates the common case
    cfg.seed = seed;
    let cluster = Cluster::launch(cfg).expect("launch");
    let client = cluster.client(0).expect("client");
    let payload = vec![0xA3u8; OBJECT_SIZE];

    let mut lat_us: Vec<f64> = Vec::with_capacity(creates);
    for i in 0..creates {
        let id = ObjectId::from_name(&format!("place/{label}/{i}"));
        let (res, took) = cluster.clock().time(|| client.put(id, &payload, &[]));
        res.expect("put");
        lat_us.push(took.as_secs_f64() * 1e6);
    }
    lat_us.sort_by(|a, b| a.partial_cmp(b).unwrap());

    let snap = cluster.store(0).metrics_snapshot();
    let create_path_rpcs: u64 = snap
        .histograms
        .iter()
        .filter(|(name, _)| {
            name.starts_with("rpc.client.") && CREATE_VERBS.iter().any(|v| name.contains(v))
        })
        .map(|(_, h)| h.count)
        .sum();

    Row {
        label,
        creates,
        create_path_rpcs,
        p50_us: percentile(&lat_us, 0.50),
        p90_us: percentile(&lat_us, 0.90),
        p99_us: percentile(&lat_us, 0.99),
    }
}

fn json(rows: &[Row]) -> String {
    let mut out = String::from("{\n  \"experiment\": \"placement\",\n");
    out.push_str(&format!("  \"nodes\": {NODES},\n"));
    out.push_str(&format!("  \"object_size\": {OBJECT_SIZE},\n"));
    out.push_str("  \"configs\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"creates\": {}, \
             \"create_path_rpcs_per_create\": {:.4}, \
             \"p50_us\": {:.3}, \"p90_us\": {:.3}, \"p99_us\": {:.3}}}{}\n",
            r.label,
            r.creates,
            r.create_path_rpcs as f64 / r.creates as f64,
            r.p50_us,
            r.p90_us,
            r.p99_us,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let opts = HarnessOpts::parse();
    let creates = 100 * opts.reps.max(1);
    println!(
        "A5: {creates} unpinned creates of {OBJECT_SIZE} B objects on a \
         {NODES}-node simulated-LAN cluster"
    );

    let rows = [run_config("ring", creates, opts.seed)];

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.label.to_string(),
                format!("{:.4}", r.create_path_rpcs as f64 / r.creates as f64),
                format!("{:.1}", r.p50_us),
                format!("{:.1}", r.p90_us),
                format!("{:.1}", r.p99_us),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "protocol",
                "create-path RPC/create",
                "p50 (µs)",
                "p90 (µs)",
                "p99 (µs)",
            ],
            &table
        )
    );

    let path = "BENCH_placement.json";
    std::fs::write(path, json(&rows)).expect("write BENCH_placement.json");
    println!("wrote {path}");
    println!("(owner computed locally; only off-owner creates pay the forwarded");
    println!(" CREATE_AT/SEAL_AT pair)");
}
