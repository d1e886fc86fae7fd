//! Experiment A6 — cluster-scale workload replay over a tiered fabric.
//!
//! Expands a pods × racks × hosts [`topo::ClusterSpec`] into a full-mesh
//! simulated cluster whose per-pair links follow the intra-rack /
//! cross-rack / cross-pod tier taxonomy, generates a seeded multi-tenant
//! workload (zipf popularity, lognormal arrivals, spatial skews), and
//! replays it on the virtual clock, reporting get-latency p50/p90/p99
//! per tier plus the placement-ring bill. Writes
//! `target/bench/BENCH_cluster.json`.
//!
//! Usage: `cargo run -p bench --bin cluster --release [-- --smoke]
//! [--pods N] [--racks N] [--hosts N] [--ops N] [--seed N]`
//!
//! Defaults to the acceptance shape: 4 pods × 4 racks × 4 hosts
//! (64 nodes), 1M ops. `--smoke` is the CI shape: 2 × 2 × 2, 50k ops.

use bench::{cluster_config, render_table, run_cluster_workload, write_result, ClusterRunReport};
use disagg::Cluster;
use topo::{ClusterSpec, Tier, WorkloadSpec};

const MEMORY_PER_NODE: usize = 32 << 20;

struct Opts {
    pods: usize,
    racks: usize,
    hosts: usize,
    ops: u64,
    seed: u64,
}

fn parse_opts() -> Opts {
    let mut opts = Opts {
        pods: 4,
        racks: 4,
        hosts: 4,
        ops: 1_000_000,
        seed: 0x7F1A,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut num = |name: &str| -> u64 {
            args.next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("{name} needs a number"))
        };
        match arg.as_str() {
            "--smoke" => {
                opts.pods = 2;
                opts.racks = 2;
                opts.hosts = 2;
                opts.ops = 50_000;
            }
            "--pods" => opts.pods = num("--pods") as usize,
            "--racks" => opts.racks = num("--racks") as usize,
            "--hosts" => opts.hosts = num("--hosts") as usize,
            "--ops" => opts.ops = num("--ops"),
            "--seed" => opts.seed = num("--seed"),
            "--help" | "-h" => {
                eprintln!(
                    "usage: [--smoke] [--pods N] [--racks N] [--hosts N] [--ops N] [--seed N]"
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }
    opts
}

fn json(spec: &ClusterSpec, report: &ClusterRunReport) -> String {
    let mut out = String::from("{\n  \"experiment\": \"cluster\",\n");
    out.push_str(&format!(
        "  \"pods\": {}, \"racks_per_pod\": {}, \"hosts_per_rack\": {}, \"nodes\": {},\n",
        spec.pods,
        spec.racks_per_pod,
        spec.hosts_per_rack,
        spec.nodes()
    ));
    out.push_str(&format!("  \"seed\": {},\n", spec.seed));
    out.push_str(&format!(
        "  \"ops\": {}, \"gets\": {}, \"puts\": {},\n",
        report.ops, report.gets, report.puts
    ));
    out.push_str(&format!(
        "  \"schedule_digest\": \"{:016x}\",\n",
        report.schedule_digest
    ));
    out.push_str(&format!(
        "  \"virtual_elapsed_secs\": {:.3},\n",
        report.virtual_elapsed.as_secs_f64()
    ));
    out.push_str(&format!(
        "  \"ring_hits\": {}, \"ring_fallbacks\": {}, \"lookup_rpcs\": {},\n",
        report.ring_hits, report.ring_fallbacks, report.lookup_rpcs
    ));
    out.push_str("  \"tiers\": [\n");
    for (i, t) in report.tiers.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"tier\": \"{}\", \"ops\": {}, \"p50_us\": {:.1}, \"p90_us\": {:.1}, \
             \"p99_us\": {:.1}}}{}\n",
            t.tier.label(),
            t.ops,
            t.p50_ns as f64 / 1e3,
            t.p90_ns as f64 / 1e3,
            t.p99_ns as f64 / 1e3,
            if i + 1 < report.tiers.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let opts = parse_opts();
    let spec = ClusterSpec {
        pods: opts.pods,
        racks_per_pod: opts.racks,
        hosts_per_rack: opts.hosts,
        seed: opts.seed,
        ..ClusterSpec::paper_fabric(opts.seed)
    };
    let load = WorkloadSpec::default_for(&spec, opts.ops);

    println!(
        "A6: {} ops over {} nodes ({} pods x {} racks x {} hosts), seed {:#x}",
        opts.ops,
        spec.nodes(),
        spec.pods,
        spec.racks_per_pod,
        spec.hosts_per_rack,
        spec.seed
    );
    eprintln!("  launching cluster...");
    let cluster = Cluster::launch(cluster_config(&spec, MEMORY_PER_NODE)).expect("launch cluster");
    eprintln!("  replaying schedule...");
    let report = run_cluster_workload(&cluster, &spec, &load).expect("workload replay");

    let rows: Vec<Vec<String>> = report
        .tiers
        .iter()
        .map(|t| {
            vec![
                t.tier.label().to_string(),
                t.ops.to_string(),
                format!("{:.1}", t.p50_ns as f64 / 1e3),
                format!("{:.1}", t.p90_ns as f64 / 1e3),
                format!("{:.1}", t.p99_ns as f64 / 1e3),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(&["tier", "gets", "p50 (µs)", "p90 (µs)", "p99 (µs)"], &rows)
    );
    println!(
        "ops {} (gets {}, puts {}), virtual time {:.3} s, schedule digest {:016x}",
        report.ops,
        report.gets,
        report.puts,
        report.virtual_elapsed.as_secs_f64(),
        report.schedule_digest
    );
    println!(
        "ring: hits {}, fallbacks {}, lookup RPCs {}",
        report.ring_hits, report.ring_fallbacks, report.lookup_rpcs
    );

    // The tier taxonomy's defining property: with enough samples, the
    // nearer tier is strictly faster at the median.
    let median = |tier: Tier| {
        report
            .tiers
            .iter()
            .find(|t| t.tier == tier && t.ops >= 1000)
            .map(|t| t.p50_ns)
    };
    if let (Some(intra), Some(rack)) = (median(Tier::IntraRack), median(Tier::CrossRack)) {
        assert!(
            intra < rack,
            "intra-rack p50 {intra} >= cross-rack p50 {rack}"
        );
    }
    if let (Some(rack), Some(pod)) = (median(Tier::CrossRack), median(Tier::CrossPod)) {
        assert!(rack < pod, "cross-rack p50 {rack} >= cross-pod p50 {pod}");
    }
    assert_eq!(
        report.ring_fallbacks, 0,
        "stable membership must never fall back to broadcast"
    );

    write_result("cluster", &json(&spec, &report));
}
