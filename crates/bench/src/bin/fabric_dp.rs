//! Experiment A8 — the zero-copy fabric data plane, plus hot-object
//! read replication.
//!
//! A remote-read workload runs over a 3-node LAN-modeled cluster: the
//! control plane only negotiates the `(segment, offset, len)`
//! descriptor; the payload is read straight out of the owner's mapped
//! `tfsim` segment with no intermediate copy. The harness records
//! remote-get p50/p90/p99 on the virtual clock and asserts that the
//! cluster-wide `disagg.fabric.mapped_payload_bytes` counter accounts
//! for every payload byte read.
//!
//! A replication phase measures the same gets after the owner offered
//! each hot object to its dominant reader via `replicate_hot`:
//! replicated reads must be served locally (the `disagg.replica.
//! local_hits` counter accounts for every one).
//!
//! Usage: `cargo run -p bench --bin fabric_dp --release [-- --smoke]
//! [--objects N] [--reads N] [--seed N]`. Writes `BENCH_fabric.json`.

use disagg::{Cluster, ClusterConfig};
use netsim::LinkModel;
use plasma::{ObjectId, ObjectStore};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// Payload of every benched object: big enough that a per-byte copy
/// cost on the control channel would dominate its fixed frame overhead.
const OBJECT_BYTES: usize = 64 << 10;
const MEMORY_PER_NODE: usize = 64 << 20;
const GET_TIMEOUT: Duration = Duration::from_secs(600);

struct Opts {
    objects: usize,
    reads: usize,
    seed: u64,
}

fn parse_opts() -> Opts {
    let mut opts = Opts {
        objects: 48,
        reads: 2_000,
        seed: 0xFAB,
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
                opts.objects = 12;
                opts.reads = 200;
            }
            "--objects" => opts.objects = num("--objects") as usize,
            "--reads" => opts.reads = num("--reads") as usize,
            "--seed" => opts.seed = num("--seed"),
            "--help" | "-h" => {
                eprintln!("usage: [--smoke] [--objects N] [--reads N] [--seed N]");
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

fn percentile_us(sorted_ns: &[u64], q: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    sorted_ns[((sorted_ns.len() - 1) as f64 * q).round() as usize] as f64 / 1e3
}

/// Sum one counter across every node's metrics snapshot.
fn counter_sum(cluster: &Cluster, name: &str) -> u64 {
    (0..cluster.len())
        .map(|i| cluster.store(i).metrics_snapshot().counter(name))
        .sum()
}

struct RunResult {
    p50_us: f64,
    p90_us: f64,
    p99_us: f64,
    ops_per_sec: f64,
    mapped_bytes: u64,
    replicated: u64,
    replica_local_hits: u64,
    replica_p50_us: f64,
}

/// Run the replication phase and the timed remote-read workload.
fn run(opts: &Opts) -> RunResult {
    let nodes = 3;
    let mut config = ClusterConfig::functional(nodes, MEMORY_PER_NODE);
    config.rpc_link = LinkModel::grpc_lan();
    config.seed = opts.seed;
    // Replication is driven explicitly below; a low threshold lets the
    // hot-offer heuristic fire off the recorded read heat.
    config.replication.min_hits = 4;
    let cluster = Cluster::launch(config).expect("launch cluster");
    let clock = cluster.clock().clone();

    // Phase 1 — seed sealed objects on node 0 (all ids ring-owned by
    // node 0, so every read from nodes 1..3 is a true remote get).
    let store0 = cluster.store(0);
    let mut ids: Vec<ObjectId> = Vec::with_capacity(opts.objects);
    let mut n = 0u64;
    while ids.len() < opts.objects {
        let id = ObjectId::from_name(&cluster.owned_id(0, &format!("a8/obj/{n}")));
        n += 1;
        let payload: Vec<u8> = (0..OBJECT_BYTES).map(|i| (i % 251) as u8).collect();
        let loc = store0.create(id, OBJECT_BYTES as u64, 0).expect("create");
        store0.write_payload(&loc, &payload).expect("write payload");
        store0.seal(id).expect("seal");
        store0.release(id).expect("release");
        ids.push(id);
    }

    // Phase 2 — hot-offer replication. Node 1 is the *only* reader so
    // far, so after it crosses the heat threshold it is unambiguously
    // every object's dominant reader: `replicate_hot` must offer every
    // object there, and node 1's re-reads must all be local hits.
    let reader = cluster.store(1);
    for &id in &ids {
        for _ in 0..4 {
            let b = reader.get_bytes(id, GET_TIMEOUT).expect("heat read");
            assert!(b.is_some());
        }
    }
    let replicated = store0.replicate_hot().expect("replicate_hot");
    let mut replica_ns: Vec<u64> = Vec::with_capacity(ids.len());
    for &id in &ids {
        let (b, elapsed) = clock.time(|| reader.get_bytes(id, GET_TIMEOUT));
        assert!(b.expect("replica get").is_some());
        replica_ns.push(elapsed.as_nanos() as u64);
    }
    replica_ns.sort_unstable();

    // Phase 3 — timed remote reads from node 2, which holds no replica:
    // every get exercises the data plane (the LAN link model prices the
    // control RPC only; the payload never touches it).
    let mut rng = SmallRng::seed_from_u64(opts.seed);
    let store2 = cluster.store(2);
    let mut latencies_ns: Vec<u64> = Vec::with_capacity(opts.reads);
    let started = clock.now();
    for _ in 0..opts.reads {
        let id = ids[rng.gen_range(0..ids.len())];
        let (bytes, elapsed) = clock.time(|| store2.get_bytes(id, GET_TIMEOUT));
        let bytes = bytes.expect("remote get").expect("object must resolve");
        assert_eq!(bytes.len(), OBJECT_BYTES, "short read");
        latencies_ns.push(elapsed.as_nanos() as u64);
    }
    let elapsed = clock.now() - started;
    latencies_ns.sort_unstable();

    RunResult {
        p50_us: percentile_us(&latencies_ns, 0.50),
        p90_us: percentile_us(&latencies_ns, 0.90),
        p99_us: percentile_us(&latencies_ns, 0.99),
        ops_per_sec: opts.reads as f64 / elapsed.as_secs_f64().max(1e-9),
        mapped_bytes: counter_sum(&cluster, "disagg.fabric.mapped_payload_bytes"),
        replicated,
        replica_local_hits: counter_sum(&cluster, "disagg.replica.local_hits"),
        replica_p50_us: percentile_us(&replica_ns, 0.50),
    }
}

fn main() {
    let opts = parse_opts();
    println!(
        "A8: {} remote reads over {} x {} KiB objects, seed {:#x}",
        opts.reads,
        opts.objects,
        OBJECT_BYTES >> 10,
        opts.seed
    );

    let r = run(&opts);
    println!(
        "get p50 {:.1} us, p90 {:.1} us, p99 {:.1} us, {:.0} ops/s; mapped payload bytes {}; \
         replicated {} (local hits {}, replica p50 {:.1} us)",
        r.p50_us,
        r.p90_us,
        r.p99_us,
        r.ops_per_sec,
        r.mapped_bytes,
        r.replicated,
        r.replica_local_hits,
        r.replica_p50_us
    );

    // The acceptance gates, counter-asserted.
    assert!(
        r.mapped_bytes as usize >= opts.reads * OBJECT_BYTES,
        "data plane under-counted payload movement"
    );
    assert!(r.replicated > 0);
    assert!(
        r.replica_local_hits as usize >= opts.objects,
        "replicated reads were not served locally"
    );

    let json = format!(
        "{{\n  \"experiment\": \"fabric_dp\",\n  \"nodes\": 3,\n  \"seed\": {},\n  \
         \"objects\": {}, \"object_bytes\": {}, \"reads\": {},\n  \
         \"mapped_get_p50_us\": {:.1}, \"mapped_get_p90_us\": {:.1}, \
         \"mapped_get_p99_us\": {:.1},\n  \"mapped_ops_per_sec\": {:.0},\n  \
         \"mapped_payload_bytes\": {},\n  \
         \"mapped_replica_get_p50_us\": {:.1},\n  \
         \"replica_local_hits\": {}\n}}\n",
        opts.seed,
        opts.objects,
        OBJECT_BYTES,
        opts.reads,
        r.p50_us,
        r.p90_us,
        r.p99_us,
        r.ops_per_sec,
        r.mapped_bytes,
        r.replica_p50_us,
        r.replica_local_hits,
    );
    let path = "BENCH_fabric.json";
    std::fs::write(path, json).expect("write BENCH_fabric.json");
    println!("wrote {path}");
}
