//! Experiment A7 — hot-pod overload against the elastic capacity tier.
//!
//! A zipf-skewed tenant drives the 4 × 4 × 4 tiered fabric at **2×** the
//! A6 target load, with 85% of its churn creates aimed at pod 0. Modeled
//! write times hold creates in flight, so the hot pod's owners run into
//! the bounded in-flight admission gate and answer further creates with
//! the typed `Overloaded { retry_after }` rejection — which this harness
//! honors by backing off and retrying on the virtual clock. Meanwhile
//! each node's occupancy crosses the spill watermark and the elastic
//! tier sheds cold sealed objects to lender peers in the idle pods;
//! periodic heat-driven rebalance passes pull hot catalog objects toward
//! their dominant readers.
//!
//! The run must degrade gracefully, not collapse: every operation either
//! completes or is rejected with a typed `Overloaded`; at quiesce the
//! borrow ledgers must be mutually consistent (no lost, duplicated, or
//! orphaned delegation). Any violation aborts the process.
//!
//! Usage: `cargo run -p bench --bin elastic --release [-- --smoke]
//! [--ops N] [--seed N]`. Writes `target/bench/BENCH_elastic.json`.

use bench::{cluster_config, write_result};
use disagg::{Cluster, Kind, NodeId, Side};
use plasma::{ObjectId, ObjectStore, PlasmaError};
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::time::Duration;
use topo::{ClusterSpec, OpKind, SizeClass, Spatial, TenantSpec, WorkloadSpec};

/// A6's hot-pod tenant target load; A7 drives the fabric at twice this.
const BASE_OPS_PER_SEC: u64 = 20_000;
const LOAD_MULTIPLIER: u64 = 2;
/// Every churn object is one 32 KiB payload — large enough that the live
/// window pushes a node past the spill watermark.
const CHURN_BYTES: u64 = 32 << 10;
/// Live sealed churn objects kept per target node before the oldest is
/// deleted; 224 × 32 KiB ≈ 7 MiB, above the default 85% watermark of
/// the 8 MiB node budget — the pressure that keeps the spill path hot.
const CHURN_WINDOW: usize = 224;
const MEMORY_PER_NODE: usize = 8 << 20;
/// Share of churn creates aimed at the hot pod, percent.
const HOT_SHARE_PCT: u64 = 85;
/// Modeled write-through time for a staged create: base latency plus a
/// bytes / bandwidth term (≈ 3.5 ms for a 32 KiB object). Creates stay
/// in flight this long, which is what makes the admission gate bind.
const WRITE_BASE_NS: u64 = 1_500_000;
const WRITE_NS_PER_BYTE: u64 = 60;
/// Ops between store-side maintenance sweeps (spill / rebalance).
const SPILL_EVERY: u64 = 512;
const REBALANCE_EVERY: u64 = 2048;
const MAX_CREATE_ATTEMPTS: u32 = 3;
const GET_TIMEOUT: Duration = Duration::from_secs(600);

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
        ops: 60_000,
        seed: 0xE1A5,
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
                opts.ops = 8_000;
            }
            "--ops" => opts.ops = num("--ops"),
            "--seed" => opts.seed = num("--seed"),
            "--help" | "-h" => {
                eprintln!("usage: [--smoke] [--ops N] [--seed N]");
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

/// A deferred action on the virtual clock, ordered soonest-first.
enum Due {
    /// The modeled write finished: seal (and release) the staged create.
    Seal { client: usize, id: ObjectId },
    /// An `Overloaded` backoff expired: retry the create.
    Retry {
        client: usize,
        target: usize,
        seq: u64,
        attempt: u32,
    },
}

struct Pending {
    at_ns: u64,
    tie: u64,
    due: Due,
}

impl PartialEq for Pending {
    fn eq(&self, other: &Self) -> bool {
        (self.at_ns, self.tie) == (other.at_ns, other.tie)
    }
}
impl Eq for Pending {}
impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Pending {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap: reverse for earliest-first.
        (other.at_ns, other.tie).cmp(&(self.at_ns, self.tie))
    }
}

#[derive(Default)]
struct Tally {
    gets_ok: u64,
    get_misses: u64,
    puts_ok: u64,
    rejections: u64,
    retries_ok: u64,
    shed: u64,
    deletes: u64,
}

fn churn_target(spec: &ClusterSpec, seq: u64) -> usize {
    let pod0 = spec.hosts_per_rack * spec.racks_per_pod;
    if seq % 100 < HOT_SHARE_PCT {
        (seq as usize * 7) % pod0 // a pod-0 member
    } else {
        (seq as usize * 31) % spec.nodes()
    }
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

/// Cross-check every lease: each owner-side (`out`) entry must have the
/// matching holder-side (`held`) entry and vice versa. Returns the
/// number of violations (must be zero at quiesce).
fn audit_ledgers(cluster: &Cluster) -> u64 {
    let node_idx: HashMap<NodeId, usize> = (0..cluster.len())
        .map(|i| (cluster.node_id(i), i))
        .collect();
    let leases = |side: Side| -> Vec<Vec<(ObjectId, NodeId)>> {
        (0..cluster.len())
            .map(|i| {
                let all = cluster.store(i).delegations().into_iter();
                all.filter(|r| r.side == side && r.kind == Kind::Lease)
                    .map(|r| (r.id, r.peer))
                    .collect()
            })
            .collect()
    };
    let (lent, borrowed) = (leases(Side::Out), leases(Side::Held));
    let mut violations = 0u64;
    for (owner, entries) in lent.iter().enumerate() {
        for &(id, holder) in entries {
            let h = node_idx[&holder];
            if !borrowed[h].contains(&(id, cluster.node_id(owner))) {
                eprintln!("AUDIT: node {owner} lent {id:?} to {holder} without a backref");
                violations += 1;
            }
        }
    }
    for (holder, entries) in borrowed.iter().enumerate() {
        for &(id, owner) in entries {
            let o = node_idx[&owner];
            if !lent[o].contains(&(id, cluster.node_id(holder))) {
                eprintln!("AUDIT: node {holder} borrows {id:?} from {owner} without a lease");
                violations += 1;
            }
        }
    }
    violations
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
    let nodes = spec.nodes();
    let load = WorkloadSpec {
        seed: opts.seed,
        ops: opts.ops,
        classes: vec![SizeClass {
            bytes: CHURN_BYTES,
            weight: 1,
        }],
        tenants: vec![TenantSpec {
            clients: (0, nodes),
            objects_per_node: 8,
            zipf_milli: 1_100,
            ops_per_sec: BASE_OPS_PER_SEC * LOAD_MULTIPLIER,
            sigma_milli: 400,
            put_ppm: 350_000,
            spatial: Spatial::HotPod {
                pod: 0,
                hot_ppm: 850_000,
            },
        }],
    };
    println!(
        "A7: {} ops over {nodes} nodes ({}x{}x{}), {}x target load ({} ops/s), seed {:#x}",
        opts.ops,
        spec.pods,
        spec.racks_per_pod,
        spec.hosts_per_rack,
        LOAD_MULTIPLIER,
        BASE_OPS_PER_SEC * LOAD_MULTIPLIER,
        opts.seed
    );

    let mut config = cluster_config(&spec, MEMORY_PER_NODE);
    config.max_inflight_creates = 3;
    let cluster = Cluster::launch(config).expect("launch cluster");
    let clock = cluster.clock().clone();
    let started = clock.now();

    // Commit the catalog unpinned (sealed, zero references): catalog
    // objects are first-class spill candidates, so skewed gets exercise
    // the redirect path once pressure pushes them off their owners.
    eprintln!("  committing catalog...");
    let mut pools: Vec<Vec<ObjectId>> = Vec::with_capacity(nodes);
    for home in 0..nodes {
        let names = cluster.owned_ids(home, "a7/cat", load.tenants[0].objects_per_node);
        let ids: Vec<ObjectId> = names.iter().map(|n| ObjectId::from_name(n)).collect();
        let store = cluster.store(home);
        for id in &ids {
            store.create(*id, CHURN_BYTES, 0).expect("catalog create");
            store.seal(*id).expect("catalog seal");
            store.release(*id).expect("catalog release");
        }
        pools.push(ids);
    }

    eprintln!("  replaying schedule...");
    let schedule = load.generate(&spec);
    let mut tally = Tally::default();
    let mut pending: BinaryHeap<Pending> = BinaryHeap::new();
    let mut tie = 0u64;
    // Live sealed churn per target node, oldest first.
    let mut windows: Vec<VecDeque<ObjectId>> = vec![VecDeque::new(); nodes];
    let mut latencies_ns: Vec<u64> = Vec::new();
    let mut hot_latencies_ns: Vec<u64> = Vec::new();

    let churn_id = |target: usize, seq: u64| {
        ObjectId::from_name(&cluster.owned_id(target, &format!("a7/churn/{seq}")))
    };
    let write_done_ns = |now_ns: u64| now_ns + WRITE_BASE_NS + CHURN_BYTES * WRITE_NS_PER_BYTE;

    let process = |p: Pending,
                   tally: &mut Tally,
                   pending: &mut BinaryHeap<Pending>,
                   windows: &mut Vec<VecDeque<ObjectId>>,
                   tie: &mut u64| {
        match p.due {
            Due::Seal { client, id } => {
                let store = cluster.store(client);
                store.seal(id).expect("seal staged churn");
                store.release(id).expect("release churn");
                // The target is encoded in the id's ring owner; find the
                // window by ring placement.
                let owner = store
                    .ring_owner(id)
                    .and_then(|n| (0..nodes).find(|i| cluster.node_id(*i) == n))
                    .unwrap_or(client);
                windows[owner].push_back(id);
                tally.puts_ok += 1;
                if windows[owner].len() > CHURN_WINDOW {
                    if let Some(old) = windows[owner].pop_front() {
                        // Routine retirement; lent objects retire at the
                        // holder through the owner's ledger.
                        cluster.store(owner).delete(old).expect("churn delete");
                        tally.deletes += 1;
                    }
                }
            }
            Due::Retry {
                client,
                target,
                seq,
                attempt,
            } => {
                let id = churn_id(target, seq);
                match cluster.store(client).create(id, CHURN_BYTES, 0) {
                    Ok(_) => {
                        tally.retries_ok += 1;
                        *tie += 1;
                        pending.push(Pending {
                            at_ns: write_done_ns(p.at_ns),
                            tie: *tie,
                            due: Due::Seal { client, id },
                        });
                    }
                    Err(PlasmaError::Overloaded { retry_after_ms }) => {
                        tally.rejections += 1;
                        if attempt + 1 < MAX_CREATE_ATTEMPTS {
                            *tie += 1;
                            pending.push(Pending {
                                at_ns: p.at_ns + retry_after_ms * 1_000_000,
                                tie: *tie,
                                due: Due::Retry {
                                    client,
                                    target,
                                    seq,
                                    attempt: attempt + 1,
                                },
                            });
                        } else {
                            tally.shed += 1;
                        }
                    }
                    Err(e) => panic!("retry create failed non-gracefully: {e}"),
                }
            }
        }
    };

    for (i, op) in schedule.ops.iter().enumerate() {
        clock.advance_to(started + Duration::from_nanos(op.at_ns));
        // Fire everything that came due before this arrival.
        while pending.peek().is_some_and(|p| p.at_ns <= op.at_ns) {
            let p = pending.pop().unwrap();
            process(p, &mut tally, &mut pending, &mut windows, &mut tie);
        }
        let client = op.client as usize;
        let store = cluster.store(client);
        match op.kind {
            OpKind::Get => {
                let target = op.target as usize;
                let id = pools[target][op.object as usize % pools[target].len()];
                let (found, elapsed) = clock.time(|| store.get(&[id], GET_TIMEOUT));
                match found.expect("get must not error")[0] {
                    Some(_) => {
                        store.release(id).expect("release");
                        tally.gets_ok += 1;
                        let ns = elapsed.as_nanos() as u64;
                        latencies_ns.push(ns);
                        if spec.coord(target).pod == 0 {
                            hot_latencies_ns.push(ns);
                        }
                    }
                    // Legal under memory pressure: the object was evicted
                    // between spills. Counted, never fatal.
                    None => tally.get_misses += 1,
                }
            }
            OpKind::Put { .. } => {
                let target = churn_target(&spec, op.seq);
                let id = churn_id(target, op.seq);
                match store.create(id, CHURN_BYTES, 0) {
                    Ok(_) => {
                        tie += 1;
                        pending.push(Pending {
                            at_ns: write_done_ns(op.at_ns),
                            tie,
                            due: Due::Seal { client, id },
                        });
                    }
                    Err(PlasmaError::Overloaded { retry_after_ms }) => {
                        tally.rejections += 1;
                        tie += 1;
                        pending.push(Pending {
                            at_ns: op.at_ns + retry_after_ms * 1_000_000,
                            tie,
                            due: Due::Retry {
                                client,
                                target,
                                seq: op.seq,
                                attempt: 1,
                            },
                        });
                    }
                    Err(e) => panic!("create failed non-gracefully: {e}"),
                }
            }
        }
        // Store-side maintenance on the same cadence a daemon would run.
        let n = i as u64 + 1;
        if n.is_multiple_of(SPILL_EVERY) {
            for node in 0..nodes {
                cluster.store(node).maybe_spill().expect("spill pass");
            }
        }
        if n.is_multiple_of(REBALANCE_EVERY) {
            for node in 0..nodes {
                cluster
                    .store(node)
                    .rebalance_once()
                    .expect("rebalance pass");
            }
        }
    }
    // Drain: finish every staged write and exhausted retry.
    while let Some(p) = pending.pop() {
        clock.advance_to(started + Duration::from_nanos(p.at_ns));
        process(p, &mut tally, &mut pending, &mut windows, &mut tie);
    }
    let virtual_elapsed = clock.now() - started;

    // Quiesce: heal ambiguous spills, then audit every ledger pair.
    eprintln!("  reconciling + auditing...");
    for node in 0..nodes {
        let sweep = cluster.store(node).reconcile();
        assert!(sweep.unreachable.is_empty(), "reconcile: {sweep:?}");
    }
    let violations = audit_ledgers(&cluster);

    latencies_ns.sort_unstable();
    hot_latencies_ns.sort_unstable();
    let overloaded = counter_sum(&cluster, "disagg.elastic.overload_rejected");
    let spills = counter_sum(&cluster, "disagg.elastic.spills");
    let rebalances = counter_sum(&cluster, "disagg.elastic.rebalances");
    let redirects_served = counter_sum(&cluster, "disagg.elastic.redirects_served");
    let redirects_followed = counter_sum(&cluster, "disagg.elastic.redirects_followed");
    let ops_per_sec = schedule.ops.len() as f64 / virtual_elapsed.as_secs_f64().max(1e-9);
    let get_p50 = percentile_us(&latencies_ns, 0.50);
    let get_p99 = percentile_us(&latencies_ns, 0.99);
    let hot_p99 = percentile_us(&hot_latencies_ns, 0.99);

    println!(
        "gets ok {} (misses {}), puts ok {} (rejections {}, retried-ok {}, shed {}), deletes {}",
        tally.gets_ok,
        tally.get_misses,
        tally.puts_ok,
        tally.rejections,
        tally.retries_ok,
        tally.shed,
        tally.deletes
    );
    println!(
        "elastic: spills {spills}, rebalances {rebalances}, redirects served/followed \
         {redirects_served}/{redirects_followed}, overload rejections {overloaded}"
    );
    println!(
        "latency: get p50 {get_p50:.1} us, p99 {get_p99:.1} us (hot pod p99 {hot_p99:.1} us); \
         throughput {ops_per_sec:.0} ops/s virtual"
    );
    println!("ledger audit violations: {violations}");

    // The acceptance gates: graceful degradation, not collapse.
    assert_eq!(violations, 0, "borrow ledgers inconsistent at quiesce");
    assert!(
        overloaded > 0,
        "2x load must trip the admission gate at least once"
    );
    assert!(
        tally.puts_ok > 0 && tally.gets_ok > 0,
        "rejections must not starve the workload"
    );
    assert_eq!(tally.rejections, overloaded, "every rejection is typed");

    let json = format!(
        "{{\n  \"experiment\": \"elastic\",\n  \"pods\": {}, \"racks_per_pod\": {}, \
         \"hosts_per_rack\": {}, \"nodes\": {},\n  \"seed\": {},\n  \"ops\": {}, \
         \"load_multiplier\": {},\n  \"gets_ok\": {}, \"get_misses\": {}, \"puts_ok\": {}, \
         \"puts_rejected\": {}, \"retries_ok\": {}, \"puts_shed\": {},\n  \"spills\": {}, \
         \"rebalances\": {}, \"redirects_served\": {}, \"redirects_followed\": {},\n  \
         \"get_p50_us\": {:.1}, \"get_p99_us\": {:.1}, \"hot_pod_get_p99_us\": {:.1},\n  \
         \"throughput_ops_per_sec\": {:.0},\n  \"invariant_failures\": {}\n}}\n",
        spec.pods,
        spec.racks_per_pod,
        spec.hosts_per_rack,
        nodes,
        opts.seed,
        schedule.ops.len(),
        LOAD_MULTIPLIER,
        tally.gets_ok,
        tally.get_misses,
        tally.puts_ok,
        tally.rejections,
        tally.retries_ok,
        tally.shed,
        spills,
        rebalances,
        redirects_served,
        redirects_followed,
        get_p50,
        get_p99,
        hot_p99,
        ops_per_sec,
        violations,
    );
    write_result("elastic", &json);
}
