//! Chaos soak: wire-level fault injection against a live cluster, with
//! the recorded history checked for consistency violations — plus the
//! determinism contract of the injector and proof that the checker can
//! actually catch a broken invariant.
//!
//! A failing soak prints the seed and the serialized fault plan; replay
//! it with `cargo run -p bench --bin chaos -- --replay <plan-file>`.

use chaos::{
    check, minimize, run_plan, ChaosInjector, Event, EventKind, FaultPlan, Observed, SoakConfig,
};
use ipc::fault::Direction;

fn soak_one(seed: u64) {
    let cfg = SoakConfig::quick(3);
    let plan = FaultPlan::generate(seed, cfg.nodes, 4, 150);
    let report = run_plan(&plan, &cfg).expect("soak must launch");
    assert!(report.events > 0, "soak recorded no operations");
    assert!(
        report.verdict.ok(),
        "seed {seed} violated consistency:\n{}\nreplay plan:\n{}",
        report.verdict,
        plan.serialize()
    );
    assert!(
        report.settled,
        "seed {seed}: the settle sweep ran out its clock instead of draining its backlogs"
    );
}

/// Fixed seed matrix for the CI soak, one `#[test]` per seed so the
/// harness names the failing seed and runs them in parallel. Each seed
/// fully determines its fault schedule; a new seed here is a new
/// adversary forever. Seeds 5–6 were added with the rendezvous ring:
/// every soak now also audits ring placement at quiesce (one copy, on
/// the computed owner, epochs agreed), so they pin adversaries against
/// the forwarded-create protocol specifically. Seeds 7–8 were added
/// with the elastic tier — the workload now spills and rebalances under
/// fire, and the quiesce audit cross-checks every borrow ledger — so
/// they pin adversaries against the spill handoff (partition while a
/// `SPILL_AT` is in flight) and the heat-driven rebalance path (links
/// frozen mid-pass). Seeds 9–10 were added with read replication — the
/// workload now also replicates hot objects and the quiesce audit
/// cross-checks both replica-ledger sides — so they pin adversaries
/// against the invalidate-before-delete ordering (a delete racing a
/// `REPLICATE_AT` still in flight must leave either no replica or a
/// failed delete, never a stale replica that outlives its object).
macro_rules! seed_matrix {
    ($($name:ident: $seed:expr,)*) => {$(
        #[test]
        fn $name() {
            soak_one($seed);
        }
    )*};
}

seed_matrix! {
    soak_seed_01_c0ffee: 0xC0FFEE,
    soak_seed_02_42: 42,
    soak_seed_03_7577577: 7_577_577,
    soak_seed_04_dead2026: 0xDEAD_2026,
    soak_seed_05_11a541f0: 0x11A5_41F0,
    soak_seed_06_b1d50ff5: 0xB1D5_0FF5,
    soak_seed_07_51170d0d: 0x5117_0D0D,
    soak_seed_08_fba1a4ce: 0xFBA1_A4CE,
    soak_seed_09_4e911ca5: 0x4E91_1CA5,
    soak_seed_10_de1e0bad: 0xDE1E_0BAD,
}

/// Eviction under contention: per-node memory squeezed until creates
/// must evict mid-soak, so LRU eviction and slab frees run inside
/// creates that race faulted client traffic for the table lock. The
/// seed is pinned; the run must both stay consistent *and* actually
/// evict (or it isn't testing anything).
#[test]
fn soak_evicts_under_contention() {
    let seed: u64 = 0xE71C_7C0B;
    let cfg = SoakConfig {
        // 8 names × 8 KiB payloads against 16 KiB/node: only two
        // live objects fit a store, so puts (and replication/spill
        // copies) must evict sealed LRU objects throughout the run.
        value_len: 8192,
        memory_per_node: 16 << 10,
        ..SoakConfig::quick(3)
    };
    let plan = FaultPlan::generate(seed, cfg.nodes, 4, 150);
    let report = run_plan(&plan, &cfg).expect("soak must launch");
    assert!(report.events > 0, "soak recorded no operations");
    assert!(
        report.verdict.ok(),
        "eviction-under-contention seed {seed:#x} violated consistency:\n{}\nreplay plan:\n{}",
        report.verdict,
        plan.serialize()
    );
    assert!(
        report.evictions > 0,
        "store never evicted — shrink memory_per_node so the test bites"
    );
}

/// `RANDOM_SEED=n cargo test -q --test chaos soak_random_seed` — the CI
/// nightly sets a fresh seed per run so coverage grows over time; a
/// failure prints everything needed to pin the seed into the matrix.
#[test]
fn soak_random_seed() {
    let Some(seed) = std::env::var("RANDOM_SEED")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
    else {
        return; // fixed-matrix runs cover the default path
    };
    soak_one(seed);
}

/// Topology-aware soak: the same fault-injection harness, but over an
/// 8-node 2 × 2 × 2 tiered fabric (intra-rack / cross-rack / cross-pod
/// links from `topo::ClusterSpec`) instead of instant uniform links —
/// so consistency holds when faults land on channels with real,
/// tier-dependent delay distributions.
#[test]
fn soak_holds_on_a_tiered_fabric() {
    let seed = 0x70_0F_AB;
    let spec = topo::ClusterSpec::small_fabric(seed);
    let nodes = spec.nodes();
    let plan = FaultPlan::generate(seed, nodes, 3, 120);
    let cfg = SoakConfig {
        ops_per_client: 40,
        links: Some(spec.link_map()),
        ..SoakConfig::quick(nodes)
    };
    let report = run_plan(&plan, &cfg).expect("soak must launch");
    assert!(report.events > 0, "soak recorded no operations");
    assert!(
        report.verdict.ok(),
        "tiered-fabric seed {seed:#x} violated consistency:\n{}\nreplay plan:\n{}",
        report.verdict,
        plan.serialize()
    );
}

/// The determinism contract: two injectors built from equal plans
/// produce byte-identical fault schedules — tabulated over every link,
/// both directions, thousands of sequence numbers — and the plan
/// round-trips through its text format.
#[test]
fn same_plan_means_identical_fault_schedule() {
    let plan = FaultPlan::generate(0xFEED, 3, 5, 100);
    let reparsed = FaultPlan::parse(&plan.serialize()).expect("roundtrip");
    assert_eq!(plan, reparsed);

    let a = ChaosInjector::new(plan.clone());
    let b = ChaosInjector::new(reparsed);
    let links = ["0->1", "0->2", "1->0", "1->2", "2->0", "2->1"];
    let mut schedule = String::new();
    for link in links {
        for dir in [Direction::Outbound, Direction::Inbound] {
            for seq in 0..800u64 {
                let x = a.decision_at(link, dir, seq, 256);
                let y = b.decision_at(link, dir, seq, 256);
                assert_eq!(x, y, "divergence at ({link}, {dir:?}, {seq})");
                schedule.push_str(&format!("{link} {dir:?} {seq} {x:?}\n"));
            }
        }
    }
    // And the tabulated schedule is non-trivial: the plan actually
    // injects faults somewhere.
    assert!(schedule.contains("Drop") || schedule.contains("Delay"));
}

/// Two complete soak runs of the same (plan, config) agree on the
/// verdict — the acceptance criterion for reproducible chaos.
#[test]
fn same_plan_same_verdict_across_runs() {
    let plan = FaultPlan::generate(0xC0FFEE, 2, 3, 120);
    let cfg = SoakConfig {
        ops_per_client: 60,
        ..SoakConfig::quick(2)
    };
    let first = run_plan(&plan, &cfg).unwrap();
    let second = run_plan(&plan, &cfg).unwrap();
    assert_eq!(first.verdict.ok(), second.verdict.ok());
    assert_eq!(first.verdict, second.verdict);
}

/// The checker is not a rubber stamp: a deliberately broken history —
/// a read observing a version after its acked delete — must be caught.
#[test]
fn checker_catches_deliberately_broken_invariant() {
    let broken = vec![
        Event {
            client: 0,
            invoke_us: 0,
            complete_us: 10,
            kind: EventKind::Put {
                name: 3,
                tag: 555,
                ok: true,
            },
        },
        Event {
            client: 0,
            invoke_us: 20,
            complete_us: 30,
            kind: EventKind::Delete { name: 3, ok: true },
        },
        Event {
            client: 1,
            invoke_us: 40,
            complete_us: 50,
            kind: EventKind::Get {
                name: 3,
                observed: Observed::Value { tag: 555 },
            },
        },
    ];
    let verdict = check(&broken, 0);
    assert!(!verdict.ok(), "checker accepted a resurrection");
    assert!(verdict.violations[0].contains("resurrection"));

    // And the minimizer can shrink a plan against a synthetic repro,
    // reporting the least schedule that still triggers it.
    let fat = FaultPlan::generate(9, 3, 6, 100);
    let minimized = minimize(&fat, |p| p.steps.iter().any(|s| s.drop_ppm > 0));
    let drops: u32 = minimized.steps.iter().map(|s| s.drop_ppm).sum();
    let others: u64 = minimized
        .steps
        .iter()
        .map(|s| u64::from(s.delay_ppm + s.dup_ppm + s.corrupt_ppm + s.truncate_ppm))
        .sum();
    assert!(drops > 0, "minimizer destroyed the repro");
    assert_eq!(others, 0, "minimizer kept irrelevant faults");
}

/// Nor does it wave a loss through: a put acked with no delete attempted
/// after it, then a settle read-back that misses, is a lost object —
/// unless the run evicted, when a miss is always legal.
#[test]
fn checker_catches_a_lost_object() {
    let lost = vec![
        Event {
            client: 0,
            invoke_us: 0,
            complete_us: 10,
            kind: EventKind::Put {
                name: 4,
                tag: 777,
                ok: true,
            },
        },
        Event {
            client: 1,
            invoke_us: 40,
            complete_us: 50,
            kind: EventKind::ReadBack {
                name: 4,
                observed: Observed::Missing,
            },
        },
    ];
    let verdict = check(&lost, 0);
    assert_eq!(verdict.violations.len(), 1, "{verdict}");
    assert!(verdict.violations[0].starts_with("lost:"), "{verdict}");
    assert!(check(&lost, 1).ok(), "an eviction excuses the miss");
}

/// A quiet plan through the whole harness: zero injected faults, a
/// clean verdict, and a history full of successful operations — the
/// control experiment that validates the harness itself.
#[test]
fn quiet_plan_is_a_clean_control() {
    let plan = FaultPlan::quiet(77);
    let cfg = SoakConfig {
        ops_per_client: 80,
        ..SoakConfig::quick(3)
    };
    let report = run_plan(&plan, &cfg).unwrap();
    assert!(report.verdict.ok(), "{}", report.verdict);
    assert_eq!(report.injected_faults, 0);
    // The elastic mix (~5% of draws) issues store ops that are not
    // client-visible events, so the floor allows for that slice.
    assert!(report.events >= 3 * 80 * 85 / 100);
}
