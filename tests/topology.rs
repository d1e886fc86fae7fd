//! Topology model + workload generator acceptance: determinism property
//! tests (same `(spec, seed)` ⇒ byte-identical schedules and delay
//! streams) and statistical sanity
//! checks on fixed seeds (zipf rank-frequency slope, lognormal
//! inter-arrival mean vs target load, spatial traffic-matrix row sums).

use proptest::prelude::*;
use std::time::Duration;
use topo::{ClusterSpec, Spatial, TenantSpec, Tier, WorkloadSpec};

// ---------------------------------------------------------------------
// Determinism property tests (mirroring ring.rs's proptest style).
// ---------------------------------------------------------------------

proptest! {
    /// The link-delay stream is a pure function of `(spec, pair, seq)`:
    /// equal specs replay byte-identical delays in any sampling order,
    /// and a different seed produces a different stream.
    #[test]
    fn delay_streams_replay_exactly(seed in any::<u64>(), payload in 0usize..65_536) {
        let spec = ClusterSpec::small_fabric(seed);
        let twin = ClusterSpec::small_fabric(seed);
        let pairs = [(0usize, 1usize), (1, 0), (0, 2), (0, 4), (3, 7)];
        for (i, j) in pairs {
            let forward: Vec<Duration> =
                (0..32).map(|s| spec.delay_at(i, j, payload, s)).collect();
            let replayed: Vec<Duration> =
                (0..32).rev().map(|s| twin.delay_at(i, j, payload, s)).collect();
            prop_assert_eq!(
                &forward,
                &replayed.into_iter().rev().collect::<Vec<_>>(),
                "pair ({}, {}) diverged", i, j
            );
        }
        let other = ClusterSpec::small_fabric(seed ^ 0x5555_5555);
        prop_assert_ne!(
            (0..32).map(|s| spec.delay_at(0, 1, payload, s)).collect::<Vec<_>>(),
            (0..32).map(|s| other.delay_at(0, 1, payload, s)).collect::<Vec<_>>()
        );
    }

    /// Same `(spec, seed)` ⇒ byte-identical op schedule; different seeds
    /// ⇒ distinct schedules.
    #[test]
    fn schedules_are_seed_deterministic(seed in any::<u64>(), ops in 50u64..300) {
        let spec = ClusterSpec::small_fabric(seed);
        let load = WorkloadSpec::default_for(&spec, ops);
        let a = load.generate(&spec);
        let b = load.clone().generate(&spec);
        prop_assert_eq!(a.serialize(), b.serialize());
        prop_assert_eq!(a.digest(), b.digest());

        let mut reseeded = load.clone();
        reseeded.seed = seed.wrapping_add(1);
        prop_assert_ne!(a.serialize(), reseeded.generate(&spec).serialize());
    }
}

// ---------------------------------------------------------------------
// Statistical sanity on fixed seeds (non-flaky by construction: every
// draw is a pure function of the hard-coded seed).
// ---------------------------------------------------------------------

/// One-tenant workload with explicit knobs, for isolating a statistic.
fn single_tenant(_spec: &ClusterSpec, seed: u64, ops: u64, tenant: TenantSpec) -> WorkloadSpec {
    WorkloadSpec {
        seed,
        ops,
        classes: topo::workload::table1_classes_small(),
        tenants: vec![tenant],
    }
}

/// Empirical zipf check: the rank-frequency line of object picks must
/// have slope ≈ −s in log-log space. Least-squares fit over the head of
/// the distribution (the tail of a finite sample is noise).
#[test]
fn zipf_rank_frequency_slope_matches_configured_exponent() {
    let spec = ClusterSpec::small_fabric(0xA11CE);
    let s = 0.9;
    let load = single_tenant(
        &spec,
        0xA11CE,
        120_000,
        TenantSpec {
            clients: (0, spec.nodes()),
            objects_per_node: 64,
            zipf_milli: 900,
            ops_per_sec: 10_000,
            sigma_milli: 500,
            put_ppm: 0,
            spatial: Spatial::Uniform,
        },
    );
    let schedule = load.generate(&spec);

    // Object index == zipf rank within its pool; aggregate over pools.
    let mut counts = vec![0u64; 64];
    for op in &schedule.ops {
        counts[op.object as usize] += 1;
    }
    let head = 24; // ~89% of the mass at s = 0.9 over 64 ranks
    let points: Vec<(f64, f64)> = (0..head)
        .map(|r| (((r + 1) as f64).ln(), (counts[r] as f64).ln()))
        .collect();
    let n = points.len() as f64;
    let (sx, sy): (f64, f64) = points
        .iter()
        .fold((0.0, 0.0), |(a, b), (x, y)| (a + x, b + y));
    let sxx: f64 = points.iter().map(|(x, _)| x * x).sum();
    let sxy: f64 = points.iter().map(|(x, y)| x * y).sum();
    let slope = (n * sxy - sx * sy) / (n * sxx - sx * sx);
    assert!(
        (slope + s).abs() < 0.08,
        "rank-frequency slope {slope:.3} not within 0.08 of -{s}"
    );
}

/// The lognormal arrival stream's empirical rate must match the
/// configured target load within 5% — the median-from-mean derivation
/// under test.
#[test]
fn inter_arrival_mean_tracks_target_load() {
    let spec = ClusterSpec::small_fabric(0xBEE5);
    let rate = 25_000u64;
    let ops = 100_000u64;
    let load = single_tenant(
        &spec,
        0xBEE5,
        ops,
        TenantSpec {
            clients: (0, spec.nodes()),
            objects_per_node: 16,
            zipf_milli: 800,
            ops_per_sec: rate,
            sigma_milli: 700,
            put_ppm: 0,
            spatial: Spatial::Uniform,
        },
    );
    let schedule = load.generate(&spec);
    let span_secs = schedule.ops.last().unwrap().at_ns as f64 / 1e9;
    let empirical = (ops - 1) as f64 / span_secs;
    let err = (empirical - rate as f64).abs() / rate as f64;
    assert!(
        err < 0.05,
        "empirical rate {empirical:.0} ops/s deviates {:.1}% from target {rate}",
        err * 100.0
    );
}

/// The analytic traffic matrix conserves load exactly: every client row
/// sums to its per-client share, the whole matrix to the tenant's rate —
/// for each spatial pattern.
#[test]
fn traffic_matrix_rows_sum_to_configured_rate() {
    let spec = ClusterSpec::small_fabric(3);
    let rate = 12_000u64;
    for spatial in [
        Spatial::Uniform,
        Spatial::RackLocal { local_ppm: 700_000 },
        Spatial::HotPod {
            pod: 1,
            hot_ppm: 550_000,
        },
    ] {
        let load = single_tenant(
            &spec,
            3,
            10,
            TenantSpec {
                clients: (0, spec.nodes()),
                objects_per_node: 8,
                zipf_milli: 900,
                ops_per_sec: rate,
                sigma_milli: 400,
                put_ppm: 0,
                spatial,
            },
        );
        let matrix = load.traffic_matrix(&spec, 0);
        let per_client = rate as f64 / spec.nodes() as f64;
        let mut total = 0.0;
        for (c, row) in matrix.iter().enumerate() {
            let sum: f64 = row.iter().sum();
            assert!(
                (sum - per_client).abs() < 1e-9 * per_client,
                "{spatial:?}: client {c} row sums to {sum}, want {per_client}"
            );
            total += sum;
        }
        assert!((total - rate as f64).abs() < 1e-9 * rate as f64);
    }
}

/// The empirical spatial split agrees with the analytic matrix: a
/// rack-local tenant's ops hit their own rack at ≈ the configured
/// probability (plus the uniform spillover landing there by chance).
#[test]
fn rack_local_skew_is_realized_in_the_schedule() {
    let spec = ClusterSpec::small_fabric(0xD0E);
    let local_ppm = 700_000u32;
    let load = single_tenant(
        &spec,
        0xD0E,
        60_000,
        TenantSpec {
            clients: (0, spec.nodes()),
            objects_per_node: 16,
            zipf_milli: 900,
            ops_per_sec: 10_000,
            sigma_milli: 500,
            put_ppm: 0,
            spatial: Spatial::RackLocal { local_ppm },
        },
    );
    let schedule = load.generate(&spec);
    let in_rack = schedule
        .ops
        .iter()
        .filter(|op| spec.rack_of(op.client as usize) == spec.rack_of(op.target as usize))
        .count() as f64
        / schedule.ops.len() as f64;
    // p + (1 - p) * hosts_per_rack / nodes = 0.7 + 0.3 * 2/8 = 0.775
    let expected = 0.7 + 0.3 * (spec.hosts_per_rack as f64 / spec.nodes() as f64);
    assert!(
        (in_rack - expected).abs() < 0.02,
        "rack-local fraction {in_rack:.3}, want ≈ {expected:.3}"
    );
    // And the catalog gets issued over the fabric cover all three
    // network tiers (the generator exercises every link class).
    for tier in Tier::NETWORK {
        assert!(
            schedule
                .ops
                .iter()
                .any(|op| spec.tier(op.client as usize, op.target as usize) == tier),
            "no traffic on {tier:?}"
        );
    }
}
