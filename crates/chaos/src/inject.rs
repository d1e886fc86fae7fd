//! The deterministic fault injector.
//!
//! [`ChaosInjector`] implements [`ipc::fault::FaultPolicy`]: plugged into
//! a cluster's interconnect (see `disagg::ClusterConfig::fault_policy`),
//! it decides the fate of every store-to-store frame. The core property
//! is that every decision is a **pure function of its coordinates** —
//! `(plan, link, direction, sequence number)` — computed by
//! [`ChaosInjector::decision_at`]. The injector's only mutable state is a
//! per-(link, direction) frame counter, so the schedule each stream sees
//! is byte-identical across runs regardless of thread interleaving; only
//! *which* frame carries a given sequence number can vary.
//!
//! Structural faults come first: a partitioned direction drops every
//! frame, a frozen node holds every frame for the step's freeze
//! duration. Otherwise one uniform draw in `[0, 1e6)` is compared against
//! the step's cumulative ppm rates to pick drop / delay / duplicate /
//! corrupt / truncate / deliver.

use crate::plan::FaultPlan;
use ipc::fault::{Direction, FaultAction, FaultPolicy};
use ipc::Frame;
use netsim::Latency;
use obs::{MetricsSnapshot, Registry};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// FNV-1a over the link label: gives each link its own decision stream.
fn hash_link(link: &str) -> u64 {
    plasma::checksum::fnv1a64(link.as_bytes())
}

/// SplitMix64 finalizer: decorrelates the packed decision coordinates.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Parse a cluster link label `"i->j"` into `(i, j)`.
fn parse_link(link: &str) -> Option<(usize, usize)> {
    let (a, b) = link.split_once("->")?;
    Some((a.parse().ok()?, b.parse().ok()?))
}

/// A seeded, plan-driven [`FaultPolicy`]. See the module docs.
pub struct ChaosInjector {
    plan: FaultPlan,
    seqs: Mutex<HashMap<(String, u8), u64>>,
    armed: AtomicBool,
    registry: Arc<Registry>,
}

impl ChaosInjector {
    /// Build an injector for `plan`. It starts armed.
    pub fn new(plan: FaultPlan) -> Arc<ChaosInjector> {
        Arc::new(ChaosInjector {
            plan,
            seqs: Mutex::new(HashMap::new()),
            armed: AtomicBool::new(true),
            registry: Registry::new(),
        })
    }

    /// The plan this injector executes.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Stop injecting: every subsequent frame is delivered untouched.
    /// The soak runner calls this before its settle phase so in-flight
    /// state (parked releases, retries) can drain on a clean network.
    pub fn disarm(&self) {
        self.armed.store(false, Ordering::SeqCst);
    }

    /// Snapshot of the `chaos.*` fault-injection counters: one counter
    /// per action kind (`chaos.drop`, `chaos.delay`, `chaos.duplicate`,
    /// `chaos.corrupt`, `chaos.truncate`, `chaos.partition_drop`,
    /// `chaos.freeze_delay`, `chaos.deliver`).
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }

    /// Total frames the injector interfered with (everything except
    /// plain delivery).
    pub fn injected_faults(&self) -> u64 {
        let snap = self.registry.snapshot();
        snap.counter_sum("chaos.") - snap.counter("chaos.deliver")
    }

    /// The fate of frame number `seq` of stream `(link, dir)` carrying
    /// `len` payload bytes — a pure function: no state is read or
    /// written, so the full schedule can be tabulated independently of
    /// any run. [`FaultPolicy::on_frame`] is this plus the per-stream
    /// frame counter and the counters.
    pub fn decision_at(&self, link: &str, dir: Direction, seq: u64, len: usize) -> FaultAction {
        let step_idx = (seq / self.plan.span.max(1)).min(self.plan.steps.len() as u64 - 1);
        let step = &self.plan.steps[step_idx as usize];

        // Structural faults first. The wrapped connection is node i's
        // client dialing node j on link "i->j": outbound frames travel
        // i→j (requests), inbound frames travel j→i (responses).
        if let Some((src, dst)) = parse_link(link) {
            let (from, to) = match dir {
                Direction::Outbound => (src, dst),
                Direction::Inbound => (dst, src),
            };
            for p in &step.partitions {
                let cut = if p.one_way {
                    from == p.a && to == p.b
                } else {
                    (from == p.a && to == p.b) || (from == p.b && to == p.a)
                };
                if cut {
                    return FaultAction::Drop;
                }
            }
            if step.frozen.contains(&from) || step.frozen.contains(&to) {
                return FaultAction::Delay(Duration::from_micros(step.freeze_hold_us));
            }
        }

        // One uniform draw against the cumulative ppm ladder.
        let coord = mix(self.plan.seed)
            ^ mix(hash_link(link).wrapping_add(dir.index()))
            ^ mix(seq.wrapping_mul(2).wrapping_add(1));
        let roll = (mix(coord) % 1_000_000) as u32;
        let mut threshold = step.drop_ppm;
        if roll < threshold {
            return FaultAction::Drop;
        }
        threshold = threshold.saturating_add(step.delay_ppm);
        if roll < threshold {
            let lat = Latency::Uniform {
                lo: Duration::from_micros(step.delay_lo_us),
                hi: Duration::from_micros(step.delay_hi_us.max(step.delay_lo_us)),
            };
            return FaultAction::Delay(lat.sample_at(coord, seq));
        }
        threshold = threshold.saturating_add(step.dup_ppm);
        if roll < threshold {
            return FaultAction::Duplicate;
        }
        threshold = threshold.saturating_add(step.corrupt_ppm);
        if roll < threshold && len > 0 {
            let detail = mix(coord ^ 0xC0DE);
            return FaultAction::Corrupt {
                offset: (detail as usize) % len,
                mask: ((detail >> 32) % 255 + 1) as u8,
            };
        }
        threshold = threshold.saturating_add(step.truncate_ppm);
        if roll < threshold && len > 0 {
            return FaultAction::Truncate {
                keep: (mix(coord ^ 0x7121C) as usize) % len,
            };
        }
        FaultAction::Deliver
    }

    fn count(&self, action: &FaultAction, structural: bool) {
        let name = match action {
            FaultAction::Deliver => "chaos.deliver",
            FaultAction::Drop if structural => "chaos.partition_drop",
            FaultAction::Drop => "chaos.drop",
            FaultAction::Delay(_) if structural => "chaos.freeze_delay",
            FaultAction::Delay(_) => "chaos.delay",
            FaultAction::Duplicate => "chaos.duplicate",
            FaultAction::Corrupt { .. } => "chaos.corrupt",
            FaultAction::Truncate { .. } => "chaos.truncate",
        };
        self.registry.counter(name).inc();
    }
}

impl FaultPolicy for ChaosInjector {
    fn on_frame(&self, link: &str, dir: Direction, frame: &Frame) -> FaultAction {
        if !self.armed.load(Ordering::Relaxed) {
            return FaultAction::Deliver;
        }
        let seq = {
            let mut seqs = self.seqs.lock();
            let counter = seqs
                .entry((link.to_string(), dir.index() as u8))
                .or_insert(0);
            let seq = *counter;
            *counter += 1;
            seq
        };
        let action = self.decision_at(link, dir, seq, frame.payload.len());
        // Structural = decided before the rate ladder; recompute the
        // distinction for labeling only (cheap: both branches are pure).
        let structural = {
            let step_idx = (seq / self.plan.span.max(1)).min(self.plan.steps.len() as u64 - 1);
            let step = &self.plan.steps[step_idx as usize];
            match parse_link(link) {
                Some((src, dst)) => {
                    !step.partitions.is_empty()
                        || step.frozen.contains(&src)
                        || step.frozen.contains(&dst)
                }
                None => false,
            }
        };
        self.count(&action, structural);
        action
    }
}

impl std::fmt::Debug for ChaosInjector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChaosInjector")
            .field("steps", &self.plan.steps.len())
            .field("armed", &self.armed.load(Ordering::SeqCst))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{Partition, StepPlan};

    fn busy_plan() -> FaultPlan {
        FaultPlan {
            seed: 11,
            span: 100,
            steps: vec![
                StepPlan {
                    drop_ppm: 200_000,
                    delay_ppm: 200_000,
                    dup_ppm: 100_000,
                    corrupt_ppm: 100_000,
                    truncate_ppm: 100_000,
                    delay_lo_us: 10,
                    delay_hi_us: 100,
                    ..StepPlan::quiet()
                },
                StepPlan::quiet(),
            ],
        }
    }

    /// One link's first decisions under `busy_plan`, and another's in
    /// the other direction, recorded before `hash_link` shared
    /// `plasma::checksum::fnv1a64`: every seeded schedule stays put.
    #[test]
    fn decision_known_answers() {
        use FaultAction::{Deliver, Drop, Duplicate};
        let inj = ChaosInjector::new(busy_plan());
        let delay = |ns| FaultAction::Delay(Duration::from_nanos(ns));
        let corrupt = |offset, mask| FaultAction::Corrupt { offset, mask };
        let truncate = |keep| FaultAction::Truncate { keep };
        let out: Vec<_> = (0..24)
            .map(|s| inj.decision_at("0->1", Direction::Outbound, s, 64))
            .collect();
        assert_eq!(
            out,
            [
                truncate(48),
                corrupt(16, 2),
                Deliver,
                Deliver,
                truncate(24),
                Deliver,
                Deliver,
                Drop,
                delay(22_869),
                truncate(53),
                Duplicate,
                Deliver,
                corrupt(10, 7),
                corrupt(49, 222),
                Deliver,
                Deliver,
                truncate(62),
                delay(71_989),
                Drop,
                Drop,
                Duplicate,
                delay(38_268),
                delay(94_537),
                Deliver,
            ]
        );
        let back: Vec<_> = (0..8)
            .map(|s| inj.decision_at("2->0", Direction::Inbound, s, 64))
            .collect();
        let expected = [
            delay(97_188),
            Duplicate,
            Duplicate,
            truncate(6),
            Deliver,
            Drop,
            Deliver,
            Drop,
        ];
        assert_eq!(back, expected);
    }

    #[test]
    fn decisions_are_pure_functions_of_coordinates() {
        let a = ChaosInjector::new(busy_plan());
        let b = ChaosInjector::new(busy_plan());
        for seq in 0..500 {
            for dir in [Direction::Outbound, Direction::Inbound] {
                assert_eq!(
                    a.decision_at("0->1", dir, seq, 64),
                    b.decision_at("0->1", dir, seq, 64)
                );
            }
        }
        // Different links see different schedules.
        let grid_a: Vec<_> = (0..500)
            .map(|s| a.decision_at("0->1", Direction::Outbound, s, 64))
            .collect();
        let grid_b: Vec<_> = (0..500)
            .map(|s| a.decision_at("1->0", Direction::Outbound, s, 64))
            .collect();
        assert_ne!(grid_a, grid_b);
    }

    #[test]
    fn steps_advance_by_sequence_and_clamp() {
        let inj = ChaosInjector::new(busy_plan());
        // Step 0 (seqs 0..100) injects heavily; step 1 (quiet) never does.
        let faults_step0 = (0..100)
            .filter(|&s| {
                inj.decision_at("0->1", Direction::Outbound, s, 64) != FaultAction::Deliver
            })
            .count();
        assert!(
            faults_step0 > 30,
            "expected heavy injection, got {faults_step0}"
        );
        for seq in 100..1000 {
            assert_eq!(
                inj.decision_at("0->1", Direction::Outbound, seq, 64),
                FaultAction::Deliver,
                "quiet final step must deliver (seq {seq})"
            );
        }
    }

    #[test]
    fn partitions_cut_the_right_directions() {
        let mut plan = FaultPlan::quiet(5);
        plan.span = u64::MAX;
        plan.steps[0].partitions = vec![Partition {
            a: 0,
            b: 1,
            one_way: true,
        }];
        let inj = ChaosInjector::new(plan);
        // 0→1 bytes: requests on 0->1 and responses on 1->0.
        assert_eq!(
            inj.decision_at("0->1", Direction::Outbound, 0, 8),
            FaultAction::Drop
        );
        assert_eq!(
            inj.decision_at("1->0", Direction::Inbound, 0, 8),
            FaultAction::Drop
        );
        // 1→0 bytes flow freely.
        assert_eq!(
            inj.decision_at("1->0", Direction::Outbound, 0, 8),
            FaultAction::Deliver
        );
        assert_eq!(
            inj.decision_at("0->1", Direction::Inbound, 0, 8),
            FaultAction::Deliver
        );
        // Unrelated links untouched.
        assert_eq!(
            inj.decision_at("2->1", Direction::Outbound, 0, 8),
            FaultAction::Deliver
        );
    }

    #[test]
    fn frozen_node_delays_both_directions() {
        let mut plan = FaultPlan::quiet(5);
        plan.steps[0].frozen = vec![1];
        plan.steps[0].freeze_hold_us = 750;
        let inj = ChaosInjector::new(plan);
        let hold = FaultAction::Delay(Duration::from_micros(750));
        assert_eq!(inj.decision_at("0->1", Direction::Outbound, 0, 8), hold);
        assert_eq!(inj.decision_at("0->1", Direction::Inbound, 0, 8), hold);
        assert_eq!(inj.decision_at("1->2", Direction::Outbound, 0, 8), hold);
        assert_eq!(
            inj.decision_at("0->2", Direction::Outbound, 0, 8),
            FaultAction::Deliver
        );
    }

    #[test]
    fn disarm_stops_injection_and_counters_track() {
        let inj = ChaosInjector::new(FaultPlan {
            seed: 1,
            span: u64::MAX,
            steps: vec![StepPlan {
                drop_ppm: 1_000_000,
                ..StepPlan::quiet()
            }],
        });
        let frame = Frame::new(1, vec![0u8; 16]);
        assert_eq!(
            inj.on_frame("0->1", Direction::Outbound, &frame),
            FaultAction::Drop
        );
        inj.disarm();
        assert_eq!(
            inj.on_frame("0->1", Direction::Outbound, &frame),
            FaultAction::Deliver
        );
        let snap = inj.metrics_snapshot();
        assert_eq!(snap.counter("chaos.drop"), 1);
        assert_eq!(inj.injected_faults(), 1);
    }
}
