//! Peer health tracking and retry policy for the store interconnect.
//!
//! The paper's framework assumes every Plasma store in the cluster is
//! reachable; a hung or crashed peer would stall every broadcast. This
//! module gives the interconnect the standard failure-detector shape:
//!
//! * Each peer is `Up` or `Down`. `DOWN_AFTER` consecutive call failures
//!   take it down; any success restores `Up` immediately.
//! * Broadcasts skip `Down` peers entirely, except that one caller per
//!   backoff window is admitted as a *probe* — if the peer has recovered,
//!   the probe's success restores it to rotation. The probe window grows
//!   exponentially (`probe_backoff` → `probe_backoff_max`) so a dead peer
//!   costs at most one timed-out call per window, not one per operation.
//! * [`RetryPolicy`] bounds per-call retries with exponential backoff and
//!   deterministic jitter.
//!
//! All timing runs on the cluster's [`Clock`], so under virtual time the
//! whole state machine is deterministic and instant to test.

use obs::{Counter, Registry};
use parking_lot::Mutex;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;
use tfsim::{Clock, NodeId};

/// Liveness state of one peer store, as observed by this node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeerState {
    /// In rotation: all calls admitted, including while recent failures
    /// stay below `DOWN_AFTER`.
    Up,
    /// Unreachable: skipped by broadcasts, probed once per backoff window.
    Down,
}

/// Consecutive failures before a peer is marked `Down`.
const DOWN_AFTER: u32 = 3;

/// Probe pacing for the health state machine.
#[derive(Debug, Clone)]
pub struct HealthConfig {
    /// Initial wait before probing a `Down` peer.
    pub probe_backoff: Duration,
    /// Cap on the (doubling) probe interval.
    pub probe_backoff_max: Duration,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            probe_backoff: Duration::from_millis(200),
            probe_backoff_max: Duration::from_secs(5),
        }
    }
}

/// What the tracker decided about one prospective call to a peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Peer is in rotation: call it.
    Attempt,
    /// Peer is `Down` but its probe window elapsed: this caller carries
    /// the recovery probe (the window has been re-armed; concurrent
    /// callers get `Skip`).
    Probe,
    /// Peer is `Down`: don't call, degrade gracefully.
    Skip,
}

/// Per-peer counters, for tests and diagnostics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PeerStats {
    /// Calls to this peer that completed successfully.
    pub successes: u64,
    /// Calls to this peer that failed.
    pub failures: u64,
    /// Calls skipped because the peer was `Down`.
    pub skips: u64,
    /// Recovery probes issued while the peer was `Down`.
    pub probes: u64,
}

#[derive(Debug)]
struct Entry {
    state: PeerState,
    consecutive_failures: u32,
    /// Next probe fires when the clock reaches this point.
    next_probe_at: Duration,
    /// Current probe interval (doubles per probe up to the cap).
    backoff: Duration,
    stats: PeerStats,
}

impl Entry {
    fn new() -> Self {
        Entry {
            state: PeerState::Up,
            consecutive_failures: 0,
            next_probe_at: Duration::ZERO,
            backoff: Duration::ZERO,
            stats: PeerStats::default(),
        }
    }
}

/// State-transition counters, recorded exactly once per transition (a
/// repeat failure of an already-`Down` peer does not re-count).
struct TransitionCounters {
    to_down: Arc<Counter>,
    recovered: Arc<Counter>,
}

/// Failure detector for the peers of one node. Cheap to share behind the
/// store's `Arc`; all methods take `&self`.
pub struct PeerHealth {
    cfg: HealthConfig,
    clock: Clock,
    entries: Mutex<HashMap<NodeId, Entry>>,
    metrics: TransitionCounters,
}

impl PeerHealth {
    /// New detector with all peers assumed `Up`, its state-transition
    /// counters (`disagg.health.to_down` / `.recovered`, the latter
    /// counting `Down → Up` only) registered in `registry`. Each counter
    /// increments exactly once per transition, summed over all peers.
    pub fn new(cfg: HealthConfig, clock: Clock, registry: &Registry) -> Self {
        PeerHealth {
            cfg,
            clock,
            entries: Mutex::new(HashMap::new()),
            metrics: TransitionCounters {
                to_down: registry.counter("disagg.health.to_down"),
                recovered: registry.counter("disagg.health.recovered"),
            },
        }
    }

    /// Decide whether a call to `peer` should proceed. `Probe` admissions
    /// consume the current window: until the (doubled) next window
    /// elapses, further callers are skipped.
    pub fn admit(&self, peer: NodeId) -> Admission {
        let mut entries = self.entries.lock();
        let entry = entries.entry(peer).or_insert_with(Entry::new);
        match entry.state {
            PeerState::Up => Admission::Attempt,
            PeerState::Down => {
                let now = self.clock.now();
                if now >= entry.next_probe_at {
                    entry.backoff = (entry.backoff * 2).min(self.cfg.probe_backoff_max);
                    entry.next_probe_at = now + entry.backoff;
                    entry.stats.probes += 1;
                    Admission::Probe
                } else {
                    entry.stats.skips += 1;
                    Admission::Skip
                }
            }
        }
    }

    /// The peer answered (any definite response, including error statuses
    /// like `NotFound` — those prove liveness).
    pub fn record_success(&self, peer: NodeId) {
        let mut entries = self.entries.lock();
        let entry = entries.entry(peer).or_insert_with(Entry::new);
        if entry.state != PeerState::Up {
            self.metrics.recovered.inc();
        }
        entry.state = PeerState::Up;
        entry.consecutive_failures = 0;
        entry.stats.successes += 1;
    }

    /// The call failed in a way that indicts the peer (transport error,
    /// deadline expiry, `Unavailable`). Returns the peer's state after
    /// the failure is applied, so callers can react to the exact call
    /// that completed an Up→Down transition (e.g. dropping cached owner
    /// hints) without a racy follow-up `state()` read.
    pub fn record_failure(&self, peer: NodeId) -> PeerState {
        let mut entries = self.entries.lock();
        let entry = entries.entry(peer).or_insert_with(Entry::new);
        entry.consecutive_failures += 1;
        entry.stats.failures += 1;
        if entry.consecutive_failures >= DOWN_AFTER && entry.state != PeerState::Down {
            entry.state = PeerState::Down;
            entry.backoff = self.cfg.probe_backoff;
            entry.next_probe_at = self.clock.now() + entry.backoff;
            self.metrics.to_down.inc();
        }
        entry.state
    }

    /// Current state of `peer` (`Up` if never seen).
    pub fn state(&self, peer: NodeId) -> PeerState {
        self.entries
            .lock()
            .get(&peer)
            .map(|e| e.state)
            .unwrap_or(PeerState::Up)
    }

    /// Counters for `peer` (zeros if never seen).
    pub fn stats(&self, peer: NodeId) -> PeerStats {
        self.entries
            .lock()
            .get(&peer)
            .map(|e| e.stats)
            .unwrap_or_default()
    }
}

/// Bounded-retry policy with exponential backoff and jitter, for calls
/// whose failure is plausibly transient.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts per call, including the first (1 = no retries).
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles per subsequent retry.
    pub base_backoff: Duration,
    /// Cap on the backoff.
    pub max_backoff: Duration,
}

/// Fractional jitter: every backoff is scaled by a factor drawn uniformly
/// from `[1 - RETRY_JITTER, 1 + RETRY_JITTER]`.
const RETRY_JITTER: f64 = 0.25;

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(500),
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries (tests, latency-critical paths).
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            ..Default::default()
        }
    }

    /// Backoff before retry number `retry` (1-based), jittered by `rng`.
    pub fn backoff(&self, retry: u32, rng: &mut SmallRng) -> Duration {
        let exp = retry.saturating_sub(1).min(20);
        let raw = self
            .base_backoff
            .saturating_mul(1u32 << exp)
            .min(self.max_backoff);
        let factor = 1.0 + RETRY_JITTER * (rng.gen::<f64>() * 2.0 - 1.0);
        raw.mul_f64(factor)
    }

    /// A deterministic jitter source for this node.
    pub fn rng(seed: u64) -> SmallRng {
        SmallRng::seed_from_u64(seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracker_in(clock: &Clock, registry: &Registry) -> PeerHealth {
        PeerHealth::new(
            HealthConfig {
                probe_backoff: Duration::from_millis(100),
                probe_backoff_max: Duration::from_millis(400),
            },
            clock.clone(),
            registry,
        )
    }

    fn tracker(clock: &Clock) -> PeerHealth {
        tracker_in(clock, &Registry::new())
    }

    #[test]
    fn unknown_peer_is_up_and_admitted() {
        let clock = Clock::virtual_time();
        let h = tracker(&clock);
        let p = NodeId(1);
        assert_eq!(h.state(p), PeerState::Up);
        assert_eq!(h.admit(p), Admission::Attempt);
    }

    /// A suspect peer (failures below `DOWN_AFTER`) is still `Up` and
    /// still called; the failure that reaches `DOWN_AFTER` takes it down.
    #[test]
    fn failures_walk_up_suspect_down() {
        let clock = Clock::virtual_time();
        let h = tracker(&clock);
        let p = NodeId(1);
        // The return value reports the post-transition state, so the
        // caller that *caused* a demotion can react to it directly.
        for _ in 1..DOWN_AFTER {
            assert_eq!(h.record_failure(p), PeerState::Up);
            assert_eq!(h.state(p), PeerState::Up);
            assert_eq!(h.admit(p), Admission::Attempt);
        }
        assert_eq!(h.record_failure(p), PeerState::Down);
        assert_eq!(h.state(p), PeerState::Down);
        assert_eq!(h.admit(p), Admission::Skip);
    }

    #[test]
    fn success_resets_from_suspect_and_down() {
        let clock = Clock::virtual_time();
        let h = tracker(&clock);
        let p = NodeId(1);
        h.record_failure(p);
        h.record_success(p);
        // The success cleared the count: two more failures are not three.
        h.record_failure(p);
        h.record_failure(p);
        assert_eq!(h.state(p), PeerState::Up);
        h.record_failure(p);
        assert_eq!(h.state(p), PeerState::Down);
        h.record_success(p);
        assert_eq!(h.state(p), PeerState::Up);
        assert_eq!(h.admit(p), Admission::Attempt);
    }

    #[test]
    fn down_peer_probed_once_per_window_with_doubling() {
        let clock = Clock::virtual_time();
        let h = tracker(&clock);
        let p = NodeId(1);
        for _ in 0..3 {
            h.record_failure(p);
        }
        // Window 1 (100ms) not yet elapsed: every caller skips.
        assert_eq!(h.admit(p), Admission::Skip);
        assert_eq!(h.admit(p), Admission::Skip);
        clock.charge(Duration::from_millis(100));
        // Exactly one caller wins the probe; the window doubles to 200ms.
        assert_eq!(h.admit(p), Admission::Probe);
        assert_eq!(h.admit(p), Admission::Skip);
        h.record_failure(p); // probe failed
        clock.charge(Duration::from_millis(100));
        assert_eq!(h.admit(p), Admission::Skip); // only 100 of 200ms elapsed
        clock.charge(Duration::from_millis(100));
        assert_eq!(h.admit(p), Admission::Probe);
        // Backoff caps at 400ms.
        h.record_failure(p);
        clock.charge(Duration::from_millis(400));
        assert_eq!(h.admit(p), Admission::Probe);
        h.record_failure(p);
        clock.charge(Duration::from_millis(400));
        assert_eq!(h.admit(p), Admission::Probe);
    }

    #[test]
    fn probe_success_restores_rotation() {
        let clock = Clock::virtual_time();
        let h = tracker(&clock);
        let p = NodeId(1);
        for _ in 0..3 {
            h.record_failure(p);
        }
        clock.charge(Duration::from_millis(100));
        assert_eq!(h.admit(p), Admission::Probe);
        h.record_success(p);
        assert_eq!(h.state(p), PeerState::Up);
        assert_eq!(h.admit(p), Admission::Attempt);
        let s = h.stats(p);
        assert_eq!(s.probes, 1);
        assert_eq!(s.failures, 3);
    }

    #[test]
    fn stats_count_skips() {
        let clock = Clock::virtual_time();
        let h = tracker(&clock);
        let p = NodeId(2);
        for _ in 0..3 {
            h.record_failure(p);
        }
        h.admit(p);
        h.admit(p);
        assert_eq!(h.stats(p).skips, 2);
    }

    #[test]
    fn peers_tracked_independently() {
        let clock = Clock::virtual_time();
        let h = tracker(&clock);
        for _ in 0..3 {
            h.record_failure(NodeId(1));
        }
        assert_eq!(h.state(NodeId(1)), PeerState::Down);
        assert_eq!(h.state(NodeId(2)), PeerState::Up);
        assert_eq!(h.admit(NodeId(2)), Admission::Attempt);
    }

    /// Exhaustive walk of the state machine: every (state, event) pair
    /// and the state it must land in (`DOWN_AFTER` 3).
    #[test]
    fn exhaustive_transition_table() {
        let p = NodeId(1);
        // (label, events to apply from a fresh tracker, expected state)
        // F = record_failure, S = record_success, W = advance one probe
        // window, A = admit (result ignored here).
        let table: &[(&str, &str, PeerState)] = &[
            ("fresh peer", "", PeerState::Up),
            ("Up + success", "S", PeerState::Up),
            ("Up + failure (below DOWN_AFTER)", "F", PeerState::Up),
            ("Up + failures (below DOWN_AFTER)", "FF", PeerState::Up),
            ("Up + failure (at DOWN_AFTER)", "FFF", PeerState::Down),
            ("success clears the failure count", "FFSFF", PeerState::Up),
            ("Down + failure", "FFFF", PeerState::Down),
            ("Down + admit inside window (skip)", "FFFA", PeerState::Down),
            (
                "Down + probe admitted, not yet answered",
                "FFFWA",
                PeerState::Down,
            ),
            ("Down + probe failure", "FFFWAF", PeerState::Down),
            ("Down + probe success", "FFFWAS", PeerState::Up),
            (
                "recovered peer + failure starts over",
                "FFFWASF",
                PeerState::Up,
            ),
            (
                "recovered peer + DOWN_AFTER failures",
                "FFFWASFFF",
                PeerState::Down,
            ),
        ];
        for (label, events, expected) in table {
            let clock = Clock::virtual_time();
            let h = tracker(&clock);
            for ev in events.chars() {
                match ev {
                    'F' => {
                        h.record_failure(p);
                    }
                    'S' => h.record_success(p),
                    'W' => clock.charge(Duration::from_millis(100)),
                    'A' => {
                        h.admit(p);
                    }
                    other => panic!("bad event {other}"),
                }
            }
            assert_eq!(h.state(p), *expected, "{label}");
        }
    }

    #[test]
    fn denied_probe_never_flips_state() {
        let clock = Clock::virtual_time();
        let h = tracker(&clock);
        let p = NodeId(1);
        for _ in 0..3 {
            h.record_failure(p);
        }
        assert_eq!(h.state(p), PeerState::Down);
        // The backoff window has not elapsed: every admit is denied and
        // the peer must stay Down with its failure count intact.
        for _ in 0..10 {
            assert_eq!(h.admit(p), Admission::Skip);
            assert_eq!(h.state(p), PeerState::Down);
        }
        assert_eq!(h.stats(p).skips, 10);
        assert_eq!(h.stats(p).probes, 0);
        // Even after winning a probe, the *admission itself* does not
        // change state — only the recorded outcome does.
        clock.charge(Duration::from_millis(100));
        assert_eq!(h.admit(p), Admission::Probe);
        assert_eq!(h.state(p), PeerState::Down);
    }

    #[test]
    fn metrics_record_each_transition_exactly_once() {
        let clock = Clock::virtual_time();
        let registry = Registry::new();
        let h = tracker_in(&clock, &registry);
        let p = NodeId(1);
        // A failure and a success below DOWN_AFTER transition nothing.
        h.record_failure(p);
        h.record_success(p);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("disagg.health.to_down"), 0);
        assert_eq!(snap.counter("disagg.health.recovered"), 0);
        // Five consecutive failures: one Up→Down — the repeats while
        // Down must not re-count.
        for _ in 0..5 {
            h.record_failure(p);
        }
        let snap = registry.snapshot();
        assert_eq!(snap.counter("disagg.health.to_down"), 1);
        assert_eq!(snap.counter("disagg.health.recovered"), 0);
        // Recovery counts once, and repeat successes while Up don't.
        h.record_success(p);
        h.record_success(p);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("disagg.health.recovered"), 1);
        // A second full cycle counts a second time for each transition.
        for _ in 0..5 {
            h.record_failure(p);
        }
        h.record_success(p);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("disagg.health.to_down"), 2);
        assert_eq!(snap.counter("disagg.health.recovered"), 2);
    }

    /// `backoff(retry)` lies within the jitter band around `raw_ms`.
    fn assert_in_band(policy: &RetryPolicy, rng: &mut SmallRng, retry: u32, raw_ms: u64) {
        let raw = Duration::from_millis(raw_ms);
        let d = policy.backoff(retry, rng);
        let (lo, hi) = (1.0 - RETRY_JITTER, 1.0 + RETRY_JITTER);
        assert!(
            d >= raw.mul_f64(lo) && d <= raw.mul_f64(hi),
            "retry {retry}: {d:?} outside {lo}..{hi} of {raw:?}"
        );
    }

    #[test]
    fn retry_backoff_doubles_and_caps() {
        let policy = RetryPolicy {
            max_attempts: 5,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(40),
        };
        let mut rng = RetryPolicy::rng(7);
        for (retry, raw_ms) in [(1, 10), (2, 20), (3, 40), (4, 40)] {
            assert_in_band(&policy, &mut rng, retry, raw_ms);
        }
    }

    #[test]
    fn retry_jitter_stays_in_band() {
        let policy = RetryPolicy::default();
        let mut rng = RetryPolicy::rng(42);
        for (retry, raw_ms) in [(1, 10), (2, 20), (3, 40), (4, 80)] {
            assert_in_band(&policy, &mut rng, retry, raw_ms);
        }
    }

    #[test]
    fn jitter_is_deterministic_per_seed() {
        let policy = RetryPolicy::default();
        let a: Vec<Duration> = {
            let mut rng = RetryPolicy::rng(9);
            (1..=4).map(|r| policy.backoff(r, &mut rng)).collect()
        };
        let b: Vec<Duration> = {
            let mut rng = RetryPolicy::rng(9);
            (1..=4).map(|r| policy.backoff(r, &mut rng)).collect()
        };
        assert_eq!(a, b);
    }
}
