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
//!   exponentially so a dead peer costs at most one timed-out call per
//!   window, not one per operation.
//! * [`RetryPolicy`] bounds per-call retries with exponential backoff and
//!   deterministic jitter.
//!
//! Both paces are fractions of the one per-call deadline `d`: the probe
//! window opens at `d/10` and doubles up to `d`, the retry backoff starts
//! at `d/50` and doubles up to `d/5`. All timing runs on the cluster's
//! [`Clock`], so under virtual time the whole state machine is
//! deterministic and instant to test.

use netsim::Latency;
use obs::{Counter, Registry};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use tfsim::Clock;

/// Liveness state of one peer store, as observed by this node.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum PeerState {
    /// In rotation: all calls admitted, including while recent failures
    /// stay below `DOWN_AFTER`.
    #[default]
    Up,
    /// Unreachable: skipped by broadcasts, probed once per backoff window.
    Down,
}

/// Consecutive failures before a peer is marked `Down`.
const DOWN_AFTER: u32 = 3;

/// What the tracker decided about one prospective call to a peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Admission {
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

/// What the failure detectors of one node's peers share: the pace and
/// the state-transition counters.
pub(crate) struct Pace {
    /// The per-call deadline the probe window is a fraction of.
    deadline: Duration,
    clock: Clock,
    /// State-transition counters, summed over all peers, recorded exactly
    /// once per transition (a repeat failure of an already-`Down` peer
    /// does not re-count).
    to_down: Arc<Counter>,
    recovered: Arc<Counter>,
}

impl Pace {
    /// The pace of a node's detectors, its counters registered in
    /// `registry` (`disagg.health.to_down` / `.recovered`, the latter
    /// counting `Down → Up` only). A `Down` peer's probe window opens
    /// `deadline / 10` after it went down and doubles up to `deadline`.
    pub(crate) fn new(deadline: Duration, clock: Clock, registry: &Registry) -> Self {
        Pace {
            deadline,
            clock,
            to_down: registry.counter("disagg.health.to_down"),
            recovered: registry.counter("disagg.health.recovered"),
        }
    }
}

/// Failure detector for one peer, `Up` when built, kept in the peer's
/// record; each event is applied at the node's shared [`Pace`].
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct PeerHealth {
    state: PeerState,
    consecutive_failures: u32,
    /// Next probe fires when the clock reaches this point.
    next_probe_at: Duration,
    /// Current probe interval (doubles per probe up to the cap).
    backoff: Duration,
    stats: PeerStats,
}

impl PeerHealth {
    /// Decide whether a call to the peer should proceed. `Probe`
    /// admissions consume the current window: until the (doubled) next
    /// window elapses, further callers are skipped.
    pub(crate) fn admit(&mut self, pace: &Pace) -> Admission {
        match self.state {
            PeerState::Up => Admission::Attempt,
            PeerState::Down => {
                let now = pace.clock.now();
                if now >= self.next_probe_at {
                    self.backoff = (self.backoff * 2).min(pace.deadline);
                    self.next_probe_at = now + self.backoff;
                    self.stats.probes += 1;
                    Admission::Probe
                } else {
                    self.stats.skips += 1;
                    Admission::Skip
                }
            }
        }
    }

    /// The peer answered (any definite response, including error statuses
    /// like `NotFound` — those prove liveness).
    pub(crate) fn record_success(&mut self, pace: &Pace) {
        if self.state != PeerState::Up {
            pace.recovered.inc();
        }
        self.state = PeerState::Up;
        self.consecutive_failures = 0;
        self.stats.successes += 1;
    }

    /// The call failed in a way that indicts the peer (transport error,
    /// deadline expiry, `Unavailable`). Returns the peer's state after
    /// the failure is applied, so callers can react to the exact call
    /// that completed an Up→Down transition (e.g. dropping cached owner
    /// hints) without a racy follow-up `state()` read.
    pub(crate) fn record_failure(&mut self, pace: &Pace) -> PeerState {
        self.consecutive_failures += 1;
        self.stats.failures += 1;
        if self.consecutive_failures >= DOWN_AFTER && self.state != PeerState::Down {
            self.state = PeerState::Down;
            self.backoff = pace.deadline / 10;
            self.next_probe_at = pace.clock.now() + self.backoff;
            pace.to_down.inc();
        }
        self.state
    }

    /// Current state of the peer.
    pub(crate) fn state(&self) -> PeerState {
        self.state
    }

    /// Counters for the peer.
    pub(crate) fn stats(&self) -> PeerStats {
        self.stats
    }
}

/// Bounded-retry policy with exponential backoff and jitter, for calls
/// whose failure is plausibly transient.
#[derive(Debug)]
pub(crate) struct RetryPolicy {
    /// Total attempts per call, including the first (1 = no retries).
    pub(crate) max_attempts: u32,
    /// The per-call deadline the backoff is a fraction of.
    deadline: Duration,
    /// The jitter's stream, and the backoffs drawn from it so far.
    seed: u64,
    drawn: AtomicU64,
}

/// Fractional jitter: every backoff is scaled by a factor drawn uniformly
/// from `[1 - RETRY_JITTER, 1 + RETRY_JITTER]`.
const RETRY_JITTER: f64 = 0.25;

impl RetryPolicy {
    /// Up to `max_attempts` attempts per call, backing off from
    /// `deadline / 50` (doubling per retry) up to `deadline / 5`.
    pub(crate) fn new(max_attempts: u32, deadline: Duration, seed: u64) -> Self {
        RetryPolicy {
            max_attempts,
            deadline,
            seed,
            drawn: AtomicU64::new(0),
        }
    }

    /// Backoff before retry number `retry` (1-based), before jitter.
    fn raw_backoff(&self, retry: u32) -> Duration {
        let exp = retry.saturating_sub(1).min(20);
        (self.deadline / 50)
            .saturating_mul(1u32 << exp)
            .min(self.deadline / 5)
    }

    /// Backoff before retry number `retry` (1-based), jittered by this
    /// policy's next draw.
    pub(crate) fn backoff(&self, retry: u32) -> Duration {
        let raw = self.raw_backoff(retry);
        let jittered = Latency::Uniform {
            lo: raw.mul_f64(1.0 - RETRY_JITTER),
            hi: raw.mul_f64(1.0 + RETRY_JITTER),
        };
        jittered.sample_at(self.seed, self.drawn.fetch_add(1, Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;

    /// The deadline the unit tests derive their pacing from: the probe
    /// window opens at 100 ms and caps at 1 s, the retry backoff runs
    /// 20 ms → 200 ms.
    const D: Duration = Duration::from_secs(1);

    /// One peer's detector on a pace of its own.
    struct Tracker {
        pace: Pace,
        peer: Mutex<PeerHealth>,
    }

    impl Tracker {
        fn admit(&self) -> Admission {
            self.peer.lock().admit(&self.pace)
        }

        fn record_success(&self) {
            self.peer.lock().record_success(&self.pace)
        }

        fn record_failure(&self) -> PeerState {
            self.peer.lock().record_failure(&self.pace)
        }

        fn state(&self) -> PeerState {
            self.peer.lock().state()
        }

        fn stats(&self) -> PeerStats {
            self.peer.lock().stats()
        }
    }

    fn tracker_at(deadline: Duration, clock: &Clock, registry: &Registry) -> Tracker {
        Tracker {
            pace: Pace::new(deadline, clock.clone(), registry),
            peer: Mutex::default(),
        }
    }

    fn tracker_in(clock: &Clock, registry: &Registry) -> Tracker {
        tracker_at(D, clock, registry)
    }

    fn tracker(clock: &Clock) -> Tracker {
        tracker_in(clock, &Registry::new())
    }

    #[test]
    fn unknown_peer_is_up_and_admitted() {
        let clock = Clock::virtual_time();
        let h = tracker(&clock);
        assert_eq!(h.state(), PeerState::Up);
        assert_eq!(h.admit(), Admission::Attempt);
    }

    /// A suspect peer (failures below `DOWN_AFTER`) is still `Up` and
    /// still called; the failure that reaches `DOWN_AFTER` takes it down.
    #[test]
    fn failures_walk_up_suspect_down() {
        let clock = Clock::virtual_time();
        let h = tracker(&clock);
        // The return value reports the post-transition state, so the
        // caller that *caused* a demotion can react to it directly.
        for _ in 1..DOWN_AFTER {
            assert_eq!(h.record_failure(), PeerState::Up);
            assert_eq!(h.state(), PeerState::Up);
            assert_eq!(h.admit(), Admission::Attempt);
        }
        assert_eq!(h.record_failure(), PeerState::Down);
        assert_eq!(h.state(), PeerState::Down);
        assert_eq!(h.admit(), Admission::Skip);
    }

    #[test]
    fn success_resets_from_suspect_and_down() {
        let clock = Clock::virtual_time();
        let h = tracker(&clock);
        h.record_failure();
        h.record_success();
        // The success cleared the count: two more failures are not three.
        h.record_failure();
        h.record_failure();
        assert_eq!(h.state(), PeerState::Up);
        h.record_failure();
        assert_eq!(h.state(), PeerState::Down);
        h.record_success();
        assert_eq!(h.state(), PeerState::Up);
        assert_eq!(h.admit(), Admission::Attempt);
    }

    #[test]
    fn down_peer_probed_once_per_window_with_doubling() {
        let clock = Clock::virtual_time();
        let h = tracker(&clock);
        for _ in 0..3 {
            h.record_failure();
        }
        // Window 1 (D/10 = 100ms) not yet elapsed: every caller skips.
        assert_eq!(h.admit(), Admission::Skip);
        assert_eq!(h.admit(), Admission::Skip);
        clock.charge(Duration::from_millis(100));
        // Exactly one caller wins the probe; the window doubles to 200ms.
        assert_eq!(h.admit(), Admission::Probe);
        assert_eq!(h.admit(), Admission::Skip);
        h.record_failure(); // probe failed
        clock.charge(Duration::from_millis(100));
        assert_eq!(h.admit(), Admission::Skip); // only 100 of 200ms elapsed
        clock.charge(Duration::from_millis(100));
        assert_eq!(h.admit(), Admission::Probe);
        // 400ms, 800ms, then the window caps at D.
        for window_ms in [400, 800, 1000, 1000] {
            h.record_failure();
            clock.charge(Duration::from_millis(window_ms - 1));
            assert_eq!(h.admit(), Admission::Skip, "{window_ms}ms window");
            clock.charge(Duration::from_millis(1));
            assert_eq!(h.admit(), Admission::Probe, "{window_ms}ms window");
        }
    }

    /// The soak's pacing falls out of its 100 ms deadline: the first
    /// probe at 10 ms and not before, then 20, 40, 80 and 100 ms for good.
    #[test]
    fn probe_window_opens_at_a_tenth_of_the_deadline_and_caps_at_it() {
        let d = Duration::from_millis(100);
        let clock = Clock::virtual_time();
        let h = tracker_at(d, &clock, &Registry::new());
        for _ in 0..DOWN_AFTER {
            h.record_failure();
        }
        for window_ms in [10, 20, 40, 80, 100, 100] {
            clock.charge(Duration::from_millis(window_ms - 1));
            assert_eq!(h.admit(), Admission::Skip, "{window_ms}ms window");
            clock.charge(Duration::from_millis(1));
            assert_eq!(h.admit(), Admission::Probe, "{window_ms}ms window");
            h.record_failure();
        }
    }

    #[test]
    fn probe_success_restores_rotation() {
        let clock = Clock::virtual_time();
        let h = tracker(&clock);
        for _ in 0..3 {
            h.record_failure();
        }
        clock.charge(Duration::from_millis(100));
        assert_eq!(h.admit(), Admission::Probe);
        h.record_success();
        assert_eq!(h.state(), PeerState::Up);
        assert_eq!(h.admit(), Admission::Attempt);
        let s = h.stats();
        assert_eq!(s.probes, 1);
        assert_eq!(s.failures, 3);
    }

    #[test]
    fn stats_count_skips() {
        let clock = Clock::virtual_time();
        let h = tracker(&clock);
        for _ in 0..3 {
            h.record_failure();
        }
        h.admit();
        h.admit();
        assert_eq!(h.stats().skips, 2);
    }

    /// Two peers on one pace: one going down leaves the other in
    /// rotation, and the shared transition counter counts it once.
    #[test]
    fn peers_tracked_independently() {
        let clock = Clock::virtual_time();
        let registry = Registry::new();
        let pace = Pace::new(D, clock, &registry);
        let (mut one, mut two) = (PeerHealth::default(), PeerHealth::default());
        for _ in 0..3 {
            one.record_failure(&pace);
        }
        assert_eq!(one.state(), PeerState::Down);
        assert_eq!(two.state(), PeerState::Up);
        assert_eq!(two.admit(&pace), Admission::Attempt);
        assert_eq!(registry.snapshot().counter("disagg.health.to_down"), 1);
    }

    /// Exhaustive walk of the state machine: every (state, event) pair
    /// and the state it must land in (`DOWN_AFTER` 3).
    #[test]
    fn exhaustive_transition_table() {
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
                        h.record_failure();
                    }
                    'S' => h.record_success(),
                    'W' => clock.charge(Duration::from_millis(100)),
                    'A' => {
                        h.admit();
                    }
                    other => panic!("bad event {other}"),
                }
            }
            assert_eq!(h.state(), *expected, "{label}");
        }
    }

    #[test]
    fn denied_probe_never_flips_state() {
        let clock = Clock::virtual_time();
        let h = tracker(&clock);
        for _ in 0..3 {
            h.record_failure();
        }
        assert_eq!(h.state(), PeerState::Down);
        // The backoff window has not elapsed: every admit is denied and
        // the peer must stay Down with its failure count intact.
        for _ in 0..10 {
            assert_eq!(h.admit(), Admission::Skip);
            assert_eq!(h.state(), PeerState::Down);
        }
        assert_eq!(h.stats().skips, 10);
        assert_eq!(h.stats().probes, 0);
        // Even after winning a probe, the *admission itself* does not
        // change state — only the recorded outcome does.
        clock.charge(Duration::from_millis(100));
        assert_eq!(h.admit(), Admission::Probe);
        assert_eq!(h.state(), PeerState::Down);
    }

    #[test]
    fn metrics_record_each_transition_exactly_once() {
        let clock = Clock::virtual_time();
        let registry = Registry::new();
        let h = tracker_in(&clock, &registry);
        // A failure and a success below DOWN_AFTER transition nothing.
        h.record_failure();
        h.record_success();
        let snap = registry.snapshot();
        assert_eq!(snap.counter("disagg.health.to_down"), 0);
        assert_eq!(snap.counter("disagg.health.recovered"), 0);
        // Five consecutive failures: one Up→Down — the repeats while
        // Down must not re-count.
        for _ in 0..5 {
            h.record_failure();
        }
        let snap = registry.snapshot();
        assert_eq!(snap.counter("disagg.health.to_down"), 1);
        assert_eq!(snap.counter("disagg.health.recovered"), 0);
        // Recovery counts once, and repeat successes while Up don't.
        h.record_success();
        h.record_success();
        let snap = registry.snapshot();
        assert_eq!(snap.counter("disagg.health.recovered"), 1);
        // A second full cycle counts a second time for each transition.
        for _ in 0..5 {
            h.record_failure();
        }
        h.record_success();
        let snap = registry.snapshot();
        assert_eq!(snap.counter("disagg.health.to_down"), 2);
        assert_eq!(snap.counter("disagg.health.recovered"), 2);
    }

    /// `backoff(retry)` lies within the jitter band around `raw_ms`.
    fn assert_in_band(policy: &RetryPolicy, retry: u32, raw_ms: u64) {
        let raw = Duration::from_millis(raw_ms);
        let d = policy.backoff(retry);
        let (lo, hi) = (1.0 - RETRY_JITTER, 1.0 + RETRY_JITTER);
        assert!(
            d >= raw.mul_f64(lo) && d <= raw.mul_f64(hi),
            "retry {retry}: {d:?} outside {lo}..{hi} of {raw:?}"
        );
    }

    #[test]
    fn retry_backoff_runs_from_a_fiftieth_to_a_fifth_of_the_deadline() {
        // At the soak's 100 ms: d/50, d/25, ... then d/5 for good.
        let policy = RetryPolicy::new(5, Duration::from_millis(100), 7);
        let raw: Vec<Duration> = (1..=6).map(|r| policy.raw_backoff(r)).collect();
        assert_eq!(raw, [2, 4, 8, 16, 20, 20].map(Duration::from_millis));
    }

    #[test]
    fn retry_backoff_doubles_and_caps() {
        let policy = RetryPolicy::new(5, D, 7);
        for (retry, raw_ms) in [(1, 20), (2, 40), (3, 80), (4, 160), (5, 200), (6, 200)] {
            assert_in_band(&policy, retry, raw_ms);
        }
    }

    #[test]
    fn retry_jitter_stays_in_band() {
        let policy = RetryPolicy::new(3, crate::store::DEFAULT_CALL_DEADLINE, 42);
        for (retry, raw_ms) in [(1, 40), (2, 80), (3, 160), (4, 320)] {
            assert_in_band(&policy, retry, raw_ms);
        }
    }

    #[test]
    fn jitter_is_deterministic_per_seed() {
        let draws = || {
            let policy = RetryPolicy::new(3, crate::store::DEFAULT_CALL_DEADLINE, 9);
            (1..=4)
                .map(|r| policy.backoff(r))
                .collect::<Vec<Duration>>()
        };
        assert_eq!(draws(), draws());
    }
}
