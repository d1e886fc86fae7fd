//! Simulation clock.
//!
//! Every modeled hardware cost in the simulator (fabric access latency,
//! per-byte transfer time, injected network delay) is *charged* to a
//! [`Clock`]: a shared virtual nanosecond counter. Nothing sleeps, so
//! experiments are deterministic and fast regardless of the modeled data
//! volume, and every harness measures elapsed *virtual* time. The real
//! time the simulator itself takes (the memcpy behind a fabric read) is an
//! artifact of the simulation, not of the modeled hardware, and is never
//! charged.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A cloneable handle to a simulation clock shared by all components of one
/// simulated cluster.
#[derive(Debug, Clone)]
pub struct Clock {
    /// Virtual nanoseconds accumulated so far.
    virt_ns: Arc<AtomicU64>,
}

impl Clock {
    /// A clock at virtual time zero.
    pub fn virtual_time() -> Self {
        Clock {
            virt_ns: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Charge a modeled cost: advance the virtual counter by `cost`.
    pub fn charge(&self, cost: Duration) {
        let ns = u64::try_from(cost.as_nanos()).unwrap_or(u64::MAX);
        self.virt_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Advance the clock to at least `target` simulation time (no-op if
    /// already past it).
    ///
    /// Unlike [`Clock::charge`], concurrent waiters overlap instead of
    /// stacking: N threads each waiting until `now + d` advance the clock
    /// by `d` once, not N times. This is the right shape for wall-clock
    /// waits such as retry backoff, where parallel fan-out workers sleep
    /// through the *same* interval.
    pub fn advance_to(&self, target: Duration) {
        let ns = u64::try_from(target.as_nanos()).unwrap_or(u64::MAX);
        self.virt_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// Current simulation time: the accumulated virtual time.
    pub fn now(&self) -> Duration {
        Duration::from_nanos(self.virt_ns.load(Ordering::Relaxed))
    }

    /// Convenience: run `f` and return both its result and the simulated
    /// time it spanned.
    pub fn time<T>(&self, f: impl FnOnce() -> T) -> (T, Duration) {
        let start = self.now();
        let out = f();
        (out, self.now().saturating_sub(start))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virtual_clock_accumulates() {
        let c = Clock::virtual_time();
        assert_eq!(c.now(), Duration::ZERO);
        c.charge(Duration::from_micros(5));
        c.charge(Duration::from_micros(7));
        assert_eq!(c.now(), Duration::from_micros(12));
    }

    #[test]
    fn virtual_clock_shared_across_clones() {
        let c = Clock::virtual_time();
        let c2 = c.clone();
        c.charge(Duration::from_nanos(100));
        c2.charge(Duration::from_nanos(50));
        assert_eq!(c.now(), Duration::from_nanos(150));
        assert_eq!(c2.now(), c.now());
    }

    #[test]
    fn charge_accounts_the_full_cost() {
        let c = Clock::virtual_time();
        c.charge(Duration::from_millis(3));
        assert_eq!(c.now(), Duration::from_millis(3));
    }

    #[test]
    fn advance_to_raises_but_never_rewinds() {
        let c = Clock::virtual_time();
        c.charge(Duration::from_millis(10));
        c.advance_to(Duration::from_millis(4)); // already past: no-op
        assert_eq!(c.now(), Duration::from_millis(10));
        c.advance_to(Duration::from_millis(25));
        assert_eq!(c.now(), Duration::from_millis(25));
    }

    #[test]
    fn concurrent_advance_to_overlaps_instead_of_stacking() {
        // N workers each waiting until now+d must model one shared wait of
        // d, not N stacked ones (the retry-backoff shape).
        let c = Clock::virtual_time();
        let target = c.now() + Duration::from_millis(10);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = c.clone();
                s.spawn(move || c.advance_to(target));
            }
        });
        assert_eq!(c.now(), Duration::from_millis(10));
    }

    #[test]
    fn time_helper_measures_span() {
        let c = Clock::virtual_time();
        let (v, d) = c.time(|| {
            c.charge(Duration::from_micros(42));
            7
        });
        assert_eq!(v, 7);
        assert_eq!(d, Duration::from_micros(42));
    }
}
