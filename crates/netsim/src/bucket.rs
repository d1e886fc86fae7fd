//! Shared-bandwidth token bucket.
//!
//! Models contention on a shared LAN link: each transfer reserves its bytes
//! on the bucket and learns how long it must wait for them to "drain". Used
//! by the scale-out baseline (paper Fig. 1a), where several consumers copy
//! object data over one network, to show the congestion that direct
//! disaggregated access avoids.
//!
//! The bucket works in *simulated* time supplied by the caller, so it
//! composes with the virtual clock.

use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Duration;

#[derive(Debug)]
struct State {
    /// Simulated instant at which the link becomes idle.
    busy_until: Duration,
}

/// A shared link with finite bandwidth. Clones share state.
#[derive(Debug, Clone)]
pub struct TokenBucket {
    bytes_per_sec: f64,
    state: Arc<Mutex<State>>,
}

impl TokenBucket {
    /// A link sustaining `bytes_per_sec`.
    pub fn new(bytes_per_sec: f64) -> Self {
        assert!(bytes_per_sec > 0.0);
        TokenBucket {
            bytes_per_sec,
            state: Arc::new(Mutex::new(State {
                busy_until: Duration::ZERO,
            })),
        }
    }

    /// Reserve a `bytes`-long transfer starting at simulated time `now`.
    /// Returns the *total* delay the caller experiences: queueing behind
    /// earlier transfers plus its own serialization time.
    pub fn reserve(&self, now: Duration, bytes: u64) -> Duration {
        let serialize = Duration::from_secs_f64(bytes as f64 / self.bytes_per_sec);
        let mut s = self.state.lock();
        let start = s.busy_until.max(now);
        let end = start + serialize;
        s.busy_until = end;
        end - now
    }

    /// The link's configured bandwidth.
    pub fn bytes_per_sec(&self) -> f64 {
        self.bytes_per_sec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_link_only_serializes() {
        let b = TokenBucket::new(1_000_000.0); // 1 MB/s
        let d = b.reserve(Duration::ZERO, 500_000);
        assert_eq!(d, Duration::from_millis(500));
    }

    #[test]
    fn back_to_back_transfers_queue() {
        let b = TokenBucket::new(1_000_000.0);
        let d1 = b.reserve(Duration::ZERO, 1_000_000);
        let d2 = b.reserve(Duration::ZERO, 1_000_000);
        assert_eq!(d1, Duration::from_secs(1));
        assert_eq!(d2, Duration::from_secs(2), "second transfer queues");
    }

    #[test]
    fn idle_gap_resets_queue() {
        let b = TokenBucket::new(1_000_000.0);
        let _ = b.reserve(Duration::ZERO, 1_000_000); // busy until t=1s
                                                      // Arriving at t=5s, the link is idle again.
        let d = b.reserve(Duration::from_secs(5), 1_000_000);
        assert_eq!(d, Duration::from_secs(1));
    }

    #[test]
    fn clones_contend_for_the_same_link() {
        let b = TokenBucket::new(1e9);
        let b2 = b.clone();
        let _ = b.reserve(Duration::ZERO, 1_000_000_000); // 1s of work
        let d = b2.reserve(Duration::ZERO, 0);
        assert_eq!(d, Duration::from_secs(1));
    }
}
