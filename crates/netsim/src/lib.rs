//! # netsim — network latency, jitter and bandwidth models
//!
//! The paper's remote object retrieval is "likely dominated by gRPC and its
//! inherent network jitter": total retrieval latency is milliseconds and
//! noisy, while the data plane (ThymesisFlow) is microseconds and steady.
//! To reproduce that shape without the authors' LAN, this crate provides
//! composable delay models that the RPC layer charges to the simulation
//! clock:
//!
//! * [`Latency`] — a delay distribution (constant, uniform, normal,
//!   log-normal).
//! * [`LinkModel`] — fixed round-trip base + per-byte cost + additive
//!   jitter; presets calibrated against the paper's measurements.
//! * [`TokenBucket`] — a shared-bandwidth limiter for scale-out scenarios
//!   where several consumers contend for one LAN link (Fig. 1a).
//!
//! Every delay is a counter-based draw, a function of its coordinates
//! alone ([`Latency::sample_at`]; Salmon et al., SC 2011), so removing
//! one kind of call leaves every other kind's delays as they were.

pub mod bucket;

pub use bucket::TokenBucket;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A latency distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Latency {
    /// Always exactly this long.
    Constant(Duration),
    /// Uniform in `[lo, hi]`.
    Uniform { lo: Duration, hi: Duration },
    /// Normal with the given mean and standard deviation, truncated at 0.
    Normal { mean: Duration, std: Duration },
    /// Log-normal parameterized by its median and the σ of the underlying
    /// normal — the classic shape of datacenter RPC tail latency.
    LogNormal { median: Duration, sigma: f64 },
}

impl Latency {
    /// No delay at all.
    pub const ZERO: Latency = Latency::Constant(Duration::ZERO);

    /// Draw `seq` of stream `seed`: its generator is seeded from the two
    /// alone, so the value does not depend on who asks first.
    pub fn sample_at(&self, seed: u64, seq: u64) -> Duration {
        let key = seed ^ seq.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17);
        let rng = &mut SmallRng::seed_from_u64(key);
        match *self {
            Latency::Constant(d) => d,
            Latency::Uniform { lo, hi } => {
                let lo_ns = lo.as_nanos() as u64;
                let hi_ns = hi.as_nanos() as u64;
                Duration::from_nanos(rng.gen_range(lo_ns..=hi_ns.max(lo_ns)))
            }
            Latency::Normal { mean, std } => {
                let z = standard_normal(rng);
                let ns = mean.as_nanos() as f64 + z * std.as_nanos() as f64;
                Duration::from_nanos(ns.max(0.0) as u64)
            }
            Latency::LogNormal { median, sigma } => {
                let z = standard_normal(rng);
                let ns = median.as_nanos() as f64 * (sigma * z).exp();
                Duration::from_nanos(ns.max(0.0) as u64)
            }
        }
    }
}

/// Standard-normal variate via Box–Muller.
fn standard_normal(rng: &mut SmallRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Delay model of one message exchange over a link: a base (distributional)
/// delay plus a deterministic per-byte cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkModel {
    /// Base delay per exchange (connection + protocol + propagation).
    pub base: Latency,
    /// Seconds per byte of payload (1 / bandwidth).
    pub secs_per_byte: f64,
}

impl LinkModel {
    /// A link with no delay (functional tests).
    pub fn instant() -> Self {
        LinkModel {
            base: Latency::ZERO,
            secs_per_byte: 0.0,
        }
    }

    /// Calibrated to the paper's gRPC 1.38 sync/unary store-to-store path:
    /// a log-normal round-trip centred at ~2.3 ms with visible jitter
    /// (paper Fig. 6 reports 2.6–5 ms totals for remote retrievals, noisy),
    /// plus ~10 GbE payload streaming.
    pub fn grpc_lan() -> Self {
        LinkModel {
            base: Latency::LogNormal {
                median: Duration::from_micros(2300),
                sigma: 0.22,
            },
            secs_per_byte: 1.0 / (1.1e9), // ~10 GbE effective
        }
    }

    /// Calibrated to Plasma's Unix-domain-socket client<->store IPC: tens
    /// of microseconds per request (paper: 0.075 ms for a 10-object local
    /// retrieval including per-object work).
    pub fn uds_ipc() -> Self {
        LinkModel {
            base: Latency::Normal {
                mean: Duration::from_micros(55),
                std: Duration::from_micros(6),
            },
            secs_per_byte: 1.0 / (4.0e9),
        }
    }

    /// A classic scale-out data path: TCP over the shared LAN, used by the
    /// Fig. 1a baseline that copies object *data* over the network.
    pub fn tcp_scaleout() -> Self {
        LinkModel {
            base: Latency::Normal {
                mean: Duration::from_micros(500),
                std: Duration::from_micros(80),
            },
            secs_per_byte: 1.0 / (1.1e9),
        }
    }

    /// Delay of one exchange carrying `payload_bytes`: draw `seq` of
    /// stream `seed` plus the payload's transfer time.
    pub fn delay_at(&self, seed: u64, seq: u64, payload_bytes: usize) -> Duration {
        self.base.sample_at(seed, seq)
            + Duration::from_secs_f64(self.secs_per_byte * payload_bytes as f64)
    }
}

/// Spreads a small key over 64 bits (odd, so keys stay distinct): key
/// `k` of the link seeded `s ^ j` must not be key `j` of `s ^ k`'s.
const KEY_SPREAD: u64 = 0xD6E8_FEB8_6659_FD93;

/// The stream [`SharedLink::delay`] draws from: no caller's key.
const UNKEYED: u64 = u64::MAX;

/// A seeded [`LinkModel`] whose delays are keyed draws: exchange `seq`
/// of stream `key`, both named by the caller ([`SharedLink::delay_at`]).
/// [`SharedLink::delay`] numbers the draws of one fixed key; clones
/// share that count.
#[derive(Debug, Clone)]
pub struct SharedLink {
    model: LinkModel,
    seed: u64,
    unkeyed: Arc<AtomicU64>,
}

impl SharedLink {
    pub fn new(model: LinkModel, seed: u64) -> Self {
        SharedLink {
            model,
            seed,
            unkeyed: Arc::new(AtomicU64::new(0)),
        }
    }

    /// The delay of exchange `seq` of stream `key` carrying
    /// `payload_bytes`.
    pub fn delay_at(&self, key: u64, seq: u64, payload_bytes: usize) -> Duration {
        let stream = self.seed ^ key.wrapping_mul(KEY_SPREAD);
        self.model.delay_at(stream, seq, payload_bytes)
    }

    /// The delay of the next exchange carrying `payload_bytes` of a
    /// caller that names no key.
    pub fn delay(&self, payload_bytes: usize) -> Duration {
        let seq = self.unkeyed.fetch_add(1, Ordering::Relaxed);
        self.delay_at(UNKEYED, seq, payload_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_is_exact() {
        let l = Latency::Constant(Duration::from_micros(100));
        for seq in 0..10 {
            assert_eq!(l.sample_at(0xDECAF, seq), Duration::from_micros(100));
        }
    }

    #[test]
    fn uniform_stays_in_bounds() {
        let lo = Duration::from_micros(10);
        let hi = Duration::from_micros(20);
        let l = Latency::Uniform { lo, hi };
        for seq in 0..1000 {
            let d = l.sample_at(0xDECAF, seq);
            assert!(d >= lo && d <= hi);
        }
    }

    #[test]
    fn normal_mean_is_close() {
        let l = Latency::Normal {
            mean: Duration::from_micros(500),
            std: Duration::from_micros(50),
        };
        let n = 5000u32;
        let total: Duration = (0..n).map(|seq| l.sample_at(0xDECAF, seq.into())).sum();
        let mean = total / n;
        let err = mean.as_secs_f64() / 500e-6;
        assert!((0.97..1.03).contains(&err), "mean={mean:?}");
    }

    #[test]
    fn lognormal_is_skewed_with_tail() {
        let l = Latency::LogNormal {
            median: Duration::from_millis(2),
            sigma: 0.25,
        };
        let samples: Vec<Duration> = (0..5000).map(|seq| l.sample_at(0xDECAF, seq)).collect();
        let above = samples
            .iter()
            .filter(|d| **d > Duration::from_millis(2))
            .count();
        // Median property: ~half above.
        assert!((2200..2800).contains(&above), "above={above}");
        let max = samples.iter().max().unwrap();
        assert!(*max > Duration::from_millis(3), "no tail: max={max:?}");
    }

    #[test]
    fn point_samples_are_pure_functions_of_coordinates() {
        let l = Latency::Uniform {
            lo: Duration::from_micros(100),
            hi: Duration::from_micros(900),
        };
        // Same (seed, seq) -> same value, in any evaluation order.
        let forward: Vec<Duration> = (0..64).map(|seq| l.sample_at(7, seq)).collect();
        let backward: Vec<Duration> = (0..64).rev().map(|seq| l.sample_at(7, seq)).collect();
        assert_eq!(forward, backward.into_iter().rev().collect::<Vec<_>>());
        // Different seeds give different streams, values stay in range.
        let other: Vec<Duration> = (0..64).map(|seq| l.sample_at(8, seq)).collect();
        assert_ne!(forward, other);
        for d in forward.iter().chain(&other) {
            assert!(*d >= Duration::from_micros(100) && *d <= Duration::from_micros(900));
        }
    }

    #[test]
    fn per_byte_cost_scales() {
        let m = LinkModel {
            base: Latency::ZERO,
            secs_per_byte: 1e-9,
        };
        assert_eq!(m.delay_at(7, 0, 1000), Duration::from_micros(1));
        assert_eq!(m.delay_at(7, 1, 0), Duration::ZERO);
    }

    /// A keyed draw is its coordinates' alone: the unkeyed count does not
    /// move it, clones share that count, and a key does not reach the
    /// stream of the link whose seed differs from this one's by the key
    /// (the cluster seeds link `(i, j)` with `seed ^ (i << 32) ^ j`).
    #[test]
    fn keyed_draws_are_their_coordinates_alone() {
        let link = SharedLink::new(LinkModel::grpc_lan(), 42 ^ 1);
        let first = link.delay_at(2, 0, 64);
        let clone = link.clone();
        let unkeyed: Vec<Duration> = (0..8).map(|_| clone.delay(64)).collect();
        assert_eq!(link.delay_at(2, 0, 64), first);
        let fresh = SharedLink::new(LinkModel::grpc_lan(), 42 ^ 1);
        assert_eq!(fresh.delay_at(2, 0, 64), first);
        assert_eq!(fresh.delay(64), unkeyed[0]);
        assert_ne!(link.delay(64), unkeyed[0], "clones count together");
        let neighbour = SharedLink::new(LinkModel::grpc_lan(), 42 ^ 2);
        let ours: Vec<Duration> = (0..16).map(|n| link.delay_at(2, n, 0)).collect();
        let theirs: Vec<Duration> = (0..16).map(|n| neighbour.delay_at(1, n, 0)).collect();
        assert_ne!(ours, theirs);
    }

    #[test]
    fn grpc_preset_is_millisecond_scale_and_jittery() {
        let link = SharedLink::new(LinkModel::grpc_lan(), 7);
        let samples: Vec<Duration> = (0..200).map(|_| link.delay(64)).collect();
        assert!(samples.iter().all(|d| *d > Duration::from_micros(800)));
        assert!(samples.iter().any(|d| *d > Duration::from_millis(2)));
        let min = samples.iter().min().unwrap();
        let max = samples.iter().max().unwrap();
        assert!(*max > *min + Duration::from_micros(300), "no jitter");
    }

    #[test]
    fn uds_preset_is_microsecond_scale() {
        let link = SharedLink::new(LinkModel::uds_ipc(), 7);
        let d = link.delay(64);
        assert!(d < Duration::from_micros(200), "{d:?}");
    }

    #[test]
    fn shared_link_is_deterministic_per_seed() {
        let a = SharedLink::new(LinkModel::grpc_lan(), 42);
        let b = SharedLink::new(LinkModel::grpc_lan(), 42);
        let xs: Vec<Duration> = (0..16).map(|_| a.delay(10)).collect();
        let ys: Vec<Duration> = (0..16).map(|_| b.delay(10)).collect();
        assert_eq!(xs, ys);
    }
}
