//! The topology model: pods of racks of hosts, with tiered links.
//!
//! A [`ClusterSpec`] is pure data — small enough to paste into an issue,
//! exact enough to rebuild the same fabric forever. Node indices are
//! host-major: index `i` lives at pod `i / (racks_per_pod ×
//! hosts_per_rack)`, rack `(i / hosts_per_rack) % racks_per_pod`, host
//! `i % hosts_per_rack`. Every ordered node pair maps to one of three
//! network tiers (same rack, same pod, different pod), each with its own
//! [`TierLink`] latency/bandwidth parameters; the expansion into
//! [`netsim::LinkModel`]s is what `disagg::ClusterConfig::link_map`
//! consumes.

use netsim::{Latency, LinkModel};
use std::sync::Arc;
use std::time::Duration;

/// Locality tier of a node pair. `Local` is the degenerate `i == j`
/// "pair" (no interconnect hop at all); the other three are network
/// tiers with a [`TierLink`] each, ordered by distance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Tier {
    /// Same host — the op never touches the interconnect.
    Local,
    /// Same rack: one top-of-rack switch hop.
    IntraRack,
    /// Same pod, different rack: through the pod fabric.
    CrossRack,
    /// Different pod: through the spine.
    CrossPod,
}

impl Tier {
    /// All four tiers, nearest first (report row order).
    pub const ALL: [Tier; 4] = [
        Tier::Local,
        Tier::IntraRack,
        Tier::CrossRack,
        Tier::CrossPod,
    ];

    /// The three network tiers (pairs that cross the interconnect).
    pub const NETWORK: [Tier; 3] = [Tier::IntraRack, Tier::CrossRack, Tier::CrossPod];

    /// Stable label used in metric names (`cluster.get.<label>.latency_ns`)
    /// and report tables.
    pub fn label(self) -> &'static str {
        match self {
            Tier::Local => "local",
            Tier::IntraRack => "intra_rack",
            Tier::CrossRack => "cross_rack",
            Tier::CrossPod => "cross_pod",
        }
    }
}

/// Link parameters of one tier, integer-encoded so equal specs compare
/// equal exactly (no floats). Expands to a log-normal base delay —
/// the classic datacenter RPC shape already calibrated in
/// [`netsim::LinkModel::grpc_lan`] — plus a per-byte streaming cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TierLink {
    /// Median of the log-normal base delay, microseconds.
    pub median_us: u64,
    /// σ of the underlying normal, thousandths (220 ⇒ σ = 0.22).
    /// Zero selects a constant (jitter-free) delay.
    pub sigma_milli: u32,
    /// Payload bandwidth in bytes per microsecond (1100 ≈ 10 GbE
    /// effective). Zero means no per-byte cost.
    pub bytes_per_us: u64,
}

impl TierLink {
    /// The paper's calibrated gRPC-over-LAN link (the 2-node testbed's
    /// only tier). Expands to exactly [`netsim::LinkModel::grpc_lan`].
    pub fn grpc_lan() -> TierLink {
        TierLink {
            median_us: 2300,
            sigma_milli: 220,
            bytes_per_us: 1100,
        }
    }

    /// A link with no delay at all (functional tests). Expands to
    /// exactly [`netsim::LinkModel::instant`].
    pub fn instant() -> TierLink {
        TierLink {
            median_us: 0,
            sigma_milli: 0,
            bytes_per_us: 0,
        }
    }

    /// Expand to the [`LinkModel`] the RPC layer charges per exchange.
    pub fn model(self) -> LinkModel {
        let median = Duration::from_micros(self.median_us);
        let base = if self.sigma_milli == 0 {
            Latency::Constant(median)
        } else {
            Latency::LogNormal {
                median,
                sigma: self.sigma_milli as f64 / 1000.0,
            }
        };
        LinkModel {
            base,
            secs_per_byte: if self.bytes_per_us == 0 {
                0.0
            } else {
                1.0 / (self.bytes_per_us as f64 * 1e6)
            },
        }
    }
}

/// Position of a host in the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Coord {
    /// Pod index.
    pub pod: usize,
    /// Rack index within the pod.
    pub rack: usize,
    /// Host index within the rack.
    pub host: usize,
}

/// A whole cluster as data: the shape (pods × racks × hosts) and the
/// three tier links, plus the seed every derived stream (link delays,
/// workload randomness) is keyed on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterSpec {
    /// Number of pods.
    pub pods: usize,
    /// Racks in each pod.
    pub racks_per_pod: usize,
    /// Hosts in each rack (one store per host).
    pub hosts_per_rack: usize,
    /// Seed for all delay sampling and workload generation.
    pub seed: u64,
    /// Link of same-rack pairs.
    pub intra_rack: TierLink,
    /// Link of same-pod, different-rack pairs.
    pub cross_rack: TierLink,
    /// Link of different-pod pairs.
    pub cross_pod: TierLink,
}

impl ClusterSpec {
    /// The paper's testbed as the degenerate spec: one rack of two hosts,
    /// every tier the calibrated gRPC LAN link, the seed the 2-node
    /// harness has always used — so clusters built through this spec
    /// reproduce the recorded A2/A3 numbers exactly.
    pub fn paper_testbed() -> ClusterSpec {
        ClusterSpec {
            pods: 1,
            racks_per_pod: 1,
            hosts_per_rack: 2,
            seed: 0x7F1A,
            intra_rack: TierLink::grpc_lan(),
            cross_rack: TierLink::grpc_lan(),
            cross_pod: TierLink::grpc_lan(),
        }
    }

    /// A 2 × 2 × 2 = 8-host fabric for smoke runs and CI: the calibrated
    /// intra-rack link, with cross-rack and cross-pod tiers progressively
    /// slower and more jittery.
    pub fn small_fabric(seed: u64) -> ClusterSpec {
        ClusterSpec {
            pods: 2,
            racks_per_pod: 2,
            hosts_per_rack: 2,
            seed,
            ..ClusterSpec::paper_fabric(seed)
        }
    }

    /// The A6 reference fabric: 4 pods × 4 racks × 4 hosts = 64 stores.
    /// Intra-rack keeps the paper's calibrated gRPC link; cross-rack adds
    /// pod-fabric hops (~1.35× median, more jitter, ~6 GbE effective);
    /// cross-pod crosses the spine (~2× median, the most jitter, ~3 GbE).
    pub fn paper_fabric(seed: u64) -> ClusterSpec {
        ClusterSpec {
            pods: 4,
            racks_per_pod: 4,
            hosts_per_rack: 4,
            seed,
            intra_rack: TierLink::grpc_lan(),
            cross_rack: TierLink {
                median_us: 3100,
                sigma_milli: 300,
                bytes_per_us: 700,
            },
            cross_pod: TierLink {
                median_us: 4600,
                sigma_milli: 380,
                bytes_per_us: 400,
            },
        }
    }

    /// Total number of hosts (= stores = nodes).
    pub fn nodes(&self) -> usize {
        self.pods * self.racks_per_pod * self.hosts_per_rack
    }

    /// Total number of racks.
    pub fn racks(&self) -> usize {
        self.pods * self.racks_per_pod
    }

    /// Coordinates of node index `i` (host-major layout).
    pub fn coord(&self, i: usize) -> Coord {
        assert!(i < self.nodes(), "node index {i} out of range");
        Coord {
            pod: i / (self.racks_per_pod * self.hosts_per_rack),
            rack: (i / self.hosts_per_rack) % self.racks_per_pod,
            host: i % self.hosts_per_rack,
        }
    }

    /// Node index at `coord` (inverse of [`ClusterSpec::coord`]).
    pub fn index(&self, coord: Coord) -> usize {
        (coord.pod * self.racks_per_pod + coord.rack) * self.hosts_per_rack + coord.host
    }

    /// Global rack id of node `i` (pods flattened), used to enumerate a
    /// node's rack-mates.
    pub fn rack_of(&self, i: usize) -> usize {
        i / self.hosts_per_rack
    }

    /// All node indices in the same rack as `i` (including `i`).
    pub fn rack_members(&self, i: usize) -> std::ops::Range<usize> {
        let rack = self.rack_of(i);
        rack * self.hosts_per_rack..(rack + 1) * self.hosts_per_rack
    }

    /// All node indices in pod `pod`.
    pub fn pod_members(&self, pod: usize) -> std::ops::Range<usize> {
        let per_pod = self.racks_per_pod * self.hosts_per_rack;
        pod * per_pod..(pod + 1) * per_pod
    }

    /// Locality tier of the ordered pair `(i, j)`.
    pub fn tier(&self, i: usize, j: usize) -> Tier {
        let (a, b) = (self.coord(i), self.coord(j));
        if i == j {
            Tier::Local
        } else if a.pod == b.pod && a.rack == b.rack {
            Tier::IntraRack
        } else if a.pod == b.pod {
            Tier::CrossRack
        } else {
            Tier::CrossPod
        }
    }

    /// The [`TierLink`] of a network tier. Panics on [`Tier::Local`],
    /// which has no link.
    pub fn tier_link(&self, tier: Tier) -> TierLink {
        match tier {
            Tier::Local => panic!("local pairs have no link"),
            Tier::IntraRack => self.intra_rack,
            Tier::CrossRack => self.cross_rack,
            Tier::CrossPod => self.cross_pod,
        }
    }

    /// Expanded link model of the pair `(i, j)` (`i ≠ j`).
    pub fn link(&self, i: usize, j: usize) -> LinkModel {
        self.tier_link(self.tier(i, j)).model()
    }

    /// The per-pair link closure `disagg::ClusterConfig::link_map`
    /// consumes: node indices in, expanded [`LinkModel`] out.
    pub fn link_map(&self) -> Arc<dyn Fn(usize, usize) -> LinkModel + Send + Sync> {
        let spec = self.clone();
        Arc::new(move |i, j| spec.link(i, j))
    }

    /// Seed of the pair `(i, j)`'s delay stream.
    pub fn link_seed(&self, i: usize, j: usize) -> u64 {
        mix(self.seed ^ ((i as u64) << 32) ^ j as u64)
    }

    /// Deterministic point sample of the pair's delay stream: the delay
    /// of exchange `seq` over `(i, j)` carrying `payload_bytes`, via
    /// [`netsim::LinkModel::delay_at`] — a pure function of its
    /// coordinates, replayable in any order.
    pub fn delay_at(&self, i: usize, j: usize, payload_bytes: usize, seq: u64) -> Duration {
        self.link(i, j)
            .delay_at(self.link_seed(i, j), seq, payload_bytes)
    }

    /// The node most distant from `i` (first index at the maximum tier):
    /// what a "remote client" means on this fabric. On the degenerate
    /// paper testbed, `farthest_from(0) == 1` — the other host.
    pub fn farthest_from(&self, i: usize) -> usize {
        (0..self.nodes())
            .max_by_key(|&j| (self.tier(i, j), std::cmp::Reverse(j)))
            .expect("spec has at least one node")
    }
}

/// splitmix64 finalizer (same mixer the placement ring uses), for
/// deriving well-separated per-pair and per-event seeds.
pub(crate) fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degenerate_testbed_expands_to_the_calibrated_link() {
        let spec = ClusterSpec::paper_testbed();
        assert_eq!(spec.nodes(), 2);
        assert_eq!(spec.link(0, 1), LinkModel::grpc_lan());
        assert_eq!(spec.farthest_from(0), 1);
        assert_eq!(TierLink::instant().model(), LinkModel::instant());
    }

    #[test]
    fn coordinates_round_trip_and_classify() {
        let spec = ClusterSpec::paper_fabric(7);
        assert_eq!(spec.nodes(), 64);
        assert_eq!(spec.racks(), 16);
        for i in 0..spec.nodes() {
            assert_eq!(spec.index(spec.coord(i)), i);
        }
        // 0 and 1 share rack 0; 0 and 4 share pod 0 across racks; 0 and
        // 16 are in different pods.
        assert_eq!(spec.tier(0, 0), Tier::Local);
        assert_eq!(spec.tier(0, 1), Tier::IntraRack);
        assert_eq!(spec.tier(0, 4), Tier::CrossRack);
        assert_eq!(spec.tier(0, 16), Tier::CrossPod);
        assert_eq!(spec.tier(16, 0), Tier::CrossPod);
        assert_eq!(spec.rack_members(5), 4..8);
        assert_eq!(spec.pod_members(1), 16..32);
    }

    #[test]
    fn tier_medians_are_ordered_nearest_fastest() {
        let spec = ClusterSpec::paper_fabric(7);
        assert!(spec.intra_rack.median_us < spec.cross_rack.median_us);
        assert!(spec.cross_rack.median_us < spec.cross_pod.median_us);
        // And bandwidth narrows with distance.
        assert!(spec.intra_rack.bytes_per_us > spec.cross_pod.bytes_per_us);
    }

    #[test]
    fn delay_stream_is_a_pure_function_of_coordinates() {
        let spec = ClusterSpec::small_fabric(11);
        let forward: Vec<Duration> = (0..64).map(|s| spec.delay_at(0, 5, 128, s)).collect();
        let backward: Vec<Duration> = (0..64).rev().map(|s| spec.delay_at(0, 5, 128, s)).collect();
        assert_eq!(forward, backward.into_iter().rev().collect::<Vec<_>>());
        // Direction matters (independent streams per ordered pair).
        let reverse_dir: Vec<Duration> = (0..64).map(|s| spec.delay_at(5, 0, 128, s)).collect();
        assert_ne!(forward, reverse_dir);
        // A different spec seed reshuffles every stream.
        let other = ClusterSpec::small_fabric(12);
        assert_ne!(
            forward,
            (0..64)
                .map(|s| other.delay_at(0, 5, 128, s))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn farthest_prefers_the_most_distant_tier() {
        let spec = ClusterSpec::small_fabric(1);
        // Node 0 (pod 0) is farthest from any pod-1 node; the first such
        // index is 4.
        assert_eq!(spec.tier(0, spec.farthest_from(0)), Tier::CrossPod);
        assert_eq!(spec.farthest_from(0), 4);
    }
}
