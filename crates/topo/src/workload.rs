//! The seeded workload generator: multi-tenant, zipf-popular,
//! lognormal-paced, spatially skewed — and completely replayable.
//!
//! A [`WorkloadSpec`] describes tenants sharing a fabric. Each tenant
//! has a client population (a node range), a per-node object pool, a
//! zipf popularity exponent, a target load in ops/sec whose lognormal
//! inter-arrival distribution is derived analytically (so the empirical
//! rate converges to the target), an op mix (get vs fresh-put churn),
//! and a spatial pattern choosing *which node's pool* each op targets:
//! rack-local, uniform, or hot-pod.
//!
//! [`WorkloadSpec::generate`] expands the spec against a
//! [`ClusterSpec`] into a [`Schedule`] — a time-ordered op list whose
//! every field is a pure function of `(seed, tenant, sequence)`:
//! arrival gaps ride [`netsim::Latency::sample_at`], per-op choices
//! seed a fresh small RNG from their own coordinates. Equal specs ⇒
//! byte-identical schedules.

use crate::spec::{mix, ClusterSpec};
use netsim::Latency;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BinaryHeap;
use std::time::Duration;

/// One payload size class with a selection weight (weights are relative;
/// they need not sum to anything in particular).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SizeClass {
    /// Object payload size in bytes.
    pub bytes: u64,
    /// Relative selection weight.
    pub weight: u32,
}

/// The Table I size classes with a small-object-heavy weighting — the
/// shape big-data object traffic actually has (many small intermediates,
/// few large partitions). The two largest paper classes (10 MB, 100 MB)
/// keep zero weight here so a million-op schedule fits in simulated
/// memory; callers wanting them can weight them in.
pub fn table1_classes() -> Vec<SizeClass> {
    vec![
        SizeClass {
            bytes: 1_000,
            weight: 55,
        },
        SizeClass {
            bytes: 10_000,
            weight: 30,
        },
        SizeClass {
            bytes: 100_000,
            weight: 13,
        },
        SizeClass {
            bytes: 1_000_000,
            weight: 2,
        },
        SizeClass {
            bytes: 10_000_000,
            weight: 0,
        },
        SizeClass {
            bytes: 100_000_000,
            weight: 0,
        },
    ]
}

/// The scaled-down (÷100) variant for smoke runs, mirroring
/// `TABLE_I_SMALL`.
pub fn table1_classes_small() -> Vec<SizeClass> {
    table1_classes()
        .into_iter()
        .map(|c| SizeClass {
            bytes: (c.bytes / 100).max(16),
            weight: c.weight,
        })
        .collect()
}

/// Spatial pattern of one tenant's traffic: how an op's target node is
/// chosen given its client node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Spatial {
    /// Every node equally likely.
    Uniform,
    /// With probability `local_ppm` (parts per million) the target is a
    /// uniformly chosen member of the client's own rack; otherwise any
    /// node.
    RackLocal {
        /// Probability (ppm) of staying in the client's rack.
        local_ppm: u32,
    },
    /// With probability `hot_ppm` the target is a uniformly chosen
    /// member of pod `pod`; otherwise any node.
    HotPod {
        /// The popular pod.
        pod: usize,
        /// Probability (ppm) of hitting the popular pod.
        hot_ppm: u32,
    },
}

/// One tenant: a client population, an object catalog, and a load shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantSpec {
    /// Node index range `[lo, hi)` hosting this tenant's clients.
    pub clients: (usize, usize),
    /// Objects in this tenant's pool on *each* node.
    pub objects_per_node: usize,
    /// Zipf popularity exponent, thousandths (900 ⇒ s = 0.9). Rank 0 of
    /// a pool is its hottest object.
    pub zipf_milli: u32,
    /// Target aggregate load, ops per second across all clients.
    pub ops_per_sec: u64,
    /// σ of the lognormal inter-arrival distribution, thousandths.
    /// The median is derived from `ops_per_sec` so the *mean* gap is
    /// exactly the target rate's reciprocal.
    pub sigma_milli: u32,
    /// Probability (ppm) that an op is a fresh-object put (churn)
    /// instead of a get against the catalog.
    pub put_ppm: u32,
    /// Spatial pattern of the tenant's traffic.
    pub spatial: Spatial,
}

/// A complete workload description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkloadSpec {
    /// Seed of every arrival gap and per-op choice.
    pub seed: u64,
    /// Total ops to emit across all tenants.
    pub ops: u64,
    /// Payload size classes (shared by all tenants).
    pub classes: Vec<SizeClass>,
    /// The tenants.
    pub tenants: Vec<TenantSpec>,
}

/// What one scheduled op does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Get catalog object `object` of the `(tenant, target)` pool.
    Get,
    /// Create + seal a fresh churn object of `bytes` payload (placement
    /// falls where the ring puts it; `target`/`object` are unused).
    Put {
        /// Payload size in bytes.
        bytes: u64,
    },
}

/// One scheduled operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    /// Virtual arrival time, nanoseconds from schedule start.
    pub at_ns: u64,
    /// Issuing tenant (index into [`WorkloadSpec::tenants`]).
    pub tenant: u16,
    /// Per-tenant sequence number (0-based).
    pub seq: u64,
    /// Node index issuing the op.
    pub client: u16,
    /// Node index whose pool the op targets (gets only).
    pub target: u16,
    /// Object index within the `(tenant, target)` pool (gets only).
    pub object: u32,
    /// Get or put.
    pub kind: OpKind,
}

/// A generated, time-ordered op schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    /// Ops sorted by `(at_ns, tenant, seq)`.
    pub ops: Vec<Op>,
}

impl Schedule {
    /// Exact text serialization, one line per op — the byte-identity
    /// witness for determinism tests.
    pub fn serialize(&self) -> String {
        let mut out = String::with_capacity(self.ops.len() * 48);
        for op in &self.ops {
            let kind = match op.kind {
                OpKind::Get => "get".to_string(),
                OpKind::Put { bytes } => format!("put:{bytes}"),
            };
            out.push_str(&format!(
                "op at={} t={} seq={} c={} v={} o={} k={kind}\n",
                op.at_ns, op.tenant, op.seq, op.client, op.target, op.object
            ));
        }
        out
    }

    /// FNV-1a digest over every op field — a compact schedule identity
    /// for bench reports (equal digests ⇔ equal schedules, modulo hash
    /// collisions).
    pub fn digest(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for op in &self.ops {
            eat(op.at_ns);
            eat(u64::from(op.tenant));
            eat(op.seq);
            eat(u64::from(op.client));
            eat(u64::from(op.target));
            eat(u64::from(op.object));
            match op.kind {
                OpKind::Get => eat(0),
                OpKind::Put { bytes } => {
                    eat(1);
                    eat(bytes);
                }
            }
        }
        h
    }
}

/// One catalog entry: committed before the schedule runs, then served
/// to gets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CatalogObject {
    /// Owning tenant.
    pub tenant: u16,
    /// Node whose pool this object belongs to (its intended placement).
    pub home: u16,
    /// Index within the `(tenant, home)` pool (= its zipf rank).
    pub index: u32,
    /// Payload size in bytes.
    pub bytes: u64,
}

/// Precomputed zipf(s) cumulative distribution over ranks `0..n`
/// (rank 0 hottest): `P(r) ∝ (r+1)^-s`.
#[derive(Debug, Clone)]
pub struct ZipfCdf {
    cum: Vec<f64>,
}

impl ZipfCdf {
    /// Build the CDF for `n` ranks with exponent `s`.
    pub fn new(n: usize, s: f64) -> ZipfCdf {
        assert!(n > 0, "zipf needs at least one rank");
        let mut cum = Vec::with_capacity(n);
        let mut total = 0.0;
        for r in 0..n {
            total += ((r + 1) as f64).powf(-s);
            cum.push(total);
        }
        ZipfCdf { cum }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cum.len()
    }

    /// True when the distribution has no ranks (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.cum.is_empty()
    }

    /// The rank whose CDF slot contains `u ∈ [0, 1)`.
    pub fn sample(&self, u: f64) -> usize {
        let needle = u * self.cum[self.cum.len() - 1];
        self.cum
            .partition_point(|&c| c <= needle)
            .min(self.cum.len() - 1)
    }

    /// Probability mass of rank `r`.
    pub fn mass(&self, r: usize) -> f64 {
        let total = self.cum[self.cum.len() - 1];
        let prev = if r == 0 { 0.0 } else { self.cum[r - 1] };
        (self.cum[r] - prev) / total
    }
}

impl WorkloadSpec {
    /// A balanced default workload for a fabric: three tenants covering
    /// the three spatial shapes — a rack-local bulk tenant (the common
    /// big-data case: shuffle partitions consumed near their producers),
    /// a uniform all-to-all tenant, and a hot-pod tenant modeling a
    /// skewed multi-tenant neighbor — emitting `ops` total operations.
    pub fn default_for(spec: &ClusterSpec, ops: u64) -> WorkloadSpec {
        let nodes = spec.nodes();
        WorkloadSpec {
            seed: spec.seed,
            ops,
            classes: table1_classes(),
            tenants: vec![
                TenantSpec {
                    clients: (0, nodes),
                    objects_per_node: 32,
                    zipf_milli: 900,
                    ops_per_sec: 20_000,
                    sigma_milli: 500,
                    put_ppm: 30_000,
                    spatial: Spatial::RackLocal { local_ppm: 700_000 },
                },
                TenantSpec {
                    clients: (0, nodes),
                    objects_per_node: 16,
                    zipf_milli: 700,
                    ops_per_sec: 8_000,
                    sigma_milli: 700,
                    put_ppm: 50_000,
                    spatial: Spatial::Uniform,
                },
                TenantSpec {
                    clients: (0, nodes),
                    objects_per_node: 16,
                    zipf_milli: 1_100,
                    ops_per_sec: 6_000,
                    sigma_milli: 400,
                    put_ppm: 20_000,
                    spatial: Spatial::HotPod {
                        pod: 0,
                        hot_ppm: 600_000,
                    },
                },
            ],
        }
    }

    /// Check the spec against a topology; returns the first problem.
    pub fn validate(&self, spec: &ClusterSpec) -> Result<(), String> {
        let nodes = spec.nodes();
        if self.tenants.is_empty() {
            return Err("workload has no tenants".into());
        }
        if self.classes.iter().all(|c| c.weight == 0) {
            return Err("all size classes have zero weight".into());
        }
        for (t, tenant) in self.tenants.iter().enumerate() {
            let (lo, hi) = tenant.clients;
            if lo >= hi || hi > nodes {
                return Err(format!(
                    "tenant {t}: client range {lo}..{hi} invalid for {nodes} nodes"
                ));
            }
            if tenant.objects_per_node == 0 {
                return Err(format!("tenant {t}: empty object pool"));
            }
            if tenant.ops_per_sec == 0 {
                return Err(format!("tenant {t}: zero target load"));
            }
            if let Spatial::HotPod { pod, .. } = tenant.spatial {
                if pod >= spec.pods {
                    return Err(format!("tenant {t}: hot pod {pod} out of range"));
                }
            }
        }
        Ok(())
    }

    /// The catalog this workload serves gets from: for every tenant, a
    /// pool of `objects_per_node` objects per node, sizes drawn from the
    /// class weights — each size a pure function of `(seed, tenant,
    /// home, index)`.
    pub fn catalog(&self, spec: &ClusterSpec) -> Vec<CatalogObject> {
        let nodes = spec.nodes();
        let mut out = Vec::new();
        for (t, tenant) in self.tenants.iter().enumerate() {
            for home in 0..nodes {
                for index in 0..tenant.objects_per_node {
                    let mut rng = SmallRng::seed_from_u64(mix(self.seed
                        ^ 0x0CA7_A106
                        ^ ((t as u64) << 48)
                        ^ ((home as u64) << 24)
                        ^ index as u64));
                    out.push(CatalogObject {
                        tenant: t as u16,
                        home: home as u16,
                        index: index as u32,
                        bytes: sample_class(&self.classes, &mut rng),
                    });
                }
            }
        }
        out
    }

    /// The mean inter-arrival gap of tenant `t`'s lognormal stream,
    /// with the median derived so the distribution's *mean* equals the
    /// reciprocal of the target rate: `median = mean · e^(−σ²/2)`.
    fn arrival_latency(&self, t: usize) -> Latency {
        let tenant = &self.tenants[t];
        let sigma = tenant.sigma_milli as f64 / 1000.0;
        let mean_secs = 1.0 / tenant.ops_per_sec as f64;
        let median_secs = mean_secs * (-sigma * sigma / 2.0).exp();
        if tenant.sigma_milli == 0 {
            Latency::Constant(Duration::from_secs_f64(mean_secs))
        } else {
            Latency::LogNormal {
                median: Duration::from_secs_f64(median_secs),
                sigma,
            }
        }
    }

    /// Seed of tenant `t`'s arrival-gap stream.
    fn arrival_seed(&self, t: usize) -> u64 {
        mix(self.seed ^ 0xA441_7A15 ^ t as u64)
    }

    /// Generate the schedule: per-tenant lognormal arrival streams
    /// merged in time order, each op's choices drawn from its own
    /// `(seed, tenant, seq)` coordinates. Panics on an invalid spec
    /// (see [`WorkloadSpec::validate`]).
    pub fn generate(&self, spec: &ClusterSpec) -> Schedule {
        self.validate(spec).expect("invalid workload spec");
        let nodes = spec.nodes();
        let zipfs: Vec<ZipfCdf> = self
            .tenants
            .iter()
            .map(|t| ZipfCdf::new(t.objects_per_node, t.zipf_milli as f64 / 1000.0))
            .collect();
        let arrivals: Vec<Latency> = (0..self.tenants.len())
            .map(|t| self.arrival_latency(t))
            .collect();

        // Min-heap of (next arrival, tenant, seq); ties break by tenant
        // then sequence, so the merge order is total and deterministic.
        let mut heap: BinaryHeap<std::cmp::Reverse<(u64, u16, u64)>> = (0..self.tenants.len())
            .map(|t| {
                let gap = arrivals[t].sample_at(self.arrival_seed(t), 0);
                std::cmp::Reverse((gap.as_nanos() as u64, t as u16, 0u64))
            })
            .collect();

        let mut ops = Vec::with_capacity(self.ops as usize);
        while ops.len() < self.ops as usize {
            let std::cmp::Reverse((at_ns, t, seq)) =
                heap.pop().expect("tenant streams are infinite");
            let tenant = &self.tenants[t as usize];
            let mut rng =
                SmallRng::seed_from_u64(mix(self.seed ^ 0x00E1_1E57 ^ ((t as u64) << 40) ^ seq));
            let (lo, hi) = tenant.clients;
            let client = rng.gen_range(lo..hi);
            let target = sample_target(spec, tenant.spatial, client, nodes, &mut rng);
            let object = zipfs[t as usize].sample(rng.gen::<f64>()) as u32;
            let kind = if rng.gen_range(0..1_000_000u32) < tenant.put_ppm {
                OpKind::Put {
                    bytes: sample_class(&self.classes, &mut rng),
                }
            } else {
                OpKind::Get
            };
            ops.push(Op {
                at_ns,
                tenant: t,
                seq,
                client: client as u16,
                target: target as u16,
                object,
                kind,
            });
            let gap = arrivals[t as usize].sample_at(self.arrival_seed(t as usize), seq + 1);
            heap.push(std::cmp::Reverse((
                at_ns.saturating_add(gap.as_nanos() as u64),
                t,
                seq + 1,
            )));
        }
        Schedule { ops }
    }

    /// Tenant `t`'s spatial traffic matrix: `matrix[c][v]` is the rate
    /// (ops/sec) of traffic from client node `c` to target node `v`.
    /// Each client row sums to the tenant's per-client share, and the
    /// whole matrix sums to `ops_per_sec` — the invariant the
    /// statistical sanity tests pin.
    pub fn traffic_matrix(&self, spec: &ClusterSpec, t: usize) -> Vec<Vec<f64>> {
        let nodes = spec.nodes();
        let tenant = &self.tenants[t];
        let (lo, hi) = tenant.clients;
        let per_client = tenant.ops_per_sec as f64 / (hi - lo) as f64;
        let mut matrix = vec![vec![0.0; nodes]; nodes];
        for (c, row) in matrix.iter_mut().enumerate().take(hi).skip(lo) {
            match tenant.spatial {
                Spatial::Uniform => {
                    for rate in row.iter_mut() {
                        *rate = per_client / nodes as f64;
                    }
                }
                Spatial::RackLocal { local_ppm } => {
                    let p = local_ppm as f64 / 1e6;
                    let rack = spec.rack_members(c);
                    let rack_size = rack.len() as f64;
                    for rate in row.iter_mut() {
                        *rate = (1.0 - p) * per_client / nodes as f64;
                    }
                    for v in rack {
                        row[v] += p * per_client / rack_size;
                    }
                }
                Spatial::HotPod { pod, hot_ppm } => {
                    let p = hot_ppm as f64 / 1e6;
                    let members = spec.pod_members(pod);
                    let pod_size = members.len() as f64;
                    for rate in row.iter_mut() {
                        *rate = (1.0 - p) * per_client / nodes as f64;
                    }
                    for v in members {
                        row[v] += p * per_client / pod_size;
                    }
                }
            }
        }
        matrix
    }
}

/// Draw a size from the class weights.
fn sample_class(classes: &[SizeClass], rng: &mut SmallRng) -> u64 {
    let total: u64 = classes.iter().map(|c| u64::from(c.weight)).sum();
    let mut needle = rng.gen_range(0..total.max(1));
    for c in classes {
        let w = u64::from(c.weight);
        if needle < w {
            return c.bytes;
        }
        needle -= w;
    }
    classes.last().map(|c| c.bytes).unwrap_or(0)
}

/// Draw an op's target node per the tenant's spatial pattern.
fn sample_target(
    spec: &ClusterSpec,
    spatial: Spatial,
    client: usize,
    nodes: usize,
    rng: &mut SmallRng,
) -> usize {
    match spatial {
        Spatial::Uniform => rng.gen_range(0..nodes),
        Spatial::RackLocal { local_ppm } => {
            if rng.gen_range(0..1_000_000u32) < local_ppm {
                let rack = spec.rack_members(client);
                rng.gen_range(rack.start..rack.end)
            } else {
                rng.gen_range(0..nodes)
            }
        }
        Spatial::HotPod { pod, hot_ppm } => {
            if rng.gen_range(0..1_000_000u32) < hot_ppm {
                let members = spec.pod_members(pod);
                rng.gen_range(members.start..members.end)
            } else {
                rng.gen_range(0..nodes)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec() -> ClusterSpec {
        ClusterSpec::small_fabric(5)
    }

    #[test]
    fn zipf_cdf_masses_sum_to_one_and_decrease() {
        let z = ZipfCdf::new(64, 0.9);
        let total: f64 = (0..64).map(|r| z.mass(r)).sum();
        assert!((total - 1.0).abs() < 1e-12);
        for r in 1..64 {
            assert!(z.mass(r) < z.mass(r - 1), "rank {r} not less popular");
        }
        // Sampling hits the hottest rank most often at the boundaries.
        assert_eq!(z.sample(0.0), 0);
        assert_eq!(z.sample(0.999_999_9), 63);
    }

    #[test]
    fn generation_is_deterministic_and_seed_sensitive() {
        let spec = small_spec();
        let load = WorkloadSpec::default_for(&spec, 500);
        let a = load.generate(&spec);
        let b = load.generate(&spec);
        assert_eq!(a.serialize(), b.serialize());
        assert_eq!(a.digest(), b.digest());

        let mut other = load.clone();
        other.seed ^= 1;
        let c = other.generate(&spec);
        assert_ne!(a.serialize(), c.serialize());
    }

    #[test]
    fn schedule_is_time_ordered_and_fields_in_range() {
        let spec = small_spec();
        let load = WorkloadSpec::default_for(&spec, 1000);
        let s = load.generate(&spec);
        assert_eq!(s.ops.len(), 1000);
        let nodes = spec.nodes() as u16;
        for w in s.ops.windows(2) {
            assert!(
                (w[0].at_ns, w[0].tenant, w[0].seq) < (w[1].at_ns, w[1].tenant, w[1].seq),
                "schedule out of order"
            );
        }
        for op in &s.ops {
            assert!(op.client < nodes);
            assert!(op.target < nodes);
            let pool = load.tenants[op.tenant as usize].objects_per_node as u32;
            assert!(op.object < pool);
        }
        // All three tenants got airtime roughly proportional to rate.
        let t0 = s.ops.iter().filter(|o| o.tenant == 0).count();
        assert!(t0 > 400, "dominant tenant underrepresented: {t0}");
    }

    #[test]
    fn catalog_is_deterministic_and_covers_every_pool() {
        let spec = small_spec();
        let load = WorkloadSpec::default_for(&spec, 10);
        let a = load.catalog(&spec);
        assert_eq!(a, load.catalog(&spec));
        let expected: usize = load
            .tenants
            .iter()
            .map(|t| t.objects_per_node * spec.nodes())
            .sum();
        assert_eq!(a.len(), expected);
        assert!(a.iter().all(|o| o.bytes > 0));
    }

    #[test]
    fn validation_catches_bad_specs() {
        let spec = small_spec();
        let mut load = WorkloadSpec::default_for(&spec, 10);
        load.tenants[0].clients = (0, 100);
        assert!(load.validate(&spec).is_err());
        let mut load = WorkloadSpec::default_for(&spec, 10);
        load.tenants[0].ops_per_sec = 0;
        assert!(load.validate(&spec).is_err());
        let mut load = WorkloadSpec::default_for(&spec, 10);
        load.tenants[2].spatial = Spatial::HotPod { pod: 9, hot_ppm: 1 };
        assert!(load.validate(&spec).is_err());
    }
}
