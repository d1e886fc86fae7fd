//! Seeded input generation: the random source, payload bytes, and the four
//! operation streams.
//!
//! Everything here is a pure function of `--seed`. The product never sees
//! the seed's generator — only the operations it yields — and a stream
//! never looks at what the product answered, so the same seed replays the
//! same operations at every entry point (client, store, core).

/// SplitMix64: small, fast, and good enough to pick keys and sizes.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is below 2⁻⁴⁰ for the
    /// ranges used here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Largest payload any workload stores.
pub const MAX_PAYLOAD: usize = 100_000;
const NOISE_SPAN: usize = 1 << 20;

/// Payload bytes as a function of `(seed, id)`: one seeded noise buffer,
/// and every object's payload is the slice starting at an offset derived
/// from its id. Expected bytes are therefore available without generating
/// or copying anything, and a read that returns another object's bytes
/// (or stale ones) fails the comparison.
pub struct Noise(Vec<u8>);

impl Noise {
    pub fn new(seed: u64) -> Self {
        let mut rng = Rng::new(seed ^ 0x006E_6F69_7365);
        let mut buf = Vec::with_capacity(NOISE_SPAN + MAX_PAYLOAD + 8);
        while buf.len() < NOISE_SPAN + MAX_PAYLOAD {
            buf.extend_from_slice(&rng.next_u64().to_le_bytes());
        }
        Noise(buf)
    }

    /// Offset of the payload of the object whose id starts with `id_head`.
    pub fn offset(id_head: u64) -> u32 {
        (id_head % NOISE_SPAN as u64) as u32
    }

    pub fn payload(&self, offset: u32, len: u32) -> &[u8] {
        &self.0[offset as usize..offset as usize + len as usize]
    }
}

/// Zipf(s) sampler over ranks `0..n` by inverse CDF.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// The four workloads. Names are what `--workload` takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    LocalHot,
    RemoteRead,
    WriteChurn,
    MixedZipf,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::LocalHot,
        Workload::RemoteRead,
        Workload::WriteChurn,
        Workload::MixedZipf,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::LocalHot => "local_hot",
            Workload::RemoteRead => "remote_read",
            Workload::WriteChurn => "write_churn",
            Workload::MixedZipf => "mixed_zipf",
        }
    }

    pub fn from_name(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Bytes of disaggregated memory per node.
    pub fn memory_per_node(self) -> usize {
        match self {
            Workload::LocalHot | Workload::RemoteRead => 64 << 20,
            Workload::WriteChurn => 32 << 20,
            Workload::MixedZipf => 16 << 20,
        }
    }

    /// Operations per `--seconds` second. A run is sized in operations,
    /// not stopped by a timer, so that model-clock metrics and every count
    /// are functions of the seed alone; these rates are what the host the
    /// benchmark was defined on sustains, so a run lasts about `--seconds`.
    pub fn ops_per_second(self) -> u64 {
        match self {
            Workload::LocalHot => 18_000,
            Workload::RemoteRead => 5_500,
            Workload::WriteChurn => 12_000,
            Workload::MixedZipf => 12_500,
        }
    }

    /// Sizes and owners of the objects stored before the timed phase, in
    /// catalog order. `owner` is a node index the id must ring-place on;
    /// `None` lets the ring place the natural name.
    pub fn catalog(self, rng: &mut Rng) -> Vec<CatalogEntry> {
        let entry = |len, owner| CatalogEntry { len, owner };
        match self {
            Workload::LocalHot => (0..2000)
                .map(|i| {
                    let len = match i {
                        0..1000 => 1_000,
                        1000..1800 => 10_000,
                        _ => 100_000,
                    };
                    entry(len, Some(0))
                })
                .collect(),
            Workload::RemoteRead => (0..1024)
                .map(|i| {
                    let len = if (i / 2) % 4 == 3 { 100_000 } else { 10_000 };
                    entry(len, Some(if i % 2 == 0 { 0 } else { 2 }))
                })
                .collect(),
            Workload::WriteChurn => (0..CHURN_WINDOW)
                .map(|_| entry(churn_len(rng), None))
                .collect(),
            // The structure is fixed and only names, order of access and
            // payloads follow the seed: every decade of ten objects holds
            // 5 × 1 kB, 4 × 10 kB and 1 × 100 kB, and 9 decades in 13 go
            // to node 0. That puts node 0 at 90 % of its memory — above
            // the 85 % spill watermark — and nodes 1 and 2 at 20 % each.
            Workload::MixedZipf => (0..1500)
                .map(|i| {
                    let len = match i % 10 {
                        0..5 => 1_000,
                        5..9 => 10_000,
                        _ => 100_000,
                    };
                    let owner = match (i / 10) % 13 {
                        0..9 => 0,
                        d => 1 + d % 2,
                    };
                    entry(len, Some(owner))
                })
                .collect(),
        }
    }

    /// Base name of catalog object `i`.
    pub fn catalog_name(self, i: usize) -> String {
        format!("{}/cat/{i}", self.name())
    }

    /// Base name of the `seq`-th object put during the timed phase, and
    /// the node index it must ring-place on (`None`: wherever the ring
    /// puts the natural name).
    pub fn fresh_name(self, seq: u32) -> (String, Option<usize>) {
        let owner = match self {
            Workload::LocalHot => Some(0),
            // Always forwarded: the client sits on node 1.
            Workload::RemoteRead => Some(if seq.is_multiple_of(2) { 0 } else { 2 }),
            Workload::WriteChurn | Workload::MixedZipf => None,
        };
        (format!("{}/put/{seq}", self.name()), owner)
    }
}

#[derive(Debug, Clone, Copy)]
pub struct CatalogEntry {
    pub len: u32,
    pub owner: Option<usize>,
}

/// Objects in one batched `get`, as in the paper's Fig. 6 procedure.
pub const BATCH: usize = 32;
/// `write_churn`'s live window, filled before the timed phase.
pub const CHURN_WINDOW: usize = 1500;
/// A fresh put is deleted this many puts later (`local_hot`,
/// `remote_read`, `mixed_zipf`).
const PUT_LAG: u32 = 64;
const PUT_LEN: u32 = 10_000;
/// `mixed_zipf` operator ticks, in operations.
const SPILL_EVERY: u64 = 512;
const REPLICATE_EVERY: u64 = 2048;

fn churn_len(rng: &mut Rng) -> u32 {
    match rng.below(100) {
        0..10 => 64,
        10..50 => 1_000,
        50..85 => 10_000,
        _ => 100_000,
    }
}

/// An object an operation names: a catalog entry, or the `seq`-th object
/// put during the timed phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Target {
    Catalog(u32),
    Fresh(u32),
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action {
    /// get → read all + verify → release.
    Get(Target),
    /// One `get` of [`BATCH`] distinct ids, each read, verified, released.
    Batch(Vec<Target>),
    /// put (create + write + seal + release) of fresh object `seq`.
    Put {
        seq: u32,
        len: u32,
    },
    Delete(Target),
    /// Operator maintenance on every store: `maybe_spill`, and when
    /// `replicate` also `replicate_hot` + `rebalance_once`.
    Tick {
        replicate: bool,
    },
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Op {
    /// Node index of the client that issues it.
    pub client: usize,
    pub action: Action,
}

/// One workload's operation stream.
pub struct Stream {
    workload: Workload,
    rng: Rng,
    issued: u64,
    next_seq: u32,
    /// An operation queued behind the one just returned (the delete that
    /// follows a put).
    queued: Option<Action>,
    /// `write_churn`: targets currently stored.
    live: Vec<Target>,
    /// `mixed_zipf`: popularity by catalog index (rank = index, so the
    /// hot set's sizes and owners are the catalog's fixed pattern).
    zipf: Option<Zipf>,
    catalog_len: u32,
}

impl Stream {
    pub fn new(workload: Workload, seed: u64) -> Self {
        // The catalog draws from the same seed first, so stream and
        // catalog stay in step however the catalog is built.
        let mut rng = Rng::new(seed);
        let catalog_len = workload.catalog(&mut rng).len() as u32;
        let zipf = (workload == Workload::MixedZipf).then(|| Zipf::new(catalog_len as usize, 1.0));
        let live = match workload {
            Workload::WriteChurn => (0..catalog_len).map(Target::Catalog).collect(),
            _ => Vec::new(),
        };
        Stream {
            workload,
            rng,
            issued: 0,
            next_seq: 0,
            queued: None,
            live,
            zipf,
            catalog_len,
        }
    }

    fn uniform(&mut self) -> Target {
        Target::Catalog(self.rng.below(u64::from(self.catalog_len)) as u32)
    }

    fn popular(&mut self) -> Target {
        let zipf = self.zipf.as_ref().expect("mixed_zipf stream");
        Target::Catalog(zipf.sample(&mut self.rng) as u32)
    }

    fn distinct(&mut self, mut pick: impl FnMut(&mut Self) -> Target) -> Vec<Target> {
        let mut out: Vec<Target> = Vec::with_capacity(BATCH);
        while out.len() < BATCH {
            let t = pick(self);
            if !out.contains(&t) {
                out.push(t);
            }
        }
        out
    }

    /// A fresh put, with the delete of the object put [`PUT_LAG`] puts
    /// earlier queued behind it.
    fn put_then_delete_lagging(&mut self) -> Action {
        let seq = self.next_seq;
        self.next_seq += 1;
        if seq >= PUT_LAG {
            self.queued = Some(Action::Delete(Target::Fresh(seq - PUT_LAG)));
        }
        Action::Put { seq, len: PUT_LEN }
    }

    fn next_action(&mut self) -> Action {
        if let Some(a) = self.queued.take() {
            return a;
        }
        match self.workload {
            Workload::LocalHot => match self.rng.below(100) {
                0..85 => Action::Get(self.uniform()),
                85..90 => Action::Batch(self.distinct(Self::uniform)),
                _ => self.put_then_delete_lagging(),
            },
            Workload::RemoteRead => match self.rng.below(100) {
                0..88 => Action::Get(self.uniform()),
                88..91 => Action::Batch(self.distinct(Self::uniform)),
                _ => self.put_then_delete_lagging(),
            },
            Workload::WriteChurn => {
                // Rounds of put + delete; one round in ten also reads
                // back a live object, one in eighty a batch of them.
                let live_pick = |s: &mut Self| s.live[s.rng.below(s.live.len() as u64) as usize];
                match self.rng.below(80) {
                    0..7 => Action::Get(live_pick(self)),
                    7 => Action::Batch(self.distinct(live_pick)),
                    _ => {
                        let seq = self.next_seq;
                        self.next_seq += 1;
                        let len = churn_len(&mut self.rng);
                        // A seeded-random victim, so free space fragments.
                        let slot = self.rng.below(self.live.len() as u64) as usize;
                        self.queued = Some(Action::Delete(self.live[slot]));
                        self.live[slot] = Target::Fresh(seq);
                        Action::Put { seq, len }
                    }
                }
            }
            Workload::MixedZipf => match self.rng.below(100) {
                0..88 => Action::Get(self.popular()),
                88..90 => Action::Batch(self.distinct(Self::popular)),
                _ => self.put_then_delete_lagging(),
            },
        }
    }

    pub fn next_op(&mut self) -> Op {
        self.issued += 1;
        let (client, action) = match self.workload {
            Workload::LocalHot => (0, self.next_action()),
            Workload::RemoteRead | Workload::WriteChurn => (1, self.next_action()),
            Workload::MixedZipf => {
                let client = (self.issued % 3) as usize;
                if self.issued.is_multiple_of(SPILL_EVERY) {
                    let replicate = self.issued.is_multiple_of(REPLICATE_EVERY);
                    (client, Action::Tick { replicate })
                } else {
                    (client, self.next_action())
                }
            }
        };
        Op { client, action }
    }
}

/// Operations a [`Digest`] covers: fewer than the shortest `--smoke` run
/// issues, so every run that gates on the digest has issued them all.
const DIGEST_OPS: usize = 1024;

/// FNV-1a over the first [`DIGEST_OPS`] operations fed to it: the
/// fingerprint that says two runs were given the same work. The driver
/// feeds it the operations it applies, in the order it applies them.
pub struct Digest {
    h: u64,
    ops: usize,
}

impl Default for Digest {
    fn default() -> Self {
        Digest {
            h: 0xcbf2_9ce4_8422_2325,
            ops: 0,
        }
    }
}

impl Digest {
    fn eat(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.h ^= u64::from(b);
            self.h = self.h.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn push(&mut self, op: &Op) {
        if self.ops == DIGEST_OPS {
            return;
        }
        self.ops += 1;
        let target = |t: &Target| match *t {
            Target::Catalog(i) => u64::from(i),
            Target::Fresh(s) => (1 << 32) | u64::from(s),
        };
        self.eat(op.client as u64);
        match &op.action {
            Action::Get(t) => {
                self.eat(1);
                self.eat(target(t));
            }
            Action::Batch(ts) => {
                self.eat(2);
                ts.iter().for_each(|t| self.eat(target(t)));
            }
            Action::Put { seq, len } => {
                self.eat(3);
                self.eat(u64::from(*seq));
                self.eat(u64::from(*len));
            }
            Action::Delete(t) => {
                self.eat(4);
                self.eat(target(t));
            }
            Action::Tick { replicate } => {
                self.eat(5);
                self.eat(u64::from(*replicate));
            }
        }
    }

    /// The fingerprint, once [`DIGEST_OPS`] operations went in; a shorter
    /// run has none to compare.
    pub fn value(&self) -> Option<u64> {
        (self.ops == DIGEST_OPS).then_some(self.h)
    }
}

/// The digest a run of `workload` at `seed` must arrive at.
#[cfg(test)]
pub fn digest(workload: Workload, seed: u64) -> u64 {
    let mut stream = Stream::new(workload, seed);
    let mut d = Digest::default();
    (0..DIGEST_OPS).for_each(|_| d.push(&stream.next_op()));
    d.value().expect("DIGEST_OPS operations")
}

/// Digests of the default seed's streams, recorded when the workloads
/// were defined. A run at that seed that arrives at another one did not
/// do the work the committed baselines were measured on.
pub const DEFAULT_SEED: u64 = 12;
pub fn recorded_digest(workload: Workload) -> u64 {
    match workload {
        Workload::LocalHot => 0x9ba9_334d_4f27_89c8,
        Workload::RemoteRead => 0x67cd_aa3c_6694_435c,
        Workload::WriteChurn => 0x7f5c_f6bd_a59f_95b5,
        Workload::MixedZipf => 0x002b_f94c_e36e_449a,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        for w in Workload::ALL {
            assert_eq!(digest(w, 7), digest(w, 7), "{}", w.name());
            assert_ne!(digest(w, 7), digest(w, 8), "{}", w.name());
        }
    }

    #[test]
    fn default_seed_streams_match_the_recorded_digests() {
        for w in Workload::ALL {
            assert_eq!(
                digest(w, DEFAULT_SEED),
                recorded_digest(w),
                "{}: the generator changed; baselines measured before are void",
                w.name()
            );
        }
    }

    #[test]
    fn batches_hold_distinct_targets() {
        for w in Workload::ALL {
            let mut s = Stream::new(w, 3);
            for _ in 0..20_000 {
                if let Action::Batch(ts) = s.next_op().action {
                    assert_eq!(ts.len(), BATCH);
                    for (i, t) in ts.iter().enumerate() {
                        assert!(!ts[..i].contains(t));
                    }
                }
            }
        }
    }

    #[test]
    fn churn_never_reads_or_deletes_a_dead_object() {
        let mut s = Stream::new(Workload::WriteChurn, 5);
        let mut live: std::collections::HashSet<Target> =
            (0..CHURN_WINDOW as u32).map(Target::Catalog).collect();
        for _ in 0..50_000 {
            match s.next_op().action {
                Action::Get(t) => assert!(live.contains(&t)),
                Action::Batch(ts) => assert!(ts.iter().all(|t| live.contains(t))),
                Action::Put { seq, .. } => assert!(live.insert(Target::Fresh(seq))),
                Action::Delete(t) => assert!(live.remove(&t)),
                Action::Tick { .. } => unreachable!(),
            }
            // The put's victim leaves the generator's window at once, so
            // between a put and its delete the model is one ahead.
            assert!(live.len() == CHURN_WINDOW || live.len() == CHURN_WINDOW + 1);
        }
    }

    #[test]
    fn mixed_zipf_places_node0_above_the_spill_watermark() {
        let w = Workload::MixedZipf;
        let cat = w.catalog(&mut Rng::new(9));
        let bytes = |n: usize| -> u64 {
            cat.iter()
                .filter(|e| e.owner == Some(n))
                .map(|e| u64::from(e.len))
                .sum()
        };
        let mem = w.memory_per_node() as u64;
        assert!(bytes(0) * 100 / mem >= 88, "{}", bytes(0));
        for n in [1, 2] {
            assert!((15..=25).contains(&(bytes(n) * 100 / mem)), "{}", bytes(n));
        }
    }

    #[test]
    fn zipf_head_is_heavy() {
        let z = Zipf::new(1500, 1.0);
        let mut rng = Rng::new(1);
        let head = (0..10_000).filter(|_| z.sample(&mut rng) < 15).count();
        // H(15)/H(1500) ≈ 0.42
        assert!((3700..4700).contains(&head), "{head}");
    }

    #[test]
    fn payloads_differ_between_ids_and_seeds() {
        let a = Noise::new(1);
        let b = Noise::new(2);
        assert_ne!(a.payload(0, 64), b.payload(0, 64));
        assert_ne!(a.payload(0, 64), a.payload(8, 64));
        assert_eq!(
            a.payload(Noise::offset(u64::MAX), MAX_PAYLOAD as u32).len(),
            MAX_PAYLOAD
        );
    }
}
