//! Issuing an operation stream at one of three nested public entry points
//! and timing every call on two clocks.
//!
//! * **E0** — `PlasmaClient` over IPC: what a user of the system sees.
//! * **E1** — the `ObjectStore` trait on the client node's `DisaggStore`:
//!   skips `ipc` and the plasma client / protocol / server.
//! * **E2** — `StoreCore` on the object's ring owner: skips `disagg` too.
//!
//! The cluster runs on virtual time, so around each call the *model*
//! clock advances by what the paper's testbed would have spent waiting
//! (netsim RPC delay, tfsim fabric cost, modeled client IPC) while
//! `Instant` advances by what this repository's code costs on a CPU
//! (*sw*). The two are disjoint; their sum estimates the real latency.

use crate::bed::{Bed, Obj, Objects, Rig, GET_TIMEOUT, NODES};
use crate::gen::{Action, Digest, Noise, Op, Stream, Target};
use crate::stats::percentile;
use plasma::{ObjectId, ObjectStore, PlasmaError};
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::mpsc;
use std::time::Instant;
use tfsim::{MappedView, Mapping, SegKey};

/// Where operations enter the product.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    E0,
    E1,
    E2,
}

/// The four calls an operation stream is made of, at one entry point.
/// `node` is the node index of the caller (E0, E1) or the owner (E2).
trait Entry {
    fn get(&self, node: usize, ids: &[ObjectId]) -> Result<Vec<Option<MappedView>>, PlasmaError>;
    fn release(&self, node: usize, id: ObjectId) -> Result<(), PlasmaError>;
    fn put(&self, node: usize, id: ObjectId, data: &[u8]) -> Result<(), PlasmaError>;
    fn delete(&self, node: usize, id: ObjectId) -> Result<(), PlasmaError>;
}

struct ViaClient<'a>(&'a Rig);

impl Entry for ViaClient<'_> {
    fn get(&self, node: usize, ids: &[ObjectId]) -> Result<Vec<Option<MappedView>>, PlasmaError> {
        let bufs = self.0.clients[node].get(ids, GET_TIMEOUT)?;
        Ok(bufs
            .into_iter()
            .map(|b| b.map(|b| b.data().clone()))
            .collect())
    }
    fn release(&self, node: usize, id: ObjectId) -> Result<(), PlasmaError> {
        self.0.clients[node].release(id)
    }
    fn put(&self, node: usize, id: ObjectId, data: &[u8]) -> Result<(), PlasmaError> {
        self.0.clients[node].put(id, data, &[]).map(|_| ())
    }
    fn delete(&self, node: usize, id: ObjectId) -> Result<(), PlasmaError> {
        self.0.clients[node].delete(id)
    }
}

/// E1 and E2 share everything but the store they call: both receive
/// `ObjectLocation`s and map the segment themselves, as the client does.
struct ViaStore<'a> {
    rig: &'a Rig,
    core: bool,
    mappings: RefCell<HashMap<(usize, SegKey), Mapping>>,
}

impl ViaStore<'_> {
    fn store(&self, node: usize) -> &dyn ObjectStore {
        let store = self.rig.cluster.store(node);
        if self.core {
            store.core()
        } else {
            store
        }
    }

    fn view(&self, node: usize, loc: &plasma::ObjectLocation) -> Result<MappedView, PlasmaError> {
        let mut maps = self.mappings.borrow_mut();
        let mapping = match maps.get(&(node, loc.seg)) {
            Some(m) => m.clone(),
            None => {
                let cluster = &self.rig.cluster;
                let m = cluster.fabric().attach(cluster.node_id(node), loc.seg)?;
                maps.insert((node, loc.seg), m.clone());
                m
            }
        };
        Ok(mapping.view(loc.offset, loc.data_size)?)
    }
}

impl Entry for ViaStore<'_> {
    fn get(&self, node: usize, ids: &[ObjectId]) -> Result<Vec<Option<MappedView>>, PlasmaError> {
        let locs = self.store(node).get(ids, GET_TIMEOUT)?;
        locs.iter()
            .map(|l| l.as_ref().map(|l| self.view(node, l)).transpose())
            .collect()
    }
    fn release(&self, node: usize, id: ObjectId) -> Result<(), PlasmaError> {
        self.store(node).release(id)
    }
    fn put(&self, node: usize, id: ObjectId, data: &[u8]) -> Result<(), PlasmaError> {
        let store = self.store(node);
        let loc = store.create(id, data.len() as u64, 0)?;
        self.view(node, &loc)?.write_at(0, data)?;
        store.seal(id)?;
        store.release(id)
    }
    fn delete(&self, node: usize, id: ObjectId) -> Result<(), PlasmaError> {
        self.store(node).delete(id)
    }
}

/// The kinds of operation, as series are grouped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Get,
    Batch,
    Put,
    Delete,
    Tick,
}

const KINDS: usize = 5;

/// A call is *far* when its model time shows an interconnect round trip:
/// the gRPC-calibrated link samples below 0.9 ms less than once in 10⁵
/// calls, and no local path models above ≈ 0.2 ms. Classifying by what
/// the call cost, not by who owns the id, keeps replica hits and `Moved`
/// redirects in the class they behaved like. The traced run checks the
/// link against this threshold.
pub const FAR_MODEL_NS: u64 = 400_000;

/// Near and far together.
pub const BOTH: [bool; 2] = [false, true];

/// Both clocks' advance across one call.
#[derive(Debug, Clone, Copy, Default)]
pub struct Delta {
    pub sw_ns: u64,
    pub model_ns: u64,
}

/// Timings of one (kind, near/far) group.
#[derive(Debug, Default)]
pub struct Group {
    pub n: u64,
    pub model_sum_ns: u64,
    /// sw time of the main call, summed.
    pub call_sw_sum_ns: u64,
    /// Wall time of the whole operation, bench bookkeeping and payload
    /// verification included, summed.
    pub cycle_wall_sum_ns: u64,
    /// Per-call samples, kept for single gets and puts only.
    pub model_ns: Vec<u32>,
    pub sw_ns: Vec<u32>,
}

/// One span of the trace: a call the bench made into a layer.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub op: u32,
    pub name: &'static str,
    /// Index of the enclosing span in the trace, if any.
    pub parent: Option<u32>,
    pub wall_ns: (u64, u64),
    pub model_ns: (u64, u64),
}

/// Everything one pass over an operation stream measured.
#[derive(Default)]
pub struct Series {
    groups: [[Group; 2]; KINDS],
    pub ops: u64,
    pub failed: u64,
    pub read_bytes: u64,
    pub read_model_ns: u64,
    pub wall_ns: u64,
    pub model_elapsed_ns: u64,
    /// Reference hand-offs sampled alongside, and what they took.
    pub reference_round_trips: u64,
    pub reference_sum_ns: u64,
    /// Digest of the operations applied; `None` if the pass was too short.
    pub op_digest: Option<u64>,
    /// Lookup RPCs counted across far single gets (traced E0 only).
    pub far_get_lookup_rpcs: u64,
    pub spans: Vec<Span>,
}

impl Series {
    pub fn group(&self, kind: Kind, far: bool) -> &Group {
        &self.groups[kind as usize][usize::from(far)]
    }

    pub fn count(&self, kind: Kind) -> u64 {
        self.group(kind, false).n + self.group(kind, true).n
    }

    pub fn model_mean_ns(&self, kind: Kind) -> Option<f64> {
        let n = self.count(kind);
        let sum = self.group(kind, false).model_sum_ns + self.group(kind, true).model_sum_ns;
        (n > 0).then(|| sum as f64 / n as f64)
    }

    /// Quantile of `kind`'s model time over the given classes, ns.
    pub fn model_quantile_ns(&self, kind: Kind, classes: &[bool], q: f64) -> Option<f64> {
        let mut all: Vec<u32> = Vec::new();
        for &far in classes {
            all.extend_from_slice(&self.group(kind, far).model_ns);
        }
        all.sort_unstable();
        percentile(&all, q)
    }

    /// Mean sw time of `kind`'s main call over the given classes, ns.
    pub fn call_sw_mean_ns(&self, kind: Kind, classes: &[bool]) -> Option<f64> {
        let groups = classes.iter().map(|&far| self.group(kind, far));
        let (n, sum) = groups.fold((0, 0), |(n, sum), g| (n + g.n, sum + g.call_sw_sum_ns));
        (n > 0).then(|| sum as f64 / n as f64)
    }

    /// Wall time spent inside operations (reference samples excluded), ns.
    pub fn busy_ns(&self) -> u64 {
        let groups = self.groups.iter().flatten();
        groups.map(|g| g.cycle_wall_sum_ns).sum()
    }

    /// Mean cost of one reference round trip in this pass, ns.
    pub fn reference_ns(&self) -> Option<f64> {
        (self.reference_round_trips > 0)
            .then(|| self.reference_sum_ns as f64 / self.reference_round_trips as f64)
    }

    /// `ns` of this pass's wall clock, in reference round trips.
    pub fn per_reference(&self, ns: Option<f64>) -> Option<f64> {
        Some(ns? / self.reference_ns()?)
    }

    /// Operations completed per reference round trip's worth of busy time.
    pub fn ops_per_reference(&self) -> Option<f64> {
        match self.busy_ns() {
            0 => None,
            busy => Some(self.ops as f64 * self.reference_ns()? / busy as f64),
        }
    }
}

/// Operations between samples of the reference hand-off, round trips per
/// sample, and the bytes each side reads before it passes the turn on.
const REFERENCE_EVERY: u64 = 512;
const REFERENCE_ROUND_TRIPS: u64 = 16;
const REFERENCE_BYTES: usize = 64 << 10;

/// The work one side of the reference hand-off does with its turn.
fn read_through(buf: &[u8]) {
    let sum: u64 = std::hint::black_box(buf)
        .iter()
        .map(|&b| u64::from(b))
        .sum();
    std::hint::black_box(sum);
}

fn saturate(ns: u64) -> u32 {
    u32::try_from(ns).unwrap_or(u32::MAX)
}

struct Run<'a> {
    rig: &'a Rig,
    objects: &'a mut Objects,
    noise: &'a Noise,
    level: Level,
    trace: bool,
    epoch: Instant,
    series: Series,
    errors_shown: u32,
}

impl Run<'_> {
    fn model_now(&self) -> u64 {
        self.rig.cluster.clock().now().as_nanos() as u64
    }

    /// Run `f`, measure it on both clocks, and in a traced run record it
    /// as a span under `parent`.
    fn timed<T>(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        f: impl FnOnce(&Rig) -> T,
    ) -> (T, Delta) {
        let m0 = self.model_now();
        let w0 = Instant::now();
        let out = f(self.rig);
        let sw_ns = w0.elapsed().as_nanos() as u64;
        let m1 = self.model_now();
        if self.trace {
            let start = (w0 - self.epoch).as_nanos() as u64;
            self.series.spans.push(Span {
                op: self.series.ops as u32,
                name,
                parent,
                wall_ns: (start, start + sw_ns),
                model_ns: (m0, m1),
            });
        }
        (
            out,
            Delta {
                sw_ns,
                model_ns: m1 - m0,
            },
        )
    }

    /// Open the span that encloses one operation's calls.
    fn open(&mut self, name: &'static str) -> Option<u32> {
        if !self.trace {
            return None;
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        let m = self.model_now();
        self.series.spans.push(Span {
            op: self.series.ops as u32,
            name,
            parent: None,
            wall_ns: (now, now),
            model_ns: (m, m),
        });
        Some(self.series.spans.len() as u32 - 1)
    }

    fn close(&mut self, span: Option<u32>) {
        if let Some(i) = span {
            let now = self.epoch.elapsed().as_nanos() as u64;
            let m = self.model_now();
            let s = &mut self.series.spans[i as usize];
            s.wall_ns.1 = now;
            s.model_ns.1 = m;
        }
    }

    fn fail(&mut self, what: String) {
        self.series.failed += 1;
        if self.errors_shown < 8 {
            self.errors_shown += 1;
            eprintln!("e2e: op {} failed: {what}", self.series.ops);
        }
    }

    fn record(&mut self, kind: Kind, call: Delta, cycle_start: Instant) {
        let far = call.model_ns >= FAR_MODEL_NS;
        let keep = matches!(kind, Kind::Get | Kind::Put);
        let cycle = cycle_start.elapsed().as_nanos() as u64;
        let g = &mut self.series.groups[kind as usize][usize::from(far)];
        g.n += 1;
        g.model_sum_ns += call.model_ns;
        g.call_sw_sum_ns += call.sw_ns;
        g.cycle_wall_sum_ns += cycle;
        if keep {
            g.model_ns.push(saturate(call.model_ns));
            g.sw_ns.push(saturate(call.sw_ns));
        }
    }

    /// The caller's node at E0/E1; at E2 the object's owner, whose core
    /// is the only one that can serve it.
    fn node(&self, client: usize, obj: &Obj) -> usize {
        match self.level {
            Level::E2 => obj.owner,
            _ => client,
        }
    }

    fn lookup(&mut self, t: Target) -> Option<Obj> {
        let obj = self.objects.get(t);
        if obj.is_none() {
            self.fail(format!("{t:?} is not stored (an earlier put failed)"));
        }
        obj
    }

    /// get → read all + verify → release, for one id or a batch.
    fn get_cycle(&mut self, entry: &dyn Entry, client: usize, targets: &[Target]) {
        let start = Instant::now();
        let kind = if targets.len() == 1 {
            Kind::Get
        } else {
            Kind::Batch
        };
        let mut objs = Vec::with_capacity(targets.len());
        for &t in targets {
            match self.lookup(t) {
                Some(o) => objs.push(o),
                None => return,
            }
        }
        let node = self.node(client, &objs[0]);
        let ids: Vec<ObjectId> = objs.iter().map(|o| o.id).collect();
        let span = self.open(if kind == Kind::Get {
            "op.get"
        } else {
            "op.batch_get"
        });
        let lookup_rpcs = |rig: &Rig| rig.cluster.store(node).disagg_stats().lookup_rpcs;
        let rpcs_before = if self.trace { lookup_rpcs(self.rig) } else { 0 };
        let (got, call) = self.timed("get", span, |_| entry.get(node, &ids));
        if self.trace && kind == Kind::Get && call.model_ns >= FAR_MODEL_NS {
            self.series.far_get_lookup_rpcs += lookup_rpcs(self.rig) - rpcs_before;
        }
        let views = match got {
            Ok(v) => v,
            Err(e) => {
                self.close(span);
                return self.fail(format!("get: {e}"));
            }
        };
        let mut ok = true;
        for (obj, view) in objs.iter().zip(views) {
            let Some(view) = view else {
                ok = false;
                self.fail(format!(
                    "get: {} not available within {GET_TIMEOUT:?}",
                    obj.id
                ));
                continue;
            };
            let (data, read) = self.timed("read", span, |_| view.read_all());
            self.series.read_model_ns += read.model_ns;
            match data {
                Ok(d) if d == self.noise.payload(obj.noise_off, obj.len) => {
                    self.series.read_bytes += d.len() as u64;
                }
                Ok(d) => {
                    ok = false;
                    self.fail(format!("{}: read {} wrong bytes", obj.id, d.len()));
                }
                Err(e) => {
                    ok = false;
                    self.fail(format!("read: {e}"));
                }
            }
            let (released, _) = self.timed("release", span, |_| entry.release(node, obj.id));
            if let Err(e) = released {
                ok = false;
                self.fail(format!("release: {e}"));
            }
        }
        self.close(span);
        if ok {
            self.record(kind, call, start);
        }
    }

    fn put(&mut self, entry: &dyn Entry, client: usize, seq: u32, len: u32) {
        let start = Instant::now();
        let obj = self.objects.new_fresh(&self.rig.cluster, seq, len);
        let node = self.node(client, &obj);
        let data = self.noise.payload(obj.noise_off, obj.len);
        let span = self.open("op.put");
        let (res, call) = self.timed("put", span, |_| entry.put(node, obj.id, data));
        self.close(span);
        match res {
            Ok(()) => self.record(Kind::Put, call, start),
            Err(e) => {
                self.objects.forget(Target::Fresh(seq));
                self.fail(format!("put: {e}"));
            }
        }
    }

    fn delete(&mut self, entry: &dyn Entry, client: usize, t: Target) {
        let start = Instant::now();
        let Some(obj) = self.lookup(t) else { return };
        let node = self.node(client, &obj);
        let span = self.open("op.delete");
        let (res, call) = self.timed("delete", span, |_| entry.delete(node, obj.id));
        self.close(span);
        match res {
            Ok(()) => {
                self.objects.forget(t);
                self.record(Kind::Delete, call, start);
            }
            Err(e) => self.fail(format!("delete: {e}")),
        }
    }

    /// Operator maintenance on every store. Its time counts in
    /// throughput, not in any per-call latency.
    fn tick(&mut self, replicate: bool) {
        let start = Instant::now();
        let span = self.open("op.tick");
        let (res, call) = self.timed("maintenance", span, |rig| {
            for i in 0..NODES {
                let s = rig.cluster.store(i);
                s.maybe_spill()?;
                if replicate {
                    s.replicate_hot()?;
                    s.rebalance_once()?;
                }
            }
            Ok::<(), PlasmaError>(())
        });
        self.close(span);
        match res {
            Ok(()) => self.record(Kind::Tick, call, start),
            Err(e) => self.fail(format!("tick: {e}")),
        }
    }

    fn apply(&mut self, entry: &dyn Entry, op: &Op) {
        match &op.action {
            Action::Get(t) => self.get_cycle(entry, op.client, &[*t]),
            // A core serves only its own objects and runs no operator
            // passes: batches and ticks have no E2 form.
            Action::Batch(_) | Action::Tick { .. } if self.level == Level::E2 => {}
            Action::Batch(ts) => self.get_cycle(entry, op.client, ts),
            Action::Put { seq, len } => self.put(entry, op.client, *seq, *len),
            Action::Delete(t) => self.delete(entry, op.client, *t),
            Action::Tick { replicate } => self.tick(*replicate),
        }
    }
}

/// Issue the first `ops` operations of `bed.workload`'s stream for `seed`
/// at `level`.
///
/// Alongside, every [`REFERENCE_EVERY`] operations, it times a thread
/// hand-off that owes nothing to the product: the load thread reads
/// through [`REFERENCE_BYTES`] of its own, wakes a parked thread over
/// `std::sync::mpsc`, and that thread does the same back. The operations
/// a client issues are made of such turns (client ↔ server thread, RPC
/// caller ↔ reader thread, each touching tables and payloads that went
/// cold meanwhile), and on a shared host their cost drifts by tens of
/// percent for tens of seconds at a time (README, "Noise"). It is the
/// yardstick the sw-clock end-to-end metrics are counted in. A bare
/// ping-pong follows that drift only half as well.
pub fn run(bed: &mut Bed, noise: &Noise, seed: u64, level: Level, trace: bool, ops: u64) -> Series {
    let mut stream = Stream::new(bed.workload, seed);
    let rig = &bed.rig;
    let entry: Box<dyn Entry> = match level {
        Level::E0 => Box::new(ViaClient(rig)),
        Level::E1 | Level::E2 => Box::new(ViaStore {
            rig,
            core: level == Level::E2,
            mappings: RefCell::new(HashMap::new()),
        }),
    };
    let mut digest = Digest::default();
    let epoch = Instant::now();
    let mut run = Run {
        rig,
        objects: &mut bed.objects,
        noise,
        level,
        trace,
        epoch,
        series: Series::default(),
        errors_shown: 0,
    };
    let model_start = run.model_now();
    std::thread::scope(|scope| {
        let (to_peer, peer_inbox) = mpsc::channel::<()>();
        let (peer_outbox, from_peer) = mpsc::channel::<()>();
        // Answers until `to_peer` is dropped at the end of this closure.
        scope.spawn(move || {
            let buf = vec![1u8; REFERENCE_BYTES];
            while peer_inbox.recv().is_ok() {
                read_through(&buf);
                if peer_outbox.send(()).is_err() {
                    break;
                }
            }
        });
        let buf = vec![2u8; REFERENCE_BYTES];
        while run.series.ops < ops {
            if run.series.ops.is_multiple_of(REFERENCE_EVERY) {
                let t = Instant::now();
                for _ in 0..REFERENCE_ROUND_TRIPS {
                    read_through(&buf);
                    to_peer.send(()).expect("reference thread is alive");
                    from_peer.recv().expect("reference thread answers");
                }
                run.series.reference_sum_ns += t.elapsed().as_nanos() as u64;
                run.series.reference_round_trips += REFERENCE_ROUND_TRIPS;
            }
            let op = stream.next_op();
            digest.push(&op);
            run.apply(entry.as_ref(), &op);
            run.series.ops += 1;
        }
    });
    run.series.wall_ns = epoch.elapsed().as_nanos() as u64;
    run.series.model_elapsed_ns = run.model_now() - model_start;
    run.series.op_digest = digest.value();
    run.series
}
