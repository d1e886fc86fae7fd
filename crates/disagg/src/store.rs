//! The memory-disaggregated distributed Plasma store.
//!
//! [`DisaggStore`] wraps a local [`StoreCore`] (whose objects already live
//! in fabric-donated memory) and interconnects it with peer stores over
//! RPC, implementing the paper's two new constraints:
//!
//! * **Identifier uniqueness** — every id has a deterministic rendezvous
//!   owner on the [`Ring`]. A put, or a builder's seal, of an id another
//!   node owns is one point-to-point `CREATE_AT` naming the copy written
//!   here, which the owner adopts over the fabric; uniqueness is an
//!   owner-local check. A peerless store is its own owner; a store with
//!   peers but no membership table cannot place an object and fails the
//!   create with `PeerUnavailable`.
//! * **Distributed object-usage sharing** — a pinning remote lookup takes a
//!   store-side reference attributed to the requesting node, and `release`
//!   feeds back over RPC, so owners never evict objects remote clients are
//!   reading (the future-work feature the paper defers).
//!
//! `get` control flow mirrors §IV-A2: look locally first; on a miss,
//! resolve the id's ring owner locally and ask *that* peer with one
//! point-to-point `GET_MANY`; the object *data* is then read by the
//! client directly through the disaggregated fabric — never copied over
//! the network. A `GET_MANY` broadcast remains as the get-side fallback:
//! when no membership is installed, when the computed owner does not
//! hold the id (an epoch change left it on its previous owner), or
//! while membership epochs disagree mid-change. Ring routing outcomes
//! are surfaced as the `disagg.ring.hit` / `disagg.ring.fallback`
//! counters. Remote lookups are batched: every id a single peer must
//! answer for travels in one `GET_MANY` round trip (the ids-per-RPC
//! distribution is the `disagg.get_many.batch_size` histogram) — and
//! overlapped: the peers one phase of
//! a lookup asks (owners, then the broadcast) are all sent to before any
//! answer is waited for, from the calling thread, so a phase costs its
//! slowest round trip, not their sum. An owner answers an id it spilled
//! with the holder's descriptor (`Moved`), so a spilled object costs
//! the same one lookup.
//!
//! This file holds the store's state and its client-facing surface (the
//! [`ObjectStore`] impl, the delegation dump and reconcile sweep); the
//! rest is cut along the seams the [`crate::delegation`] ledger leaves:
//! `routing` finds the node that answers for an id, `movement` moves and
//! retires copies, `peer` talks to one peer or several at once, and
//! `service` is the interconnect dispatch. A store's peers are node ids,
//! and its client to one is built at its first call to it.

mod movement;
mod peer;
#[cfg(test)]
mod release_faults;
mod routing;
mod service;

use crate::delegation::{DelegationRecord, Kind, Ledger, Phase, ReconcileReport, Side};
use crate::elastic::{HeatMap, RETRY_AFTER_MS};
use crate::health::{Pace, PeerState, RetryPolicy};
use crate::proto::{method, Message, ReconcileReq, ReconcileResp};
use crate::ring::Ring;
use obs::{Counter, Gauge, Histogram, MetricsSnapshot, Registry};
use parking_lot::{Mutex, RwLock};
use plasma::{
    GetSlot, ObjectId, ObjectInfo, ObjectLocation, ObjectStore, PlasmaError, ReleaseGroups,
    StoreCore, StoreStats,
};
use rpclite::{CatchUp, RpcClient, Service};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::Receiver;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};
use tfsim::{Clock, NodeId};

/// How long a blocked `get` waits locally between remote lookup rounds,
/// so objects sealed on a peer *after* the previous lookup are discovered
/// promptly.
const REMOTE_POLL: Duration = Duration::from_millis(50);

/// This store's peers: the nodes they run on, in node order, and the
/// record of each one called so far, its client built by `dial` at its
/// first call.
struct Peers {
    nodes: Arc<[NodeId]>,
    dial: Box<dyn Fn(NodeId) -> RpcClient + Send + Sync>,
    records: RwLock<BTreeMap<NodeId, Arc<peer::Peer>>>,
}

/// Interconnect-layer counters.
#[derive(Debug, Default)]
pub struct DisaggCounters {
    /// Lookup RPCs issued to peers.
    pub lookup_rpcs: AtomicU64,
    /// Objects resolved via remote lookup.
    pub remote_found: AtomicU64,
    /// Releases forwarded to owning peers.
    pub releases_forwarded: AtomicU64,
}

/// Snapshot of [`DisaggCounters`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DisaggStats {
    /// Lookup RPCs issued to peers (GET_MANY batches count once each).
    pub lookup_rpcs: u64,
    /// Objects resolved via remote lookup.
    pub remote_found: u64,
    /// Releases forwarded to owning peers.
    pub releases_forwarded: u64,
    /// Ids resolved point-to-point at their computed ring owner.
    pub ring_hits: u64,
    /// Ids that fell back from ring routing to the lookup broadcast.
    pub ring_fallbacks: u64,
}

/// The per-call deadline of [`InterconnectConfig::default`], and the one
/// retries and probes pace from when `call_deadline` is `None`.
pub const DEFAULT_CALL_DEADLINE: Duration = Duration::from_secs(2);

/// Fault-tolerance knobs for the store interconnect, grouped so cluster
/// harnesses can pass them through unchanged. Every other pace is a
/// fraction of the deadline `d` (`DEFAULT_CALL_DEADLINE` when `None`): a
/// retry backs off from `d/50` up to `d/5`, and a `Down` peer is probed
/// after `d/10`, the window doubling up to `d`.
#[derive(Debug, Clone)]
pub struct InterconnectConfig {
    /// Per-call deadline (`None` = wait forever, the pre-fault-tolerance
    /// behavior).
    pub call_deadline: Option<Duration>,
    /// Total attempts per call that fails in a retryable way, including
    /// the first (1 = no retries).
    pub max_attempts: u32,
}

impl Default for InterconnectConfig {
    fn default() -> Self {
        InterconnectConfig {
            call_deadline: Some(DEFAULT_CALL_DEADLINE),
            max_attempts: 3,
        }
    }
}

/// Configuration of the distributed layer.
#[derive(Debug, Clone, Default)]
pub struct DisaggConfig {
    /// Interconnect fault tolerance (deadlines, retries, peer health).
    pub interconnect: InterconnectConfig,
    /// Most in-flight (created, not yet sealed) objects admitted before
    /// `create` sheds load with `Overloaded`. `0` (the default) disables
    /// admission control.
    pub max_inflight_creates: u64,
}

/// Pre-resolved [`obs`] handles for the distributed layer, registered in
/// the wrapped core's registry so one snapshot covers every layer of the
/// node. Hot paths record through these `Arc`s — atomics only, no
/// registry lookup.
struct DisaggMetrics {
    /// `get` latency for ids served by the local core on the first pass.
    get_local_hit: Arc<Histogram>,
    /// `get` latency for ids resolved by a remote lookup round.
    get_remote_hit: Arc<Histogram>,
    /// `get` latency for ids still unresolved when the call returned.
    get_miss: Arc<Histogram>,
    /// End-to-end `create` latency (ring routing + allocate at the owner).
    create: Arc<Histogram>,
    /// Latency of one remote-lookup round (owners, then broadcast).
    lookup_fanout: Arc<Histogram>,
    /// Ids carried per GET_MANY RPC issued to a peer — the batching
    /// factor of the multi-get hot path (1 = degenerated to unary).
    get_many_batch: Arc<Histogram>,
    /// Ids resolved point-to-point at their computed ring owner.
    ring_hit: Arc<Counter>,
    /// Ids the ring could not settle (owner miss, owner unreachable, or
    /// self-owned but absent) that fell back to the lookup broadcast.
    ring_fallback: Arc<Counter>,
    /// Interconnect call retries (attempts after the first).
    peer_retries: Arc<Counter>,
    /// Parked RELEASEs awaiting an unreachable peer (current backlog:
    /// the ledger's closing pins).
    pending_releases: Arc<Gauge>,
    /// Spills acknowledged by a lender (delegations created).
    spills_completed: Arc<Counter>,
    /// Spill attempts a lender refused (its own pressure) or that failed.
    spills_refused: Arc<Counter>,
    /// Heat-driven delegations toward an object's dominant reader.
    rebalances: Arc<Counter>,
    /// `Moved` redirects served from this owner's recorded leases: the
    /// holder's descriptor handed to a reader.
    redirects_served: Arc<Counter>,
    /// Holders' descriptors this node read by (requester side, and an
    /// owner's own get of an id it lent).
    redirects_followed: Arc<Counter>,
    /// Creates shed with `Overloaded` by admission control.
    overload_rejected: Arc<Counter>,
    /// Bytes currently delegated to lender peers (the node's spilled
    /// footprint; complements `plasma.used_bytes`/`plasma.free_bytes`).
    spilled_bytes: Arc<Gauge>,
    /// Objects currently lent out (`out` leases).
    lent_objects: Arc<Gauge>,
    /// Objects currently held for other owners (`held` leases).
    borrowed_objects: Arc<Gauge>,
    /// Replicas confirmed adopted by a holder (owner side).
    replicas_created: Arc<Counter>,
    /// Replica offers a holder refused (or that failed en route).
    replicas_refused: Arc<Counter>,
    /// Replicas dropped by an owner-initiated invalidation (holder side).
    replicas_invalidated: Arc<Counter>,
    /// Local `get` slots served by a held replica instead of a remote
    /// round trip — the replication win, countable.
    replica_local_hits: Arc<Counter>,
    /// Objects of ours currently replicated elsewhere (ids with `out`
    /// replicas).
    replicas_outstanding: Arc<Gauge>,
    /// Replicas currently held here for other owners (`held` replicas).
    replicas_held: Arc<Gauge>,
    /// Payload bytes this node read out of other nodes' mapped segments —
    /// the data plane's whole traffic, accounted on the reader.
    mapped_payload_bytes: Arc<Counter>,
}

impl DisaggMetrics {
    fn new(registry: &Registry) -> DisaggMetrics {
        DisaggMetrics {
            get_local_hit: registry.histogram("disagg.get.local_hit.latency_ns"),
            get_remote_hit: registry.histogram("disagg.get.remote_hit.latency_ns"),
            get_miss: registry.histogram("disagg.get.miss.latency_ns"),
            create: registry.histogram("disagg.create.latency_ns"),
            lookup_fanout: registry.histogram("disagg.lookup.fanout.latency_ns"),
            get_many_batch: registry.histogram("disagg.get_many.batch_size"),
            ring_hit: registry.counter("disagg.ring.hit"),
            ring_fallback: registry.counter("disagg.ring.fallback"),
            peer_retries: registry.counter("disagg.peer.retries"),
            pending_releases: registry.gauge("disagg.pending_releases"),
            spills_completed: registry.counter("disagg.elastic.spills"),
            spills_refused: registry.counter("disagg.elastic.spills_refused"),
            rebalances: registry.counter("disagg.elastic.rebalances"),
            redirects_served: registry.counter("disagg.elastic.redirects_served"),
            redirects_followed: registry.counter("disagg.elastic.redirects_followed"),
            overload_rejected: registry.counter("disagg.elastic.overload_rejected"),
            spilled_bytes: registry.gauge("plasma.spilled_bytes"),
            lent_objects: registry.gauge("disagg.elastic.lent_objects"),
            borrowed_objects: registry.gauge("disagg.elastic.borrowed_objects"),
            replicas_created: registry.counter("disagg.replica.created"),
            replicas_refused: registry.counter("disagg.replica.refused"),
            replicas_invalidated: registry.counter("disagg.replica.invalidated"),
            replica_local_hits: registry.counter("disagg.replica.local_hits"),
            replicas_outstanding: registry.gauge("disagg.replica.outstanding"),
            replicas_held: registry.gauge("disagg.replica.held"),
            mapped_payload_bytes: registry.counter("disagg.fabric.mapped_payload_bytes"),
        }
    }
}

struct Inner {
    core: StoreCore,
    node: NodeId,
    /// Unset until [`DisaggStore::connect_peers`]: a peerless store.
    peers: OnceLock<Peers>,
    /// The rendezvous placement ring (`None` until a membership table is
    /// installed: peerless and hand-built stores).
    ring: RwLock<Option<Ring>>,
    /// Every piece of per-object state this node keeps for or at a peer:
    /// pins, leases, replicas — both sides, one lock.
    ledger: Ledger,
    /// The pins each batch `get` took remotely, returned together.
    release_groups: Mutex<ReleaseGroups>,
    /// The reader serving this store's interconnect, when one is known:
    /// an owner catches it up before it counts its pins.
    reader: OnceLock<CatchUp>,
    /// Owner-side remote-hit attribution driving rebalancing.
    heat: HeatMap,
    max_inflight_creates: u64,
    counters: DisaggCounters,
    metrics: DisaggMetrics,
    /// The pace every peer's failure detector keeps.
    pace: Pace,
    retry: RetryPolicy,
    call_deadline: Option<Duration>,
    /// A verb whose every call panics in this store's interconnect
    /// service (0, no verb's id, for none), so a test can kill one node
    /// of a cluster with a panicking leaf.
    #[cfg(test)]
    panics_on: std::sync::atomic::AtomicU32,
    /// The cluster clock; retry backoff is charged here so virtual-time
    /// tests stay deterministic and instant.
    clock: Clock,
}

/// The distributed store. Cheap to clone (shared handle).
#[derive(Clone)]
pub struct DisaggStore {
    inner: Arc<Inner>,
}

impl DisaggStore {
    /// Wrap `core` with the distributed layer, with no peers yet.
    pub fn new(core: StoreCore, config: DisaggConfig) -> Self {
        let node = core.node();
        let clock = core.fabric().clock().clone();
        let metrics = DisaggMetrics::new(core.registry());
        let ic = &config.interconnect;
        let pace = ic.call_deadline.unwrap_or(DEFAULT_CALL_DEADLINE);
        DisaggStore {
            inner: Arc::new(Inner {
                pace: Pace::new(pace, clock.clone(), core.registry()),
                metrics,
                retry: RetryPolicy::new(ic.max_attempts, pace, 0x9e37_79b9 ^ u64::from(node.0)),
                call_deadline: ic.call_deadline,
                clock,
                core,
                node,
                peers: OnceLock::new(),
                ring: RwLock::new(None),
                ledger: Ledger::new(),
                release_groups: Mutex::new(ReleaseGroups::default()),
                reader: OnceLock::new(),
                heat: HeatMap::new(),
                max_inflight_creates: config.max_inflight_creates,
                counters: DisaggCounters::default(),
                #[cfg(test)]
                panics_on: Default::default(),
            }),
        }
    }

    /// The underlying local store.
    pub fn core(&self) -> &StoreCore {
        &self.inner.core
    }

    /// The ledger itself, so a test can plant an entry no exchange makes.
    #[cfg(test)]
    pub(crate) fn ledger(&self) -> &Ledger {
        &self.inner.ledger
    }

    /// Make every later call of `verb` to this store's interconnect
    /// service panic.
    #[cfg(test)]
    pub(crate) fn panic_on(&self, verb: u32) {
        self.inner.panics_on.store(verb, Ordering::Relaxed);
    }

    /// The fabric node this store runs on.
    pub fn node(&self) -> NodeId {
        self.inner.node
    }

    /// Name the reader that serves this store's interconnect (set once;
    /// [`crate::Cluster`] does it at launch). A remote `RELEASE` is
    /// answered before its owner handles it; with the reader known,
    /// [`DisaggStore::remote_pin_count`] counts after every frame that
    /// reached it was served.
    pub(crate) fn served_by(&self, reader: CatchUp) {
        let _ = self.inner.reader.set(reader);
    }

    /// Connect this store, once, to the peer stores on `nodes`. `dial`
    /// builds the client to one at the first call to it, under the lock
    /// of the table that keeps it, so it should only construct it
    /// ([`RpcClient::with_connector`] dials at its own first call).
    pub fn connect_peers(
        &self,
        nodes: impl IntoIterator<Item = NodeId>,
        dial: impl Fn(NodeId) -> RpcClient + Send + Sync + 'static,
    ) {
        let nodes: BTreeSet<NodeId> = nodes.into_iter().collect();
        let peers = Peers {
            nodes: nodes.into_iter().collect(),
            dial: Box::new(dial),
            records: RwLock::default(),
        };
        let first = self.inner.peers.set(peers);
        assert!(first.is_ok(), "a store's peers are connected once");
    }

    /// Number of connected peers.
    pub fn peer_count(&self) -> usize {
        self.inner.peers.get().map_or(0, |peers| peers.nodes.len())
    }

    /// The interconnect service to expose over RPC for other stores.
    pub fn interconnect_service(&self) -> Arc<dyn Service> {
        Arc::new(service::Interconnect {
            store: self.clone(),
        })
    }

    /// Interconnect counters.
    pub fn disagg_stats(&self) -> DisaggStats {
        let c = &self.inner.counters;
        DisaggStats {
            lookup_rpcs: c.lookup_rpcs.load(Ordering::Relaxed),
            remote_found: c.remote_found.load(Ordering::Relaxed),
            releases_forwarded: c.releases_forwarded.load(Ordering::Relaxed),
            ring_hits: self.inner.metrics.ring_hit.get(),
            ring_fallbacks: self.inner.metrics.ring_fallback.get(),
        }
    }

    /// Point-in-time snapshot of every metric this node records. The
    /// plasma core, the distributed layer, and (when the harness wires
    /// them) the interconnect RPC clients all share the core's registry,
    /// so one snapshot covers the whole node.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.inner.core.registry().snapshot()
    }

    /// Every delegation this node takes part in, both sides: what peers
    /// hold on its authority and what it holds on theirs. The answer,
    /// from a running node, to "who holds a copy of this object, and
    /// under what authority?" — and what [`crate::Cluster::audit`]
    /// cross-checks between nodes.
    pub fn delegations(&self) -> Vec<DelegationRecord> {
        self.inner.ledger.records()
    }

    fn live_count(&self, side: Side, kinds: &[Kind]) -> u64 {
        let of_interest = |r: &DelegationRecord| {
            r.side == side && r.phase == Phase::Live && kinds.contains(&r.kind)
        };
        let records = self.delegations().into_iter();
        records.filter(of_interest).map(|r| r.count).sum()
    }

    /// References this store holds on behalf of remote nodes: pins taken
    /// for remote readers. Counted once the reader serving
    /// this store (a [`crate::Cluster`]'s names itself at launch) has
    /// served every frame already sent to it, a `RELEASE` nobody waited
    /// on included.
    pub fn remote_pin_count(&self) -> u64 {
        if let Some(reader) = self.inner.reader.get() {
            reader.wait();
        }
        self.live_count(Side::Out, &[Kind::Pin])
    }

    /// Pins this node holds on *other* nodes' objects: every successful
    /// remote lookup slot adds one, every release removes one. Zero at
    /// quiesce when all buffers are released — [`crate::Cluster::audit`]
    /// asserts exactly that.
    pub fn held_remote_pins(&self) -> u64 {
        self.live_count(Side::Held, &[Kind::Pin])
    }

    /// Batch gets whose remotely taken pins are not all released yet
    /// (see [`ObjectStore::release_many`]). Zero once the workload has
    /// released everything it got, and after
    /// [`DisaggStore::drain_remote_pins`]; [`crate::Cluster::audit`]
    /// asserts it, since an open group would defer a later release of
    /// one of its ids for ever.
    pub fn open_release_groups(&self) -> usize {
        self.inner.release_groups.lock().len()
    }

    /// Quiesce-time pin drain: release every pin this node still
    /// ledgers at a peer. Workload paths deliberately absorb some pins
    /// into the ledger without a paired buffer (e.g. a batch lookup that
    /// returns the same object in several slots pins once per slot but
    /// hands out one buffer); those are correct during the run and
    /// garbage once it ends — an undrained pin keeps the owner's copy
    /// unevictable and undeletable forever. Returns the number of pins
    /// released. Errors on individual releases are ignored: the
    /// follow-up [`DisaggStore::reconcile`] trims whatever an
    /// unreachable owner missed.
    ///
    /// Every open release group is closed first: the releases it
    /// deferred, whose callers were answered already, go out with the
    /// pins nobody released, all in one `return_pins`.
    ///
    /// Like `reconcile`, only sound after the workload has drained — a
    /// ledgered pin may pair with a buffer still in flight.
    pub fn drain_remote_pins(&self) -> u64 {
        let mut members = self.inner.release_groups.lock().close_all();
        let deferred = members.len();
        let mut held: BTreeMap<ObjectId, u64> = BTreeMap::new();
        for pin in self.delegations() {
            if pin.side == Side::Held && pin.kind == Kind::Pin && pin.phase == Phase::Live {
                *held.entry(pin.id).or_default() += pin.count;
            }
        }
        // A deferred release's pin is still live in the ledger.
        for id in &members {
            if let Some(n) = held.get_mut(id) {
                *n = n.saturating_sub(1);
            }
        }
        let unreleased = held.into_iter().flat_map(|(id, n)| (0..n).map(move |_| id));
        members.extend(unreleased);
        let (mut at, mut released) = (0, 0);
        self.return_pins(&members, false, |outcome| {
            released += u64::from(at >= deferred && outcome.is_ok());
            at += 1;
        });
        released
    }

    /// Quiesce-time reconciliation, holder-initiated: report to every
    /// peer exactly what this node still holds on its authority — pins,
    /// leased copies, replicas — and obey the answer. The owner trims
    /// what went unreported (a pin orphaned by a lost `GET_MANY`
    /// response, a lease or replica entry no copy backs) and judges each claim with
    /// [`crate::delegation::owner_verdict`]; claims it declares void are
    /// dropped here, copy and all. One RPC per peer heals both halves of
    /// every exchange a lost request or response cut short.
    ///
    /// Every peer is visited: one that cannot be reached is named in the
    /// report and the sweep moves on. Only sound while no traffic
    /// involving this node is in flight — a response still on the wire
    /// carries state not yet in the ledger, and reconciling under load
    /// would trim it. Call it after the workload has drained. The
    /// releases this node still has in flight are settled first
    /// ([`DisaggStore::settle_releases`]). A parked one is not claimed,
    /// so its owner trims the pin, landed or not: it is done once the
    /// owner answers, and parked again if it does not.
    pub fn reconcile(&self) -> ReconcileReport {
        self.settle_releases();
        let inner = &self.inner;
        let mut report = ReconcileReport::default();
        let sealed = |id| inner.core.peek(id).is_some();
        for &peer in self.peer_nodes().iter() {
            // Parked releases are not claimed: the owner trims their pins,
            // whether or not they landed, so they are done once it answers.
            let parked = self.clear_parked(peer);
            let req = ReconcileReq {
                claims: inner.ledger.claims_on(peer, sealed),
            };
            let answered = self.peer_call(peer, method::RECONCILE, &req);
            let Some(resp) = answered.ok().and_then(|b| ReconcileResp::decode(b).ok()) else {
                for id in parked {
                    inner.ledger.park(id, peer);
                }
                report.unreachable.push(peer);
                continue;
            };
            self.sync_parked_gauge();
            report.trimmed += resp.trimmed;
            for (id, kind) in resp.drop {
                let entry = inner.ledger.remove(Side::Held, id, kind, Some(peer));
                if entry.is_none() {
                    continue;
                }
                report.dropped[kind] += 1;
                if kind.is_copy() {
                    let _ = inner.core.delete_deferred(id);
                }
                if kind == Kind::Lease {
                    // The lease's reference: the hidden copy goes with it.
                    let _ = inner.core.release(id);
                }
            }
        }
        self.sync_delegation_gauges();
        report
    }

    /// `RECONCILE` handler: the owner's half — settle the ledger against
    /// the claims of the reporter, `from`, then make the local objects
    /// match.
    fn settle_for(&self, from: NodeId, req: ReconcileReq) -> ReconcileResp {
        let core = &self.inner.core;
        let sealed_size = |id| core.peek(id).map(|loc| loc.total_size());
        let ledger = &self.inner.ledger;
        let settled = ledger.settle(from, &req.claims, sealed_size);
        for (id, pins) in settled.release {
            for _ in 0..pins {
                // The object may have been deleted or evicted since the
                // orphan pin was taken; nothing left to release.
                let _ = core.release(id);
            }
        }
        self.sync_delegation_gauges();
        ReconcileResp {
            drop: settled.drop,
            trimmed: settled.trimmed,
        }
    }

    /// `RELEASE` handler: drop one pin held for the caller, `from`, per
    /// listed id, and answer per id whether one was recorded. `false`
    /// means none was — to the caller, proof that the entry it released
    /// against was a phantom. A pin on this node's own copy gives its
    /// core reference back; a pin on a lent id lived in the ledger only.
    fn release_for(
        &self,
        from: NodeId,
        ids: impl Iterator<Item = ObjectId>,
    ) -> Result<Vec<bool>, PlasmaError> {
        let ledger = &self.inner.ledger;
        let release = |id: ObjectId| {
            let pinned = ledger.unpin(Side::Out, id, Some(from), |_| true);
            if pinned.is_some_and(|pin| pin.at.is_none()) {
                self.inner.core.release(id)?;
            }
            Ok(pinned.is_some())
        };
        ids.map(release).collect()
    }

    /// Mirror the ledger's leases and replicas into the gauges peers and
    /// operators read (`disagg.elastic.*`, `disagg.replica.*`,
    /// `plasma.spilled_bytes`).
    fn sync_delegation_gauges(&self) {
        let (mut lent, mut lent_bytes, mut borrowed, mut held) = (0i64, 0i64, 0i64, 0i64);
        let mut replicated: Vec<ObjectId> = Vec::new();
        for r in self.delegations() {
            match (r.side, r.kind) {
                (Side::Out, Kind::Lease) => {
                    lent += 1;
                    lent_bytes += r.bytes as i64;
                }
                (Side::Held, Kind::Lease) => borrowed += 1,
                (Side::Out, Kind::Replica) => replicated.push(r.id),
                (Side::Held, Kind::Replica) => held += 1,
                _ => {}
            }
        }
        replicated.sort_unstable();
        replicated.dedup();
        let m = &self.inner.metrics;
        m.spilled_bytes.set(lent_bytes);
        m.lent_objects.set(lent);
        m.borrowed_objects.set(borrowed);
        m.replicas_outstanding.set(replicated.len() as i64);
        m.replicas_held.set(held);
    }

    /// Admission control: refuse a builder's create when the node already
    /// has `max_inflight_creates` objects created but not yet sealed. A
    /// put, and an owner's adoption, seal within their own call and are
    /// not asked. The operation is not started, so the typed rejection is
    /// always safe to retry after the suggested backoff.
    fn check_admission(&self) -> Result<(), PlasmaError> {
        let max = self.inner.max_inflight_creates;
        if max == 0 {
            return Ok(());
        }
        let st = self.inner.core.stats();
        if st.objects.saturating_sub(st.sealed_objects) >= max {
            self.inner.metrics.overload_rejected.inc();
            return Err(PlasmaError::Overloaded {
                retry_after_ms: RETRY_AFTER_MS,
            });
        }
        Ok(())
    }

    /// Local memory occupancy in parts-per-million of capacity — the
    /// pressure signal driving [`DisaggStore::maybe_spill`].
    pub fn memory_pressure_ppm(&self) -> u64 {
        self.occupancy_ppm(0)
    }

    /// What [`DisaggStore::memory_pressure_ppm`] would read with `extra`
    /// more bytes allocated. A store with no capacity is full.
    fn occupancy_ppm(&self, extra: u64) -> u64 {
        let st = self.inner.core.stats();
        let used = u128::from(st.allocated_bytes) + u128::from(extra);
        match u128::from(st.capacity) {
            0 => u64::MAX,
            capacity => (used * 1_000_000 / capacity) as u64,
        }
    }

    /// The check every create and put makes here first: an id that
    /// exists here, or that this node lent out or replicated, is taken —
    /// its bytes live at a holder even if the copy here went, and
    /// creating it again would fork the id against them.
    fn check_new(&self, id: ObjectId) -> Result<(), PlasmaError> {
        if self.inner.core.exists_any_state(id) || self.inner.ledger.has_out_copy(id) {
            return Err(PlasmaError::ObjectExists(id));
        }
        Ok(())
    }

    /// Uninstrumented body of [`ObjectStore::get_into`]: fills `out`,
    /// one slot per id, waiting until `deadline` at most. The local
    /// passes fill [`GetSlot::PinnedHere`] (a pin in this node's table,
    /// a replica held here included), the remote pass
    /// [`GetSlot::Pinned`] (a pin at a peer or in the ledger), so the
    /// wrapper can split its latency recording local-hit / remote-hit /
    /// miss, and a client can post a local pin's release.
    fn get_inner(
        &self,
        ids: &[ObjectId],
        deadline: Instant,
        out: &mut Vec<GetSlot>,
    ) -> Result<(), PlasmaError> {
        out.clear();
        out.resize(ids.len(), GetSlot::Empty);
        let filled = |out: &[GetSlot]| out.iter().all(GetSlot::is_filled);
        loop {
            // Pass 1: local, non-blocking (pins found objects). Leased
            // copies are excluded — their owner hands them out, and the
            // remote pass below asks it.
            for (slot, id) in out.iter_mut().zip(ids) {
                if slot.is_filled() {
                    continue;
                }
                let delegated = self.inner.ledger.held_copy(*id).map(|(kind, _)| kind);
                if delegated != Some(Kind::Lease) {
                    let local = self.inner.core.get_local(*id);
                    *slot = local.map_or(GetSlot::Empty, GetSlot::PinnedHere);
                    // A held replica serving a local get is the whole
                    // point of replication: a remote round trip the hot
                    // reader no longer pays. (Safe to serve without
                    // consulting the owner — invalidation runs *before*
                    // the owner's delete, so a live replica implies the
                    // object still exists.)
                    if slot.is_filled() && delegated == Some(Kind::Replica) {
                        self.inner.metrics.replica_local_hits.inc();
                    }
                }
            }
            if filled(out) {
                return Ok(());
            }

            // Pass 2: remote lookup for misses (degrades gracefully when
            // peers are unreachable — their objects just stay missing).
            self.remote_lookup_pass(ids, out);
            if filled(out) {
                return Ok(());
            }

            // Pass 3: wait briefly for local seals, then re-poll. The wait
            // is bounded so objects sealed *remotely* after our lookup are
            // discovered by the next remote pass.
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Ok(());
            }
            let remaining: Vec<ObjectId> = ids
                .iter()
                .zip(&*out)
                .filter(|(_, o)| o.is_empty())
                .map(|(id, _)| *id)
                .collect();
            let wait = if self.peer_count() > 0 {
                left.min(REMOTE_POLL)
            } else {
                left
            };
            let waited = self.inner.core.get_wait(&remaining, wait);
            let mut it = waited.into_iter();
            for (slot, id) in out.iter_mut().zip(ids) {
                if slot.is_empty() {
                    let got = it.next().flatten();
                    let leased = matches!(self.inner.ledger.held_copy(*id), Some((Kind::Lease, _)));
                    if !leased {
                        *slot = got.map_or(GetSlot::Empty, GetSlot::PinnedHere);
                    } else if got.is_some() {
                        // The wait pinned a hidden leased copy —
                        // release it and leave the slot for the remote
                        // pass (the owner decides whether it's served).
                        let _ = self.inner.core.release(*id);
                    }
                }
            }
            if filled(out) || Instant::now() >= deadline {
                return Ok(());
            }
        }
    }

    /// Return pins this store took at peers, one per id. Each pin leaves
    /// the ledger, and every owner is sent one `RELEASE` listing its ids
    /// that nobody waits on ([`DisaggStore::send_releases`]): the caller
    /// is answered at once, `Ok` for every remote pin, and no virtual
    /// time is charged. The answers are taken after the next exchange
    /// with each owner. A pin whose release fails is parked there and
    /// flushed after the exchange after — otherwise a pin would be lost
    /// while the owner still counts it, leaving the object unevictable
    /// forever. An owner's `false` flag (no pin ledgered for us) says the
    /// entry was a phantom, and the id comes back here, `phantom`, to go
    /// to its next candidate: another owner's entry or, once the ledger
    /// has none, [`DisaggStore::release_here`]. Hands `outcome` each
    /// id's outcome, in order: only a release here can fail.
    fn return_pins(
        &self,
        ids: &[ObjectId],
        phantom: bool,
        mut outcome: impl FnMut(Result<(), PlasmaError>),
    ) {
        let ledger = &self.inner.ledger;
        let alive = |node| self.peer_state(node) != PeerState::Down;
        // Each remote pin's owner, in id order; then each owner's ids in
        // that order, the owners in node order.
        let mut owners: Vec<(NodeId, ObjectId)> = Vec::new();
        for &id in ids {
            outcome(match ledger.unpin(Side::Held, id, None, alive) {
                Some(pin) => {
                    owners.push((pin.peer, id));
                    Ok(())
                }
                None => self.release_here(id, phantom),
            });
        }
        owners.sort_by_key(|&(owner, _)| owner);
        let asks = owners.chunk_by(|a, b| a.0 == b.0);
        let asks = asks.map(|run| (run[0].0, run.iter().map(|&(_, id)| id).collect()));
        self.send_releases(asks, false);
    }

    /// Return a pin no peer holds for us. A get of an id this node lent
    /// away pinned the lease in its own ledger; anything else is a local
    /// pin — the creator's reference on the hidden copy a forwarded seal
    /// left here among them.
    /// On the phantom chain the pin this release pairs with may already
    /// be gone (healed by an earlier duplicated delivery): a missing one
    /// is success. A copy held here on lease has one reference, the
    /// lease's, which no release of a get may take: no get pins it here.
    fn release_here(&self, id: ObjectId, phantom: bool) -> Result<(), PlasmaError> {
        let ledger = &self.inner.ledger;
        let me = self.inner.node;
        if ledger.unpin(Side::Out, id, Some(me), |_| true).is_some() {
            return Ok(());
        }
        let leased = matches!(ledger.held_copy(id), Some((Kind::Lease, _)));
        let released = match leased {
            true => Err(PlasmaError::NotReferenced(id)),
            false => self.inner.core.release(id),
        };
        match released {
            Err(_) if phantom => Ok(()),
            released => released,
        }
    }
}

/// Releases a pinned remote object when dropped, unless released
/// explicitly. Keeps error paths from leaking owner-side pins.
struct RemotePinGuard<'a> {
    store: &'a DisaggStore,
    id: ObjectId,
    armed: bool,
}

impl<'a> RemotePinGuard<'a> {
    fn new(store: &'a DisaggStore, id: ObjectId) -> Self {
        RemotePinGuard {
            store,
            id,
            armed: true,
        }
    }

    /// Release the pin now, surfacing any error.
    fn release(mut self) -> Result<(), PlasmaError> {
        self.armed = false;
        ObjectStore::release(self.store, self.id)
    }
}

impl Drop for RemotePinGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            let _ = ObjectStore::release(self.store, self.id);
        }
    }
}

impl std::fmt::Debug for DisaggStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DisaggStore")
            .field("node", &self.inner.node)
            .field("peers", &self.peer_count())
            .finish()
    }
}

impl ObjectStore for DisaggStore {
    /// A builder's create is local, whoever owns the id: the creator
    /// writes the object into this node's memory, and its seal offers it
    /// to the owner. So an id that exists elsewhere fails at the seal.
    fn create(
        &self,
        id: ObjectId,
        data_size: u64,
        metadata_size: u64,
    ) -> Result<ObjectLocation, PlasmaError> {
        let started = Instant::now();
        self.check_new(id)?;
        self.placement(id)?;
        self.check_admission()?;
        let loc = self.inner.core.create(id, data_size, metadata_size)?;
        self.refuse_lent(id)?;
        self.inner.metrics.create.record_duration(started.elapsed());
        Ok(loc)
    }

    /// The object is written here first. An id this node owns is sealed
    /// here; any other is adopted by its owner, and the copy here goes
    /// once the owner is done with it.
    fn put(
        &self,
        id: ObjectId,
        data: &[u8],
        metadata: &[u8],
    ) -> Result<ObjectLocation, PlasmaError> {
        let started = Instant::now();
        self.check_new(id)?;
        let copy = self.inner.core.create_filled(id, data, metadata)?;
        let sealed = match self.offer_to_owner(&copy) {
            Ok(None) => self.seal_filled(id)?,
            Ok(Some(sealed)) => {
                let _ = self.inner.core.abort(id);
                sealed
            }
            Err(e) => {
                let _ = ObjectStore::abort(self, id);
                return Err(e);
            }
        };
        self.inner.metrics.create.record_duration(started.elapsed());
        Ok(sealed)
    }

    /// An object another node owns is sealed there, adopted from the copy
    /// written here. The creator's
    /// reference stays on that copy, now hidden, and its release frees
    /// it. A seal the owner refuses leaves the copy for the creator to
    /// abort.
    fn seal(&self, id: ObjectId) -> Result<ObjectLocation, PlasmaError> {
        let core = &self.inner.core;
        let Some(copy) = core.peek_unsealed(id) else {
            return core.seal(id);
        };
        match self.offer_to_owner(&copy)? {
            Some(sealed) => {
                let _ = core.hide(id);
                Ok(sealed)
            }
            None => core.seal(id),
        }
    }

    fn get_into(
        &self,
        ids: &[ObjectId],
        timeout: Duration,
        out: &mut Vec<GetSlot>,
    ) -> Result<(), PlasmaError> {
        let started = Instant::now();
        let result = self.get_inner(ids, started + timeout, out);
        // The pins this get took remotely go back together, if it took
        // two or more: one `RELEASE` per holder when the last of them is
        // released.
        let remote = || {
            let slots = ids.iter().zip(&*out);
            slots.filter(|(_, slot)| matches!(slot, GetSlot::Pinned(_)))
        };
        if result.is_ok() && remote().nth(1).is_some() {
            let members = remote().map(|(id, _)| *id).collect();
            self.inner.release_groups.lock().open(members);
        }
        if result.is_ok() {
            // One sample per requested id, classified by how (whether) it
            // resolved. The whole-call elapsed time is attributed to each
            // id: that is the latency a caller of a 1-id get observed.
            let elapsed = started.elapsed();
            let m = &self.inner.metrics;
            for slot in out.iter() {
                let hist = match slot {
                    GetSlot::Pinned(_) => &m.get_remote_hit,
                    GetSlot::PinnedHere(_) => &m.get_local_hit,
                    GetSlot::Empty => &m.get_miss,
                };
                hist.record_duration(elapsed);
            }
        }
        result
    }

    fn release(&self, id: ObjectId) -> Result<(), PlasmaError> {
        self.release_many(&[id])
    }

    /// Every id goes through this store's release groups: a member that
    /// is not its group's last is answered `Ok` at once, its pin still
    /// live in the ledger; the last returns the whole group's pins. What
    /// is due then goes back in one `return_pins` round. Returns the last
    /// id's outcome, if it was due: a remote pin's is `Ok`, whatever its
    /// `RELEASE` meets.
    fn release_many(&self, ids: &[ObjectId]) -> Result<(), PlasmaError> {
        let mut members: Vec<ObjectId> = Vec::new();
        let mut last_due = false;
        let due = {
            let mut groups = self.inner.release_groups.lock();
            if groups.is_empty() {
                // No group waits for anything: each id is due, alone.
                last_due = true;
                ids
            } else {
                for (n, &id) in ids.iter().enumerate() {
                    if let Some(earlier) = groups.release(id) {
                        members.extend(earlier);
                        members.push(id);
                        last_due = n + 1 == ids.len();
                    }
                }
                &members[..]
            }
        };
        let mut last = Ok(());
        self.return_pins(due, false, |outcome| last = outcome);
        match last_due {
            true => last,
            false => Ok(()),
        }
    }

    fn delete(&self, id: ObjectId) -> Result<(), PlasmaError> {
        self.delete_routed(id, false).map(|_| ())
    }

    fn delete_deferred(&self, id: ObjectId) -> Result<bool, PlasmaError> {
        self.delete_routed(id, true)
    }

    /// A copy an unanswered `CREATE_AT` named is kept until no request
    /// naming it can still be served: its abort is answered `Ok`, and the
    /// copy goes then.
    fn abort(&self, id: ObjectId) -> Result<(), PlasmaError> {
        match self.keeps_copy(id) {
            true => Ok(()),
            false => self.inner.core.abort(id),
        }
    }

    fn contains(&self, id: ObjectId) -> Result<bool, PlasmaError> {
        self.contains_anywhere(id)
    }

    fn list(&self) -> Result<Vec<ObjectInfo>, PlasmaError> {
        Ok(self.inner.core.list())
    }

    fn stats(&self) -> Result<StoreStats, PlasmaError> {
        Ok(self.inner.core.stats())
    }

    fn evict(&self, bytes: u64) -> Result<u64, PlasmaError> {
        Ok(self.inner.core.evict(bytes))
    }

    fn subscribe(&self) -> Receiver<ObjectLocation> {
        self.inner.core.subscribe()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{CallHeader, DelegateReq, GetManyReq, IdsReq, ListResp, ReplyHeader};
    use bytes::Bytes;
    use plasma::{StoreConfig, StoreCore};
    use rpclite::StatusCode;

    /// The dispatch and the verb table agree: every id in `VERBS` has a
    /// handler — a body without a call header is `InvalidArgument`, a
    /// header alone may be rejected by the verb, but neither is ever
    /// `Unimplemented` — and the retired ids, id 0 and anything past the
    /// last one are answered `Unimplemented` before the frame is read,
    /// so a retired verb cannot be served.
    #[test]
    fn every_listed_verb_is_handled_and_retired_ids_are_not() {
        let fabric = tfsim::Fabric::virtual_thymesisflow();
        let node = fabric.register_node();
        let core = StoreCore::new(&fabric, node, StoreConfig::new("solo", 1 << 20)).unwrap();
        let service = DisaggStore::new(core, DisaggConfig::default()).interconnect_service();
        let header = CallHeader { from: NodeId(9) };
        let code = |id: u32, request: Bytes| service.call(id, request).err().map(|s| s.code);
        for (id, name) in method::VERBS {
            // One byte: shorter than any call header.
            let bare = code(*id, Bytes::from_static(b"n"));
            assert_eq!(bare, Some(StatusCode::InvalidArgument), "{name} ({id})");
            let framed = code(*id, header.frame(&[]));
            assert_ne!(framed, Some(StatusCode::Unimplemented), "{name} ({id})");
        }
        let last = method::VERBS
            .iter()
            .chain(method::RETIRED)
            .map(|(id, _)| *id);
        let unassigned = [(0, "id 0"), (last.max().unwrap() + 1, "past the last id")];
        for (id, was) in method::RETIRED.iter().chain(&unassigned) {
            for request in [Bytes::new(), header.frame(&[])] {
                let answer = code(*id, request);
                assert_eq!(answer, Some(StatusCode::Unimplemented), "{was} ({id})");
            }
        }
        // A header alone is a whole request for the verbs that take none,
        // and the answer comes back under a reply header.
        let listed = service.call(method::LIST, header.frame(&[])).unwrap();
        let (reply, body) = ReplyHeader::unframe(listed).unwrap();
        assert_eq!(reply.epoch, 0);
        assert!(ListResp::decode(body).unwrap().entries.is_empty());
    }

    /// An adoption offering a location whose sizes overflow when summed —
    /// a spill's, a replication's or a forwarded create's — is
    /// `InvalidArgument` before any handler sums them: no panic (debug
    /// overflow check) and no wrapped size slipping past the headroom
    /// gate (release), and nothing is ledgered or stored.
    #[test]
    fn a_delegation_whose_sizes_overflow_is_refused_and_ledgers_nothing() {
        let fabric = tfsim::Fabric::virtual_thymesisflow();
        let node = fabric.register_node();
        let core = StoreCore::new(&fabric, node, StoreConfig::new("solo", 1 << 20)).unwrap();
        let store = DisaggStore::new(core, DisaggConfig::default());
        let service = store.interconnect_service();
        let location = ObjectLocation {
            id: ObjectId::from_name("overflow"),
            seg: store.core().seg_key(),
            offset: 0,
            data_size: u64::MAX,
            metadata_size: 1,
        };
        let header = CallHeader { from: NodeId(9) };
        let request = header.frame(&DelegateReq { location }.encode());
        for verb in [method::SPILL_AT, method::REPLICATE_AT, method::CREATE_AT] {
            let answer = service.call(verb, request.clone()).err().map(|s| s.code);
            assert_eq!(answer, Some(StatusCode::InvalidArgument), "verb {verb}");
        }
        assert!(store.delegations().is_empty());
        assert!(!store.core().exists_any_state(location.id));
        assert_eq!(store.core().stats().creates, 0);
    }

    /// A `CREATE_AT` whose body is not one descriptor of its sizes — a
    /// byte short or long, or sizes whose sum overflows — is
    /// `InvalidArgument` where the request is decoded: nothing is read,
    /// created or ledgered on the owner.
    #[test]
    fn a_create_at_whose_payload_is_not_its_sizes_is_refused_and_stores_nothing() {
        let fabric = tfsim::Fabric::virtual_thymesisflow();
        let node = fabric.register_node();
        let core = StoreCore::new(&fabric, node, StoreConfig::new("solo", 1 << 20)).unwrap();
        let store = DisaggStore::new(core, DisaggConfig::default());
        let service = store.interconnect_service();
        let header = CallHeader { from: NodeId(9) };
        let id = ObjectId::from_name("create_at/bad-payload");
        let descriptor = |data_size, metadata_size| {
            let location = ObjectLocation {
                id,
                seg: store.core().seg_key(),
                offset: 0,
                data_size,
                metadata_size,
            };
            DelegateReq { location }.encode()
        };
        let whole = descriptor(5, 2);
        let short = whole.slice(..whole.len() - 1);
        let long = Bytes::from([&whole[..], &[0]].concat());
        let bodies = [
            short,
            long,
            descriptor(u64::MAX, 8),
            descriptor(8, u64::MAX),
        ];
        for body in bodies {
            let request = header.frame(&body);
            let answer = service
                .call(method::CREATE_AT, request)
                .err()
                .map(|s| s.code);
            assert_eq!(answer, Some(StatusCode::InvalidArgument), "{body:?}");
        }
        assert!(!store.core().exists_any_state(id));
        assert_eq!(store.core().stats().creates, 0);
        assert!(store.delegations().is_empty());
    }

    /// An owner counts each remote read of an id it serves, and forgets
    /// them with the id: remote gets and releases of distinct ids, then
    /// their deletes — now, and deferred behind a reader — leave its
    /// heat map empty, with no operator tick to drain it.
    #[test]
    fn a_delete_clears_the_heat_of_its_id() {
        let fabric = tfsim::Fabric::virtual_thymesisflow();
        let node = fabric.register_node();
        let core = StoreCore::new(&fabric, node, StoreConfig::new("owner", 1 << 20)).unwrap();
        let store = DisaggStore::new(core, DisaggConfig::default());
        let service = store.interconnect_service();
        let header = CallHeader { from: NodeId(9) };
        let ids: Vec<ObjectId> = (0..8)
            .map(|k| ObjectId::from_name(&format!("heat/{k}")))
            .collect();
        for &id in &ids {
            plasma::ObjectStore::put(&store, id, b"hot", &[]).unwrap();
        }
        let call = |verb, body: Bytes| service.call(verb, header.frame(&body)).unwrap();
        let (now, deferred) = ids.split_at(4);
        call(method::GET_MANY, GetManyReq { ids: ids.clone() }.encode());
        call(method::RELEASE, IdsReq { ids: now.to_vec() }.encode());
        assert_eq!(store.inner.heat.len(), ids.len());
        for &id in now {
            plasma::ObjectStore::delete(&store, id).unwrap();
        }
        for &id in deferred {
            assert!(!plasma::ObjectStore::delete_deferred(&store, id).unwrap());
        }
        call(
            method::RELEASE,
            IdsReq {
                ids: deferred.to_vec(),
            }
            .encode(),
        );
        assert!(store.inner.heat.is_empty());
        assert!(ids.iter().all(|&id| !store.core().exists_any_state(id)));
    }
}
