//! The memory-disaggregated distributed Plasma store.
//!
//! [`DisaggStore`] wraps a local [`StoreCore`] (whose objects already live
//! in fabric-donated memory) and interconnects it with peer stores over
//! RPC, implementing the paper's two new constraints:
//!
//! * **Identifier uniqueness** — every id has a deterministic rendezvous
//!   owner on the [`Ring`], and `create` routes to it point-to-point
//!   (`CREATE_AT`); uniqueness is an owner-local check. A peerless store
//!   is its own owner; a store with peers but no membership table cannot
//!   place an object and fails the create with `PeerUnavailable`.
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
//! a lookup asks (owners, then the holders their `Moved` answers name,
//! then the broadcast) are all sent to before any answer is waited for,
//! from the calling thread, so a phase costs its slowest round trip,
//! not their sum.
//!
//! This file holds the store's state and its client-facing surface (the
//! [`ObjectStore`] impl, the delegation dump and reconcile sweep); the
//! rest is cut along the seams the [`crate::delegation`] ledger leaves:
//! `routing` finds the node that answers for an id, `movement` moves and
//! retires copies, `peer` talks to one peer or several at once, and
//! `service` is the interconnect dispatch.

mod movement;
mod peer;
mod routing;
mod service;

use crate::delegation::{DelegationRecord, Kind, Ledger, Phase, ReconcileReport, Side};
use crate::elastic::{HeatMap, RETRY_AFTER_MS};
use crate::health::{HealthConfig, PeerHealth, PeerState, RetryPolicy};
use crate::proto::{method, BoolResp, IdReq, ReconcileReq, ReconcileResp};
use crate::ring::Ring;
use crossbeam::channel::Receiver;
use obs::{Counter, Gauge, Histogram, MetricsSnapshot, Registry};
use parking_lot::{Mutex, RwLock};
use plasma::{
    ObjectId, ObjectInfo, ObjectLocation, ObjectStore, PlasmaError, StoreCore, StoreStats,
};
use rand::rngs::SmallRng;
use rpclite::{RpcClient, Service};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tfsim::{Clock, NodeId};

/// How long a blocked `get` waits locally between remote lookup rounds,
/// so objects sealed on a peer *after* the previous lookup are discovered
/// promptly.
const REMOTE_POLL: Duration = Duration::from_millis(50);

/// A connected peer store.
#[derive(Clone)]
pub struct Peer {
    /// The fabric node the peer store runs on.
    pub node: NodeId,
    /// Its human-readable name (diagnostics).
    pub name: String,
    /// RPC channel to its interconnect service.
    pub client: Arc<RpcClient>,
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

/// Fault-tolerance knobs for the store interconnect, grouped so cluster
/// harnesses can pass them through unchanged.
#[derive(Debug, Clone)]
pub struct InterconnectConfig {
    /// Per-call deadline (`None` = wait forever, the pre-fault-tolerance
    /// behavior).
    pub call_deadline: Option<Duration>,
    /// Retry policy for calls that fail in a retryable way.
    pub retry: RetryPolicy,
    /// Peer failure-detector thresholds and probe pacing.
    pub health: HealthConfig,
}

impl Default for InterconnectConfig {
    fn default() -> Self {
        InterconnectConfig {
            call_deadline: Some(Duration::from_secs(2)),
            retry: RetryPolicy::default(),
            health: HealthConfig::default(),
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
    /// Latency of one remote-lookup round (owners, redirects, broadcast).
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
    /// `Moved` redirects served from this owner's recorded leases.
    redirects_served: Arc<Counter>,
    /// Redirects this node followed to a holder (requester side).
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
    peers: RwLock<Vec<Peer>>,
    /// The rendezvous placement ring (`None` until a membership table is
    /// installed: peerless and hand-built stores).
    ring: RwLock<Option<Ring>>,
    /// Every piece of per-object state this node keeps for or at a peer:
    /// pins, staged creates, leases, replicas — both sides, one lock.
    ledger: Ledger,
    /// Owner-side remote-hit attribution driving rebalancing.
    heat: HeatMap,
    max_inflight_creates: u64,
    counters: DisaggCounters,
    metrics: DisaggMetrics,
    health: PeerHealth,
    retry: RetryPolicy,
    call_deadline: Option<Duration>,
    /// The cluster clock; retry backoff is charged here so virtual-time
    /// tests stay deterministic and instant.
    clock: Clock,
    retry_rng: Mutex<SmallRng>,
}

/// The distributed store. Cheap to clone (shared handle).
#[derive(Clone)]
pub struct DisaggStore {
    inner: Arc<Inner>,
}

impl DisaggStore {
    /// Wrap `core` with the distributed layer. Peers are added afterwards
    /// with [`DisaggStore::add_peer`].
    pub fn new(core: StoreCore, config: DisaggConfig) -> Self {
        let node = core.node();
        let clock = core.fabric().clock().clone();
        let metrics = DisaggMetrics::new(core.registry());
        DisaggStore {
            inner: Arc::new(Inner {
                health: PeerHealth::new(config.interconnect.health, clock.clone(), core.registry()),
                metrics,
                retry: config.interconnect.retry,
                call_deadline: config.interconnect.call_deadline,
                clock,
                retry_rng: Mutex::new(RetryPolicy::rng(0x9e37_79b9 ^ u64::from(node.0))),
                core,
                node,
                peers: RwLock::new(Vec::new()),
                ring: RwLock::new(None),
                ledger: Ledger::new(),
                heat: HeatMap::new(),
                max_inflight_creates: config.max_inflight_creates,
                counters: DisaggCounters::default(),
            }),
        }
    }

    /// The underlying local store.
    pub fn core(&self) -> &StoreCore {
        &self.inner.core
    }

    /// The fabric node this store runs on.
    pub fn node(&self) -> NodeId {
        self.inner.node
    }

    /// Connect a peer store.
    pub fn add_peer(&self, peer: Peer) {
        self.inner.peers.write().push(peer);
    }

    /// Number of connected peers.
    pub fn peer_count(&self) -> usize {
        self.inner.peers.read().len()
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
    /// under what authority?" — and what the chaos quiesce audit
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
    /// for remote readers, plus the creator's reference of every create
    /// staged here for a remote writer.
    pub fn remote_pin_count(&self) -> u64 {
        self.live_count(Side::Out, &[Kind::Pin, Kind::Staged])
    }

    /// Pins this node holds on *other* nodes' objects: every successful
    /// remote lookup slot adds one, every release removes one. Zero at
    /// quiesce when all buffers are released — the chaos checker asserts
    /// exactly that.
    pub fn held_remote_pins(&self) -> u64 {
        self.live_count(Side::Held, &[Kind::Pin])
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
    /// Like `reconcile`, only sound after the workload has drained — a
    /// ledgered pin may pair with a buffer still in flight.
    pub fn drain_remote_pins(&self) -> u64 {
        let mut drained = 0u64;
        loop {
            let held_pins = |r: &DelegationRecord| {
                r.side == Side::Held && r.kind == Kind::Pin && r.phase == Phase::Live
            };
            let mut progressed = false;
            for pin in self.delegations().into_iter().filter(held_pins) {
                for _ in 0..pin.count {
                    if self.release(pin.id).is_ok() {
                        progressed = true;
                        drained += 1;
                    }
                }
            }
            if !progressed {
                // Either the ledger is empty or every remaining owner is
                // unreachable; leave stragglers for reconciliation rather
                // than spinning on them.
                return drained;
            }
        }
    }

    /// Quiesce-time reconciliation, holder-initiated: report to every
    /// peer exactly what this node still holds on its authority — pins,
    /// staged creates, leased copies, replicas — and obey the answer.
    /// The owner trims what went unreported (a pin orphaned by a lost
    /// `GET_MANY` response, a staged create nobody will seal, a lease or
    /// replica entry no copy backs) and judges each claim with
    /// [`crate::delegation::owner_verdict`]; claims it declares void are
    /// dropped here, copy and all. One RPC per peer heals both halves of
    /// every exchange a lost request or response cut short.
    ///
    /// Every peer is visited: one that cannot be reached is named in the
    /// report and the sweep moves on. Only sound while no traffic
    /// involving this node is in flight — a response still on the wire
    /// carries state not yet in the ledger, and reconciling under load
    /// would trim it. Call it after the workload has drained.
    pub fn reconcile(&self) -> ReconcileReport {
        let inner = &self.inner;
        let mut report = ReconcileReport::default();
        let sealed = |id| inner.core.peek(id).is_some();
        for peer in self.peers_snapshot() {
            let req = ReconcileReq {
                claims: inner.ledger.claims_on(peer.node, sealed),
            };
            let answered = self.peer_call(&peer, method::RECONCILE, req.encode());
            let Some(resp) = answered.ok().and_then(|b| ReconcileResp::decode(b).ok()) else {
                report.unreachable.push(peer.node);
                continue;
            };
            report.trimmed += resp.trimmed;
            for (id, kind) in resp.drop {
                let entry = inner.ledger.remove(Side::Held, id, kind, Some(peer.node));
                if entry.is_none() {
                    continue;
                }
                report.dropped[kind] += 1;
                if kind.is_copy() {
                    let _ = inner.core.delete_deferred(id);
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
        for id in settled.abort {
            let _ = core.abort(id);
        }
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

    /// `RELEASE` handler: drop one pin held for the caller, `from`.
    /// `false` means none was recorded — to the caller, proof that the
    /// entry it released against was a phantom.
    fn release_for(&self, from: NodeId, id: ObjectId) -> Result<bool, PlasmaError> {
        let ledger = &self.inner.ledger;
        let pinned = ledger.unpin(Side::Out, id, Some(from), |_| true);
        if pinned.is_some() {
            self.inner.core.release(id)?;
        }
        Ok(pinned.is_some())
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

    /// Admission control: refuse a new create when the node already has
    /// `max_inflight_creates` objects created but not yet sealed. The
    /// operation is not started, so the typed rejection is always safe to
    /// retry after the suggested backoff.
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

    /// [`ObjectStore::create`] and, given the object's bytes as `payload`
    /// (data, metadata), [`ObjectStore::put`]: the same pre-checks and
    /// the same routing to the id's owner, which either stages the object
    /// or fills and seals it.
    fn create_routed(
        &self,
        id: ObjectId,
        data_size: u64,
        metadata_size: u64,
        payload: Option<(&[u8], &[u8])>,
    ) -> Result<ObjectLocation, PlasmaError> {
        let started = Instant::now();
        // An object this node lent out or replicated still exists — the
        // bytes live at a holder even if the copy here was handed over
        // or evicted. Re-creating it would fork the id against them.
        if self.inner.core.exists_any_state(id) || self.inner.ledger.has_out_copy(id) {
            return Err(PlasmaError::ObjectExists(id));
        }
        // Singleton cluster: no peer could hold or contest the id, so the
        // local existence check above *is* the uniqueness check.
        let loc = if self.inner.peers.read().is_empty() {
            self.create_here(id, data_size, metadata_size, payload)?
        } else {
            self.create_via_ring(id, data_size, metadata_size, payload)?
        };
        self.inner.metrics.create.record_duration(started.elapsed());
        Ok(loc)
    }

    /// Uninstrumented body of [`ObjectStore::get`]. Slots resolved by a
    /// remote lookup round are flagged in `remote_slots` so the wrapper
    /// can split its latency recording local-hit / remote-hit / miss.
    fn get_inner(
        &self,
        ids: &[ObjectId],
        timeout: Duration,
        remote_slots: &mut [bool],
    ) -> Result<Vec<Option<ObjectLocation>>, PlasmaError> {
        let deadline = Instant::now() + timeout;
        let mut out: Vec<Option<ObjectLocation>> = vec![None; ids.len()];
        loop {
            // Pass 1: local, non-blocking (pins found objects). Leased
            // copies are excluded — they serve only owner-sanctioned
            // redirects, which the remote pass below obtains.
            for (slot, id) in out.iter_mut().zip(ids) {
                if slot.is_some() {
                    continue;
                }
                let delegated = self.inner.ledger.held_copy(*id).map(|(kind, _)| kind);
                if delegated != Some(Kind::Lease) {
                    *slot = self.inner.core.get_local(*id);
                    // A held replica serving a local get is the whole
                    // point of replication: a remote round trip the hot
                    // reader no longer pays. (Safe to serve without
                    // consulting the owner — invalidation runs *before*
                    // the owner's delete, so a live replica implies the
                    // object still exists.)
                    if slot.is_some() && delegated == Some(Kind::Replica) {
                        self.inner.metrics.replica_local_hits.inc();
                    }
                }
            }
            if out.iter().all(Option::is_some) {
                return Ok(out);
            }

            // Pass 2: remote lookup for misses (degrades gracefully when
            // peers are unreachable — their objects just stay missing).
            let filled_before: Vec<bool> = out.iter().map(Option::is_some).collect();
            self.remote_lookup_pass(ids, &mut out);
            for (flag, (was, slot)) in remote_slots
                .iter_mut()
                .zip(filled_before.iter().zip(out.iter()))
            {
                if !*was && slot.is_some() {
                    *flag = true;
                }
            }
            if out.iter().all(Option::is_some) {
                return Ok(out);
            }

            // Pass 3: wait briefly for local seals, then re-poll. The wait
            // is bounded so objects sealed *remotely* after our lookup are
            // discovered by the next remote pass.
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Ok(out);
            }
            let remaining: Vec<ObjectId> = ids
                .iter()
                .zip(&out)
                .filter(|(_, o)| o.is_none())
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
                if slot.is_none() {
                    let got = it.next().flatten();
                    let leased = matches!(self.inner.ledger.held_copy(*id), Some((Kind::Lease, _)));
                    if !leased {
                        *slot = got;
                    } else if got.is_some() {
                        // The wait pinned a hidden leased copy —
                        // release it and leave the slot for the remote
                        // pass (the owner decides whether it's served).
                        let _ = self.inner.core.release(*id);
                    }
                }
            }
            if out.iter().all(Option::is_some) || Instant::now() >= deadline {
                return Ok(out);
            }
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
    fn create(
        &self,
        id: ObjectId,
        data_size: u64,
        metadata_size: u64,
    ) -> Result<ObjectLocation, PlasmaError> {
        self.create_routed(id, data_size, metadata_size, None)
    }

    fn put(
        &self,
        id: ObjectId,
        data: &[u8],
        metadata: &[u8],
    ) -> Result<ObjectLocation, PlasmaError> {
        let (data_size, metadata_size) = (data.len() as u64, metadata.len() as u64);
        self.create_routed(id, data_size, metadata_size, Some((data, metadata)))
    }

    fn seal(&self, id: ObjectId) -> Result<ObjectLocation, PlasmaError> {
        // A create forwarded to a remote ring owner seals there too.
        match self.inner.ledger.find(Side::Held, id, Kind::Staged) {
            Some(staged) => self.seal_forwarded(id, staged.peer),
            None => self.inner.core.seal(id),
        }
    }

    fn get(
        &self,
        ids: &[ObjectId],
        timeout: Duration,
    ) -> Result<Vec<Option<ObjectLocation>>, PlasmaError> {
        let started = Instant::now();
        let mut remote_slots = vec![false; ids.len()];
        let result = self.get_inner(ids, timeout, &mut remote_slots);
        if let Ok(out) = &result {
            // One sample per requested id, classified by how (whether) it
            // resolved. The whole-call elapsed time is attributed to each
            // id: that is the latency a caller of a 1-id get observed.
            let elapsed = started.elapsed();
            let m = &self.inner.metrics;
            for (slot, was_remote) in out.iter().zip(&remote_slots) {
                let hist = match (slot.is_some(), *was_remote) {
                    (true, true) => &m.get_remote_hit,
                    (true, false) => &m.get_local_hit,
                    (false, _) => &m.get_miss,
                };
                hist.record_duration(elapsed);
            }
        }
        result
    }

    fn release(&self, id: ObjectId) -> Result<(), PlasmaError> {
        // Pins held at peers are fed back to their owners over RPC. Each
        // ledger entry is decremented optimistically and restored if the
        // RPC fails — otherwise the pin would be lost locally while the
        // owner still counts it, leaving the object unevictable forever.
        // The restore is ambiguous, though: a release whose *response*
        // was lost did land, so the restored entry is a phantom the
        // owner no longer counts. The owner's ack (`false` = no pin
        // ledgered for us) detects exactly that case, and the loop
        // re-routes this release at the next candidate — another
        // owner's entry or the local refcount — instead of letting a
        // phantom entry swallow a release some real pin needed.
        let ledger = &self.inner.ledger;
        let mut phantom = false;
        let alive = |node| self.inner.health.state(node) != PeerState::Down;
        while let Some(owner) = ledger.unpin(Side::Held, id, None, alive) {
            let released = self.peer(owner).and_then(|peer| {
                match self.peer_call(&peer, method::RELEASE, IdReq { id }.encode()) {
                    Ok(body) => Ok(BoolResp::decode(body).map(|r| r.value).unwrap_or(true)),
                    Err(fail) => Err(self.object_err(&peer, id, fail)),
                }
            });
            match released {
                Ok(true) => {
                    self.inner
                        .counters
                        .releases_forwarded
                        .fetch_add(1, Ordering::Relaxed);
                    return Ok(());
                }
                // Phantom entry: the owner executed an earlier release
                // whose response we never saw. The stale entry is already
                // gone from the ledger — route this release at the next
                // candidate.
                Ok(false) => phantom = true,
                Err(e) => {
                    // Restore the decrement: the owner still counts this
                    // pin, so we must keep counting it too.
                    ledger.record(Side::Held, id, Kind::Pin, owner, 0);
                    return Err(e);
                }
            }
        }
        // The creator's reference of a forwarded create was consumed by
        // SEAL_AT at the owner; the put flow's trailing release finishes
        // the staged entry here without touching the network.
        if ledger.finish_staged(id) {
            return Ok(());
        }
        if self.inner.core.exists_any_state(id) {
            return match self.inner.core.release(id) {
                Ok(()) => Ok(()),
                // On the phantom chain the pin this release pairs with may
                // already be gone (healed by an earlier duplicated
                // delivery); a missing refcount is success, not an error.
                Err(_) if phantom => Ok(()),
                Err(e) => Err(e),
            };
        }
        if phantom {
            return Ok(());
        }
        Err(PlasmaError::ObjectNotFound(id))
    }

    fn delete(&self, id: ObjectId) -> Result<(), PlasmaError> {
        self.delete_routed(id, false).map(|_| ())
    }

    fn delete_deferred(&self, id: ObjectId) -> Result<bool, PlasmaError> {
        self.delete_routed(id, true)
    }

    fn abort(&self, id: ObjectId) -> Result<(), PlasmaError> {
        let ledger = &self.inner.ledger;
        match ledger.remove(Side::Held, id, Kind::Staged, None) {
            Some(staged) => {
                self.abort_forwarded(id, staged.peer);
                Ok(())
            }
            None => self.inner.core.abort(id),
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
    use crate::proto::{CallHeader, ListResp, ReplyHeader};
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
        let header = CallHeader {
            from: NodeId(9),
            epoch: 0,
        };
        let code = |id: u32, request: Bytes| service.call(id, request).err().map(|s| s.code);
        for (id, name) in method::VERBS {
            let bare = code(*id, Bytes::from_static(b"no header"));
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
        let (reply, body) = ReplyHeader::split(listed).unwrap();
        assert_eq!(reply.epoch, 0);
        assert!(ListResp::decode(body).unwrap().entries.is_empty());
    }
}
