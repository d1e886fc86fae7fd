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
//! hold the id (it may have been migrated off-ring), or while membership
//! epochs disagree mid-change. Ring routing outcomes are surfaced as the
//! `disagg.ring.hit` / `disagg.ring.fallback` counters. Remote lookups
//! are batched: every id a single peer must answer for travels in one
//! `GET_MANY` round trip (see [`DisaggStore::batch_get`]), and an
//! optional [`IdCache`] accelerates repeat lookups.

use crate::elastic::{BorrowLedger, ElasticConfig, HeatMap, LedgerCounts};
use crate::fabric::MappedFabric;
use crate::health::{Admission, HealthConfig, PeerHealth, PeerState, PeerStats, RetryPolicy};
use crate::idcache::{CacheMode, CachedEntry, IdCache};
use crate::proto::{
    method, BoolResp, BorrowReconcileReq, BorrowReconcileResp, CreateAtReq, CreateAtResp,
    CreateAtStatus, ForwardReq, GetManyEntry, GetManyReq, GetManyResp, GetManyStatus, IdReq,
    InvalidateReq, ListEntry, ListResp, MembershipResp, MetricsResp, ReconcileReq, ReconcileResp,
    ReleaseReq, SpillAtReq, SpillAtResp, SpillAtStatus,
};
use crate::replicate::{ReplicaCounts, ReplicaLedger, ReplicationConfig};
use crate::ring::{Membership, Ring};
use crate::usage::RemoteRefs;
use bytes::Bytes;
use crossbeam::channel::Receiver;
use obs::{Counter, Gauge, Histogram, MetricsSnapshot, Registry};
use parking_lot::{Mutex, RwLock};
use plasma::{
    ObjectId, ObjectInfo, ObjectLocation, ObjectStore, PlasmaError, StoreCore, StoreStats,
};
use rand::rngs::SmallRng;
use rpclite::{RpcClient, RpcError, Service, Status, StatusCode};
use std::collections::{HashMap, HashSet};
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
    /// Gets served from the Direct-mode id cache (no RPC, no pin).
    pub direct_cache_reads: AtomicU64,
    /// Ids resolved point-to-point at their computed ring owner.
    pub ring_hits: AtomicU64,
    /// Ids the ring could not settle (owner miss, owner unreachable, or
    /// self-owned but absent) that fell back to the lookup broadcast.
    pub ring_fallbacks: AtomicU64,
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
    /// Gets served from the Direct-mode id cache (no RPC, no pin).
    pub direct_cache_reads: u64,
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
    /// Optional remote-id cache.
    pub id_cache: Option<(CacheMode, usize)>,
    /// Interconnect fault tolerance (deadlines, retries, peer health).
    pub interconnect: InterconnectConfig,
    /// Elastic capacity tier: spill watermarks, lender headroom,
    /// admission control, heat threshold.
    pub elastic: ElasticConfig,
    /// Hot-object read replication policy.
    pub replication: ReplicationConfig,
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
    /// Latency of one remote-lookup round (cache consults + fan-out).
    lookup_fanout: Arc<Histogram>,
    /// Ids carried per GET_MANY RPC issued to a peer — the batching
    /// factor of the multi-get hot path (1 = degenerated to unary).
    get_many_batch: Arc<Histogram>,
    /// Ids resolved point-to-point at their computed ring owner.
    ring_hit: Arc<Counter>,
    /// Ids that fell back from ring routing to the lookup broadcast.
    ring_fallback: Arc<Counter>,
    idcache_hits: Arc<Counter>,
    idcache_misses: Arc<Counter>,
    /// Interconnect call retries (attempts after the first).
    peer_retries: Arc<Counter>,
    /// Parked RELEASEs awaiting an unreachable peer (current backlog).
    pending_releases: Arc<Gauge>,
    migrations_completed: Arc<Counter>,
    migrations_aborted_in_use: Arc<Counter>,
    migrations_failed: Arc<Counter>,
    /// Spills acknowledged by a lender (delegations created).
    spills_completed: Arc<Counter>,
    /// Spill attempts a lender refused (its own pressure) or that failed.
    spills_refused: Arc<Counter>,
    /// Heat-driven delegations toward an object's dominant reader.
    rebalances: Arc<Counter>,
    /// `Moved` redirects served from the owner-side lent ledger.
    redirects_served: Arc<Counter>,
    /// Redirects this node followed to a holder (requester side).
    redirects_followed: Arc<Counter>,
    /// Creates shed with `Overloaded` by admission control.
    overload_rejected: Arc<Counter>,
    /// Bytes currently delegated to lender peers (the node's spilled
    /// footprint; complements `plasma.used_bytes`/`plasma.free_bytes`).
    spilled_bytes: Arc<Gauge>,
    /// Objects currently lent out (owner-side ledger size).
    lent_objects: Arc<Gauge>,
    /// Objects currently held for other owners (holder-side ledger size).
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
    /// Objects of ours currently replicated elsewhere (owner ledger).
    replicas_outstanding: Arc<Gauge>,
    /// Replicas currently held here for other owners (holder ledger).
    replicas_held: Arc<Gauge>,
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
            idcache_hits: registry.counter("disagg.idcache.hits"),
            idcache_misses: registry.counter("disagg.idcache.misses"),
            peer_retries: registry.counter("disagg.peer.retries"),
            pending_releases: registry.gauge("disagg.pending_releases"),
            migrations_completed: registry.counter("disagg.migrations.completed"),
            migrations_aborted_in_use: registry.counter("disagg.migrations.aborted_in_use"),
            migrations_failed: registry.counter("disagg.migrations.failed"),
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
        }
    }
}

struct Inner {
    core: StoreCore,
    node: NodeId,
    peers: RwLock<Vec<Peer>>,
    /// Remote objects we hold pinned references to, per owner:
    /// id -> [(owner, count), ...]. Usually one owner per id, but a
    /// migration racing our lookups can briefly leave copies on two
    /// nodes — each owner's pins are ledgered (and released) separately
    /// so a pin taken on one node is never "released" to another.
    remote_held: Mutex<HashMap<ObjectId, Vec<(NodeId, u64)>>>,
    /// Fire-and-forget RELEASEs that failed because the peer was
    /// unreachable: (owner, id), retried after the next successful call
    /// to that peer so the owner-side pin cannot leak for its lifetime.
    pending_releases: Mutex<Vec<(NodeId, ObjectId)>>,
    idcache: Option<IdCache>,
    /// The rendezvous placement ring (`None` until a membership table is
    /// installed: peerless and hand-built stores).
    ring: RwLock<Option<Ring>>,
    /// Requester side of forwarded creates: ids this node created at a
    /// remote ring owner and has not yet sealed/aborted, mapped to that
    /// owner so `seal`/`abort` route point-to-point.
    staged_out: Mutex<HashMap<ObjectId, NodeId>>,
    /// Owner side of forwarded creates: staged (unsealed) objects a
    /// remote requester allocated here, with the location returned. Kept
    /// until SEAL_AT/ABORT_AT so a retried CREATE_AT (response lost) is
    /// answered idempotently, and so RECONCILE can abort orphans.
    staged_remote: Mutex<HashMap<ObjectId, (NodeId, ObjectLocation)>>,
    /// Ids whose forwarded seal already consumed the creator's reference
    /// at the remote owner. The Plasma client's put flow always follows
    /// seal with one release; for these ids that release is satisfied
    /// locally (a no-op) instead of crossing the interconnect — a
    /// networked trailing release could fail mid-put and strand the pin.
    release_waivers: Mutex<HashSet<ObjectId>>,
    remote_refs: RemoteRefs,
    /// Both ends of every elastic delegation this node participates in.
    ledger: BorrowLedger,
    /// Both sides of every read-replica this node participates in.
    replicas: ReplicaLedger,
    /// Owner-side remote-hit attribution driving rebalancing.
    heat: HeatMap,
    elastic: ElasticConfig,
    replication: ReplicationConfig,
    /// The bulk data plane remote payload bytes move over.
    data_plane: MappedFabric,
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

/// Why a guarded call to one peer produced no usable response.
#[derive(Debug)]
enum PeerFail {
    /// Peer is `Down`: skipped without touching the wire.
    Skipped,
    /// The call (and its retries) failed at the transport level — the
    /// peer is unreachable right now.
    Unreachable(String),
    /// The peer answered with a definite, non-retryable error.
    Rpc(RpcError),
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
        let data_plane = MappedFabric::new(core.fabric().clone(), node, core.registry());
        DisaggStore {
            inner: Arc::new(Inner {
                health: PeerHealth::with_metrics(
                    config.interconnect.health,
                    clock.clone(),
                    core.registry(),
                ),
                metrics,
                retry: config.interconnect.retry,
                call_deadline: config.interconnect.call_deadline,
                clock,
                retry_rng: Mutex::new(RetryPolicy::rng(0x9e37_79b9 ^ u64::from(node.0))),
                core,
                node,
                peers: RwLock::new(Vec::new()),
                remote_held: Mutex::new(HashMap::new()),
                pending_releases: Mutex::new(Vec::new()),
                idcache: config.id_cache.map(|(mode, cap)| IdCache::new(mode, cap)),
                ring: RwLock::new(None),
                staged_out: Mutex::new(HashMap::new()),
                staged_remote: Mutex::new(HashMap::new()),
                release_waivers: Mutex::new(HashSet::new()),
                remote_refs: RemoteRefs::new(),
                ledger: BorrowLedger::new(),
                replicas: ReplicaLedger::new(),
                heat: HeatMap::new(),
                elastic: config.elastic,
                replication: config.replication,
                data_plane,
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
        Arc::new(Interconnect {
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
            direct_cache_reads: c.direct_cache_reads.load(Ordering::Relaxed),
            ring_hits: c.ring_hits.load(Ordering::Relaxed),
            ring_fallbacks: c.ring_fallbacks.load(Ordering::Relaxed),
        }
    }

    /// Install (or supersede) the membership table the placement ring
    /// hashes over. Tables are versioned: a table whose epoch does not
    /// exceed the installed one is ignored, so stale gossip can never
    /// roll membership back. Returns whether the table was adopted.
    pub fn set_membership(&self, membership: Membership) -> bool {
        let mut ring = self.inner.ring.write();
        let installed = ring.as_ref().map(|r| r.epoch()).unwrap_or(0);
        if membership.epoch <= installed {
            return false;
        }
        *ring = Some(Ring::new(membership));
        true
    }

    /// The currently installed membership table, if any.
    pub fn membership(&self) -> Option<Membership> {
        self.inner
            .ring
            .read()
            .as_ref()
            .map(|r| r.membership().clone())
    }

    /// The installed membership epoch (0 = none).
    pub fn ring_epoch(&self) -> u64 {
        self.inner
            .ring
            .read()
            .as_ref()
            .map(|r| r.epoch())
            .unwrap_or(0)
    }

    /// The ring-computed owner of `id` (`None` without a membership).
    /// A pure local computation — zero RPCs.
    pub fn ring_owner(&self, id: ObjectId) -> Option<NodeId> {
        self.inner.ring.read().as_ref().and_then(|r| r.owner_of(id))
    }

    /// Pull the membership table from `node` over the interconnect and
    /// adopt it if newer. Invoked when a call to/from that node gossiped
    /// an epoch ahead of ours.
    fn pull_membership_from(&self, node: NodeId) {
        let Some(peer) = self.peers_snapshot().into_iter().find(|p| p.node == node) else {
            return;
        };
        if let Ok(body) = self.peer_call(&peer, method::MEMBERSHIP, Bytes::new()) {
            if let Ok(resp) = MembershipResp::decode(body) {
                self.set_membership(Membership::new(resp.epoch, resp.nodes));
            }
        }
    }

    /// React to an epoch gossiped by `node`: pull its table if ahead.
    fn maybe_adopt_epoch(&self, node: NodeId, peer_epoch: u64) {
        if peer_epoch > self.ring_epoch() {
            self.pull_membership_from(node);
        }
    }

    fn note_ring_hits(&self, n: u64) {
        if n == 0 {
            return;
        }
        self.inner
            .counters
            .ring_hits
            .fetch_add(n, Ordering::Relaxed);
        self.inner.metrics.ring_hit.add(n);
    }

    fn note_ring_fallbacks(&self, n: u64) {
        if n == 0 {
            return;
        }
        self.inner
            .counters
            .ring_fallbacks
            .fetch_add(n, Ordering::Relaxed);
        self.inner.metrics.ring_fallback.add(n);
    }

    /// Remote-id-cache counters, if a cache is configured: (hits, misses).
    pub fn idcache_counters(&self) -> Option<(u64, u64)> {
        self.inner.idcache.as_ref().map(|c| c.counters())
    }

    /// Number of entries currently in the remote-id cache, if one is
    /// configured. Tests use this to observe invalidation (e.g. the
    /// Up→Down transition dropping every hint at a dead peer).
    pub fn idcache_len(&self) -> Option<usize> {
        self.inner.idcache.as_ref().map(|c| c.len())
    }

    /// Point-in-time snapshot of every metric this node records. The
    /// plasma core, the distributed layer, and (when the harness wires
    /// them) the interconnect RPC clients all share the core's registry,
    /// so one snapshot covers the whole node.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.inner.core.registry().snapshot()
    }

    /// Fetch one peer's metrics snapshot over the interconnect
    /// (`METRICS` RPC): any node can introspect any peer live.
    pub fn peer_metrics(&self, node: NodeId) -> Result<MetricsSnapshot, PlasmaError> {
        let peer = self
            .peers_snapshot()
            .into_iter()
            .find(|p| p.node == node)
            .ok_or_else(|| PlasmaError::Transport(format!("no peer for {node}")))?;
        match self.peer_call(&peer, method::METRICS, Bytes::new()) {
            Ok(body) => Self::decode_metrics(body).map(|(_, snap)| snap),
            Err(PeerFail::Skipped) => Err(PlasmaError::PeerUnavailable(format!(
                "peer {} is down",
                peer.name
            ))),
            Err(PeerFail::Unreachable(m)) => Err(PlasmaError::PeerUnavailable(m)),
            Err(PeerFail::Rpc(e)) => Err(Self::rpc_err(e)),
        }
    }

    /// Cluster-wide metrics: this node's snapshot plus every reachable
    /// peer's, queried in parallel. Like [`DisaggStore::global_list`],
    /// unreachable peers are omitted — the snapshot degrades to a
    /// partial cluster view instead of failing.
    pub fn cluster_metrics(&self) -> Result<Vec<(NodeId, MetricsSnapshot)>, PlasmaError> {
        let mut out = Vec::with_capacity(self.peer_count() + 1);
        out.push((self.inner.node, self.metrics_snapshot()));
        let peers = self.peers_snapshot();
        let responses = self.fanout(&peers, |peer| {
            self.peer_call(peer, method::METRICS, Bytes::new())
        });
        for response in responses {
            let Ok(body) = response else { continue };
            out.push(Self::decode_metrics(body)?);
        }
        Ok(out)
    }

    /// Merged cluster snapshot: the fold of
    /// [`DisaggStore::cluster_metrics`] (merging is associative and
    /// commutative, so the order of nodes does not matter).
    pub fn merged_cluster_metrics(&self) -> Result<MetricsSnapshot, PlasmaError> {
        Ok(MetricsSnapshot::merged(
            self.cluster_metrics()?.iter().map(|(_, snap)| snap),
        ))
    }

    fn decode_metrics(body: Bytes) -> Result<(NodeId, MetricsSnapshot), PlasmaError> {
        let resp = MetricsResp::decode(body)
            .map_err(|e| PlasmaError::Protocol(format!("metrics response: {e}")))?;
        let snap = MetricsSnapshot::decode(&resp.snapshot)
            .map_err(|e| PlasmaError::Protocol(format!("metrics snapshot: {e}")))?;
        Ok((resp.node, snap))
    }

    /// References this store holds on behalf of remote nodes.
    pub fn remote_pin_count(&self) -> u64 {
        self.inner.remote_refs.total()
    }

    /// Pins this node holds on *other* nodes' objects (the requester-side
    /// ledger): every successful remote lookup slot adds one, every
    /// release removes one. Zero at quiesce when all buffers are
    /// released — the chaos checker asserts exactly that.
    pub fn held_remote_pins(&self) -> u64 {
        self.inner
            .remote_held
            .lock()
            .values()
            .flat_map(|entries| entries.iter().map(|(_, count)| *count))
            .sum()
    }

    /// Quiesce-time pin drain: release every pin still in the
    /// requester-side ledger. Workload paths deliberately absorb some
    /// pins into the ledger without a paired buffer (e.g. a batch lookup
    /// that returns the same object in several slots pins once per slot
    /// but hands out one buffer); those are correct during the run and
    /// garbage once it ends — an undrained pin keeps the owner's copy
    /// unevictable and undeletable forever. Returns the number of pins
    /// released. Errors on individual releases are ignored: the follow-up
    /// `reconcile_pins` sweep trims whatever an unreachable owner missed.
    ///
    /// Like `reconcile_pins`, only sound after the workload has drained —
    /// a ledgered pin may pair with a buffer still in flight.
    pub fn drain_remote_pins(&self) -> u64 {
        let mut drained = 0u64;
        loop {
            let snapshot: Vec<(ObjectId, u64)> = self
                .inner
                .remote_held
                .lock()
                .iter()
                .map(|(id, entries)| (*id, entries.iter().map(|(_, c)| *c).sum::<u64>()))
                .collect();
            let mut progressed = false;
            for (id, count) in snapshot {
                for _ in 0..count {
                    if self.release(id).is_ok() {
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

    /// Quiesce-time pin reconciliation: tell every peer exactly which of
    /// its objects this node still ledgers pins on, so the peer can trim
    /// owner-side pins orphaned by lost responses (it pinned while
    /// serving a lookup whose response never arrived, so no release will
    /// ever come). Returns the total number of orphan pins trimmed
    /// across all peers.
    ///
    /// Only sound when no lookup/release traffic from this node is in
    /// flight — a response still on the wire carries pins not yet in the
    /// ledger, and reconciling under load would trim them. Call it after
    /// the workload has drained, never during one.
    pub fn reconcile_pins(&self) -> Result<u64, PlasmaError> {
        let peers = self.peers_snapshot();
        let mut trimmed = 0u64;
        for peer in &peers {
            let holds: Vec<(ObjectId, u64)> = {
                let held = self.inner.remote_held.lock();
                held.iter()
                    .filter_map(|(id, entries)| {
                        let count: u64 = entries
                            .iter()
                            .filter(|(node, _)| *node == peer.node)
                            .map(|(_, c)| *c)
                            .sum();
                        (count > 0).then_some((*id, count))
                    })
                    .collect()
            };
            let req = ReconcileReq {
                requester: self.inner.node,
                holds,
            };
            match self.peer_call(peer, method::RECONCILE, req.encode()) {
                Ok(body) => {
                    let resp = ReconcileResp::decode(body)
                        .map_err(|e| PlasmaError::Protocol(e.to_string()))?;
                    trimmed += resp.trimmed;
                }
                Err(PeerFail::Skipped) => {}
                Err(PeerFail::Unreachable(m)) => return Err(PlasmaError::PeerUnavailable(m)),
                Err(PeerFail::Rpc(e)) => return Err(Self::rpc_err(e)),
            }
        }
        Ok(trimmed)
    }

    /// Admission control: refuse a new create when the node already has
    /// `max_inflight_creates` objects created but not yet sealed. The
    /// operation is not started, so the typed rejection is always safe to
    /// retry after the suggested backoff.
    fn check_admission(&self) -> Result<(), PlasmaError> {
        let max = self.inner.elastic.max_inflight_creates;
        if max == 0 {
            return Ok(());
        }
        let st = self.inner.core.stats();
        if st.objects.saturating_sub(st.sealed_objects) >= max {
            self.inner.metrics.overload_rejected.inc();
            return Err(PlasmaError::Overloaded {
                retry_after_ms: self.inner.elastic.retry_after_ms,
            });
        }
        Ok(())
    }

    /// Local memory occupancy in parts-per-million of capacity — the
    /// pressure signal driving [`DisaggStore::maybe_spill`].
    pub fn memory_pressure_ppm(&self) -> u64 {
        let st = self.inner.core.stats();
        if st.capacity == 0 {
            return 0;
        }
        (u128::from(st.allocated_bytes) * 1_000_000 / u128::from(st.capacity)) as u64
    }

    /// Aggregate borrow-ledger occupancy (both directions).
    pub fn ledger_counts(&self) -> LedgerCounts {
        self.inner.ledger.counts()
    }

    /// Owner-side ledger: every `(id, holder)` this node has lent out.
    /// The chaos quiesce audit cross-checks these against each holder's
    /// [`DisaggStore::borrowed_snapshot`].
    pub fn lent_snapshot(&self) -> Vec<(ObjectId, NodeId)> {
        self.inner.ledger.lent_snapshot()
    }

    /// Holder-side ledger: every `(id, owner)` this node holds on behalf
    /// of another node.
    pub fn borrowed_snapshot(&self) -> Vec<(ObjectId, NodeId)> {
        self.inner.ledger.borrowed_snapshot()
    }

    fn sync_ledger_gauges(&self) {
        let counts = self.inner.ledger.counts();
        let m = &self.inner.metrics;
        m.spilled_bytes.set(counts.lent_bytes as i64);
        m.lent_objects.set(counts.lent as i64);
        m.borrowed_objects.set(counts.borrowed as i64);
    }

    fn sync_replica_gauges(&self) {
        let counts = self.inner.replicas.counts();
        let m = &self.inner.metrics;
        m.replicas_outstanding.set(counts.outstanding as i64);
        m.replicas_held.set(counts.held as i64);
    }

    /// Replica-ledger occupancy (both sides).
    pub fn replica_counts(&self) -> ReplicaCounts {
        self.inner.replicas.counts()
    }

    /// Owner-side replica ledger: every `(id, holder)` pair this node
    /// has replicated out. The chaos quiesce audit cross-checks these
    /// against each holder's [`DisaggStore::replica_snapshot`].
    pub fn replica_held_snapshot(&self) -> Vec<(ObjectId, NodeId)> {
        self.inner.replicas.held_snapshot()
    }

    /// Holder-side replica ledger: every `(id, owner)` replica this
    /// node currently holds for another owner.
    pub fn replica_snapshot(&self) -> Vec<(ObjectId, NodeId)> {
        self.inner.replicas.replica_snapshot()
    }

    /// Resolve `id` and read its full payload (data + metadata bytes)
    /// through the data plane — the complete descriptor lifecycle in
    /// one call: **negotiate** (pinning get over the control plane) →
    /// **map/read** ([`MappedFabric`]) → **release**. Returns `None`
    /// when the id did not resolve within `timeout`.
    pub fn get_bytes(
        &self,
        id: ObjectId,
        timeout: Duration,
    ) -> Result<Option<Vec<u8>>, PlasmaError> {
        let found = ObjectStore::get(self, &[id], timeout)?;
        let Some(loc) = found[0] else {
            return Ok(None);
        };
        let pin = RemotePinGuard::new(self, id);
        let bytes = self.read_payload(&loc)?;
        pin.release()?;
        Ok(Some(bytes))
    }

    /// Read the payload bytes behind a negotiated descriptor: local
    /// objects straight from the local segment, remote ones through the
    /// data plane. The caller must hold the pin the negotiation took
    /// (see [`DisaggStore::get_bytes`]).
    pub fn read_payload(&self, loc: &ObjectLocation) -> Result<Vec<u8>, PlasmaError> {
        if loc.seg.owner == self.inner.node {
            let mapping = self.inner.core.mapping_for(loc)?;
            Ok(mapping.view(loc.offset, loc.total_size())?.read_all()?)
        } else {
            self.inner.data_plane.pull(loc)
        }
    }

    /// Write `data` into a staged descriptor through the data plane —
    /// the payload step of a forwarded create (`CREATE_AT` returned the
    /// descriptor; this moves the bytes; `seal` completes it).
    pub fn write_payload(&self, loc: &ObjectLocation, data: &[u8]) -> Result<(), PlasmaError> {
        if loc.seg.owner == self.inner.node {
            let mapping = self.inner.core.mapping_for(loc)?;
            Ok(mapping.write_at(loc.offset, data)?)
        } else {
            self.inner.data_plane.push(loc, data)
        }
    }

    /// Holder side of `SPILL_AT` / `REPLICATE_AT`: pull the (immutable,
    /// owner-pinned) bytes behind `src` straight from the owner's sealed
    /// segment and seal a local copy under the same id. Any failure
    /// before the seal aborts the staged copy.
    fn adopt_copy(&self, src: &ObjectLocation) -> Result<(), PlasmaError> {
        let core = &self.inner.core;
        let bytes = self.inner.data_plane.pull(src)?;
        let loc = core.create(src.id, src.data_size, src.metadata_size)?;
        let staged = StagedCreateGuard::new(self, src.id);
        core.mapping_for(&loc)?.write_at(loc.offset, &bytes)?;
        core.seal(src.id)?;
        staged.disarm();
        core.release(src.id) // creator's reference
    }

    /// Invalidate every replica of `id` **before** its delete proceeds.
    /// Any holder that cannot confirm fails the delete — the object
    /// stays intact. This ordering is the protocol's safety story: a
    /// *successful* delete implies no live replica survived it, which
    /// is exactly the invariant the chaos quiesce audit asserts.
    fn invalidate_replicas(&self, id: ObjectId) -> Result<(), PlasmaError> {
        let holders = self.inner.replicas.holders(id);
        if holders.is_empty() {
            return Ok(());
        }
        let peers = self.peers_snapshot();
        for holder in holders {
            let Some(peer) = peers.iter().find(|p| p.node == holder) else {
                return Err(PlasmaError::PeerUnavailable(format!(
                    "no peer for replica holder {holder}"
                )));
            };
            let req = InvalidateReq {
                owner: self.inner.node,
                id,
            };
            match self.peer_call(peer, method::INVALIDATE, req.encode()) {
                // Confirmed: dropped now, or the holder had no entry —
                // either way no replica survives there.
                Ok(_) => {
                    self.inner.replicas.remove_holder(id, holder);
                }
                Err(PeerFail::Skipped) => {
                    return Err(PlasmaError::PeerUnavailable(format!(
                        "replica holder {} is down",
                        peer.name
                    )));
                }
                Err(PeerFail::Unreachable(m)) => return Err(PlasmaError::PeerUnavailable(m)),
                Err(PeerFail::Rpc(e)) => return Err(Self::rpc_err(e)),
            }
        }
        self.sync_replica_gauges();
        Ok(())
    }

    /// Propagate a read replica of one sealed, locally-held object to
    /// `holder` over the data plane (`REPLICATE_AT`). Unlike
    /// [`DisaggStore::spill_to`], the owner **keeps its copy** and
    /// remains the write/metadata authority; the holder serves its own
    /// future reads locally. The source copy is pinned while the holder
    /// copies — which is what makes a delete racing the propagation
    /// safe (the owner's local delete fails `ObjectInUse` until the pin
    /// drops, and after the ledger entry lands the delete invalidates
    /// first). Returns whether the holder adopted.
    pub fn replicate_to(&self, id: ObjectId, holder: NodeId) -> Result<bool, PlasmaError> {
        if !self.inner.replication.enabled || holder == self.inner.node {
            return Ok(false);
        }
        // Single-lease interaction: a lent object's bytes live at its
        // holder, not here — it is never replicated.
        if self.inner.ledger.lent_holder(id).is_some() {
            return Ok(false);
        }
        let Some(peer) = self.peers_snapshot().into_iter().find(|p| p.node == holder) else {
            return Err(PlasmaError::Transport(format!("no peer for {holder}")));
        };
        let Some(loc) = self.inner.core.get_local(id) else {
            return Err(PlasmaError::ObjectNotFound(id));
        };
        let req = SpillAtReq {
            requester: self.inner.node,
            epoch: self.ring_epoch(),
            location: loc,
        };
        let adopted = match self.peer_call(&peer, method::REPLICATE_AT, req.encode()) {
            Ok(body) => match SpillAtResp::decode(body) {
                Ok(resp) => {
                    self.maybe_adopt_epoch(holder, resp.epoch);
                    resp.status == SpillAtStatus::Adopted
                }
                // A response arrived but did not decode (corrupted on
                // the wire): the handler ran and may have adopted —
                // same ambiguity direction as the transport errors
                // below, so the entry is recorded before bailing.
                Err(e) => {
                    self.inner
                        .replicas
                        .record_held(id, holder, loc.total_size());
                    self.sync_replica_gauges();
                    let _ = self.inner.core.release(id);
                    return Err(PlasmaError::Protocol(format!("replicate_at response: {e}")));
                }
            },
            // Ambiguous outcomes: the holder may have sealed a replica.
            // Record the owner-side entry anyway — an entry without a
            // replica is trimmed at reconcile, but a replica without an
            // entry would dodge invalidation and serve stale reads
            // after a delete. `Unreachable` is the obvious case;
            // `Rpc` with a non-Status error means a response arrived
            // but could not be decoded (e.g. corrupted on the wire) —
            // the handler ran, so it may well have adopted.
            Err(PeerFail::Unreachable(_)) => {
                self.inner
                    .replicas
                    .record_held(id, holder, loc.total_size());
                self.sync_replica_gauges();
                false
            }
            Err(PeerFail::Skipped) => false,
            // A Status reply was authored by the handler itself, which
            // only answers `REPLICATE_AT` with a status *before* any
            // adopt: definite non-adoption.
            Err(PeerFail::Rpc(RpcError::Status(s))) => {
                let _ = self.inner.core.release(id);
                return Err(Self::rpc_err(RpcError::Status(s)));
            }
            Err(PeerFail::Rpc(e)) => {
                self.inner
                    .replicas
                    .record_held(id, holder, loc.total_size());
                self.sync_replica_gauges();
                let _ = self.inner.core.release(id);
                return Err(Self::rpc_err(e));
            }
        };
        if !adopted {
            self.inner.metrics.replicas_refused.inc();
            self.inner.core.release(id)?;
            return Ok(false);
        }
        self.inner
            .replicas
            .record_held(id, holder, loc.total_size());
        self.sync_replica_gauges();
        self.inner.metrics.replicas_created.inc();
        self.inner.core.release(id)?;
        Ok(true)
    }

    /// One heat-driven replication pass: every owned object whose
    /// dominant remote reader accumulated at least
    /// [`ReplicationConfig::min_hits`] remote hits gets a replica *at
    /// that reader* (up to [`ReplicationConfig::max_holders`]),
    /// converting its future remote reads into local ones while the
    /// owner keeps serving everyone else. Returns replicas created.
    pub fn replicate_hot(&self) -> Result<u64, PlasmaError> {
        if !self.inner.replication.enabled {
            return Ok(0);
        }
        let min_hits = self.inner.replication.min_hits;
        let mut created = 0u64;
        for (id, reader, _) in self.inner.heat.drain_hot(min_hits) {
            if reader == self.inner.node
                || self.ring_owner(id) != Some(self.inner.node)
                || self.inner.ledger.lent_holder(id).is_some()
                || self.inner.replicas.holder_count(id) >= self.inner.replication.max_holders
                || self.inner.replicas.is_holder(id, reader)
                || self.inner.core.peek(id).is_none()
            {
                continue;
            }
            if matches!(self.replicate_to(id, reader), Ok(true)) {
                created += 1;
            }
        }
        Ok(created)
    }

    /// Quiesce-time replica reconciliation (holder-initiated): report
    /// to every owner exactly which of its replicas this node still
    /// holds, and act on the answer — replicas the owner declared dead
    /// (object deleted/evicted, or the id is lent) are dropped here,
    /// and the owner trims entries this node no longer honors. Heals
    /// both halves of a lost `REPLICATE_AT` exchange.
    ///
    /// Like [`DisaggStore::reconcile_borrows`], only sound while no
    /// replication or delete traffic involving this node is in flight.
    /// Returns `(replicas dropped here, owner-side entries trimmed)`.
    pub fn reconcile_replicas(&self) -> Result<(u64, u64), PlasmaError> {
        let peers = self.peers_snapshot();
        let mut dropped = 0u64;
        let mut trimmed = 0u64;
        for peer in &peers {
            // Report only replicas still actually sealed here: an entry
            // whose local copy was evicted must not be healed back into
            // the owner's ledger.
            let held: Vec<ObjectId> = self
                .inner
                .replicas
                .replicas_from(peer.node)
                .into_iter()
                .filter(|id| {
                    let alive = self.inner.core.peek(*id).is_some();
                    if !alive {
                        self.inner.replicas.remove_replica(*id, peer.node);
                    }
                    alive
                })
                .collect();
            let req = BorrowReconcileReq {
                requester: self.inner.node,
                borrowed: held,
            };
            match self.peer_call(peer, method::REPLICA_RECONCILE, req.encode()) {
                Ok(body) => {
                    let resp = BorrowReconcileResp::decode(body)
                        .map_err(|e| PlasmaError::Protocol(e.to_string()))?;
                    trimmed += resp.trimmed;
                    for id in resp.drop {
                        let _ = self.inner.core.delete_deferred(id);
                        self.inner.replicas.remove_replica(id, peer.node);
                        dropped += 1;
                    }
                }
                Err(PeerFail::Skipped) => {}
                Err(PeerFail::Unreachable(m)) => return Err(PlasmaError::PeerUnavailable(m)),
                Err(PeerFail::Rpc(e)) => return Err(Self::rpc_err(e)),
            }
        }
        self.sync_replica_gauges();
        Ok((dropped, trimmed))
    }

    /// Each reachable peer's advertised free bytes, read from the
    /// `plasma.free_bytes` gauge of its METRICS snapshot — the capacity
    /// gossip lender selection ranks on. Unreachable peers are omitted.
    fn peer_free_bytes(&self) -> Vec<(NodeId, i64)> {
        let peers = self.peers_snapshot();
        let responses = self.fanout(&peers, |peer| {
            self.peer_call(peer, method::METRICS, Bytes::new())
        });
        peers
            .iter()
            .zip(responses)
            .filter_map(|(peer, response)| {
                let (_, snap) = Self::decode_metrics(response.ok()?).ok()?;
                Some((peer.node, snap.gauge("plasma.free_bytes")))
            })
            .collect()
    }

    /// Spill cold objects if local occupancy exceeds the configured high
    /// watermark; otherwise a no-op. Returns bytes delegated away.
    pub fn maybe_spill(&self) -> Result<u64, PlasmaError> {
        if self.memory_pressure_ppm() < self.inner.elastic.high_watermark_ppm {
            return Ok(0);
        }
        self.spill_cold(self.inner.elastic.max_spill_batch)
    }

    /// One spill pass: walk up to `max_objects` of the LRU tail
    /// (coldest first) and delegate each to the peer currently
    /// advertising the most free bytes, until occupancy drops below the
    /// low watermark or candidates run out. Only ring-owned objects are
    /// delegated — redirects are served from the owner's ledger, so an
    /// off-ring copy spilled elsewhere would be unfindable. Returns
    /// bytes delegated; refusals and unreachable lenders skip the
    /// candidate rather than failing the pass.
    pub fn spill_cold(&self, max_objects: usize) -> Result<u64, PlasmaError> {
        let mut lenders = self.peer_free_bytes();
        if lenders.is_empty() {
            return Ok(0);
        }
        let low = self.inner.elastic.low_watermark_ppm;
        let mut spilled = 0u64;
        for (id, bytes) in self.inner.core.cold_candidates(max_objects) {
            if self.memory_pressure_ppm() <= low {
                break;
            }
            if self.ring_owner(id) != Some(self.inner.node) {
                continue;
            }
            // Freest lender first; debit our own view as we go so one
            // pass cannot dogpile a single peer past its headroom.
            lenders.sort_by_key(|&(node, free)| (std::cmp::Reverse(free), node.0));
            let Some(&(target, free)) = lenders.first() else {
                break;
            };
            if free < bytes as i64 {
                continue;
            }
            match self.spill_to(id, target) {
                Ok(true) => {
                    spilled += bytes;
                    lenders[0].1 -= bytes as i64;
                }
                Ok(false) | Err(_) => {
                    // Refused or unreachable: stop ranking this lender
                    // first for the rest of the pass.
                    lenders[0].1 = i64::MIN;
                }
            }
        }
        Ok(spilled)
    }

    /// Delegate one sealed, locally-held object to `holder` — the spill
    /// primitive (capacity-driven via [`DisaggStore::spill_cold`],
    /// heat-driven via [`DisaggStore::rebalance_once`]). The local copy
    /// is pinned while the lender copies and seals its replica over the
    /// fabric (`SPILL_AT`); only after the lender acknowledges adoption
    /// is the local copy deleted (deferred, so in-flight local readers
    /// finish first) and the `lent` ledger entry recorded. Returns
    /// whether the lender adopted; `Ok(false)` means it refused and
    /// nothing changed.
    pub fn spill_to(&self, id: ObjectId, holder: NodeId) -> Result<bool, PlasmaError> {
        if holder == self.inner.node {
            return Ok(false);
        }
        // Single-lease interaction: an object with outstanding replicas
        // is never lent — its delete path must stay a pure invalidation
        // fan-out, not a lease chase on top of one.
        if self.inner.replicas.holder_count(id) > 0 {
            return Ok(false);
        }
        let Some(peer) = self.peers_snapshot().into_iter().find(|p| p.node == holder) else {
            return Err(PlasmaError::Transport(format!("no peer for {holder}")));
        };
        // Pin the source copy so eviction cannot race the lender's copy.
        let Some(loc) = self.inner.core.get_local(id) else {
            return Err(PlasmaError::ObjectNotFound(id));
        };
        let req = SpillAtReq {
            requester: self.inner.node,
            epoch: self.ring_epoch(),
            location: loc,
        };
        let adopted = match self.peer_call(&peer, method::SPILL_AT, req.encode()) {
            // A garbled response is as ambiguous as a lost one: treat it
            // like Unreachable below instead of bailing out — an early
            // return here would leak the source pin taken above.
            Ok(body) => match SpillAtResp::decode(body) {
                Ok(resp) => {
                    self.maybe_adopt_epoch(holder, resp.epoch);
                    resp.status == SpillAtStatus::Adopted
                }
                Err(_) => false,
            },
            // Ambiguous outcome (request may have executed, response
            // lost): keep the local copy. If the lender did adopt, both
            // immutable copies coexist harmlessly until borrow
            // reconciliation drops the redundant replica.
            Err(PeerFail::Skipped) | Err(PeerFail::Unreachable(_)) => false,
            Err(PeerFail::Rpc(e)) => {
                let _ = self.inner.core.release(id);
                return Err(Self::rpc_err(e));
            }
        };
        if !adopted {
            self.inner.metrics.spills_refused.inc();
            self.inner.core.release(id)?;
            return Ok(false);
        }
        // The lender sealed its replica *before* we get here, so from
        // this point the delegation is the truth: record it, then drop
        // the local copy. Deletion is deferred — concurrent local
        // readers (and remote pins) drain first.
        self.inner.ledger.record_lent(id, holder, loc.total_size());
        self.sync_ledger_gauges();
        self.inner.core.release(id)?;
        let _ = self.inner.core.delete_deferred(id);
        if let Some(cache) = &self.inner.idcache {
            cache.invalidate(id);
        }
        self.inner.heat.clear(id);
        self.inner.metrics.spills_completed.inc();
        Ok(true)
    }

    /// One heat-driven rebalance pass: every object whose dominant
    /// remote reader accumulated at least `heat_min_hits` remote hits is
    /// delegated *to that reader*, converting its future remote reads
    /// into local ones. Returns the number of objects moved.
    pub fn rebalance_once(&self) -> Result<u64, PlasmaError> {
        let min_hits = self.inner.elastic.heat_min_hits;
        let mut moved = 0u64;
        for (id, reader, _) in self.inner.heat.drain_hot(min_hits) {
            if reader == self.inner.node
                || self.ring_owner(id) != Some(self.inner.node)
                || self.inner.ledger.lent_holder(id).is_some()
                || self.inner.replicas.holder_count(id) > 0
                || self.inner.core.peek(id).is_none()
            {
                continue;
            }
            if matches!(self.spill_to(id, reader), Ok(true)) {
                self.inner.metrics.rebalances.inc();
                moved += 1;
            }
        }
        Ok(moved)
    }

    /// Quiesce-time borrow-ledger reconciliation: report to every peer
    /// exactly which of its objects this node still holds borrowed, and
    /// act on the answer — replicas the owner declared redundant are
    /// dropped here, and the owner trims lent entries this node no
    /// longer honors. Heals every partial-spill outcome: a lost
    /// `SPILL_AT` response (holder sealed, owner never recorded the
    /// lease) re-installs the owner's lent entry; an owner that
    /// re-acquired a local copy retires the delegation.
    ///
    /// Like [`DisaggStore::reconcile_pins`], only sound while no spill
    /// or get traffic involving this node is in flight. Returns
    /// `(replicas dropped here, owner-side entries trimmed)`.
    pub fn reconcile_borrows(&self) -> Result<(u64, u64), PlasmaError> {
        let peers = self.peers_snapshot();
        let mut dropped = 0u64;
        let mut trimmed = 0u64;
        for peer in &peers {
            let req = BorrowReconcileReq {
                requester: self.inner.node,
                borrowed: self.inner.ledger.borrowed_from(peer.node),
            };
            match self.peer_call(peer, method::BORROW_RECONCILE, req.encode()) {
                Ok(body) => {
                    let resp = BorrowReconcileResp::decode(body)
                        .map_err(|e| PlasmaError::Protocol(e.to_string()))?;
                    trimmed += resp.trimmed;
                    for id in resp.drop {
                        let _ = self.inner.core.delete_deferred(id);
                        self.inner.ledger.remove_borrowed(id);
                        dropped += 1;
                    }
                }
                Err(PeerFail::Skipped) => {}
                Err(PeerFail::Unreachable(m)) => return Err(PlasmaError::PeerUnavailable(m)),
                Err(PeerFail::Rpc(e)) => return Err(Self::rpc_err(e)),
            }
        }
        self.sync_ledger_gauges();
        Ok((dropped, trimmed))
    }

    /// Forward a delete for a lent object to its holder, retiring the
    /// ledger entry once the holder confirms (or reports the replica
    /// already gone).
    fn delete_at_holder(&self, id: ObjectId, holder: NodeId) -> Result<(), PlasmaError> {
        let Some(peer) = self.peers_snapshot().into_iter().find(|p| p.node == holder) else {
            return Err(PlasmaError::Transport(format!("no peer for {holder}")));
        };
        match self.peer_call(&peer, method::DELETE_HELD, IdReq { id }.encode()) {
            Ok(_) => {}
            Err(PeerFail::Rpc(RpcError::Status(s))) if s.code == StatusCode::NotFound => {}
            Err(PeerFail::Rpc(RpcError::Status(s))) if s.code == StatusCode::FailedPrecondition => {
                return Err(PlasmaError::ObjectInUse(id));
            }
            Err(PeerFail::Rpc(e)) => return Err(Self::rpc_err(e)),
            Err(PeerFail::Skipped) => {
                return Err(PlasmaError::PeerUnavailable(format!(
                    "holder {} is down",
                    peer.name
                )));
            }
            Err(PeerFail::Unreachable(m)) => return Err(PlasmaError::PeerUnavailable(m)),
        }
        self.inner.ledger.remove_lent(id);
        self.sync_ledger_gauges();
        if let Some(cache) = &self.inner.idcache {
            cache.invalidate(id);
        }
        Ok(())
    }

    /// Parse the `retry_after_ms=N` hint an overloaded owner embeds in
    /// its `ResourceExhausted` status message.
    fn retry_after_from(message: &str, default_ms: u64) -> u64 {
        message
            .rsplit("retry_after_ms=")
            .next()
            .and_then(|tail| {
                let digits: String = tail.chars().take_while(char::is_ascii_digit).collect();
                digits.parse().ok()
            })
            .unwrap_or(default_ms)
    }

    fn peers_snapshot(&self) -> Vec<Peer> {
        self.inner.peers.read().clone()
    }

    /// Peers with the ring's computed owner of `id` moved to the front,
    /// so serial forwarding loops probe the likeliest holder first.
    fn peers_owner_first(&self, id: ObjectId) -> Vec<Peer> {
        let mut peers = self.peers_snapshot();
        if let Some(owner) = self.ring_owner(id) {
            if let Some(i) = peers.iter().position(|p| p.node == owner) {
                peers.swap(0, i);
            }
        }
        peers
    }

    fn rpc_err(e: RpcError) -> PlasmaError {
        match e {
            RpcError::Status(s) => PlasmaError::Protocol(format!("peer status: {s}")),
            RpcError::Transport(io) => PlasmaError::Transport(io.to_string()),
            RpcError::Deadline(d) => {
                PlasmaError::PeerUnavailable(format!("no response within {d:?}"))
            }
            RpcError::Protocol(m) => PlasmaError::Protocol(m),
        }
    }

    /// Liveness state of one peer, as seen by this node's failure detector.
    pub fn peer_state(&self, node: NodeId) -> PeerState {
        self.inner.health.state(node)
    }

    /// Failure-detector counters for one peer.
    pub fn peer_health_stats(&self, node: NodeId) -> PeerStats {
        self.inner.health.stats(node)
    }

    /// One guarded interconnect call: health admission, per-call deadline,
    /// bounded retries with backoff charged to the cluster clock.
    ///
    /// Definite answers — including error statuses — prove the peer is
    /// alive and reset its failure count; only transport-level failures
    /// (connection loss, expired deadline, `Unavailable`) indict it.
    fn peer_call(&self, peer: &Peer, method_id: u32, body: Bytes) -> Result<Bytes, PeerFail> {
        let inner = &self.inner;
        let mut attempts_left = match inner.health.admit(peer.node) {
            Admission::Skip => return Err(PeerFail::Skipped),
            Admission::Probe => 1, // one shot; failure re-arms the backoff window
            Admission::Attempt => inner.retry.max_attempts.max(1),
        };
        let mut retry_no = 0u32;
        loop {
            match peer
                .client
                .call_with_deadline(method_id, body.clone(), inner.call_deadline)
            {
                Ok(resp) => {
                    inner.health.record_success(peer.node);
                    self.flush_pending_releases(peer);
                    return Ok(resp);
                }
                Err(RpcError::Status(s)) if s.code != StatusCode::Unavailable => {
                    inner.health.record_success(peer.node);
                    return Err(PeerFail::Rpc(RpcError::Status(s)));
                }
                Err(e) if e.is_retryable() => {
                    let state = self.note_peer_failure(peer.node);
                    attempts_left -= 1;
                    if attempts_left == 0 || state == PeerState::Down {
                        return Err(PeerFail::Unreachable(format!(
                            "peer {} unreachable: {e}",
                            peer.name
                        )));
                    }
                    retry_no += 1;
                    inner.metrics.peer_retries.inc();
                    let backoff = inner.retry.backoff(retry_no, &mut inner.retry_rng.lock());
                    // Advance-to rather than charge: fan-out workers
                    // backing off concurrently model one overlapping
                    // wait, not N stacked on the shared cluster clock.
                    inner.clock.advance_to(inner.clock.now() + backoff);
                }
                Err(e) => {
                    // Protocol violation: a response arrived, but the
                    // connection is now suspect.
                    self.note_peer_failure(peer.node);
                    return Err(PeerFail::Rpc(e));
                }
            }
        }
    }

    /// Record a call failure against `node`, and — on the exact failure
    /// that completes an Up→Down transition — drop every id-cache hint
    /// pointing at it. A cached hint for a dead peer would otherwise
    /// steer each repeat `get` into a full call deadline before the
    /// broadcast fallback ran.
    fn note_peer_failure(&self, node: NodeId) -> PeerState {
        let was_down = self.inner.health.state(node) == PeerState::Down;
        let state = self.inner.health.record_failure(node);
        if state == PeerState::Down && !was_down {
            if let Some(cache) = &self.inner.idcache {
                cache.invalidate_peer(node);
            }
        }
        state
    }

    /// Retry parked RELEASEs against `peer` (see `Inner::pending_releases`).
    /// Invoked after a successful call proved the peer reachable; entries
    /// that fail again are re-queued. Uses the raw client rather than
    /// [`DisaggStore::peer_call`] so a flush never recurses into another
    /// flush.
    fn flush_pending_releases(&self, peer: &Peer) {
        let queued: Vec<ObjectId> = {
            let mut pending = self.inner.pending_releases.lock();
            if pending.is_empty() {
                return;
            }
            let mut queued = Vec::new();
            pending.retain(|(node, id)| {
                if *node == peer.node {
                    queued.push(*id);
                    false
                } else {
                    true
                }
            });
            self.inner
                .metrics
                .pending_releases
                .set(pending.len() as i64);
            queued
        };
        for id in queued {
            let req = ReleaseReq {
                requester: self.inner.node,
                id,
            };
            if peer
                .client
                .call_with_deadline(method::RELEASE, req.encode(), self.inner.call_deadline)
                .is_err()
            {
                self.park_release(peer.node, id);
            }
        }
    }

    /// Park a RELEASE against an unreachable peer for later retry,
    /// tracking the backlog gauge.
    fn park_release(&self, owner: NodeId, id: ObjectId) {
        let mut pending = self.inner.pending_releases.lock();
        pending.push((owner, id));
        self.inner
            .metrics
            .pending_releases
            .set(pending.len() as i64);
    }

    /// Releases that failed against an unreachable peer and await retry.
    /// Zero in steady state; tests assert no release is silently dropped.
    pub fn pending_release_count(&self) -> usize {
        self.inner.pending_releases.lock().len()
    }

    /// Run `f` against each of `peers` concurrently (scoped threads),
    /// preserving order. Each peer gets its own deadline/retry budget, so
    /// a broadcast with one hung peer costs one deadline — not one per
    /// position in a serial loop.
    fn fanout<T: Send>(&self, peers: &[Peer], f: impl Fn(&Peer) -> T + Sync) -> Vec<T> {
        match peers {
            [] => Vec::new(),
            [only] => vec![f(only)],
            _ => std::thread::scope(|s| {
                let f = &f;
                let handles: Vec<_> = peers.iter().map(|peer| s.spawn(move || f(peer))).collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("peer fan-out thread panicked"))
                    .collect()
            }),
        }
    }

    /// Migrate a remote object into this node's local store (locality
    /// optimization: subsequent reads take the local path). The object is
    /// copied over the fabric while pinned, the owner's copy is deleted,
    /// and the local copy is sealed under the same id. Objects are
    /// immutable, so the brief window in which both copies exist is
    /// harmless; if another client still holds the owner's copy, migration
    /// aborts with [`PlasmaError::ObjectInUse`] and nothing changes.
    pub fn migrate_to_local(
        &self,
        id: ObjectId,
        timeout: Duration,
    ) -> Result<ObjectLocation, PlasmaError> {
        let result = self.migrate_inner(id, timeout);
        let m = &self.inner.metrics;
        match &result {
            Ok(_) => m.migrations_completed.inc(),
            Err(PlasmaError::ObjectInUse(_)) => m.migrations_aborted_in_use.inc(),
            Err(_) => m.migrations_failed.inc(),
        }
        result
    }

    fn migrate_inner(
        &self,
        id: ObjectId,
        timeout: Duration,
    ) -> Result<ObjectLocation, PlasmaError> {
        if let Some(loc) = self.inner.core.peek(id) {
            return Ok(loc); // already local
        }
        // Pinning lookup so the owner cannot evict mid-copy. The guard
        // releases the pin on every early exit below — without it, a
        // failed migration left the owner's copy pinned forever
        // (unevictable, undeletable).
        let found = ObjectStore::get(self, &[id], timeout)?;
        let Some(remote_loc) = found[0] else {
            return Err(PlasmaError::Timeout);
        };
        let pin = RemotePinGuard::new(self, id);
        if remote_loc.seg.owner == self.inner.node {
            // Sealed locally while we were looking: nothing to migrate.
            pin.release()?;
            return self
                .inner
                .core
                .peek(id)
                .ok_or(PlasmaError::ObjectNotFound(id));
        }
        let owner = remote_loc.seg.owner;

        // Copy the (immutable) bytes through the data plane.
        let bytes = self.inner.data_plane.pull(&remote_loc)?;

        // Stage the local copy straight in the core (bypassing ring
        // routing: the id is legitimately owned by the cluster already).
        // Aborted on any failure before seal.
        let local_loc =
            self.inner
                .core
                .create(id, remote_loc.data_size, remote_loc.metadata_size)?;
        let staged = StagedCreateGuard::new(self, id);
        let local_map = self.inner.core.mapping_for(&local_loc)?;
        local_map.write_at(local_loc.offset, &bytes)?;

        // Drop our pin before sealing: once the copy is sealed under this
        // id, `remote_held` must no longer carry it or local releases
        // would be misrouted to the old owner. A failed RELEASE aborts the
        // staged copy — the owner's copy is untouched, nothing is lost.
        pin.release()?;

        // Seal the local copy *before* asking the owner to delete. From
        // here this node serves the object, so an ambiguous DELETE outcome
        // (executed on the owner, response lost) can no longer destroy the
        // only surviving copy.
        let loc = self.inner.core.seal(id)?;
        staged.disarm();
        self.inner.core.release(id)?; // migration's creator reference
        if let Some(cache) = &self.inner.idcache {
            cache.invalidate(id);
        }

        // Ask the owner to delete its copy — best effort, never at the
        // expense of the sealed local copy.
        let Some(peer) = self.peers_snapshot().into_iter().find(|p| p.node == owner) else {
            return Ok(loc);
        };
        match self.peer_call(&peer, method::DELETE, IdReq { id }.encode()) {
            Ok(_) => {}
            Err(PeerFail::Rpc(RpcError::Status(s))) if s.code == StatusCode::NotFound => {
                // The owner's copy is already gone: a retried DELETE whose
                // first attempt executed (response lost) reports NotFound,
                // and so does an owner that evicted once our pin dropped.
            }
            Err(PeerFail::Rpc(RpcError::Status(s))) if s.code == StatusCode::FailedPrecondition => {
                // Another client still reads the owner's copy: undo the
                // migration (contract: nothing changes). Best effort — if
                // a reader raced onto our local copy it stays, and the two
                // immutable copies coexist safely.
                let _ = self.inner.core.delete(id);
                return Err(PlasmaError::ObjectInUse(id));
            }
            Err(PeerFail::Rpc(_)) | Err(PeerFail::Skipped) | Err(PeerFail::Unreachable(_)) => {
                // Ambiguous or failed outcome: the owner may or may not
                // have deleted. The sealed local copy is authoritative
                // either way; a surviving owner copy lingers as immutable
                // garbage until deleted or evicted. Never abort the local
                // copy here — it may be the only one left.
            }
        }
        Ok(loc)
    }

    /// Cluster-wide object inventory: this store's sealed objects plus
    /// every reachable peer's, grouped by node, queried in parallel.
    /// Extends Plasma's `List` across the interconnect. Unreachable peers
    /// are omitted — the inventory is partial, not an error.
    pub fn global_list(&self) -> Result<Vec<(NodeId, Vec<ListEntry>)>, PlasmaError> {
        let mut out = Vec::with_capacity(self.peer_count() + 1);
        let local: Vec<ListEntry> = self
            .inner
            .core
            .list()
            .into_iter()
            .filter(|i| i.state == plasma::ObjectState::Sealed)
            .map(|i| ListEntry {
                id: i.id,
                data_size: i.data_size,
                metadata_size: i.metadata_size,
                ref_count: i.ref_count,
            })
            .collect();
        out.push((self.inner.node, local));
        let peers = self.peers_snapshot();
        let responses = self.fanout(&peers, |peer| {
            self.peer_call(peer, method::LIST, Bytes::new())
        });
        for response in responses {
            let Ok(body) = response else { continue };
            let resp = ListResp::decode(body)
                .map_err(|e| PlasmaError::Protocol(format!("list response: {e}")))?;
            out.push((resp.node, resp.entries));
        }
        Ok(out)
    }

    /// Resolve many objects in one batched pass — the multi-get hot path.
    ///
    /// Semantically identical to [`ObjectStore::get`] with the same id
    /// slice (which already batches: all ids a single peer owns travel in
    /// **one** `GET_MANY` round trip, not one RPC per id). This alias
    /// exists so callers reaching for a batch API find the batched
    /// guarantee spelled out: `N` small objects held by one owner cost
    /// one RPC, and the ids-per-RPC distribution is observable as the
    /// `disagg.get_many.batch_size` histogram.
    pub fn batch_get(
        &self,
        ids: &[ObjectId],
        timeout: Duration,
    ) -> Result<Vec<Option<ObjectLocation>>, PlasmaError> {
        ObjectStore::get(self, ids, timeout)
    }

    /// One remote-lookup round for the `None` slots of `out`: consult the
    /// id cache (targeted `GET_MANY` batches or direct reads), then
    /// broadcast a batched `GET_MANY` to peers for the rest — in
    /// parallel. Unreachable peers contribute nothing; their objects
    /// simply stay unresolved this round, so a dead peer degrades `get`
    /// to a miss instead of an error.
    fn remote_lookup_pass(&self, ids: &[ObjectId], out: &mut [Option<ObjectLocation>]) {
        let mut missing: Vec<ObjectId> = ids
            .iter()
            .zip(out.iter())
            .filter(|(_, o)| o.is_none())
            .map(|(id, _)| *id)
            .collect();
        if missing.is_empty() {
            return;
        }
        let pass_started = Instant::now();
        let mut found: HashMap<ObjectId, ObjectLocation> = HashMap::new();

        // Consult the id cache first.
        if let Some(cache) = &self.inner.idcache {
            let mut targeted: HashMap<u16, Vec<ObjectId>> = HashMap::new();
            missing.retain(|id| match cache.lookup(*id) {
                Some(entry) if cache.mode() == CacheMode::Direct => {
                    // Direct mode: trust the cached location outright — no
                    // RPC, no pin (the paper's corruption hazard).
                    self.inner.metrics.idcache_hits.inc();
                    self.inner
                        .counters
                        .direct_cache_reads
                        .fetch_add(1, Ordering::Relaxed);
                    found.insert(*id, entry.location);
                    false
                }
                Some(entry) => {
                    self.inner.metrics.idcache_hits.inc();
                    targeted.entry(entry.peer.0).or_default().push(*id);
                    false
                }
                None => {
                    self.inner.metrics.idcache_misses.inc();
                    true
                }
            });
            let peers = self.peers_snapshot();
            for (peer_node, ids) in targeted {
                match peers.iter().find(|p| p.node.0 == peer_node) {
                    Some(peer) => match self.get_many_rpc(peer, &ids, true) {
                        Ok(resp) => {
                            self.absorb_lookup(peer, resp.found().copied().collect(), &mut found);
                            self.follow_redirects(&resp, &mut found);
                            // Cache pointed at a peer that no longer has
                            // some ids: invalidate and re-broadcast those.
                            for id in ids {
                                if !found.contains_key(&id) {
                                    cache.invalidate(id);
                                    missing.push(id);
                                }
                            }
                        }
                        Err(_) => {
                            // Peer unreachable: it may still own the
                            // objects, so keep the cache entries and let
                            // the broadcast ask the others.
                            missing.extend(ids);
                        }
                    },
                    None => missing.extend(ids),
                }
            }
        }

        // Ring-targeted phase: resolve each still-missing id's rendezvous
        // owner locally (zero RPCs) and ask exactly that peer. Ids the
        // owner does not hold — migrated off-ring, not yet created, or
        // the owner is unreachable — fall through to the broadcast, as do
        // ids this node owns itself (the local pass already missed them,
        // so if they exist at all they live off-ring).
        let ring = self.inner.ring.read().clone();
        if let Some(ring) = ring {
            let mut by_owner: HashMap<NodeId, Vec<ObjectId>> = HashMap::new();
            let mut fallback: Vec<ObjectId> = Vec::new();
            let mut lent: Vec<(ObjectId, NodeId)> = Vec::new();
            for id in missing.drain(..) {
                if found.contains_key(&id) {
                    continue;
                }
                match ring.owner_of(id) {
                    Some(owner) if owner != self.inner.node => {
                        by_owner.entry(owner).or_default().push(id);
                    }
                    // Self-owned miss: if this node lent the id away, its
                    // own ledger is the redirect — chase the holder like
                    // a `Moved` answer instead of broadcasting (the
                    // holder hides borrowed replicas from broadcasts).
                    _ => match self.inner.ledger.lent_holder(id) {
                        Some(holder) => lent.push((id, holder)),
                        None => fallback.push(id),
                    },
                }
            }
            let peers = self.peers_snapshot();
            let mut hits = 0u64;
            if !lent.is_empty() {
                let own_ledger = GetManyResp {
                    entries: lent
                        .iter()
                        .map(|&(id, holder)| GetManyEntry {
                            id,
                            status: GetManyStatus::Moved,
                            location: None,
                            moved_to: Some(holder),
                        })
                        .collect(),
                    epoch: self.ring_epoch(),
                };
                self.follow_redirects(&own_ledger, &mut found);
                for (id, _) in lent {
                    if found.contains_key(&id) {
                        hits += 1;
                    } else {
                        fallback.push(id);
                    }
                }
            }
            for (owner, group) in by_owner {
                match peers.iter().find(|p| p.node == owner) {
                    Some(peer) => match self.get_many_rpc(peer, &group, false) {
                        Ok(resp) => {
                            self.maybe_adopt_epoch(owner, resp.epoch);
                            self.absorb_lookup(peer, resp.found().copied().collect(), &mut found);
                            // Redirect-resolved ids count as ring hits:
                            // the owner *did* answer for them, one hop on.
                            self.follow_redirects(&resp, &mut found);
                            for id in group {
                                if found.contains_key(&id) {
                                    hits += 1;
                                } else {
                                    fallback.push(id);
                                }
                            }
                        }
                        Err(_) => fallback.extend(group),
                    },
                    None => fallback.extend(group),
                }
            }
            self.note_ring_hits(hits);
            self.note_ring_fallbacks(fallback.len() as u64);
            missing = fallback;
        }

        // Broadcast to every peer, in parallel, for whatever is still
        // missing; absorb responses (and their pins) sequentially.
        let remaining: Vec<ObjectId> = missing
            .iter()
            .filter(|id| !found.contains_key(id))
            .copied()
            .collect();
        if !remaining.is_empty() {
            let peers = self.peers_snapshot();
            let responses = self.fanout(&peers, |peer| self.get_many_rpc(peer, &remaining, false));
            // Absorb every direct answer before chasing any redirect: the
            // holder of a spilled object answers this same broadcast with
            // `Pinned`, so chasing the owner's `Moved` first would pin the
            // object at the holder twice while the caller releases once.
            let answered: Vec<(&Peer, GetManyResp)> = peers
                .iter()
                .zip(responses)
                .filter_map(|(peer, response)| response.ok().map(|resp| (peer, resp)))
                .collect();
            for (peer, resp) in &answered {
                self.maybe_adopt_epoch(peer.node, resp.epoch);
                self.absorb_lookup(peer, resp.found().copied().collect(), &mut found);
            }
            for (_, resp) in &answered {
                self.follow_redirects(resp, &mut found);
            }
        }

        self.inner
            .metrics
            .lookup_fanout
            .record_duration(pass_started.elapsed());
        for (slot, id) in out.iter_mut().zip(ids) {
            if slot.is_none() {
                if let Some(loc) = found.get(id) {
                    *slot = Some(*loc);
                }
            }
        }
    }

    /// Chase the `Moved` entries of one GET_MANY response: a ring owner
    /// that spilled an id answers with the holder's address, and this
    /// follow-up asks the holder directly — one extra hop, batched per
    /// holder. Absorbing the holder's answer also inserts it into the id
    /// cache, so the redirect is paid once; repeat gets go straight to
    /// the holder.
    fn follow_redirects(&self, resp: &GetManyResp, found: &mut HashMap<ObjectId, ObjectLocation>) {
        let mut by_holder: HashMap<NodeId, Vec<ObjectId>> = HashMap::new();
        for (id, holder) in resp.moved() {
            if found.contains_key(&id) {
                continue;
            }
            if holder == self.inner.node {
                // The redirect points home: this node holds the replica
                // borrowed. The local fast path hides borrowed objects,
                // but an owner-sanctioned redirect may serve them.
                if let Some(loc) = self.inner.core.get_local(id) {
                    self.inner.metrics.redirects_followed.inc();
                    found.insert(id, loc);
                }
                continue;
            }
            by_holder.entry(holder).or_default().push(id);
        }
        if by_holder.is_empty() {
            return;
        }
        let peers = self.peers_snapshot();
        for (holder, ids) in by_holder {
            let Some(peer) = peers.iter().find(|p| p.node == holder) else {
                continue;
            };
            if let Ok(resp) = self.get_many_rpc(peer, &ids, true) {
                self.maybe_adopt_epoch(holder, resp.epoch);
                self.inner.metrics.redirects_followed.add(ids.len() as u64);
                self.absorb_lookup(peer, resp.found().copied().collect(), found);
            }
        }
    }

    /// Issue one pinning GET_MANY RPC for `ids` to one peer: every id the
    /// peer holds sealed comes back pinned (attributed to this node) with
    /// its fabric descriptor attached — one round trip regardless of how
    /// many ids the batch carries. Counted under `lookup_rpcs`, and the
    /// batch size is recorded in `disagg.get_many.batch_size`.
    fn get_many_rpc(
        &self,
        peer: &Peer,
        ids: &[ObjectId],
        redirected: bool,
    ) -> Result<GetManyResp, PeerFail> {
        if ids.is_empty() {
            return Ok(GetManyResp {
                entries: Vec::new(),
                epoch: self.ring_epoch(),
            });
        }
        let req = GetManyReq {
            requester: self.inner.node,
            ids: ids.to_vec(),
            epoch: self.ring_epoch(),
            redirected,
        };
        let result = self.peer_call(peer, method::GET_MANY, req.encode());
        if !matches!(result, Err(PeerFail::Skipped)) {
            self.inner
                .counters
                .lookup_rpcs
                .fetch_add(1, Ordering::Relaxed);
            self.inner.metrics.get_many_batch.record(ids.len() as u64);
        }
        GetManyResp::decode(result?)
            .map_err(|e| PeerFail::Rpc(RpcError::Protocol(format!("get_many response: {e}"))))
    }

    /// Fold the locations one peer returned (with pins taken on our
    /// behalf) into `found`, ledgering each pin under that peer. If two
    /// peers answered for the same id (a migration raced the broadcast),
    /// the first absorbed pin wins and the duplicate is released back to
    /// the losing peer. The *same* peer answering an id twice is not a
    /// race but a batch that legitimately carried the id twice (the
    /// owner pinned once per instance, and the caller will release once
    /// per filled slot) — those extra pins are ledgered, not released.
    fn absorb_lookup(
        &self,
        peer: &Peer,
        pinned: Vec<ObjectLocation>,
        found: &mut HashMap<ObjectId, ObjectLocation>,
    ) {
        let mut duplicates: Vec<ObjectId> = Vec::new();
        {
            let mut held = self.inner.remote_held.lock();
            for loc in pinned {
                if let Some(&winner_loc) = found.get(&loc.id) {
                    let same_peer = held
                        .get_mut(&loc.id)
                        .and_then(|entries| entries.iter_mut().find(|(node, _)| *node == peer.node))
                        .map(|entry| entry.1 += 1)
                        .is_some();
                    if !same_peer {
                        duplicates.push(loc.id);
                        // The losing answer must not survive in the id
                        // cache: a concurrent pass may have cached this
                        // peer between our winner's insert and now, and a
                        // stale hint at the loser misroutes (and, in
                        // Direct mode, corrupts) every repeat get once
                        // its pin is released below. Repoint at the
                        // ledgered winner atomically — `realign` leaves
                        // any fresher third-party entry alone.
                        if let Some(cache) = &self.inner.idcache {
                            if let Some(&(winner, _)) =
                                held.get(&loc.id).and_then(|entries| entries.first())
                            {
                                cache.realign(
                                    loc.id,
                                    peer.node,
                                    CachedEntry {
                                        location: winner_loc,
                                        peer: winner,
                                    },
                                );
                            }
                        }
                    }
                    continue;
                }
                self.inner
                    .counters
                    .remote_found
                    .fetch_add(1, Ordering::Relaxed);
                // Ledger the pin under the owner that actually took it: if
                // the object moved between lookups (migration race), a pin
                // on the new owner must not be merged into — and later
                // "released" against — the stale owner's count.
                let entries = held.entry(loc.id).or_default();
                match entries.iter_mut().find(|(node, _)| *node == peer.node) {
                    Some(entry) => entry.1 += 1,
                    None => entries.push((peer.node, 1)),
                }
                if let Some(cache) = &self.inner.idcache {
                    cache.insert(CachedEntry {
                        location: loc,
                        peer: peer.node,
                    });
                }
                found.insert(loc.id, loc);
            }
        }
        for id in duplicates {
            let req = ReleaseReq {
                requester: self.inner.node,
                id,
            };
            match self.peer_call(peer, method::RELEASE, req.encode()) {
                Ok(_) => {}
                Err(PeerFail::Skipped) | Err(PeerFail::Unreachable(_)) | Err(PeerFail::Rpc(_)) => {
                    // The losing peer did not confirm the release (dead,
                    // unreachable, or a definite error): park it and
                    // retry after the next successful call to that peer,
                    // instead of leaking its pin permanently.
                    self.park_release(peer.node, id);
                }
            }
        }
    }

    /// Ring-routed `create`: compute the id's owner locally, allocate
    /// there. Local owner → plain core create (the core's id map is the
    /// uniqueness arbiter). Remote owner → one point-to-point `CREATE_AT`;
    /// the owner stages the object, pins the creator reference to this
    /// node, and returns the fabric descriptor so the client writes the
    /// payload straight through the fabric. A `WrongOwner` answer means
    /// our membership epoch is stale: adopt the owner's table and re-route
    /// once.
    fn create_via_ring(
        &self,
        id: ObjectId,
        data_size: u64,
        metadata_size: u64,
    ) -> Result<ObjectLocation, PlasmaError> {
        for _ in 0..2 {
            // Without a table there is no owner to ask, and creating
            // locally on a guess could fork the id against a peer.
            let Some(owner) = self.ring_owner(id) else {
                return Err(PlasmaError::PeerUnavailable(format!(
                    "no membership table (or an empty one): cannot place {id} among {} peer(s)",
                    self.peer_count()
                )));
            };
            if owner == self.inner.node {
                self.check_admission()?;
                return self.inner.core.create(id, data_size, metadata_size);
            }
            let Some(peer) = self.peers_snapshot().into_iter().find(|p| p.node == owner) else {
                return Err(PlasmaError::PeerUnavailable(format!(
                    "no interconnect peer for ring owner {owner}"
                )));
            };
            let req = CreateAtReq {
                requester: self.inner.node,
                epoch: self.ring_epoch(),
                id,
                data_size,
                metadata_size,
            };
            let body = match self.peer_call(&peer, method::CREATE_AT, req.encode()) {
                Ok(body) => body,
                // Uniqueness lives at the owner, so an unreachable owner
                // fails the create outright — a create never proceeds on
                // a guess.
                Err(PeerFail::Skipped) => {
                    return Err(PlasmaError::PeerUnavailable(format!(
                        "peer {} is down",
                        peer.name
                    )))
                }
                Err(PeerFail::Unreachable(m)) => return Err(PlasmaError::PeerUnavailable(m)),
                // Typed overload rejection from the owner's admission
                // gate: surface it as `Overloaded` with the owner's
                // backoff hint so callers can retry instead of failing.
                Err(PeerFail::Rpc(RpcError::Status(s)))
                    if s.code == StatusCode::ResourceExhausted =>
                {
                    return Err(PlasmaError::Overloaded {
                        retry_after_ms: Self::retry_after_from(
                            &s.message,
                            self.inner.elastic.retry_after_ms,
                        ),
                    })
                }
                Err(PeerFail::Rpc(e)) => return Err(Self::rpc_err(e)),
            };
            let resp = CreateAtResp::decode(body)
                .map_err(|e| PlasmaError::Protocol(format!("create_at response: {e}")))?;
            match resp.status {
                CreateAtStatus::Ok => {
                    let loc = resp.location.ok_or_else(|| {
                        PlasmaError::Protocol("create_at: Ok without location".to_string())
                    })?;
                    // Remember the owner so seal/abort route point-to-
                    // point. The creator's reference lives entirely at
                    // the owner (pinned to us) and is consumed by the
                    // SEAL_AT / ABORT_AT that ends the staging — no
                    // requester-side hold to ledger.
                    self.inner.staged_out.lock().insert(id, owner);
                    return Ok(loc);
                }
                CreateAtStatus::Exists => return Err(PlasmaError::ObjectExists(id)),
                CreateAtStatus::WrongOwner => {
                    self.maybe_adopt_epoch(owner, resp.epoch);
                }
            }
        }
        Err(PlasmaError::PeerUnavailable(format!(
            "ring ownership of {id} unsettled (membership change in flight)"
        )))
    }

    /// Seal a create that was forwarded to a remote ring owner. The
    /// owner seals *and* consumes the creator's reference in one RPC, so
    /// the client's trailing release (plasma's put is create → write →
    /// seal → release) completes locally via a waiver instead of a
    /// second network call that could fail mid-put and strand the pin.
    /// `SEAL_AT` is idempotent on the owner, so a lost response is safe
    /// to retry; an owner that became unreachable leaves its staged
    /// orphan to quiesce-time reconciliation (which aborts it).
    fn seal_forwarded(&self, id: ObjectId, owner: NodeId) -> Result<ObjectLocation, PlasmaError> {
        let Some(peer) = self.peers_snapshot().into_iter().find(|p| p.node == owner) else {
            return Err(PlasmaError::PeerUnavailable(format!(
                "no interconnect peer for owner {owner}"
            )));
        };
        let req = ForwardReq {
            requester: self.inner.node,
            epoch: self.ring_epoch(),
            id,
        };
        match self.peer_call(&peer, method::SEAL_AT, req.encode()) {
            Ok(body) => {
                let resp = CreateAtResp::decode(body)
                    .map_err(|e| PlasmaError::Protocol(format!("seal_at response: {e}")))?;
                let loc = resp.location.ok_or_else(|| {
                    PlasmaError::Protocol("seal_at: response without location".to_string())
                })?;
                self.inner.staged_out.lock().remove(&id);
                self.inner.release_waivers.lock().insert(id);
                Ok(loc)
            }
            Err(PeerFail::Skipped) | Err(PeerFail::Unreachable(_)) => {
                // The owner is unreachable: the object cannot be sealed
                // now. Drop the requester-side staging entry so quiesce
                // accounting stays clean; the owner-side staged orphan
                // is aborted by pin reconciliation when the pair next
                // quiesces.
                self.inner.staged_out.lock().remove(&id);
                Err(PlasmaError::PeerUnavailable(format!(
                    "owner {} unreachable while sealing {id}",
                    peer.name
                )))
            }
            Err(PeerFail::Rpc(e)) => Err(Self::rpc_err(e)),
        }
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
            // Pass 1: local, non-blocking (pins found objects). Borrowed
            // replicas are excluded — they serve only owner-sanctioned
            // redirects, which the remote pass below obtains.
            for (slot, id) in out.iter_mut().zip(ids) {
                if slot.is_none() && self.inner.ledger.borrowed_owner(*id).is_none() {
                    *slot = self.inner.core.get_local(*id);
                    // A held replica serving a local get is the whole
                    // point of replication: a remote round trip the hot
                    // reader no longer pays. (Safe to serve without
                    // consulting the owner — invalidation runs *before*
                    // the owner's delete, so a live replica implies the
                    // object still exists.)
                    if slot.is_some() && self.inner.replicas.replica_owner(*id).is_some() {
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
                    if self.inner.ledger.borrowed_owner(*id).is_none() {
                        *slot = got;
                    } else if got.is_some() {
                        // The wait pinned a hidden borrowed replica —
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

/// Aborts a staged (created but unsealed) local object when dropped,
/// unless disarmed. Keeps error paths from leaking half-written copies.
struct StagedCreateGuard<'a> {
    store: &'a DisaggStore,
    id: ObjectId,
    armed: bool,
}

impl<'a> StagedCreateGuard<'a> {
    fn new(store: &'a DisaggStore, id: ObjectId) -> Self {
        StagedCreateGuard {
            store,
            id,
            armed: true,
        }
    }

    fn disarm(mut self) {
        self.armed = false;
    }
}

impl Drop for StagedCreateGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            let _ = self.store.inner.core.abort(self.id);
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
        let started = Instant::now();
        if self.inner.core.exists_any_state(id) {
            return Err(PlasmaError::ObjectExists(id));
        }
        // An object this node lent out still exists — the bytes just
        // live at the holder. Re-creating it here would fork the id.
        if self.inner.ledger.lent_holder(id).is_some() {
            return Err(PlasmaError::ObjectExists(id));
        }
        // Outstanding replicas likewise: even if the owner copy was
        // evicted, a holder still serves the old bytes — re-creating
        // the id here would fork it against those replicas.
        if self.inner.replicas.holder_count(id) > 0 {
            return Err(PlasmaError::ObjectExists(id));
        }
        // Singleton cluster: no peer could hold or contest the id, so the
        // local existence check above *is* the uniqueness check.
        let loc = if self.inner.peers.read().is_empty() {
            self.check_admission()?;
            self.inner.core.create(id, data_size, metadata_size)?
        } else {
            self.create_via_ring(id, data_size, metadata_size)?
        };
        self.inner.metrics.create.record_duration(started.elapsed());
        Ok(loc)
    }

    fn seal(&self, id: ObjectId) -> Result<ObjectLocation, PlasmaError> {
        // A create forwarded to a remote ring owner seals there too.
        let staged_owner = self.inner.staged_out.lock().get(&id).copied();
        match staged_owner {
            Some(owner) => self.seal_forwarded(id, owner),
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
        // Remote-held references are fed back to their owners over RPC.
        // Each ledger entry is decremented optimistically and restored if
        // the RPC fails — otherwise the pin would be lost locally while
        // the owner still counts it, leaving the object unevictable
        // forever. The restore is ambiguous, though: a release whose
        // *response* was lost did land, so the restored entry is a
        // phantom the owner no longer counts. The owner's ack (`false` =
        // no pin ledgered for us) detects exactly that case, and the
        // loop re-routes this release at the next candidate — another
        // owner's entry or the local refcount — instead of letting a
        // phantom entry swallow a release some real pin needed.
        let mut phantom = false;
        loop {
            let owner = {
                let mut held = self.inner.remote_held.lock();
                match held.get_mut(&id) {
                    Some(entries) => {
                        // Pins on the same immutable object are fungible:
                        // any owner's count may be drained first, as long
                        // as each owner eventually receives exactly its
                        // own total. Prefer one that isn't Down so a dead
                        // peer doesn't block releasing pins held on live
                        // ones.
                        let i = entries
                            .iter()
                            .position(|(node, _)| self.inner.health.state(*node) != PeerState::Down)
                            .unwrap_or(0);
                        let node = entries[i].0;
                        entries[i].1 -= 1;
                        if entries[i].1 == 0 {
                            entries.remove(i);
                        }
                        if entries.is_empty() {
                            held.remove(&id);
                        }
                        Some(node)
                    }
                    None => None,
                }
            };
            let Some(owner) = owner else {
                break;
            };
            let result = (|| {
                let peer = self
                    .peers_snapshot()
                    .into_iter()
                    .find(|p| p.node == owner)
                    .ok_or_else(|| PlasmaError::Transport(format!("no peer for {owner}")))?;
                let req = ReleaseReq {
                    requester: self.inner.node,
                    id,
                };
                match self.peer_call(&peer, method::RELEASE, req.encode()) {
                    Ok(body) => Ok(BoolResp::decode(body).map(|r| r.value).unwrap_or(true)),
                    Err(PeerFail::Skipped) | Err(PeerFail::Unreachable(_)) => Err(
                        PlasmaError::PeerUnavailable(format!("owner {} unreachable", peer.name)),
                    ),
                    Err(PeerFail::Rpc(e)) => Err(Self::rpc_err(e)),
                }
            })();
            match result {
                Ok(true) => {
                    self.inner
                        .counters
                        .releases_forwarded
                        .fetch_add(1, Ordering::Relaxed);
                    return Ok(());
                }
                Ok(false) => {
                    // Phantom entry: the owner executed an earlier release
                    // whose response we never saw. The stale entry is
                    // already gone from the ledger — route this release at
                    // the next candidate.
                    phantom = true;
                }
                Err(e) => {
                    // Restore the decrement: the owner still counts this
                    // pin, so we must keep counting it too.
                    let mut held = self.inner.remote_held.lock();
                    let entries = held.entry(id).or_default();
                    match entries.iter_mut().find(|(node, _)| *node == owner) {
                        Some(entry) => entry.1 += 1,
                        None => entries.push((owner, 1)),
                    }
                    return Err(e);
                }
            }
        }
        // The creator's reference of a forwarded create was consumed by
        // SEAL_AT at the owner; the put flow's trailing release is
        // satisfied here without touching the network.
        if self.inner.release_waivers.lock().remove(&id) {
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
        // Direct-mode cache reads hold no reference: release is a no-op.
        if let Some(cache) = &self.inner.idcache {
            if cache.mode() == CacheMode::Direct && cache.lookup(id).is_some() {
                return Ok(());
            }
        }
        if phantom {
            return Ok(());
        }
        Err(PlasmaError::ObjectNotFound(id))
    }

    fn delete(&self, id: ObjectId) -> Result<(), PlasmaError> {
        // A borrowed or replicated copy is not deleted locally: the
        // owner (ring authority) runs the delete — for a read replica
        // that means invalidating every holder, us included, before its
        // own copy goes. Deleting just the local replica would leave
        // the object alive everywhere else.
        let delegated = self.inner.ledger.borrowed_owner(id).is_some()
            || self.inner.replicas.replica_owner(id).is_some();
        if !delegated && self.inner.core.exists_any_state(id) {
            // Invalidate every replica *before* the local delete: if any
            // holder cannot confirm, the delete fails with the object
            // intact — no stale replica can survive a successful delete.
            self.invalidate_replicas(id)?;
            return self.inner.core.delete(id);
        }
        // An object this node lent out is still this node's to delete:
        // chase it to the holder and retire the delegation.
        if let Some(holder) = self.inner.ledger.lent_holder(id) {
            return self.delete_at_holder(id, holder);
        }
        // Forward to the owning peer, probing the ring's computed owner
        // first (most likely holder). An unreachable peer might be the
        // owner, so `NotFound` is only definite once every peer answered.
        let mut unreachable: Option<String> = None;
        for peer in self.peers_owner_first(id) {
            let req = IdReq { id };
            match self.peer_call(&peer, method::DELETE, req.encode()) {
                Ok(_) => {
                    if let Some(cache) = &self.inner.idcache {
                        cache.invalidate(id);
                    }
                    return Ok(());
                }
                Err(PeerFail::Rpc(RpcError::Status(s))) if s.code == StatusCode::NotFound => {
                    continue
                }
                Err(PeerFail::Rpc(RpcError::Status(s)))
                    if s.code == StatusCode::FailedPrecondition =>
                {
                    return Err(PlasmaError::ObjectInUse(id))
                }
                Err(PeerFail::Rpc(e)) => return Err(Self::rpc_err(e)),
                Err(PeerFail::Skipped) => {
                    unreachable.get_or_insert_with(|| format!("peer {} is down", peer.name));
                }
                Err(PeerFail::Unreachable(m)) => {
                    unreachable.get_or_insert(m);
                }
            }
        }
        match unreachable {
            Some(m) => Err(PlasmaError::PeerUnavailable(m)),
            None => Err(PlasmaError::ObjectNotFound(id)),
        }
    }

    fn delete_deferred(&self, id: ObjectId) -> Result<bool, PlasmaError> {
        let delegated = self.inner.ledger.borrowed_owner(id).is_some()
            || self.inner.replicas.replica_owner(id).is_some();
        if !delegated && self.inner.core.exists_any_state(id) {
            // Same replica-invalidation ordering as `delete`: a deferred
            // delete hides the object at once, so replicas must go first.
            self.invalidate_replicas(id)?;
            return self.inner.core.delete_deferred(id);
        }
        if let Some(holder) = self.inner.ledger.lent_holder(id) {
            return self.delete_at_holder(id, holder).map(|()| true);
        }
        let mut unreachable: Option<String> = None;
        for peer in self.peers_owner_first(id) {
            let req = IdReq { id };
            match self.peer_call(&peer, method::DELETE_DEFERRED, req.encode()) {
                Ok(body) => {
                    if let Some(cache) = &self.inner.idcache {
                        cache.invalidate(id);
                    }
                    let resp = BoolResp::decode(body)
                        .map_err(|e| PlasmaError::Protocol(format!("deferred delete: {e}")))?;
                    return Ok(resp.value);
                }
                Err(PeerFail::Rpc(RpcError::Status(s))) if s.code == StatusCode::NotFound => {
                    continue
                }
                Err(PeerFail::Rpc(e)) => return Err(Self::rpc_err(e)),
                Err(PeerFail::Skipped) => {
                    unreachable.get_or_insert_with(|| format!("peer {} is down", peer.name));
                }
                Err(PeerFail::Unreachable(m)) => {
                    unreachable.get_or_insert(m);
                }
            }
        }
        match unreachable {
            Some(m) => Err(PlasmaError::PeerUnavailable(m)),
            None => Err(PlasmaError::ObjectNotFound(id)),
        }
    }

    fn abort(&self, id: ObjectId) -> Result<(), PlasmaError> {
        let staged_owner = self.inner.staged_out.lock().remove(&id);
        match staged_owner {
            Some(owner) => {
                // Best-effort: if the owner is unreachable the staged
                // orphan is aborted by reconciliation at quiesce, so a
                // failed ABORT_AT is not an error the caller can act on.
                if let Some(peer) = self.peers_snapshot().into_iter().find(|p| p.node == owner) {
                    let req = ForwardReq {
                        requester: self.inner.node,
                        epoch: self.ring_epoch(),
                        id,
                    };
                    let _ = self.peer_call(&peer, method::ABORT_AT, req.encode());
                }
                Ok(())
            }
            None => self.inner.core.abort(id),
        }
    }

    fn contains(&self, id: ObjectId) -> Result<bool, PlasmaError> {
        // A borrowed replica doesn't answer locally — the owner's ledger
        // is the authority on whether the object still exists (and the
        // remote probe below asks it).
        let local = self.inner.core.contains(id) && self.inner.ledger.borrowed_owner(id).is_none();
        if local || self.inner.ledger.lent_holder(id).is_some() {
            return Ok(true);
        }
        let mut peers = self.peers_snapshot();
        // Ring phase: one point-to-point probe at the computed owner. A
        // positive answer settles it; a negative one falls back to the
        // broadcast below, because migration can move objects off-ring.
        let ring_owner = self
            .ring_owner(id)
            .filter(|&owner| owner != self.inner.node);
        if let Some(owner) = ring_owner {
            if let Some(i) = peers.iter().position(|p| p.node == owner) {
                let req = IdReq { id }.encode();
                if let Ok(body) = self.peer_call(&peers[i], method::CONTAINS, req) {
                    let resp = BoolResp::decode(body)
                        .map_err(|e| PlasmaError::Protocol(format!("contains response: {e}")))?;
                    if resp.value {
                        self.note_ring_hits(1);
                        return Ok(true);
                    }
                    // The owner answered: the fan-out need not ask it
                    // again. An owner that did not answer stays in.
                    peers.swap_remove(i);
                }
            }
            self.note_ring_fallbacks(1);
        }
        // Ask every remaining peer in parallel; unreachable peers count
        // as "not here" (partial answer, not an error).
        let req_body = IdReq { id }.encode();
        let answers = self.fanout(&peers, |peer| {
            self.peer_call(peer, method::CONTAINS, req_body.clone())
        });
        for answer in answers {
            let Ok(body) = answer else { continue };
            let resp = BoolResp::decode(body)
                .map_err(|e| PlasmaError::Protocol(format!("contains response: {e}")))?;
            if resp.value {
                return Ok(true);
            }
        }
        Ok(false)
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

/// RPC service answering peer interconnect calls against a [`DisaggStore`].
struct Interconnect {
    store: DisaggStore,
}

impl Service for Interconnect {
    fn call(&self, method_id: u32, request: Bytes) -> Result<Bytes, Status> {
        let inner = &self.store.inner;
        match method_id {
            method::RELEASE => {
                let req = ReleaseReq::decode(request)
                    .map_err(|e| Status::invalid_argument(e.to_string()))?;
                if inner.remote_refs.unpin(req.requester, req.id) {
                    inner
                        .core
                        .release(req.id)
                        .map_err(|e| Status::internal(e.to_string()))?;
                    Ok(BoolResp { value: true }.encode())
                } else {
                    Ok(BoolResp { value: false }.encode())
                }
            }
            method::CONTAINS => {
                let req =
                    IdReq::decode(request).map_err(|e| Status::invalid_argument(e.to_string()))?;
                // A lent object still *exists* from the cluster's point of
                // view — the ring owner answers for it even while a holder
                // keeps the bytes. Conversely, a *borrowed* replica is the
                // owner's to account for, not this node's: hiding it keeps
                // an ambiguous-spill duplicate from contradicting the
                // owner after a delete.
                let present = (inner.core.contains(req.id)
                    && inner.ledger.borrowed_owner(req.id).is_none())
                    || inner.ledger.lent_holder(req.id).is_some();
                Ok(BoolResp { value: present }.encode())
            }
            method::DELETE => {
                let req =
                    IdReq::decode(request).map_err(|e| Status::invalid_argument(e.to_string()))?;
                // A delegated copy — a held read replica or a borrowed
                // (spilled) object — cannot satisfy a fan-out delete: the
                // ring owner is the delete authority, and only its
                // invalidate-before-delete / lend-chase ordering clears
                // every copy. Consuming the local copy here would ack a
                // delete the owner never saw, leaving the owner's primary
                // (or an ambiguous-spill duplicate) serving reads.
                // NotFound sends the caller's fan-out on to the owner;
                // the owner retires delegated copies via DELETE_HELD.
                if inner.replicas.replica_owner(req.id).is_some()
                    || inner.ledger.borrowed_owner(req.id).is_some()
                {
                    return Err(Status::not_found(
                        "delegated copy: owner arbitrates deletes",
                    ));
                }
                // Replicas go before the local copy (same ordering as the
                // owner-local delete path): an unconfirmed invalidation
                // fails the delete with the object intact.
                if let Err(e) = self.store.invalidate_replicas(req.id) {
                    return Err(Status::new(StatusCode::Unavailable, e.to_string()));
                }
                match inner.core.delete(req.id) {
                    Ok(()) => {
                        // If this node held the object on another's behalf,
                        // the delegation died with the replica.
                        if inner.ledger.remove_borrowed(req.id) {
                            self.store.sync_ledger_gauges();
                        }
                        Ok(Bytes::new())
                    }
                    Err(PlasmaError::ObjectNotFound(_)) => {
                        // No local copy — but if this node lent the object
                        // out, the delete must chase it to the holder.
                        if let Some(holder) = inner.ledger.lent_holder(req.id) {
                            return match self.store.delete_at_holder(req.id, holder) {
                                Ok(()) => Ok(Bytes::new()),
                                Err(PlasmaError::ObjectInUse(_)) => Err(Status::new(
                                    StatusCode::FailedPrecondition,
                                    "object in use",
                                )),
                                Err(e) => Err(Status::internal(e.to_string())),
                            };
                        }
                        Err(Status::not_found("object not found"))
                    }
                    Err(PlasmaError::ObjectInUse(_)) => {
                        Err(Status::new(StatusCode::FailedPrecondition, "object in use"))
                    }
                    Err(e) => Err(Status::internal(e.to_string())),
                }
            }
            method::DELETE_DEFERRED => {
                let req =
                    IdReq::decode(request).map_err(|e| Status::invalid_argument(e.to_string()))?;
                // Same gate as DELETE: a delegated copy is the owner's
                // to retire, never this node's to consume.
                if inner.replicas.replica_owner(req.id).is_some()
                    || inner.ledger.borrowed_owner(req.id).is_some()
                {
                    return Err(Status::not_found(
                        "delegated copy: owner arbitrates deletes",
                    ));
                }
                if let Err(e) = self.store.invalidate_replicas(req.id) {
                    return Err(Status::new(StatusCode::Unavailable, e.to_string()));
                }
                match inner.core.delete_deferred(req.id) {
                    Ok(now) => {
                        // Even a deferred delete hides the object at once,
                        // so the delegation is over either way.
                        if inner.ledger.remove_borrowed(req.id) {
                            self.store.sync_ledger_gauges();
                        }
                        Ok(BoolResp { value: now }.encode())
                    }
                    Err(PlasmaError::ObjectNotFound(_)) => {
                        if let Some(holder) = inner.ledger.lent_holder(req.id) {
                            return match self.store.delete_at_holder(req.id, holder) {
                                Ok(()) => Ok(BoolResp { value: true }.encode()),
                                Err(e) => Err(Status::internal(e.to_string())),
                            };
                        }
                        Err(Status::not_found("object not found"))
                    }
                    Err(e) => Err(Status::internal(e.to_string())),
                }
            }
            method::DELETE_HELD => {
                let req =
                    IdReq::decode(request).map_err(|e| Status::invalid_argument(e.to_string()))?;
                // The owner's delete chase: unlike the generic DELETE,
                // this verb *is* allowed to consume a delegated copy —
                // the owner already decided the object dies, and this
                // node's copy (lent or replicated) dies with it.
                match inner.core.delete(req.id) {
                    Ok(()) => {
                        if inner.ledger.remove_borrowed(req.id) {
                            self.store.sync_ledger_gauges();
                        }
                        if let Some(owner) = inner.replicas.replica_owner(req.id) {
                            inner.replicas.remove_replica(req.id, owner);
                            self.store.sync_replica_gauges();
                        }
                        Ok(Bytes::new())
                    }
                    Err(PlasmaError::ObjectNotFound(_)) => {
                        Err(Status::not_found("object not found"))
                    }
                    Err(PlasmaError::ObjectInUse(_)) => {
                        Err(Status::new(StatusCode::FailedPrecondition, "object in use"))
                    }
                    Err(e) => Err(Status::internal(e.to_string())),
                }
            }
            method::LIST => {
                let entries: Vec<ListEntry> = inner
                    .core
                    .list()
                    .into_iter()
                    .filter(|i| i.state == plasma::ObjectState::Sealed)
                    .map(|i| ListEntry {
                        id: i.id,
                        data_size: i.data_size,
                        metadata_size: i.metadata_size,
                        ref_count: i.ref_count,
                    })
                    .collect();
                Ok(ListResp {
                    node: inner.node,
                    entries,
                }
                .encode())
            }
            method::GET_MANY => {
                let req = GetManyReq::decode(request)
                    .map_err(|e| Status::invalid_argument(e.to_string()))?;
                self.store.maybe_adopt_epoch(req.requester, req.epoch);
                // Partial success by design: each id answers for itself.
                // Pins are taken (and attributed to the requester) only
                // for ids found sealed here, so a NotFound entry can
                // never leak a reference in the owner's ledger.
                let entries = req
                    .ids
                    .into_iter()
                    .map(|id| {
                        // Borrowed replicas answer only redirect-following
                        // requests: a broadcast observing one could serve
                        // reads after the owner's copy was deleted (the
                        // duplication left by an ambiguous spill).
                        let local = if req.redirected || inner.ledger.borrowed_owner(id).is_none() {
                            inner.core.get_local(id)
                        } else {
                            None
                        };
                        match local {
                            Some(loc) => {
                                inner.remote_refs.pin(req.requester, loc.id);
                                inner.heat.record(id, req.requester);
                                GetManyEntry {
                                    id,
                                    status: GetManyStatus::Pinned,
                                    location: Some(loc),
                                    moved_to: None,
                                }
                            }
                            // Not held here, but lent out: answer with a
                            // one-hop redirect instead of NotFound, so the
                            // ring owner keeps resolving ids it spilled away.
                            None => match inner.ledger.lent_holder(id) {
                                Some(holder) => {
                                    inner.metrics.redirects_served.inc();
                                    GetManyEntry {
                                        id,
                                        status: GetManyStatus::Moved,
                                        location: None,
                                        moved_to: Some(holder),
                                    }
                                }
                                None => GetManyEntry {
                                    id,
                                    status: GetManyStatus::NotFound,
                                    location: None,
                                    moved_to: None,
                                },
                            },
                        }
                    })
                    .collect();
                Ok(GetManyResp {
                    entries,
                    epoch: self.store.ring_epoch(),
                }
                .encode())
            }
            method::RECONCILE => {
                let req = ReconcileReq::decode(request)
                    .map_err(|e| Status::invalid_argument(e.to_string()))?;
                let holds: HashMap<ObjectId, u64> = req.holds.into_iter().collect();
                let excess = inner.remote_refs.reconcile(req.requester, &holds);
                let mut trimmed = 0u64;
                for (id, count) in excess {
                    trimmed += count;
                    let mut count = count;
                    // A forwarded create the requester no longer claims is
                    // an orphan: the requester crashed or gave up between
                    // CREATE_AT and SEAL_AT. Abort it — the staged buffer
                    // can never be sealed by anyone else.
                    let staged_by_requester = {
                        let mut staged = inner.staged_remote.lock();
                        match staged.get(&id) {
                            Some(&(requester, _)) if requester == req.requester => {
                                staged.remove(&id);
                                true
                            }
                            _ => false,
                        }
                    };
                    if staged_by_requester {
                        let _ = inner.core.abort(id);
                        count -= 1;
                    }
                    for _ in 0..count {
                        // The object may have been deleted or evicted since
                        // the orphan pin was taken; nothing left to release.
                        let _ = inner.core.release(id);
                    }
                }
                Ok(ReconcileResp { trimmed }.encode())
            }
            method::CREATE_AT => {
                let req = CreateAtReq::decode(request)
                    .map_err(|e| Status::invalid_argument(e.to_string()))?;
                self.store.maybe_adopt_epoch(req.requester, req.epoch);
                let epoch = self.store.ring_epoch();
                // Dispute ownership only from an installed ring: without
                // one this node cannot know better than the requester.
                if epoch > 0 {
                    match self.store.ring_owner(req.id) {
                        Some(owner) if owner != inner.node => {
                            return Ok(CreateAtResp {
                                status: CreateAtStatus::WrongOwner,
                                location: None,
                                epoch,
                            }
                            .encode());
                        }
                        _ => {}
                    }
                }
                // Idempotent retry: the same requester re-asking for its
                // own staged create gets the same location back (its
                // first response may have been lost in flight).
                {
                    let staged = inner.staged_remote.lock();
                    if let Some(&(requester, loc)) = staged.get(&req.id) {
                        let resp = if requester == req.requester {
                            CreateAtResp {
                                status: CreateAtStatus::Ok,
                                location: Some(loc),
                                epoch,
                            }
                        } else {
                            CreateAtResp {
                                status: CreateAtStatus::Exists,
                                location: None,
                                epoch,
                            }
                        };
                        return Ok(resp.encode());
                    }
                }
                // A lent object still exists (its bytes live at the
                // holder): refuse re-creation or the id would fork. The
                // same goes for an id with outstanding replicas.
                if inner.ledger.lent_holder(req.id).is_some()
                    || inner.replicas.holder_count(req.id) > 0
                {
                    return Ok(CreateAtResp {
                        status: CreateAtStatus::Exists,
                        location: None,
                        epoch,
                    }
                    .encode());
                }
                // Admission gate sits *after* the idempotent-retry check:
                // a requester re-asking about its own staged create must
                // get its location back even under overload.
                if let Err(PlasmaError::Overloaded { retry_after_ms }) =
                    self.store.check_admission()
                {
                    return Err(Status::new(
                        StatusCode::ResourceExhausted,
                        format!("overloaded: retry_after_ms={retry_after_ms}"),
                    ));
                }
                // The core's id map is the uniqueness arbiter: no
                // pre-check, `create` itself refuses duplicates.
                match inner.core.create(req.id, req.data_size, req.metadata_size) {
                    Ok(loc) => {
                        inner.remote_refs.pin(req.requester, req.id);
                        inner
                            .staged_remote
                            .lock()
                            .insert(req.id, (req.requester, loc));
                        Ok(CreateAtResp {
                            status: CreateAtStatus::Ok,
                            location: Some(loc),
                            epoch,
                        }
                        .encode())
                    }
                    Err(PlasmaError::ObjectExists(_)) => Ok(CreateAtResp {
                        status: CreateAtStatus::Exists,
                        location: None,
                        epoch,
                    }
                    .encode()),
                    Err(e) => Err(Status::internal(e.to_string())),
                }
            }
            method::SEAL_AT => {
                let req = ForwardReq::decode(request)
                    .map_err(|e| Status::invalid_argument(e.to_string()))?;
                self.store.maybe_adopt_epoch(req.requester, req.epoch);
                let epoch = self.store.ring_epoch();
                let staged = {
                    let mut staged = inner.staged_remote.lock();
                    match staged.get(&req.id) {
                        Some(&(requester, _)) if requester == req.requester => {
                            staged.remove(&req.id);
                            true
                        }
                        _ => false,
                    }
                };
                if staged {
                    let loc = inner
                        .core
                        .seal(req.id)
                        .map_err(|e| Status::internal(e.to_string()))?;
                    // Consume the creator's reference here: the
                    // requester's put finishes with a local waiver
                    // instead of a trailing RELEASE that could be lost.
                    if inner.remote_refs.unpin(req.requester, req.id) {
                        let _ = inner.core.release(req.id);
                    }
                    return Ok(CreateAtResp {
                        status: CreateAtStatus::Ok,
                        location: Some(loc),
                        epoch,
                    }
                    .encode());
                }
                // Idempotent retry: a seal whose response was lost left
                // the object sealed with no staging entry — peek answers
                // sealed objects only, so this cannot resurrect aborts.
                match inner.core.peek(req.id) {
                    Some(loc) => Ok(CreateAtResp {
                        status: CreateAtStatus::Ok,
                        location: Some(loc),
                        epoch,
                    }
                    .encode()),
                    None => Err(Status::not_found("no staged create for id")),
                }
            }
            method::ABORT_AT => {
                let req = ForwardReq::decode(request)
                    .map_err(|e| Status::invalid_argument(e.to_string()))?;
                self.store.maybe_adopt_epoch(req.requester, req.epoch);
                let staged = {
                    let mut staged = inner.staged_remote.lock();
                    match staged.get(&req.id) {
                        Some(&(requester, _)) if requester == req.requester => {
                            staged.remove(&req.id);
                            true
                        }
                        _ => false,
                    }
                };
                if staged {
                    inner.remote_refs.unpin(req.requester, req.id);
                    inner
                        .core
                        .abort(req.id)
                        .map_err(|e| Status::internal(e.to_string()))?;
                }
                Ok(BoolResp { value: staged }.encode())
            }
            method::SPILL_AT => {
                let req = SpillAtReq::decode(request)
                    .map_err(|e| Status::invalid_argument(e.to_string()))?;
                self.store.maybe_adopt_epoch(req.requester, req.epoch);
                let epoch = self.store.ring_epoch();
                let id = req.location.id;
                let refused = |epoch| {
                    Ok(SpillAtResp {
                        status: SpillAtStatus::Refused,
                        epoch,
                    }
                    .encode())
                };
                // Idempotent retry: a spill whose response was lost left
                // the replica sealed here — re-acknowledge adoption so the
                // owner can finish its half of the handoff.
                if inner.core.peek(id).is_some() {
                    inner
                        .ledger
                        .record_borrowed(id, req.requester, req.location.total_size());
                    self.store.sync_ledger_gauges();
                    return Ok(SpillAtResp {
                        status: SpillAtStatus::Adopted,
                        epoch,
                    }
                    .encode());
                }
                // Headroom gate: never let borrowed bytes push this node
                // past its own lending watermark, or spills would cascade.
                let st = inner.core.stats();
                let after = u128::from(st.allocated_bytes) + u128::from(req.location.total_size());
                if st.capacity == 0
                    || after * 1_000_000 / u128::from(st.capacity)
                        > u128::from(inner.elastic.lend_headroom_ppm)
                {
                    return refused(epoch);
                }
                // Any failure before seal aborts the staged copy and
                // refuses — the owner's copy is untouched.
                if self.store.adopt_copy(&req.location).is_err() {
                    return refused(epoch);
                }
                inner
                    .ledger
                    .record_borrowed(id, req.requester, req.location.total_size());
                self.store.sync_ledger_gauges();
                Ok(SpillAtResp {
                    status: SpillAtStatus::Adopted,
                    epoch,
                }
                .encode())
            }
            method::REPLICATE_AT => {
                let req = SpillAtReq::decode(request)
                    .map_err(|e| Status::invalid_argument(e.to_string()))?;
                self.store.maybe_adopt_epoch(req.requester, req.epoch);
                let epoch = self.store.ring_epoch();
                let id = req.location.id;
                let refused = |epoch| {
                    Ok(SpillAtResp {
                        status: SpillAtStatus::Refused,
                        epoch,
                    }
                    .encode())
                };
                if !inner.replication.enabled {
                    return refused(epoch);
                }
                // Idempotent retry: a replicate whose response was lost
                // left the replica sealed here — re-acknowledge it. A
                // local copy that is *not* a recorded replica from this
                // owner exists for some other reason (e.g. we are mid
                // re-own); refuse rather than fork the accounting.
                if inner.core.peek(id).is_some() {
                    return if inner.replicas.replica_owner(id) == Some(req.requester) {
                        inner.replicas.record_replica(id, req.requester);
                        self.store.sync_replica_gauges();
                        Ok(SpillAtResp {
                            status: SpillAtStatus::Adopted,
                            epoch,
                        }
                        .encode())
                    } else {
                        refused(epoch)
                    };
                }
                // A lent object's only bytes live at its holder; it must
                // never also gain replicas (single-lease invariant).
                if inner.ledger.borrowed_owner(id).is_some() {
                    return refused(epoch);
                }
                // Same headroom gate as SPILL_AT: replicas are strictly
                // optional, so never let them push us past the lending
                // watermark.
                let st = inner.core.stats();
                let after = u128::from(st.allocated_bytes) + u128::from(req.location.total_size());
                if st.capacity == 0
                    || after * 1_000_000 / u128::from(st.capacity)
                        > u128::from(inner.elastic.lend_headroom_ppm)
                {
                    return refused(epoch);
                }
                if self.store.adopt_copy(&req.location).is_err() {
                    return refused(epoch);
                }
                // Unlike SPILL_AT, the owner keeps its copy — this is a
                // read replica, not a lease handoff.
                inner.replicas.record_replica(id, req.requester);
                self.store.sync_replica_gauges();
                Ok(SpillAtResp {
                    status: SpillAtStatus::Adopted,
                    epoch,
                }
                .encode())
            }
            method::INVALIDATE => {
                let req = InvalidateReq::decode(request)
                    .map_err(|e| Status::invalid_argument(e.to_string()))?;
                // Owner is deleting: drop our replica (owner-checked so a
                // racing re-replication under a newer owner epoch is not
                // clobbered) and flush the simulated cache lines covering
                // it before the segment bytes are reused.
                let removed = inner.replicas.remove_replica(req.id, req.owner);
                if removed {
                    if let Some(loc) = inner.core.peek(req.id) {
                        if let (Ok(cache), Ok(mapping)) = (
                            inner.core.fabric().node_cache(inner.node),
                            inner.core.mapping_for(&loc),
                        ) {
                            cache.invalidate_range(
                                mapping.segment(),
                                loc.offset,
                                loc.total_size() as usize,
                            );
                        }
                        // Deferred: a read pinning the replica right now
                        // finishes; the bytes go when the pin drops. The
                        // ledger entry is already gone, so no *new* read
                        // can be attributed to a stale replica.
                        let _ = inner.core.delete_deferred(req.id);
                    }
                    inner.metrics.replicas_invalidated.inc();
                    self.store.sync_replica_gauges();
                }
                Ok(BoolResp { value: removed }.encode())
            }
            method::REPLICA_RECONCILE => {
                let req = BorrowReconcileReq::decode(request)
                    .map_err(|e| Status::invalid_argument(e.to_string()))?;
                // Owner-side view of one holder's replica report. An
                // entry is kept only while the owner still has its own
                // sealed copy and the id is not lent — otherwise the
                // replica is stale (or violates the lent⊕replicated
                // exclusion) and the holder is told to drop it. Entries
                // the holder did not report are dead — trim them.
                let mut drop_ids = Vec::new();
                let mut reported = HashSet::with_capacity(req.borrowed.len());
                for id in req.borrowed {
                    reported.insert(id);
                    let keep = match inner.core.peek(id) {
                        Some(_) => inner.ledger.lent_holder(id).is_none(),
                        None => false,
                    };
                    if keep {
                        let bytes = inner
                            .core
                            .peek(id)
                            .map(|l| l.total_size())
                            .unwrap_or_default();
                        // Heals a lost REPLICATE_AT response.
                        inner.replicas.record_held(id, req.requester, bytes);
                    } else {
                        inner.replicas.remove_holder(id, req.requester);
                        drop_ids.push(id);
                    }
                }
                let trimmed = inner.replicas.trim_held(req.requester, &reported);
                self.store.sync_replica_gauges();
                Ok(BorrowReconcileResp {
                    drop: drop_ids,
                    trimmed,
                }
                .encode())
            }
            method::BORROW_RECONCILE => {
                let req = BorrowReconcileReq::decode(request)
                    .map_err(|e| Status::invalid_argument(e.to_string()))?;
                // Owner-side view of one holder's report. For each id the
                // holder claims: if we re-acquired a local copy the
                // delegation is redundant — tell the holder to drop its
                // replica; otherwise the holder's replica is the only copy,
                // so (re)install the lent entry (heals a lost SPILL_AT
                // response). Entries the holder did *not* report are dead —
                // trim them.
                let mut drop_ids = Vec::new();
                let mut reported = HashSet::with_capacity(req.borrowed.len());
                for id in req.borrowed {
                    reported.insert(id);
                    if inner.core.peek(id).is_some() {
                        inner.ledger.remove_lent(id);
                        drop_ids.push(id);
                        continue;
                    }
                    match inner.ledger.lent_holder(id) {
                        // Already leased to a *different* holder: an
                        // ambiguous spill left this reporter a redundant
                        // duplicate. The recorded lease is the truth (it
                        // was confirmed adopted, so that replica exists)
                        // — overwriting it here would orphan the other
                        // holder's entry and fork the lease. Drop the
                        // reporter's replica instead.
                        Some(holder) if holder != req.requester => {
                            drop_ids.push(id);
                        }
                        _ => {
                            let bytes = inner.ledger.lent_bytes(id).unwrap_or_default();
                            inner.ledger.record_lent(id, req.requester, bytes);
                        }
                    }
                }
                let trimmed = inner.ledger.trim_lent(req.requester, &reported);
                self.store.sync_ledger_gauges();
                Ok(BorrowReconcileResp {
                    drop: drop_ids,
                    trimmed,
                }
                .encode())
            }
            method::MEMBERSHIP => {
                let membership = self.store.membership();
                let (epoch, nodes) = match membership {
                    Some(m) => (m.epoch, m.nodes),
                    None => (0, Vec::new()),
                };
                Ok(MembershipResp { epoch, nodes }.encode())
            }
            method::METRICS => Ok(MetricsResp {
                node: inner.node,
                snapshot: Bytes::from(self.store.metrics_snapshot().encode()),
            }
            .encode()),
            other => Err(Status::unimplemented(other)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plasma::{StoreConfig, StoreCore};
    use rpclite::RpcClient;

    /// The dispatch and the verb table agree: every id in `VERBS` has a
    /// handler (an empty body may be rejected, but never as
    /// `Unimplemented`), and the retired ids — and anything past `MAX` —
    /// are answered `Unimplemented`, so a retired verb cannot be served.
    #[test]
    fn every_listed_verb_is_handled_and_retired_ids_are_not() {
        let fabric = tfsim::Fabric::virtual_thymesisflow();
        let node = fabric.register_node();
        let core = StoreCore::new(&fabric, node, StoreConfig::new("solo", 1 << 20)).unwrap();
        let service = DisaggStore::new(core, DisaggConfig::default()).interconnect_service();
        let unimplemented = |id: u32| {
            let answer = service.call(id, Bytes::new());
            matches!(answer, Err(s) if s.code == StatusCode::Unimplemented)
        };
        for (id, name) in method::VERBS {
            assert!(!unimplemented(*id), "{name} ({id}) has no handler");
        }
        for id in [1, 2, 17, 18, method::MAX + 1] {
            assert!(unimplemented(id), "method id {id} must be unimplemented");
        }
    }

    /// Regression for the ambiguous-owner cache race: when two peers both
    /// answer a lookup for the same id, the duplicate pin is released back
    /// to the loser — and the id cache must end up pointing at the
    /// *ledgered winner*, even if a concurrent pass cached the loser
    /// between the winner's insert and the duplicate's absorption. Before
    /// the realign, the released loser entry survived in the cache and
    /// misrouted (or, in Direct mode, corrupted) every repeat get.
    #[test]
    fn duplicate_absorb_realigns_cache_to_ledgered_winner() {
        let fabric = tfsim::Fabric::virtual_thymesisflow();
        let nodes: Vec<NodeId> = (0..3).map(|_| fabric.register_node()).collect();
        let mk_core = |node, name: &str| {
            StoreCore::new(&fabric, node, StoreConfig::new(name, 1 << 20)).unwrap()
        };
        let observer = DisaggStore::new(
            mk_core(nodes[0], "observer"),
            DisaggConfig {
                id_cache: Some((CacheMode::Pinning, 64)),
                ..DisaggConfig::default()
            },
        );
        let winner_core = mk_core(nodes[1], "winner");
        let loser_core = mk_core(nodes[2], "loser");

        // Dual-copy state (what a migration race leaves behind): both
        // peers hold the id sealed, at different fabric locations.
        let id = ObjectId::from_name("dup");
        let mut locs = Vec::new();
        for core in [&winner_core, &loser_core] {
            core.create(id, 64, 0).unwrap();
            core.seal(id).unwrap();
            core.release(id).unwrap();
            locs.push(core.peek(id).unwrap());
        }

        // A stub interconnect that accepts the duplicate's release.
        let hub = ipc::InprocHub::new();
        let svc =
            Arc::new(|_m: u32, _b: Bytes| -> Result<Bytes, rpclite::Status> { Ok(Bytes::new()) });
        let _srv = rpclite::serve(Box::new(hub.bind("stub").unwrap()), svc);
        let peer = |node, name: &str| Peer {
            node,
            name: name.into(),
            client: Arc::new(RpcClient::new(Box::new(hub.connect("stub").unwrap()))),
        };
        let winner = peer(nodes[1], "winner");
        let loser = peer(nodes[2], "loser");

        let mut found = HashMap::new();
        observer.absorb_lookup(&winner, vec![locs[0]], &mut found);

        // The interleaving under test: a concurrent targeted pass caches
        // the loser *after* the winner's answer was absorbed...
        let cache = observer.inner.idcache.as_ref().unwrap();
        cache.insert(CachedEntry {
            location: locs[1],
            peer: nodes[2],
        });
        assert_eq!(cache.lookup(id).unwrap().peer, nodes[2]);

        // ...then the duplicate answer arrives: its pin goes back to the
        // loser and the stale cache entry is realigned to the winner.
        observer.absorb_lookup(&loser, vec![locs[1]], &mut found);
        let entry = cache.lookup(id).expect("entry must survive realign");
        assert_eq!(entry.peer, nodes[1], "cache must point at the winner");
        assert_eq!(entry.location.seg.owner, nodes[1]);
        assert_eq!(found[&id].seg.owner, nodes[1], "winner's answer stands");
    }
}
