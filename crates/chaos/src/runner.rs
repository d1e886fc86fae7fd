//! The nemesis soak: drive a faulted cluster with a recorded workload,
//! settle, and check the history.
//!
//! [`run_plan`] is the whole experiment in one call:
//!
//! 1. Launch an N-node cluster whose interconnect is wrapped by a
//!    [`ChaosInjector`] executing the given [`FaultPlan`].
//! 2. One worker thread per node drives that node's Plasma client with a
//!    seeded random mix of put / get / batched get / delete / contains
//!    over a small colliding namespace — plus, with
//!    [`SoakConfig::elastic`], spill-to-peer and heat-driven rebalance
//!    store operations — recording every client-visible operation (with
//!    real-time intervals and checksummed payload verdicts) into a
//!    [`HistoryRecorder`].
//! 3. Disarm the injector and run a settle phase over the now-clean
//!    network: retry the releases that failed under fire (each failure
//!    left its requester-side ledger entry in place), sweep `contains`
//!    probes until parked remote releases have flushed (any successful
//!    interconnect call flushes them), then reconcile: every node
//!    reports what it holds to each owner, so owners can trim pins
//!    orphaned by responses the nemesis dropped, ambiguous spills
//!    converge back to a single accounted copy, and replica records
//!    match what holders actually seal.
//! 4. Quiesce audit: every pin count must be zero — owner-side remote
//!    pins, requester-side held pins, parked releases — and the leases
//!    and replicas in the delegation ledgers must be mutually
//!    consistent: every off-ring sealed object accounted for by its
//!    ring owner's lease or replica entry, no orphans on either side,
//!    every holder inside the membership, every replica backed by a
//!    live owner copy, and no id both lent and replicated.
//! 5. Run the [`crate::checker`] over the recorded history.
//!
//! Fault decisions are deterministic per (link, direction, seq) — see
//! [`crate::inject`] — so replaying a failing `(plan, SoakConfig)` pair
//! reproduces the same fault schedule. Thread interleaving still varies
//! between runs, so a *violation* reproduces statistically, but a plan
//! that passes keeps passing and the schedule itself is byte-identical.

use crate::checker::{check, Verdict};
use crate::history::{EventKind, HistoryRecorder, Observed};
use crate::inject::ChaosInjector;
use crate::plan::FaultPlan;
use disagg::{
    Cluster, ClusterConfig, HealthConfig, InterconnectConfig, Kind, ReconcileReport, RetryPolicy,
    Side,
};
use plasma::{checksum, ObjectId, PlasmaError};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// Workload shape of one soak run.
#[derive(Clone)]
pub struct SoakConfig {
    /// Cluster size.
    pub nodes: usize,
    /// Operations each node's worker issues.
    pub ops_per_client: usize,
    /// Size of the colliding object namespace (names `0..names`).
    pub names: u8,
    /// Payload length of every put (at least 8, for the embedded tag).
    pub value_len: usize,
    /// Disaggregated memory per node.
    pub memory_per_node: usize,
    /// Client-side timeout for (batched) gets.
    pub get_timeout: Duration,
    /// Optional per-pair interconnect link selection (a topology
    /// expansion such as `topo::ClusterSpec::link_map`), so the soak's
    /// fault injection rides a tiered fabric instead of instant links.
    pub links: Option<disagg::LinkMap>,
    /// Mix elastic-tier store operations (spill-to-peer, heat-driven
    /// rebalance) into the workload. Exercises delegation under fault
    /// injection; reconcile and the delegation audit run regardless.
    pub elastic: bool,
}

impl std::fmt::Debug for SoakConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SoakConfig")
            .field("nodes", &self.nodes)
            .field("ops_per_client", &self.ops_per_client)
            .field("names", &self.names)
            .field("value_len", &self.value_len)
            .field("memory_per_node", &self.memory_per_node)
            .field("get_timeout", &self.get_timeout)
            .field("links", &self.links.as_ref().map(|_| "<map>"))
            .field("elastic", &self.elastic)
            .finish()
    }
}

impl SoakConfig {
    /// A CI-sized soak: `nodes` nodes, a namespace small enough that
    /// workers constantly collide, payloads big enough to tear.
    pub fn quick(nodes: usize) -> SoakConfig {
        SoakConfig {
            nodes,
            ops_per_client: 120,
            names: 8,
            value_len: 512,
            memory_per_node: 16 << 20,
            get_timeout: Duration::from_millis(50),
            links: None,
            elastic: true,
        }
    }
}

/// Outcome of one soak run.
#[derive(Debug)]
pub struct SoakReport {
    /// The checker's verdict, including quiesce-audit violations.
    pub verdict: Verdict,
    /// Why the settle sweep ended: `true` once every backlog had drained,
    /// `false` when its deadline cut it short (the quiesce audit then
    /// reports what was left).
    pub settled: bool,
    /// Number of client-visible operations recorded.
    pub events: usize,
    /// Frames the injector interfered with.
    pub injected_faults: u64,
    /// Cluster-wide evictions during the run (gates the create-uniqueness
    /// invariant).
    pub evictions: u64,
    /// Owner-side pins (and orphaned staged creates) found stranded by
    /// dropped responses and trimmed during settle-phase reconciliation.
    pub reconciled: u64,
    /// Redundant borrowed replicas dropped by settle-phase borrow
    /// reconciliation (an owner kept its copy after an ambiguous spill).
    pub borrow_drops: u64,
    /// Owner-side lent entries trimmed because the holder no longer
    /// honors them (the replica was deleted behind the owner's back).
    pub borrow_trims: u64,
    /// Stale read replicas dropped by settle-phase replica
    /// reconciliation (the owner no longer backs them).
    pub replica_drops: u64,
    /// Owner-side replica entries trimmed because the holder no longer
    /// honors them.
    pub replica_trims: u64,
}

/// The object id of workload name `n` (shared by all workers).
pub fn chaos_oid(n: u8) -> ObjectId {
    ObjectId::from_name(&format!("chaos/{n}"))
}

/// Soak-friendly interconnect tuning: short deadlines so dropped frames
/// cost tens of milliseconds instead of the production two seconds, and
/// fast peer-health probes so a node marked `Down` under fire comes
/// back within the settle window once the network is clean.
fn soak_interconnect() -> InterconnectConfig {
    InterconnectConfig {
        call_deadline: Some(Duration::from_millis(100)),
        retry: RetryPolicy {
            max_attempts: 2,
            base_backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(20),
        },
        health: HealthConfig {
            probe_backoff: Duration::from_millis(10),
            probe_backoff_max: Duration::from_millis(100),
        },
    }
}

/// Run the full experiment described in the module docs.
pub fn run_plan(plan: &FaultPlan, cfg: &SoakConfig) -> Result<SoakReport, PlasmaError> {
    assert!(cfg.value_len >= checksum::MIN_FILL_LEN);
    assert!(cfg.names > 0 && cfg.nodes > 0);

    let injector = ChaosInjector::new(plan.clone());
    let mut cluster_config = ClusterConfig::functional(cfg.nodes, cfg.memory_per_node);
    cluster_config.seed = plan.seed;
    cluster_config.interconnect = soak_interconnect();
    cluster_config.fault_policy = Some(injector.clone());
    cluster_config.link_map = cfg.links.clone();
    let cluster = Cluster::launch(cluster_config)?;

    let recorder = HistoryRecorder::new();

    // Phase 2: the faulted workload. Workers report the releases that
    // failed under fire so the settle phase can retry them clean.
    let failed_releases: Vec<(usize, ObjectId)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..cfg.nodes)
            .map(|node| {
                let cluster = &cluster;
                let recorder = &recorder;
                s.spawn(move || worker(node, cluster, recorder, plan.seed, cfg))
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_default())
            .collect()
    });

    // Phase 3: clean-network settle.
    injector.disarm();

    // 3a: settle sweep. Each round probes every node with a remote
    // `contains` on a name guaranteed absent locally — a successful
    // round trip marks a `Down` peer alive again and flushes its parked
    // releases — then retries the releases that failed under fire (each
    // failure left its requester-side ledger entry in place, so a clean
    // retry drains it). Rounds repeat until both backlogs are empty
    // (`settled`) or the deadline passes (the quiesce audit below reports
    // what's left).
    let mut failed_releases = failed_releases;
    // Debug builds run the whole matrix several times slower, and the
    // tier-1 suite runs many test binaries concurrently — give the
    // sweep more wall-clock there so a contended scheduler can't cut
    // it short. The quiesce audit below still runs either way, so a
    // real invariant violation fails regardless of the deadline.
    let settle_secs = if cfg!(debug_assertions) { 20 } else { 5 };
    let settle_deadline = Instant::now() + Duration::from_secs(settle_secs);
    let settled = loop {
        // The functional cluster runs on a virtual clock, and `Down`
        // peers re-arm their recovery-probe window in *modeled* time —
        // which a sleeping settle loop never advances. Charge each
        // round so the probes actually fire.
        cluster.clock().charge(Duration::from_millis(25));
        for i in 0..cfg.nodes {
            let client = cluster.client(i)?;
            let _ = client.contains(ObjectId::from_name("chaos/settle-probe"));
        }
        failed_releases.retain(|&(node, id)| {
            let Ok(client) = cluster.client(node) else {
                return true;
            };
            // `NotReferenced`: the attempt that failed under fire did
            // land and only its answer was lost — nothing is left to
            // release, and asking again will never say otherwise.
            !matches!(
                client.release(id),
                Ok(()) | Err(PlasmaError::ObjectNotFound(_) | PlasmaError::NotReferenced(_))
            )
        });
        let parked: usize = (0..cfg.nodes)
            .map(|i| cluster.store(i).pending_release_count())
            .sum();
        // Reconciliation silently skips peers still marked `Down` (their
        // admission gate short-circuits the call), so the settle phase
        // must also outlast every failure detector: keep probing until
        // all pairs are back to `Up`, or orphans behind a skipped pair
        // would survive the reconcile and fail the quiesce audit.
        let all_up = (0..cfg.nodes).all(|i| {
            let store = cluster.store(i);
            (0..cfg.nodes)
                .filter(|&j| j != i)
                .all(|j| store.peer_state(cluster.node_id(j)) == disagg::PeerState::Up)
        });
        // 3b: ledger drain. Once the backlogs are empty the only pins
        // left in the requester-side ledgers are ones the workload
        // absorbed without a paired buffer (duplicate slots in a batch
        // lookup) — release them now, while every peer is reachable, so
        // owners aren't left with unevictable copies. Runs inside the
        // loop because a drain can itself fail transiently; the exit
        // condition requires the ledgers to actually reach zero.
        let mut leftover = 0u64;
        if failed_releases.is_empty() && parked == 0 && all_up {
            for i in 0..cfg.nodes {
                cluster.store(i).drain_remote_pins();
            }
            leftover = (0..cfg.nodes)
                .map(|i| cluster.store(i).held_remote_pins())
                .sum();
        }
        if failed_releases.is_empty() && parked == 0 && all_up && leftover == 0 {
            break true;
        }
        if Instant::now() > settle_deadline {
            break false;
        }
        std::thread::sleep(Duration::from_millis(10));
    };

    // 3c: reconciliation. A response the nemesis dropped left one side
    // of a delegation without its counterpart: an owner with a pin the
    // requester never ledgered (nothing will ever release it) or a
    // staged create nobody will seal; a holder with a sealed copy the
    // owner never recorded (duplication, never loss —
    // seal-before-delete), or an owner with an entry no copy backs. With
    // the workload drained, each node reports exactly what it holds to
    // every owner, which trims the orphans, installs what it missed and
    // declares redundant or stale copies droppable (quiesce-only; see
    // `DisaggStore::reconcile`). A peer a sweep cannot reach is left to
    // the audit below to report.
    let mut healed = ReconcileReport::default();
    for i in 0..cfg.nodes {
        let sweep = cluster.store(i).reconcile();
        healed.dropped += sweep.dropped;
        healed.trimmed += sweep.trimmed;
    }

    // Phase 4: quiesce audit — all pin ledgers must be empty, and every
    // surviving object must sit where the rendezvous ring says it does
    // (or where the owner's ledger says it was delegated).
    let mut verdict = check_quiesce(&cluster, cfg.nodes);
    verdict
        .violations
        .extend(check_ring_placement(&cluster, cfg.nodes).violations);

    // Phase 5: the history checker.
    let evictions: u64 = (0..cfg.nodes)
        .map(|i| cluster.store(i).core().stats().evictions)
        .sum();
    let history = recorder.take();
    let events = history.len();
    verdict
        .violations
        .extend(check(&history, evictions).violations);

    Ok(SoakReport {
        verdict,
        settled,
        events,
        injected_faults: injector.injected_faults(),
        evictions,
        reconciled: healed.trimmed[Kind::Pin] + healed.trimmed[Kind::Staged],
        borrow_drops: healed.dropped[Kind::Lease],
        borrow_trims: healed.trimmed[Kind::Lease],
        replica_drops: healed.dropped[Kind::Replica],
        replica_trims: healed.trimmed[Kind::Replica],
    })
}

/// The pin-ledger audit of phase 4.
fn check_quiesce(cluster: &Cluster, nodes: usize) -> Verdict {
    let mut verdict = Verdict::default();
    for i in 0..nodes {
        let store = cluster.store(i);
        let owner_pins = store.remote_pin_count();
        if owner_pins != 0 {
            verdict.violations.push(format!(
                "pin leak: node {i} still holds {owner_pins} owner-side remote pins at quiesce"
            ));
        }
        let held = store.held_remote_pins();
        if held != 0 {
            verdict.violations.push(format!(
                "pin leak: node {i} still ledgers {held} requester-side remote pins at quiesce"
            ));
        }
        let parked = store.pending_release_count();
        if parked != 0 {
            verdict.violations.push(format!(
                "release leak: node {i} still has {parked} parked releases after settle"
            ));
        }
    }
    verdict
}

/// Ring-ownership and delegation audit: with rendezvous placement every
/// sealed survivor must live where the ring computes its owner, or at a
/// holder that owner's ledger names — the one holder of its lease, or a
/// holder of one of its replicas — and all nodes must have converged on
/// one membership epoch. Both sides of every lease and replica must
/// agree: an owner-side entry whose holder has no sealed copy (or no
/// matching `held` entry) is an orphan, and so is the reverse. Holders
/// must be cluster members, a lease means the owner gave its copy up, a
/// replica means it kept it, and no id is both lent and replicated. A
/// violation here means a forwarded create, a spill or a replication
/// landed (or left residue) somewhere the ledgers cannot account for.
fn check_ring_placement(cluster: &Cluster, nodes: usize) -> Verdict {
    use std::collections::{HashMap, HashSet};
    let mut verdict = Verdict::default();
    let membership = cluster
        .store(0)
        .membership()
        .expect("Cluster::launch installs a membership table on every store");
    let ring = disagg::Ring::new(membership);
    for i in 0..nodes {
        let epoch = cluster.store(i).ring_epoch();
        if epoch != ring.epoch() {
            verdict.violations.push(format!(
                "epoch split: node {i} is at epoch {epoch}, node 0 at {}",
                ring.epoch()
            ));
        }
    }

    // Gather each node's sealed set and its lease and replica entries.
    let index_of: HashMap<disagg::NodeId, usize> =
        (0..nodes).map(|i| (cluster.node_id(i), i)).collect();
    let mut sealed_at: Vec<HashSet<ObjectId>> = vec![HashSet::new(); nodes];
    let mut sealers: HashMap<ObjectId, Vec<usize>> = HashMap::new();
    for (i, sealed) in sealed_at.iter_mut().enumerate() {
        for info in cluster.store(i).core().list() {
            if info.state == plasma::ObjectState::Sealed {
                sealed.insert(info.id);
                sealers.entry(info.id).or_default().push(i);
            }
        }
    }
    let copies: Vec<Vec<disagg::DelegationRecord>> = (0..nodes)
        .map(|i| {
            let all = cluster.store(i).delegations().into_iter();
            all.filter(|r| r.kind.is_copy()).collect()
        })
        .collect();
    // out[(owner idx, id, kind)] = holder idxs, from the owners' side.
    // Every recorded holder must be a cluster member.
    let mut out: HashMap<(usize, ObjectId, Kind), HashSet<usize>> = HashMap::new();
    for (i, records) in copies.iter().enumerate() {
        for r in records.iter().filter(|r| r.side == Side::Out) {
            match index_of.get(&r.peer) {
                Some(&h) => {
                    out.entry((i, r.id, r.kind)).or_default().insert(h);
                }
                None => verdict.violations.push(format!(
                    "{:?} violation: node {i} records {:?} at unknown node {:?} \
                     (holder outside membership)",
                    r.kind, r.id, r.peer
                )),
            }
        }
    }
    let names = |owner: usize, id: ObjectId, kind: Kind, holder: usize| {
        out.get(&(owner, id, kind))
            .is_some_and(|holders| holders.contains(&holder))
    };

    for (i, sealed) in sealed_at.iter().enumerate() {
        let node_id = cluster.node_id(i);
        for &id in sealed {
            let owner = ring.owner_of(id);
            if owner == Some(node_id) {
                continue; // on-ring: the normal case
            }
            // Off-ring: legitimate only as a recorded holder of the ring
            // owner's lease or read replica.
            let accounted = owner
                .and_then(|o| index_of.get(&o))
                .is_some_and(|&o| names(o, id, Kind::Lease, i) || names(o, id, Kind::Replica, i));
            if !accounted {
                verdict.violations.push(format!(
                    "ring violation: node {i} holds {id:?} off-ring with no matching \
                     lease or replica entry at its ring owner {owner:?}"
                ));
            }
        }
    }
    for (id, sealers) in &sealers {
        if sealers.len() <= 1 {
            continue;
        }
        // Multiple sealed copies are legal only for read replication:
        // one sealer is the ring owner (the write/metadata authority)
        // and every other sealer is a replica holder it recorded.
        // Anything else is a fork.
        let owner_idx = ring.owner_of(*id).and_then(|o| index_of.get(&o)).copied();
        let legal = owner_idx.is_some_and(|o| {
            sealers.contains(&o)
                && sealers
                    .iter()
                    .all(|&h| h == o || names(o, *id, Kind::Replica, h))
        });
        if !legal {
            verdict.violations.push(format!(
                "ring violation: {id:?} is sealed on multiple nodes {sealers:?} not \
                 accounted for by the ring owner's replica entries"
            ));
        }
    }

    // Owner-side entries must be honored by their holders, and say the
    // truth about the owner's own copy.
    for (&(owner, id, kind), holders) in &out {
        let owner_seals = sealed_at[owner].contains(&id);
        if kind == Kind::Lease && owner_seals {
            verdict.violations.push(format!(
                "Lease violation: node {owner} both seals {id:?} and lends it to {holders:?}"
            ));
        }
        if kind == Kind::Replica && !owner_seals {
            verdict.violations.push(format!(
                "Replica violation: node {owner} records replicas of {id:?} but seals no \
                 owner copy (stale replica outlives its object)"
            ));
        }
        if kind == Kind::Replica && out.contains_key(&(owner, id, Kind::Lease)) {
            verdict.violations.push(format!(
                "Replica violation: node {owner} both lends {id:?} and records replicas \
                 of it (lent and replicated are mutually exclusive)"
            ));
        }
        for &h in holders {
            if !sealed_at[h].contains(&id) {
                verdict.violations.push(format!(
                    "{kind:?} violation: node {owner} records {id:?} at node {h}, \
                     which seals no copy (orphaned owner-side entry)"
                ));
            }
            let backref = copies[h].iter().any(|r| {
                (r.side, r.kind, r.id) == (Side::Held, kind, id)
                    && index_of.get(&r.peer) == Some(&owner)
            });
            if !backref {
                verdict.violations.push(format!(
                    "{kind:?} violation: node {owner} records {id:?} at node {h}, \
                     but the holder has no matching held entry"
                ));
            }
        }
    }
    // Holder-side entries must be backed by the owner's ledger.
    for (i, records) in copies.iter().enumerate() {
        for r in records.iter().filter(|r| r.side == Side::Held) {
            let backed = index_of
                .get(&r.peer)
                .is_some_and(|&owner| names(owner, r.id, r.kind, i));
            if !backed {
                verdict.violations.push(format!(
                    "{:?} violation: node {i} holds {:?} for node {:?}, which has no \
                     matching owner-side entry (orphaned held entry)",
                    r.kind, r.id, r.peer
                ));
            }
        }
    }
    verdict
}

/// One node's workload thread. Returns the `(node, id)` pairs whose
/// buffer release failed mid-fault (each left a ledgered pin behind);
/// the settle phase retries them over the clean network.
fn worker(
    node: usize,
    cluster: &Cluster,
    recorder: &HistoryRecorder,
    seed: u64,
    cfg: &SoakConfig,
) -> Vec<(usize, ObjectId)> {
    let mut failed_releases = Vec::new();
    let client = match cluster.client(node) {
        Ok(c) => c,
        Err(_) => return failed_releases,
    };
    let mut rng = SmallRng::seed_from_u64(seed ^ (node as u64 + 1).wrapping_mul(0x9E37_79B9));
    let mut put_seq: u64 = 0;

    for _ in 0..cfg.ops_per_client {
        let name = rng.gen_range(0..cfg.names);
        let id = chaos_oid(name);
        match rng.gen_range(0..100u32) {
            // 30%: put a fresh checksummed version.
            0..=29 => {
                put_seq += 1;
                let tag = ((node as u64 + 1) << 48) | put_seq;
                let data = checksum::fill(tag, cfg.value_len);
                // Values are far below `plasma::INLINE_PUT_MAX`, so `put`
                // alone would never stage a create: half the puts take
                // the builder's create → write → seal instead, keeping
                // `SEAL_AT` / `ABORT_AT` and the staged ledger under fault.
                let two_step = rng.gen_bool(0.5);
                let invoke = recorder.now_us();
                let ok = if two_step {
                    client
                        .create(id, data.len() as u64, 0)
                        .is_ok_and(|builder| {
                            builder.write(0, &data).is_ok() && builder.seal().is_ok()
                        })
                } else {
                    client.put(id, &data, &[]).is_ok()
                };
                recorder.record(node, invoke, EventKind::Put { name, tag, ok });
            }
            // 30%: single get.
            30..=59 => {
                let invoke = recorder.now_us();
                let observed = match client.get(&[id], cfg.get_timeout) {
                    Ok(slots) => observe(
                        &client,
                        id,
                        slots.into_iter().next().flatten(),
                        node,
                        &mut failed_releases,
                    ),
                    Err(_) => Observed::Missing,
                };
                recorder.record(node, invoke, EventKind::Get { name, observed });
            }
            // 15%: batched multi-get, duplicates allowed.
            60..=74 => {
                let k = rng.gen_range(2..=4usize);
                let names: Vec<u8> = (0..k).map(|_| rng.gen_range(0..cfg.names)).collect();
                let ids: Vec<ObjectId> = names.iter().map(|&n| chaos_oid(n)).collect();
                let invoke = recorder.now_us();
                let observed = match client.get(&ids, cfg.get_timeout) {
                    Ok(slots) => ids
                        .iter()
                        .zip(slots)
                        .map(|(&slot_id, slot)| {
                            observe(&client, slot_id, slot, node, &mut failed_releases)
                        })
                        .collect(),
                    Err(_) => vec![Observed::Missing; ids.len()],
                };
                recorder.record(node, invoke, EventKind::BatchGet { names, observed });
            }
            // 15%: delete.
            75..=89 => {
                let invoke = recorder.now_us();
                let ok = client.delete(id).is_ok();
                recorder.record(node, invoke, EventKind::Delete { name, ok });
            }
            // 5%: contains (10% with the elastic mix off).
            90..=94 => {
                let invoke = recorder.now_us();
                if let Ok(present) = client.contains(id) {
                    recorder.record(node, invoke, EventKind::Contains { name, present });
                }
            }
            // 5%: elastic-tier store ops — spill or replicate a
            // ring-owned sealed object to a random peer, run a
            // heat-driven rebalance pass, or offer replicas to hot
            // readers. Not client-visible, so nothing is recorded; the
            // delegation quiesce audit and the
            // redirect-following gets above are what hold them to
            // account.
            _ if cfg.elastic && cfg.nodes > 1 => {
                let store = cluster.store(node);
                let op = rng.gen_range(0..4u32);
                if op == 0 {
                    let _ = store.rebalance_once();
                } else if op == 1 {
                    let _ = store.replicate_hot();
                } else {
                    let self_id = cluster.node_id(node);
                    let target = {
                        let mut t = rng.gen_range(0..cfg.nodes - 1);
                        if t >= node {
                            t += 1;
                        }
                        cluster.node_id(t)
                    };
                    let start = rng.gen_range(0..cfg.names);
                    let candidate = (0..cfg.names)
                        .map(|off| chaos_oid((start + off) % cfg.names))
                        .find(|&id| {
                            store.ring_owner(id) == Some(self_id) && store.core().peek(id).is_some()
                        });
                    if let Some(id) = candidate {
                        if op == 2 {
                            let _ = store.replicate_to(id, target);
                        } else {
                            let _ = store.spill_to(id, target);
                        }
                    }
                }
            }
            // Elastic mix off: the remaining 5% are contains too.
            _ => {
                let invoke = recorder.now_us();
                if let Ok(present) = client.contains(id) {
                    recorder.record(node, invoke, EventKind::Contains { name, present });
                }
            }
        }
    }
    failed_releases
}

/// Classify one returned get slot and release the buffer reference. A
/// failed release restores the client's pin ledger entry, so it is
/// recorded for a clean-network retry rather than dropped.
fn observe(
    client: &plasma::PlasmaClient,
    id: ObjectId,
    slot: Option<plasma::ObjectBuffer>,
    node: usize,
    failed_releases: &mut Vec<(usize, ObjectId)>,
) -> Observed {
    match slot {
        None => Observed::Missing,
        Some(buf) => {
            let observed = match buf.read_all() {
                Ok(data) => Observed::classify(&data),
                Err(_) => Observed::Torn,
            };
            drop(buf);
            if client.release(id).is_err() {
                failed_releases.push((node, id));
            }
            observed
        }
    }
}
