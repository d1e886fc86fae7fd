//! Moving objects between nodes: payload reads over the data plane,
//! delegating a copy to a peer (spill = `Lease`, replicate =
//! `Replica`) and adopting one, and retiring delegated copies when their
//! object dies.
//!
//! ## The data plane
//!
//! The paper's central claim is that object *data* moves over the
//! disaggregated memory fabric while only small control messages ride
//! the RPC channel. Every bulk payload *read* in the distributed store —
//! remote reads after a `GET_MANY` descriptor negotiation, spill and
//! replica propagation — is one function, [`DisaggStore::read_payload`]:
//! the bytes are read from the mapped `tfsim` segment named by the
//! negotiated `(segment, offset, len)` descriptor, and counted on the
//! reader (`disagg.fabric.mapped_payload_bytes`). **A read never moves a
//! payload byte in an rpclite frame** (the `proto` tests pin every
//! descriptor-carrying frame to O(1) in object size).
//!
//! A store never *writes* another node's memory: the plane has no write
//! half. A forwarded create is written by the client through its own
//! fabric mapping; a forwarded small put (up to `plasma::INLINE_PUT_MAX`
//! bytes) carries its bytes in the `CREATE_AT` and the owner writes them
//! into its own segment — the paper's Fig. 3 rule, "don't build the
//! store-to-store channel on remote writes".
//!
//! The descriptor lifecycle: **negotiate** (a control-plane RPC pins the
//! object and returns its descriptor) → **map** (attach the segment) →
//! **read** (bulk bytes move) → **release** (a control-plane RPC drops
//! the pin).

use super::peer::PeerFail;
use super::{DisaggStore, RemotePinGuard};
use crate::delegation::{Kind, Side};
use crate::elastic::{HIGH_WATERMARK_PPM, HOT_AFTER_HITS, LEND_HEADROOM_PPM, LOW_WATERMARK_PPM};
use crate::proto::{method, BoolResp, DelegateReq, DelegateResp, DelegateStatus, DeleteReq, IdReq};
use bytes::Bytes;
use plasma::{ObjectId, ObjectLocation, ObjectStore, PlasmaError};
use rpclite::{RpcError, StatusCode};
use std::time::Duration;
use tfsim::NodeId;

/// Cap on replica holders per object — bounds the invalidation fan-out a
/// delete must complete before it may proceed.
const MAX_REPLICA_HOLDERS: usize = 2;

/// Most objects examined per `maybe_spill` pass (bounds pass latency).
const MAX_SPILL_BATCH: usize = 32;

impl DisaggStore {
    /// Resolve `id` and read its full payload (data + metadata bytes)
    /// through the data plane — the complete descriptor lifecycle in
    /// one call: **negotiate** (pinning get over the control plane) →
    /// **map/read** ([`DisaggStore::read_payload`]) → **release**. Returns
    /// `None` when the id did not resolve within `timeout`.
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

    /// Read the `loc.total_size()` payload bytes behind a negotiated
    /// descriptor by attaching the descriptor's `tfsim` segment — this
    /// node's own or another's — and reading it directly: zero-copy, no
    /// frame. Bytes read out of another node's segment are the data
    /// plane's traffic and are counted, on the reader. The caller must
    /// hold the pin the negotiation took (see [`DisaggStore::get_bytes`])
    /// until this returns.
    pub fn read_payload(&self, loc: &ObjectLocation) -> Result<Vec<u8>, PlasmaError> {
        let inner = &self.inner;
        let mapping = inner.core.mapping_for(loc)?;
        let bytes = mapping.view(loc.offset, loc.total_size())?.read_all()?;
        if loc.seg.owner != inner.node {
            inner.metrics.mapped_payload_bytes.add(bytes.len() as u64);
        }
        Ok(bytes)
    }

    /// Holder side of `SPILL_AT` / `REPLICATE_AT`: pull the (immutable,
    /// owner-pinned) bytes behind `src` straight from the owner's sealed
    /// segment and seal a local copy under the same id.
    fn adopt_copy(&self, src: &ObjectLocation) -> Result<(), PlasmaError> {
        let bytes = self.read_payload(src)?;
        let (data, metadata) = bytes.split_at(src.data_size as usize);
        self.inner.core.put(src.id, data, metadata).map(|_| ())
    }

    /// Whether the copy sealed here under `src.id` is byte for byte the
    /// object `src` describes at its owner.
    fn holds_copy_of(&self, src: &ObjectLocation) -> bool {
        self.read_payload(src).is_ok_and(|offered| {
            let (data, metadata) = offered.split_at(src.data_size as usize);
            self.sealed_copy_is(src.id, data, metadata).is_some()
        })
    }

    /// `SPILL_AT` (`Lease`) / `REPLICATE_AT` (`Replica`) handler: adopt
    /// a copy of the sealed object of the caller — its `owner` — and
    /// record whose it is. Refusing changes nothing anywhere; the answer
    /// to a retry is the answer the first attempt gave.
    pub(super) fn delegate_at(&self, kind: Kind, owner: NodeId, req: DelegateReq) -> DelegateResp {
        let inner = &self.inner;
        let id = req.location.id;
        let size = req.location.total_size();
        let held = inner.ledger.held_copy(id);
        let adopted = if inner.core.peek(id).is_some() {
            // Idempotent retry: a delegation whose response was lost left
            // the copy sealed here — re-acknowledge it so the owner can
            // finish its half. But only the copy recorded as this owner's,
            // of this kind, *and* holding the offered bytes: an id names
            // immutable bytes, so a recorded copy that differs is what
            // this owner left behind of an object it has since deleted
            // (it never learnt of the copy, so its delete chased nothing)
            // — that one dies the way delegated copies die, and the
            // refusal lets the owner's next attempt adopt the live bytes.
            // A local copy that exists for some other reason (e.g. we are
            // mid re-own) is refused rather than forking the accounting.
            let recorded = held == Some((kind, owner));
            let same = recorded && self.holds_copy_of(&req.location);
            if recorded && !same {
                let _ = self.invalidate_here(owner, id);
            }
            same
        } else if matches!(held, Some((Kind::Lease, _))) {
            // A lent object's only bytes live at its holder; it never
            // also gains replicas (lent ⊕ replicated).
            false
        } else {
            // Headroom gate: never let delegated bytes push this node
            // past its own lending watermark, or spills would cascade
            // (and replicas are strictly optional). Any failure before
            // the seal aborts the staged copy and refuses — the owner's
            // copy is untouched.
            self.occupancy_ppm(size) <= LEND_HEADROOM_PPM && self.adopt_copy(&req.location).is_ok()
        };
        if adopted {
            inner.ledger.record(Side::Held, id, kind, owner, size);
            self.sync_delegation_gauges();
        }
        DelegateResp {
            status: if adopted {
                DelegateStatus::Adopted
            } else {
                DelegateStatus::Refused
            },
        }
    }

    /// Delegate a copy of one sealed, locally-held object to `holder`:
    /// a `Lease` hands the object over (`SPILL_AT`; the local copy goes
    /// once the holder acknowledges), a `Replica` shares it
    /// (`REPLICATE_AT`; the owner keeps its copy and the write/metadata
    /// authority). The source copy is pinned while the holder copies, so
    /// eviction cannot race the copy and a delete racing it fails
    /// `ObjectInUse` until the pin drops. Returns whether the holder
    /// adopted; `Ok(false)` means it refused and nothing changed.
    ///
    /// When the outcome is ambiguous — the holder may have sealed a copy
    /// but no decodable answer arrived — each kind records what is safe
    /// to be wrong about. A replica's entry is recorded anyway: an entry
    /// without a replica is trimmed at reconcile, but a replica without
    /// an entry would dodge invalidation and serve stale reads after a
    /// delete. A lease is *not* recorded and the local copy stays: if
    /// the holder did adopt, both immutable copies coexist harmlessly
    /// until reconciliation drops the redundant one. A `Status` reply
    /// was authored by the handler itself, which only answers with one
    /// *before* any adopt: definite non-adoption.
    fn delegate_to(&self, kind: Kind, id: ObjectId, holder: NodeId) -> Result<bool, PlasmaError> {
        let inner = &self.inner;
        // Lent ⊕ replicated: a lent object's bytes live at its holder,
        // not here, so it is never replicated; an object with replicas
        // out is never lent, so its delete stays a pure invalidation
        // fan-out, not a lease chase on top of one.
        let excluded = match kind {
            Kind::Lease => !inner.ledger.peers(Side::Out, id, Kind::Replica).is_empty(),
            _ => inner.ledger.find(Side::Out, id, Kind::Lease).is_some(),
        };
        if holder == inner.node || excluded {
            return Ok(false);
        }
        let peer = self.peer(holder)?;
        let Some(loc) = inner.core.get_local(id) else {
            return Err(PlasmaError::ObjectNotFound(id));
        };
        let req = DelegateReq { location: loc };
        let verb = match kind {
            Kind::Lease => method::SPILL_AT,
            _ => method::REPLICATE_AT,
        };
        // (adopted, ambiguous, error to surface)
        let (adopted, ambiguous, error) = match self.peer_call(&peer, verb, req.encode()) {
            Ok(body) => match DelegateResp::decode(body) {
                Ok(resp) => (resp.status == DelegateStatus::Adopted, false, None),
                Err(e) => {
                    let e = PlasmaError::Protocol(format!("delegation response: {e}"));
                    (false, true, Some(e))
                }
            },
            Err(PeerFail::Skipped) => (false, false, None),
            Err(PeerFail::Unreachable(_)) => (false, true, None),
            Err(fail @ PeerFail::Rpc(RpcError::Status(_))) => {
                (false, false, Some(self.peer_err(&peer, fail)))
            }
            Err(fail) => (false, true, Some(self.peer_err(&peer, fail))),
        };
        if adopted || (ambiguous && kind == Kind::Replica) {
            inner
                .ledger
                .record(Side::Out, id, kind, holder, loc.total_size());
            self.sync_delegation_gauges();
        }
        inner.core.release(id)?;
        if let Some(e) = error {
            return Err(e);
        }
        let m = &inner.metrics;
        match (kind, adopted) {
            (Kind::Lease, false) => m.spills_refused.inc(),
            (_, false) => m.replicas_refused.inc(),
            (Kind::Lease, true) => {
                // The holder sealed its copy *before* we got here, so the
                // lease is the truth: drop the local copy. Deletion is
                // deferred — concurrent local readers (and remote pins)
                // drain first.
                let _ = inner.core.delete_deferred(id);
                inner.heat.clear(id);
                m.spills_completed.inc();
            }
            (_, true) => m.replicas_created.inc(),
        }
        Ok(adopted)
    }

    /// Spill one sealed, locally-held object to `holder` — the elastic
    /// primitive (capacity-driven via [`DisaggStore::spill_cold`],
    /// heat-driven via [`DisaggStore::rebalance_once`]). The holder seals
    /// its copy *before* the local one is deleted, and on an ambiguous
    /// outcome the local copy stays, so a lost response can duplicate an
    /// immutable object but never lose it. Returns whether the holder
    /// adopted; `Ok(false)` means it refused and nothing changed.
    pub fn spill_to(&self, id: ObjectId, holder: NodeId) -> Result<bool, PlasmaError> {
        self.delegate_to(Kind::Lease, id, holder)
    }

    /// Propagate a read replica of one sealed, locally-held object to
    /// `holder`, which then serves its own reads locally; the owner keeps
    /// its copy and the write/metadata authority. On an ambiguous
    /// outcome the owner records the replica anyway, so a delete still
    /// invalidates it. Returns whether the holder adopted.
    pub fn replicate_to(&self, id: ObjectId, holder: NodeId) -> Result<bool, PlasmaError> {
        self.delegate_to(Kind::Replica, id, holder)
    }

    /// One heat-driven replication pass: every owned object whose
    /// dominant remote reader accumulated at least [`HOT_AFTER_HITS`]
    /// remote hits gets a replica *at that reader* (up to
    /// `MAX_REPLICA_HOLDERS`), converting its future remote reads into
    /// local ones while the owner keeps serving everyone else. Returns
    /// replicas created.
    pub fn replicate_hot(&self) -> Result<u64, PlasmaError> {
        let inner = &self.inner;
        let mut created = 0u64;
        for (id, reader, _) in inner.heat.drain_hot(HOT_AFTER_HITS) {
            let holders = inner.ledger.peers(Side::Out, id, Kind::Replica);
            if self.ring_owner(id) != Some(inner.node)
                || holders.len() >= MAX_REPLICA_HOLDERS
                || holders.contains(&reader)
                || inner.core.peek(id).is_none()
            {
                continue;
            }
            if matches!(self.replicate_to(id, reader), Ok(true)) {
                created += 1;
            }
        }
        Ok(created)
    }

    /// One heat-driven rebalance pass: every object whose dominant
    /// remote reader accumulated at least [`HOT_AFTER_HITS`] remote hits
    /// is delegated *to that reader*, converting its future remote reads
    /// into local ones. Returns the number of objects moved.
    pub fn rebalance_once(&self) -> Result<u64, PlasmaError> {
        let inner = &self.inner;
        let mut moved = 0u64;
        for (id, reader, _) in inner.heat.drain_hot(HOT_AFTER_HITS) {
            if self.ring_owner(id) != Some(inner.node)
                || inner.ledger.has_out_copy(id)
                || inner.core.peek(id).is_none()
            {
                continue;
            }
            if matches!(self.spill_to(id, reader), Ok(true)) {
                inner.metrics.rebalances.inc();
                moved += 1;
            }
        }
        Ok(moved)
    }

    /// Each reachable peer's advertised free bytes, read from the
    /// `plasma.free_bytes` gauge of its METRICS snapshot — the capacity
    /// gossip lender selection ranks on. Unreachable peers are omitted.
    fn peer_free_bytes(&self) -> Vec<(NodeId, i64)> {
        let peers = self.peers_snapshot();
        let calls: Vec<_> = peers
            .iter()
            .map(|peer| (peer, method::METRICS, Bytes::new()))
            .collect();
        peers
            .iter()
            .zip(self.scatter(&calls))
            .filter_map(|(peer, response)| {
                let (_, snap) = Self::decode_metrics(response.ok()?).ok()?;
                Some((peer.node, snap.gauge("plasma.free_bytes")))
            })
            .collect()
    }

    /// Spill cold objects if local occupancy has reached
    /// [`HIGH_WATERMARK_PPM`]; otherwise a no-op. Returns bytes delegated
    /// away.
    pub fn maybe_spill(&self) -> Result<u64, PlasmaError> {
        if self.memory_pressure_ppm() < HIGH_WATERMARK_PPM {
            return Ok(0);
        }
        self.spill_cold(MAX_SPILL_BATCH)
    }

    /// One spill pass: walk up to `max_objects` of the LRU tail
    /// (coldest first) and delegate each to the peer currently
    /// advertising the most free bytes, until occupancy drops to
    /// [`LOW_WATERMARK_PPM`] or candidates run out. Only ring-owned
    /// objects are delegated — redirects are served from the owner's
    /// ledger, so an off-ring copy spilled elsewhere would be
    /// unfindable. Returns bytes delegated; refusals and unreachable
    /// lenders skip the candidate rather than failing the pass.
    pub fn spill_cold(&self, max_objects: usize) -> Result<u64, PlasmaError> {
        let mut lenders = self.peer_free_bytes();
        if lenders.is_empty() {
            return Ok(0);
        }
        let mut spilled = 0u64;
        for (id, bytes) in self.inner.core.cold_candidates(max_objects) {
            if self.memory_pressure_ppm() <= LOW_WATERMARK_PPM {
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

    /// Invalidate every replica of `id` **before** its delete proceeds.
    /// Any holder that cannot confirm fails the delete — the object
    /// stays intact. This ordering is the protocol's safety story: a
    /// *successful* delete implies no live replica survived it, which
    /// is exactly the invariant the chaos quiesce audit asserts.
    pub(super) fn invalidate_replicas(&self, id: ObjectId) -> Result<(), PlasmaError> {
        let ledger = &self.inner.ledger;
        for holder in ledger.peers(Side::Out, id, Kind::Replica) {
            let peer = self.peer(holder)?;
            // Confirmed means dropped now, or the holder had no entry —
            // either way no replica survives there.
            self.peer_call(&peer, method::INVALIDATE, IdReq { id }.encode())
                .map_err(|fail| self.peer_err(&peer, fail))?;
            ledger.remove(Side::Out, id, Kind::Replica, Some(holder));
            self.sync_delegation_gauges();
        }
        Ok(())
    }

    /// `INVALIDATE` handler — the one way a delegated copy dies: `owner`
    /// decided the object dies, and the copy this node holds on its
    /// authority dies with it. Owner-checked for both kinds, so a copy
    /// recorded under another owner (a racing re-delegation under a
    /// newer one) is not clobbered. Returns whether there was one.
    ///
    /// A replica's simulated cache lines are flushed before its segment
    /// bytes are reused, and its delete is deferred: a read pinning it
    /// right now finishes, while the ledger entry is already gone, so no
    /// *new* read can be attributed to a stale replica. A leased copy is
    /// the object itself, so its delete is the object's: immediate, and
    /// a reader still pinning it fails the call (`ObjectInUse`) with copy
    /// and entry intact.
    pub(super) fn invalidate_here(&self, owner: NodeId, id: ObjectId) -> Result<bool, PlasmaError> {
        let inner = &self.inner;
        let kind = match inner.ledger.held_copy(id) {
            Some((kind, recorded)) if recorded == owner => kind,
            _ => return Ok(false),
        };
        if kind == Kind::Lease {
            inner.core.delete(id)?;
        }
        inner.ledger.remove(Side::Held, id, kind, Some(owner));
        if kind == Kind::Replica {
            if let Some(loc) = inner.core.peek(id) {
                if let (Ok(cache), Ok(mapping)) = (
                    inner.core.fabric().node_cache(inner.node),
                    inner.core.mapping_for(&loc),
                ) {
                    let len = loc.total_size() as usize;
                    cache.invalidate_range(mapping.segment(), loc.offset, len);
                }
                let _ = inner.core.delete_deferred(id);
            }
            inner.metrics.replicas_invalidated.inc();
        }
        self.sync_delegation_gauges();
        Ok(true)
    }

    /// Chase a delete of a lent object to its holder (`INVALIDATE`),
    /// retiring the lease once the holder confirms or reports the copy
    /// already gone.
    pub(super) fn delete_at_holder(&self, id: ObjectId, holder: NodeId) -> Result<(), PlasmaError> {
        let peer = self.peer(holder)?;
        match self.peer_call(&peer, method::INVALIDATE, IdReq { id }.encode()) {
            Ok(_) => {}
            Err(fail) if fail.status() == Some(StatusCode::NotFound) => {}
            Err(fail) => return Err(self.object_err(&peer, id, fail)),
        }
        let ledger = &self.inner.ledger;
        ledger.remove(Side::Out, id, Kind::Lease, Some(holder));
        self.sync_delegation_gauges();
        Ok(())
    }

    /// Owner side of a delete, shared by `DELETE` and the local call: the
    /// delete-authority discipline in one place. Returns whether the
    /// object is gone now (`false`: deferred behind a reader).
    ///
    /// * A *delegated* copy — a held replica or a leased (spilled)
    ///   object — cannot satisfy a delete: the ring owner is the delete
    ///   authority, and only its invalidate-before-delete / lease-chase
    ///   ordering clears every copy. Consuming the local copy here would
    ///   ack a delete the owner never saw, leaving the owner's primary
    ///   (or an ambiguous-spill duplicate) serving reads. `NotFound`
    ///   sends the caller's fan-out on to the owner, which retires
    ///   delegated copies via `INVALIDATE`.
    /// * Replicas go before the local copy: an unconfirmed invalidation
    ///   fails the delete with the object intact. A deferred delete
    ///   hides the object at once, so the ordering is the same.
    /// * No local copy, but a lease out: the object lives at its holder
    ///   and is still this node's to delete.
    pub(super) fn delete_here(&self, id: ObjectId, deferred: bool) -> Result<bool, PlasmaError> {
        let inner = &self.inner;
        if inner.ledger.held_copy(id).is_some() {
            return Err(PlasmaError::ObjectNotFound(id));
        }
        self.invalidate_replicas(id)?;
        let local = if deferred {
            inner.core.delete_deferred(id)
        } else {
            inner.core.delete(id).map(|()| true)
        };
        match (local, inner.ledger.find(Side::Out, id, Kind::Lease)) {
            (Err(PlasmaError::ObjectNotFound(_)), Some(lease)) => {
                self.delete_at_holder(id, lease.peer).map(|()| true)
            }
            (local, _) => local,
        }
    }

    /// Requester side of a delete, shared by `delete` and
    /// `delete_deferred`: act as the owner when this node is it, else
    /// forward, probing the ring's computed owner first (most likely
    /// holder). An unreachable peer might be the owner, so `NotFound` is
    /// only definite once every peer answered.
    pub(super) fn delete_routed(&self, id: ObjectId, deferred: bool) -> Result<bool, PlasmaError> {
        // `delete_here` refuses a delegated copy held here exactly as
        // it refuses one for a peer: the owner runs the delete — for a
        // replica that means invalidating every holder, us included,
        // before its own copy goes.
        match self.delete_here(id, deferred) {
            Err(PlasmaError::ObjectNotFound(_)) => {}
            settled => return settled,
        }
        let req = DeleteReq { id, deferred }.encode();
        let mut unreachable: Option<PlasmaError> = None;
        for peer in self.peers_owner_first(id) {
            match self.peer_call(&peer, method::DELETE, req.clone()) {
                Ok(body) => {
                    let now = BoolResp::decode(body)
                        .map_err(|e| PlasmaError::Protocol(format!("delete response: {e}")))?;
                    return Ok(now.value);
                }
                Err(fail) if fail.status() == Some(StatusCode::NotFound) => continue,
                Err(fail @ PeerFail::Rpc(_)) => return Err(self.object_err(&peer, id, fail)),
                Err(fail) => {
                    unreachable.get_or_insert(self.peer_err(&peer, fail));
                }
            }
        }
        Err(unreachable.unwrap_or(PlasmaError::ObjectNotFound(id)))
    }
}
