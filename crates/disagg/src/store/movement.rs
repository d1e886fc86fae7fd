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
//! replica propagation, a forwarded create's adoption — is one function,
//! [`DisaggStore::read_payload`]: the bytes are read from the mapped
//! `tfsim` segment named by the negotiated `(segment, offset, len)`
//! descriptor, and counted on the reader
//! (`disagg.fabric.mapped_payload_bytes`). **No rpclite frame carries a
//! payload byte** (the `proto` tests pin every descriptor-carrying frame
//! to O(1) in object size).
//!
//! Nothing *writes* another node's memory: the plane has no write half.
//! A put or a client's builder writes the object into the creator's own
//! segment, and the id's owner pulls a copy from there
//! ([`DisaggStore::copy_in`], the copy spill and replication use too) —
//! the paper's Fig. 3 rule, "don't build the store-to-store channel on
//! remote writes".
//!
//! The descriptor lifecycle: **negotiate** (a control-plane RPC pins the
//! object and returns its descriptor) → **map** (attach the segment) →
//! **read** (bulk bytes move) → **release** (a control-plane RPC drops
//! the pin).

use super::peer::PeerFail;
use super::{DisaggStore, RemotePinGuard};
use crate::delegation::{Kind, Side};
use crate::elastic::{HIGH_WATERMARK_PPM, HOT_AFTER_HITS, LEND_HEADROOM_PPM, LOW_WATERMARK_PPM};
use crate::proto::{method, DelegateReq, DelegateResp, DeleteReq, DeleteResp, Message, RetireReq};
use bytes::Bytes;
use plasma::{ObjectId, ObjectLocation, ObjectStore, PlasmaError};
use rpclite::{RpcError, StatusCode};
use std::time::Duration;
use tfsim::NodeId;

/// Cap on replica holders per object — bounds the copies a delete must
/// retire before it may proceed.
const MAX_REPLICA_HOLDERS: usize = 2;

/// Most objects examined per `maybe_spill` pass (bounds pass latency).
const MAX_SPILL_BATCH: usize = 32;

/// Most asks one delete makes of its owner: the first, and one after each
/// round of retired copies. Copies appear only by the owner's own
/// replication or spill, so a third ask is already rare.
const DELETE_ASKS: usize = 4;

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

    /// Pull the bytes behind `src` over the fabric into a new, unsealed
    /// object under the same id here, whose creator's reference the
    /// caller holds: the one copy a spill, a replication and a forwarded
    /// create all make. The bytes go straight from `src`'s segment into
    /// the new object's, charged as a read of `src` and the writes of
    /// its data and metadata; no buffer holds them between. A failed
    /// read or write leaves nothing here.
    pub(super) fn copy_in(&self, src: &ObjectLocation) -> Result<ObjectLocation, PlasmaError> {
        let inner = &self.inner;
        let view = inner
            .core
            .mapping_for(src)?
            .view(src.offset, src.total_size())?;
        let copied = view.read_with(|bytes| {
            let (data, metadata) = bytes.split_at(src.data_size as usize);
            inner.core.create_filled(src.id, data, metadata)
        })?;
        if src.seg.owner != inner.node {
            inner.metrics.mapped_payload_bytes.add(src.total_size());
        }
        copied
    }

    /// Holder side of `SPILL_AT` / `REPLICATE_AT`: pull the (immutable,
    /// owner-pinned) bytes behind `src` straight from the owner's sealed
    /// segment and seal a local copy under the same id. A `Lease` keeps
    /// the creator's reference: it is the lease's, held until the owner
    /// retires the lease, so nothing here evicts or frees a copy whose
    /// descriptor the owner hands out. Returns the copy's location.
    fn adopt_copy(&self, kind: Kind, src: &ObjectLocation) -> Result<ObjectLocation, PlasmaError> {
        let core = &self.inner.core;
        self.copy_in(src)?;
        let sealed = core.seal(src.id)?;
        if kind != Kind::Lease {
            core.release(src.id)?;
        }
        Ok(sealed)
    }

    /// The location of the copy sealed here under `src.id`, if it is byte
    /// for byte the object `src` describes. The copy is pinned while its
    /// bytes are compared.
    pub(super) fn copy_of(&self, src: &ObjectLocation) -> Option<ObjectLocation> {
        let core = &self.inner.core;
        let offered = self.read_payload(src).ok()?;
        let loc = core.get_local(src.id)?;
        let same = (loc.data_size, loc.metadata_size) == (src.data_size, src.metadata_size)
            && self.read_payload(&loc).is_ok_and(|held| held == offered);
        let _ = core.release(src.id);
        same.then_some(loc)
    }

    /// `SPILL_AT` (`Lease`) / `REPLICATE_AT` (`Replica`) handler: adopt
    /// a copy of the sealed object of the caller — its `owner` — record
    /// whose it is, and answer where the copy is. Refusing changes
    /// nothing anywhere; the answer to a retry is the answer the first
    /// attempt gave.
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
            let same = recorded.then(|| self.copy_of(&req.location)).flatten();
            if recorded && same.is_none() {
                let _ = self.invalidate_here(owner, id);
            }
            same
        } else if matches!(held, Some((Kind::Lease, _))) {
            // A lent object's only bytes live at its holder; it never
            // also gains replicas (lent ⊕ replicated).
            None
        } else if self.occupancy_ppm(size) <= LEND_HEADROOM_PPM {
            // Headroom gate: never let delegated bytes push this node
            // past its own lending watermark, or spills would cascade
            // (and replicas are strictly optional). Any failure before
            // the seal aborts the staged copy and refuses — the owner's
            // copy is untouched. The entry goes in first: from its seal
            // on, a leased copy is hidden from every get here, so none
            // pins it and none of their releases can meet the lease's
            // reference.
            inner.ledger.record(Side::Held, id, kind, owner, size);
            let adopted = self.adopt_copy(kind, &req.location).ok();
            if adopted.is_none() {
                inner.ledger.remove(Side::Held, id, kind, Some(owner));
            }
            adopted
        } else {
            None
        };
        let Some(loc) = adopted else {
            return DelegateResp::Refused;
        };
        self.sync_delegation_gauges();
        DelegateResp::Adopted(loc)
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
        // Nor is an object replicated while a delete retires its
        // replicas (`Ledger::close_replicas`).
        let excluded = match kind {
            Kind::Lease => !inner.ledger.peers(Side::Out, id, Kind::Replica).is_empty(),
            _ => {
                inner.ledger.find(Side::Out, id, Kind::Lease).is_some()
                    || inner.ledger.replicas_closing(id)
            }
        };
        if holder == inner.node || excluded {
            return Ok(false);
        }
        let Some(loc) = inner.core.get_local(id) else {
            return Err(PlasmaError::ObjectNotFound(id));
        };
        let req = DelegateReq { location: loc };
        let verb = match kind {
            Kind::Lease => method::SPILL_AT,
            _ => method::REPLICATE_AT,
        };
        // (the holder's copy, if adopted; ambiguous; error to surface)
        let (adopted, ambiguous, error) = match self.peer_call(holder, verb, &req) {
            Ok(body) => match DelegateResp::decode(body) {
                Ok(DelegateResp::Adopted(at)) => (Some(at), false, None),
                Ok(DelegateResp::Refused) => (None, false, None),
                Err(e) => {
                    let e = PlasmaError::Protocol(format!("delegation response: {e}"));
                    (None, true, Some(e))
                }
            },
            Err(PeerFail::Skipped) => (None, false, None),
            Err(PeerFail::Unsent(_) | PeerFail::Unreachable(_)) => (None, true, None),
            Err(fail @ (PeerFail::NoPeer | PeerFail::Rpc(RpcError::Status(_)))) => {
                (None, false, Some(self.peer_err(holder, fail)))
            }
            Err(fail) => (None, true, Some(self.peer_err(holder, fail))),
        };
        if let (Kind::Lease, Some(at)) = (kind, adopted) {
            inner.ledger.lend_out(id, holder, at);
            self.sync_delegation_gauges();
        } else if kind == Kind::Replica && (adopted.is_some() || ambiguous) {
            let bytes = loc.total_size();
            inner.ledger.record(Side::Out, id, kind, holder, bytes);
            self.sync_delegation_gauges();
        }
        let adopted = adopted.is_some();
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
    /// (coldest first), until occupancy drops to [`LOW_WATERMARK_PPM`],
    /// offering each to its rendezvous successors ([`crate::Ring::ranked`])
    /// until one adopts. The lender's own headroom gate decides; one that
    /// refused or could not be reached is not asked again this pass.
    /// Only ring-owned objects are delegated — redirects are served from
    /// the owner's ledger, so an off-ring copy spilled elsewhere would be
    /// unfindable. Returns bytes delegated.
    pub fn spill_cold(&self, max_objects: usize) -> Result<u64, PlasmaError> {
        let inner = &self.inner;
        let Some(ring) = inner.ring.read().clone() else {
            return Ok(0);
        };
        let mut refused = Vec::new();
        let mut spilled = 0u64;
        for (id, bytes) in inner.core.cold_candidates(max_objects) {
            if self.memory_pressure_ppm() <= LOW_WATERMARK_PPM {
                break;
            }
            let ranked = ring.ranked(id);
            // A copy already out (a replica) is the candidate's reason
            // to stay, not a lender's to refuse.
            if ranked.first() != Some(&inner.node) || inner.ledger.has_out_copy(id) {
                continue;
            }
            for &lender in &ranked[1..] {
                if refused.contains(&lender) {
                    continue;
                }
                if matches!(self.spill_to(id, lender), Ok(true)) {
                    spilled += bytes;
                    break;
                }
                refused.push(lender);
            }
        }
        Ok(spilled)
    }

    /// `INVALIDATE` handler, and a delete's requester retiring a copy it
    /// holds itself — the one way a delegated copy dies: `owner`'s delete
    /// is under way, and the copy this node holds on its authority dies
    /// with it. Owner-checked for both kinds, so a copy
    /// recorded under another owner (a racing re-delegation under a
    /// newer one) is not clobbered. Returns whether there was one.
    ///
    /// A replica's simulated cache lines are flushed before its segment
    /// bytes are reused, and its delete is deferred: a read pinning it
    /// right now finishes, while the ledger entry is already gone, so no
    /// *new* read can be attributed to a stale replica. A leased copy's
    /// readers are pinned in its owner's ledger, which retires the lease
    /// only once none is left: the lease's reference goes, and the copy
    /// with it.
    pub(super) fn invalidate_here(&self, owner: NodeId, id: ObjectId) -> Result<bool, PlasmaError> {
        let inner = &self.inner;
        let kind = match inner.ledger.held_copy(id) {
            Some((kind, recorded)) if recorded == owner => kind,
            _ => return Ok(false),
        };
        if kind == Kind::Lease {
            // Hidden first, then the lease's reference goes, and the copy
            // with it: at no point is it visible and unleased.
            inner.core.delete_deferred(id)?;
            inner.core.release(id)?;
            inner.ledger.remove(Side::Held, id, kind, Some(owner));
        } else {
            inner.ledger.remove(Side::Held, id, kind, Some(owner));
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

    /// Owner side of a delete, for a peer's `DELETE` and for this node's
    /// own: the delete-authority discipline in one place, answered from
    /// this node's state alone. First the rows of the holders in
    /// `cleared` go, exactly those: the requester retired their copies.
    /// Then, with copies still out, the answer names them — each holder
    /// and its kind — for the requester to retire and name in its next
    /// ask; with none, the local copy goes and the answer is whether it
    /// is gone now (`false`: deferred behind a reader).
    ///
    /// * A *delegated* copy — a held replica or a leased (spilled)
    ///   object — cannot satisfy a delete: the ring owner is the delete
    ///   authority, and only its copies-first ordering clears every
    ///   copy. Consuming the local copy here would ack a delete the
    ///   owner never saw, leaving the owner's primary (or an
    ///   ambiguous-spill duplicate) serving reads. `NotFound` sends the
    ///   requester on to the owner.
    /// * Copies go before the local copy: a copy nobody confirmed keeps
    ///   its row, and its row keeps the object here intact. A deferred
    ///   delete hides the object at once, so the ordering is the same.
    /// * A lease with pins out on it is the object in use, as a pinned
    ///   local copy is: `ObjectInUse`, for a deferred delete too — the
    ///   readers map the holder's copy, which the lease's retirement
    ///   frees. Once the answer names the lease it is closing: no get is
    ///   handed the holder's copy again, so no reader maps it while the
    ///   requester retires it. A requester that reached no holder gives
    ///   up and says so ([`DisaggStore::reopen_leases`]); one that may
    ///   have reached it leaves the lease closed — reads miss, as they
    ///   would of a copy that may be gone — until a delete confirms it.
    /// * No local copy, but a lease just cleared: the object lived at
    ///   its holder and was still this node's to delete.
    pub(super) fn delete_here(
        &self,
        id: ObjectId,
        deferred: bool,
        cleared: &[NodeId],
    ) -> Result<DeleteResp, PlasmaError> {
        let inner = &self.inner;
        let ledger = &inner.ledger;
        if ledger.held_copy(id).is_some() {
            return Err(PlasmaError::ObjectNotFound(id));
        }
        let mut lease_cleared = false;
        for &holder in cleared {
            lease_cleared |= ledger
                .remove(Side::Out, id, Kind::Lease, Some(holder))
                .is_some();
            ledger.remove(Side::Out, id, Kind::Replica, Some(holder));
        }
        if !cleared.is_empty() {
            self.sync_delegation_gauges();
        }
        let lease = ledger.close_lease(id)?;
        let mut copies: Vec<(NodeId, Kind)> = lease
            .map(|holder| (holder, Kind::Lease))
            .into_iter()
            .collect();
        let replicas = ledger.peers(Side::Out, id, Kind::Replica).into_iter();
        copies.extend(replicas.map(|holder| (holder, Kind::Replica)));
        if !copies.is_empty() {
            ledger.close_replicas(id);
            return Ok(DeleteResp::Clear(copies));
        }
        let local = if deferred {
            inner.core.delete_deferred(id)
        } else {
            inner.core.delete(id).map(|()| true)
        };
        let done = match local {
            Err(PlasmaError::ObjectNotFound(_)) if lease_cleared => Ok(DeleteResp::Done(true)),
            local => local.map(DeleteResp::Done),
        };
        // A deleted id's remote reads say nothing of any later object.
        if done.is_ok() {
            inner.heat.clear(id);
        }
        done
    }

    /// Retire each of `copies` — `(holder, kind)`, as a delete's owner
    /// named them — on `owner`'s authority: a copy held here at once, the
    /// others with one `INVALIDATE` each, all in one exchange. A copy
    /// already gone counts as retired. Returns the holders, all of them,
    /// or the first failure: then the delete fails and no holder is
    /// named to the owner as retired. With the failure come the lease
    /// holders no `INVALIDATE` reached, whose leases the owner may open
    /// again.
    fn retire_copies(
        &self,
        owner: NodeId,
        id: ObjectId,
        copies: &[(NodeId, Kind)],
    ) -> Result<Vec<NodeId>, (PlasmaError, Vec<NodeId>)> {
        let (here, there): (Vec<(NodeId, Kind)>, Vec<_>) = copies
            .iter()
            .partition(|(holder, _)| *holder == self.inner.node);
        if !here.is_empty() {
            match self.invalidate_here(owner, id) {
                Ok(_) | Err(PlasmaError::ObjectNotFound(_)) => {}
                Err(e) => return Err((e, lease_holders(&there))),
            }
        }
        let req = RetireReq { id, owner };
        let calls: Vec<_> = there
            .iter()
            .map(|&(holder, _)| (holder, method::INVALIDATE, req))
            .collect();
        let (mut failed, mut unsent) = (None, Vec::new());
        for (&copy, answer) in there.iter().zip(self.scatter(&calls)) {
            match answer {
                Ok(_) => {}
                Err(fail) if fail.status() == Some(StatusCode::NotFound) => {}
                Err(fail) => {
                    if fail.unsent() {
                        unsent.push(copy);
                    }
                    failed.get_or_insert(self.peer_err(copy.0, fail));
                }
            }
        }
        match failed {
            None => Ok(copies.iter().map(|&(holder, _)| holder).collect()),
            Some(e) => Err((e, lease_holders(&unsent))),
        }
    }

    /// A delete of `id` gives up: each lease toward `kept` — closed by
    /// this delete, its holder never reached — is reopened at its
    /// owner. Best effort: a lease an unanswered give-up leaves closing
    /// waits for the next delete.
    fn give_up(&self, owner: NodeId, id: ObjectId, deferred: bool, kept: Vec<NodeId>) {
        if kept.is_empty() {
            return;
        }
        if owner == self.inner.node {
            self.reopen_leases(id, &kept);
        } else {
            let req = DeleteReq {
                id,
                deferred,
                cleared: Vec::new(),
                kept,
            };
            let _ = self.peer_call(owner, method::DELETE, &req);
        }
    }

    /// Owner side of a delete that gave up: the leases on `id` toward
    /// `kept` reopen ([`crate::Ledger::reopen_lease`]), and gets are
    /// handed their holders' copies again.
    pub(super) fn reopen_leases(&self, id: ObjectId, kept: &[NodeId]) {
        for &holder in kept {
            self.inner.ledger.reopen_lease(id, holder);
        }
    }

    /// Requester side of a delete, shared by `delete` and
    /// `delete_deferred`: act as the owner when this node is it, else
    /// forward, probing the ring's computed owner first (most likely
    /// holder; the client to a peer is built only once the walk reaches
    /// it). An unreachable peer might be the owner, so `NotFound` is
    /// only definite once every peer answered. An owner that answers with
    /// copies to clear is asked again once they are retired, from here
    /// ([`DisaggStore::retire_copies`]), until it answers done.
    ///
    /// A release of `id` this store deferred in a batch get's release
    /// group is sent first: the caller released before deleting, and the
    /// owner must not still count that pin. The batch's other pins stay
    /// held until its last release (the batch-hold rule), so a delete of
    /// one of them from another node reads `ObjectInUse` meanwhile.
    pub(super) fn delete_routed(&self, id: ObjectId, deferred: bool) -> Result<bool, PlasmaError> {
        let held = self.inner.release_groups.lock().take_deferred(id);
        self.return_pins(&vec![id; held], false, |_| {});
        // `delete_here` refuses a delegated copy held here exactly as
        // it refuses one for a peer: the owner runs the delete.
        match self.delete_here(id, deferred, &[]) {
            Err(PlasmaError::ObjectNotFound(_)) => {}
            Err(e) => return Err(e),
            Ok(answer) => return self.delete_with(self.inner.node, id, deferred, answer),
        }
        let req = DeleteReq {
            id,
            deferred,
            cleared: Vec::new(),
            kept: Vec::new(),
        };
        let mut unreachable: Option<PlasmaError> = None;
        for peer in self.peers_owner_first(id) {
            match self.peer_call(peer, method::DELETE, &req) {
                Ok(body) => {
                    let answer = Self::delete_answer(body)?;
                    return self.delete_with(peer, id, deferred, answer);
                }
                Err(fail) if fail.status() == Some(StatusCode::NotFound) => continue,
                Err(fail @ PeerFail::Rpc(_)) => return Err(self.object_err(peer, id, fail)),
                Err(fail) => {
                    unreachable.get_or_insert(self.peer_err(peer, fail));
                }
            }
        }
        Err(unreachable.unwrap_or(PlasmaError::ObjectNotFound(id)))
    }

    /// Finish a delete whose owner, `owner` (maybe this node), gave
    /// `answer`: retire the copies it names and ask again, naming
    /// their holders, until it answers done. A copy that appears between
    /// two asks is named in the next answer; an object that keeps gaining
    /// copies fails the delete as in use. A delete that fails gives up
    /// the leases it closed and reached no holder of.
    fn delete_with(
        &self,
        owner: NodeId,
        id: ObjectId,
        deferred: bool,
        mut answer: DeleteResp,
    ) -> Result<bool, PlasmaError> {
        for asked in 1.. {
            let copies = match answer {
                DeleteResp::Done(now) => return Ok(now),
                DeleteResp::Clear(copies) if asked == DELETE_ASKS => {
                    self.give_up(owner, id, deferred, lease_holders(&copies));
                    break;
                }
                DeleteResp::Clear(copies) => copies,
            };
            let cleared = match self.retire_copies(owner, id, &copies) {
                Ok(cleared) => cleared,
                Err((e, kept)) => {
                    self.give_up(owner, id, deferred, kept);
                    return Err(e);
                }
            };
            answer = if owner == self.inner.node {
                self.delete_here(id, deferred, &cleared)?
            } else {
                let req = DeleteReq {
                    id,
                    deferred,
                    cleared,
                    kept: Vec::new(),
                };
                let body = self.peer_call(owner, method::DELETE, &req);
                let body = body.map_err(|fail| self.object_err(owner, id, fail))?;
                Self::delete_answer(body)?
            };
        }
        Err(PlasmaError::ObjectInUse(id))
    }

    fn delete_answer(body: Bytes) -> Result<DeleteResp, PlasmaError> {
        DeleteResp::decode(body).map_err(|e| PlasmaError::Protocol(format!("delete response: {e}")))
    }
}

/// The holders of the leases among `copies`.
fn lease_holders(copies: &[(NodeId, Kind)]) -> Vec<NodeId> {
    let leases = copies.iter().filter(|(_, kind)| *kind == Kind::Lease);
    leases.map(|&(holder, _)| holder).collect()
}
