//! Finding the node that answers for an id: the membership table and
//! the ring built on it, the remote lookup pass (ring owners, then a
//! broadcast fallback, one overlapped exchange each), and the
//! ring-routed create — both the requester's half and the owner's.

use super::peer::PeerFail;
use super::{DisaggStore, Peer};
use crate::delegation::{Kind, Side};
use crate::proto::{
    method, BoolResp, CreateAtReq, CreateAtResp, GetManyEntry, GetManyReq, GetManyResp, IdReq,
    MembershipTable, Message,
};
use crate::ring::{Membership, Ring};
use bytes::Bytes;
use plasma::{ObjectId, ObjectLocation, PlasmaError};
use rpclite::{Status, StatusCode};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::Ordering;
use std::time::Instant;
use tfsim::NodeId;

/// What one lookup pass resolved: each id's descriptor, and the node
/// that pinned it (the one its release goes to).
type Found = HashMap<ObjectId, (ObjectLocation, NodeId)>;

impl DisaggStore {
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
        let ring = self.inner.ring.read();
        ring.as_ref().map(|r| r.membership().clone())
    }

    /// The installed membership epoch (0 = none).
    pub fn ring_epoch(&self) -> u64 {
        let ring = self.inner.ring.read();
        ring.as_ref().map(|r| r.epoch()).unwrap_or(0)
    }

    /// The ring-computed owner of `id` (`None` without a membership).
    /// A pure local computation — zero RPCs.
    pub fn ring_owner(&self, id: ObjectId) -> Option<NodeId> {
        self.inner.ring.read().as_ref().and_then(|r| r.owner_of(id))
    }

    /// This node's table, as `MEMBERSHIP` carries it (epoch 0, no
    /// nodes, without one).
    pub(super) fn membership_table(&self) -> MembershipTable {
        match self.membership() {
            Some(m) => MembershipTable {
                epoch: m.epoch,
                nodes: m.nodes,
            },
            None => MembershipTable {
                epoch: 0,
                nodes: Vec::new(),
            },
        }
    }

    /// React to the epoch in the header of a reply by `node`: pull its
    /// table if it is ahead of ours, push ours if it is behind. Either
    /// way the one `MEMBERSHIP` goes from this thread, and each side
    /// installs only a table newer than its own.
    pub(super) fn sync_epoch(&self, node: NodeId, peer_epoch: u64) {
        if peer_epoch == self.ring_epoch() {
            return;
        }
        let Ok(peer) = self.peer(node) else {
            return;
        };
        let push = (peer_epoch < self.ring_epoch()).then(|| self.membership_table().encode());
        let body: Vec<&[u8]> = push.iter().map(|table| &table[..]).collect();
        if let Ok(body) = self.peer_call(&peer, method::MEMBERSHIP, &body) {
            if let Ok(table) = MembershipTable::decode(body) {
                self.set_membership(Membership::new(table.epoch, table.nodes));
            }
        }
    }

    /// Peers with the ring's computed owner of `id` moved to the front,
    /// so serial forwarding loops probe the likeliest holder first.
    pub(super) fn peers_owner_first(&self, id: ObjectId) -> Vec<Peer> {
        let mut peers = self.peers_snapshot();
        if let Some(owner) = self.ring_owner(id) {
            if let Some(i) = peers.iter().position(|p| p.node == owner) {
                peers.swap(0, i);
            }
        }
        peers
    }

    /// Whether `id` exists as far as this node answers for it. A lent
    /// object still *exists* from the cluster's point of view — the ring
    /// owner answers for it even while a holder keeps the bytes.
    /// Conversely, a *leased* copy held here is the owner's to account
    /// for, not this node's: hiding it keeps an ambiguous-spill
    /// duplicate from contradicting the owner after a delete.
    pub(super) fn answers_for(&self, id: ObjectId) -> bool {
        let ledger = &self.inner.ledger;
        let hidden = matches!(ledger.held_copy(id), Some((Kind::Lease, _)));
        (self.inner.core.contains(id) && !hidden)
            || ledger.find(Side::Out, id, Kind::Lease).is_some()
    }

    /// Cluster-wide `contains`: this node's answer, then one
    /// point-to-point probe at the ring owner, then everyone else.
    pub(super) fn contains_anywhere(&self, id: ObjectId) -> Result<bool, PlasmaError> {
        if self.answers_for(id) {
            return Ok(true);
        }
        let mut peers = self.peers_snapshot();
        let req = IdReq { id }.encode();
        let ask = [&req[..]];
        let holds = |body: Bytes| {
            BoolResp::decode(body)
                .map(|r| r.value)
                .map_err(|e| PlasmaError::Protocol(format!("contains response: {e}")))
        };
        // Ring phase: a positive answer settles it; a negative one falls
        // back to the broadcast below, because an epoch change can leave
        // objects behind on their previous owner.
        let ring_owner = self
            .ring_owner(id)
            .filter(|&owner| owner != self.inner.node);
        if let Some(owner) = ring_owner {
            if let Some(i) = peers.iter().position(|p| p.node == owner) {
                if let Ok(body) = self.peer_call(&peers[i], method::CONTAINS, &ask) {
                    if holds(body)? {
                        self.inner.metrics.ring_hit.inc();
                        return Ok(true);
                    }
                    // The owner answered: the broadcast need not ask it
                    // again. An owner that did not answer stays in.
                    peers.swap_remove(i);
                }
            }
            self.inner.metrics.ring_fallback.inc();
        }
        // Ask every remaining peer in one exchange; unreachable peers
        // count as "not here" (partial answer, not an error).
        let calls: Vec<_> = peers
            .iter()
            .map(|peer| (peer, method::CONTAINS, &ask[..]))
            .collect();
        for answer in self.scatter(&calls) {
            let Ok(body) = answer else { continue };
            if holds(body)? {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// One remote-lookup round for the `None` slots of `out`, in two
    /// phases of one [`DisaggStore::scatter`] each, so a phase costs its
    /// slowest round trip however many peers it asks: (1) one batched
    /// `GET_MANY` per ring owner; (2) a broadcast for whatever is still
    /// missing. An owner answers an id it lent away with the holder's
    /// descriptor (`Moved`), pinned in its own ledger, so a spilled
    /// object costs the one lookup any remote object costs; an id this
    /// node lent away itself costs none ([`DisaggStore::lent_here`]).
    /// Unreachable peers contribute nothing; their objects simply stay
    /// unresolved this round, so a dead peer degrades `get` to a miss
    /// instead of an error.
    pub(super) fn remote_lookup_pass(&self, ids: &[ObjectId], out: &mut [Option<ObjectLocation>]) {
        let missing: Vec<ObjectId> = ids
            .iter()
            .zip(out.iter())
            .filter(|(_, o)| o.is_none())
            .map(|(id, _)| *id)
            .collect();
        if missing.is_empty() {
            return;
        }
        let pass_started = Instant::now();
        let mut found = Found::new();
        let peers = self.peers_snapshot();
        // What each ring owner answered for in this pass: the broadcast
        // does not ask it about those ids again.
        let mut answered: Vec<(NodeId, ObjectId)> = Vec::new();

        // Ring-targeted phase: resolve each missing id's rendezvous
        // owner locally (zero RPCs) and ask exactly that peer. Ids the
        // owner does not hold — stranded on a previous epoch's owner, not
        // yet created, or the owner is unreachable — fall through to the
        // broadcast, as do ids this node owns itself and has not lent
        // (the local pass already missed them, so if they exist at all
        // they live off-ring).
        let ring = self.inner.ring.read().clone();
        if let Some(ring) = ring {
            // Groups in node order: the order of the sends and of the
            // absorbed answers must not depend on a hasher's seed.
            let mut by_owner: BTreeMap<NodeId, Vec<ObjectId>> = BTreeMap::new();
            for &id in &missing {
                match ring.owner_of(id) {
                    Some(owner) if owner != self.inner.node => {
                        by_owner.entry(owner).or_default().push(id);
                    }
                    _ => {
                        if let Some(loc) = self.lent_here(id) {
                            found.entry(id).or_insert((loc, self.inner.node));
                        }
                    }
                }
            }
            let asks: Vec<(&Peer, Vec<ObjectId>)> = by_owner
                .into_iter()
                .filter_map(|(owner, group)| Some((peers.iter().find(|p| p.node == owner)?, group)))
                .collect();
            for ((owner, group), replied) in asks.iter().zip(self.ask(&asks, &mut found)) {
                if replied {
                    answered.extend(group.iter().map(|id| (owner.node, *id)));
                }
            }
            // Ids an owner answered with its holder's descriptor count as
            // ring hits: the owner did answer for them.
            let hits = missing.iter().filter(|id| found.contains_key(id)).count();
            self.inner.metrics.ring_hit.add(hits as u64);
            self.inner
                .metrics
                .ring_fallback
                .add((missing.len() - hits) as u64);
        }

        // Broadcast for whatever is still missing. Each peer is sent only
        // the ids it has not already answered for as their ring owner; an
        // owner that was skipped or did not answer stays in.
        let remaining: Vec<ObjectId> = missing
            .iter()
            .filter(|id| !found.contains_key(id))
            .copied()
            .collect();
        if !remaining.is_empty() {
            let asks: Vec<(&Peer, Vec<ObjectId>)> = peers
                .iter()
                .map(|peer| {
                    let unasked = |id: &&ObjectId| !answered.contains(&(peer.node, **id));
                    (peer, remaining.iter().filter(unasked).copied().collect())
                })
                .filter(|(_, ids): &(_, Vec<ObjectId>)| !ids.is_empty())
                .collect();
            self.ask(&asks, &mut found);
        }

        self.inner
            .metrics
            .lookup_fanout
            .record_duration(pass_started.elapsed());
        for (slot, id) in out.iter_mut().zip(ids) {
            if slot.is_none() {
                if let Some((loc, _)) = found.get(id) {
                    *slot = Some(*loc);
                }
            }
        }
    }

    /// The owner's own get of an id it lent away: no call, the ledger is
    /// the answer. While the copy this node spilled is still here — the
    /// spill has yet to hand it over, or readers still hold it — the
    /// read is one more of them; after that, it is a pin on the lease,
    /// counted toward this node, and the holder's copy is read through
    /// the fabric. So this node never holds both kinds of pin on one id,
    /// and its release ([`DisaggStore::release_here`]), which takes a
    /// pin on the lease first, always returns the kind it took.
    fn lent_here(&self, id: ObjectId) -> Option<ObjectLocation> {
        let inner = &self.inner;
        inner.ledger.find(Side::Out, id, Kind::Lease)?;
        let local = inner.core.get_local(id);
        if let Some(loc) = local.or_else(|| inner.core.get_pending(id)) {
            return Some(loc);
        }
        let loc = inner.ledger.lend(id, inner.node)?;
        inner.metrics.redirects_followed.inc();
        Some(loc)
    }

    /// One pinning `GET_MANY` to each of `asks`' peers for its ids, all
    /// in one [`DisaggStore::scatter`], every answer absorbed into
    /// `found`: every id a peer holds sealed — or lent away — comes back
    /// pinned (attributed to this node) with its fabric descriptor
    /// attached, one round trip regardless of how many ids a batch
    /// carries or how many peers are asked. Returns, per ask, whether
    /// the peer answered. Every call issued counts under `lookup_rpcs`,
    /// and its batch size is recorded in `disagg.get_many.batch_size`.
    fn ask(&self, asks: &[(&Peer, Vec<ObjectId>)], found: &mut Found) -> Vec<bool> {
        if asks.is_empty() {
            return Vec::new();
        }
        let reqs: Vec<Bytes> = asks
            .iter()
            .map(|(_, ids)| GetManyReq { ids: ids.clone() }.encode())
            .collect();
        let bodies: Vec<[&[u8]; 1]> = reqs.iter().map(|req| [&req[..]]).collect();
        let calls: Vec<_> = asks
            .iter()
            .zip(&bodies)
            .map(|((peer, _), body)| (*peer, method::GET_MANY, &body[..]))
            .collect();
        let answers = self.scatter(&calls).into_iter();
        answers
            .zip(asks)
            .map(|(answer, (peer, ids))| {
                if !matches!(answer, Err(PeerFail::Skipped)) {
                    self.inner
                        .counters
                        .lookup_rpcs
                        .fetch_add(1, Ordering::Relaxed);
                    self.inner.metrics.get_many_batch.record(ids.len() as u64);
                }
                let resp = answer.ok().and_then(|body| GetManyResp::decode(body).ok());
                let replied = resp.is_some();
                if let Some(resp) = resp {
                    self.absorb_lookup(peer, resp, found);
                }
                replied
            })
            .collect()
    }

    /// Fold the descriptors one peer returned (with pins taken on our
    /// behalf) into `found`, ledgering each pin under that peer — the
    /// node that actually took it, in its own ledger: if the object
    /// moved between lookups, a pin on the new owner must not be merged
    /// into, and later "released" against, the stale owner's count. A
    /// `Moved` descriptor names the holder's segment, not the peer's, so
    /// `found` keeps who answered beside what. If two peers answered for
    /// the same id, the first absorbed pin wins and the duplicate is
    /// released back to the losing peer — all of one answer's duplicates
    /// in one list `RELEASE` once the answer is folded. The *same* peer
    /// answering an id twice is not a race but a batch that legitimately
    /// carried the id twice (the owner pinned once per instance, and the
    /// caller will release once per filled slot) — those extra pins are
    /// ledgered, not released.
    fn absorb_lookup(&self, peer: &Peer, resp: GetManyResp, found: &mut Found) {
        let ledger = &self.inner.ledger;
        let mut lost = Vec::new();
        for entry in resp.entries {
            let Some(&loc) = entry.location() else {
                continue;
            };
            match found.get(&loc.id) {
                None => {
                    self.inner
                        .counters
                        .remote_found
                        .fetch_add(1, Ordering::Relaxed);
                    found.insert(loc.id, (loc, peer.node));
                }
                Some(&(_, winner)) if winner != peer.node => {
                    lost.push(loc.id);
                    continue;
                }
                Some(_) => {}
            }
            if matches!(entry, GetManyEntry::Moved(_)) {
                self.inner.metrics.redirects_followed.inc();
            }
            ledger.record(Side::Held, loc.id, Kind::Pin, peer.node, 0);
        }
        if !lost.is_empty() {
            self.release_owed(vec![(peer.node, lost)]);
        }
    }

    /// Ring-routed `create`: compute the id's owner locally, allocate
    /// there. Local owner → plain core create (the core's id map is the
    /// uniqueness arbiter). Remote owner → one point-to-point `CREATE_AT`;
    /// the owner stages the object, pins the creator reference to this
    /// node, and returns the fabric descriptor so the client writes the
    /// payload straight through the fabric. A `WrongOwner` answer means
    /// one of the two tables was stale: the reply's header set it right
    /// (this node pulled the owner's newer table, or pushed its own to a
    /// stale owner), so re-route once.
    ///
    /// With `payload` (data, metadata) the create is a whole put: the
    /// bytes travel with the `CREATE_AT`, the owner fills and seals, and
    /// the location that comes back is the sealed object's — nothing is
    /// staged on either node and no `SEAL_AT` follows.
    pub(super) fn create_via_ring(
        &self,
        id: ObjectId,
        data_size: u64,
        metadata_size: u64,
        payload: Option<(&[u8], &[u8])>,
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
                return self.create_here(id, data_size, metadata_size, payload);
            }
            let peer = self.peer(owner)?;
            // A put's request is its fields, then the data and the
            // metadata as they are: the envelope copies them into the
            // frame, and nothing joins them before.
            let fields = match payload {
                Some(_) => CreateAtReq::put_head(&id, data_size, metadata_size),
                None => CreateAtReq {
                    id,
                    data_size,
                    metadata_size,
                    payload: None,
                }
                .encode(),
            };
            let (data, metadata) = payload.unwrap_or_default();
            // Uniqueness lives at the owner, so an unreachable owner
            // fails the create outright — a create never proceeds on a
            // guess.
            let body = self
                .peer_call(&peer, method::CREATE_AT, &[&fields, data, metadata])
                .map_err(|fail| self.object_err(&peer, id, fail))?;
            let resp = CreateAtResp::decode(body)
                .map_err(|e| PlasmaError::Protocol(format!("create_at response: {e}")))?;
            match resp {
                CreateAtResp::Ok(loc) => {
                    if payload.is_none() {
                        // Remember the owner so seal/abort route point-to-
                        // point. The creator's reference lives entirely at
                        // the owner (pinned to us) and is consumed by the
                        // SEAL_AT / ABORT_AT that ends the staging.
                        let ledger = &self.inner.ledger;
                        ledger.record(Side::Held, id, Kind::Staged, owner, loc.total_size());
                    }
                    return Ok(loc);
                }
                CreateAtResp::Exists => return Err(PlasmaError::ObjectExists(id)),
                CreateAtResp::WrongOwner => {}
            }
        }
        Err(PlasmaError::PeerUnavailable(format!(
            "ring ownership of {id} unsettled (membership change in flight)"
        )))
    }

    /// Create on this node, past its admission gate: staged for the
    /// caller to fill and seal, or — given the bytes — filled and sealed
    /// here, leaving no reference behind.
    ///
    /// An id lent away or replicated still exists, and the ledger says
    /// so; the core says nothing once the local copy went. The ledger is
    /// asked after the core took the id, before any get can see it: a
    /// spill records its lease before its local copy goes, so a spill
    /// that completes while this create runs is seen here, and an
    /// owner never seals an id it also lends (the holder's copy of
    /// such an id would be retired under the readers its owner hands it
    /// to).
    pub(super) fn create_here(
        &self,
        id: ObjectId,
        data_size: u64,
        metadata_size: u64,
        payload: Option<(&[u8], &[u8])>,
    ) -> Result<ObjectLocation, PlasmaError> {
        self.check_admission()?;
        let core = &self.inner.core;
        let loc = match payload {
            None => core.create(id, data_size, metadata_size)?,
            Some((data, metadata)) => core.create_filled(id, data, metadata)?,
        };
        if self.inner.ledger.has_out_copy(id) {
            let _ = core.abort(id);
            return Err(PlasmaError::ObjectExists(id));
        }
        if payload.is_none() {
            return Ok(loc);
        }
        let sealed = core.seal(id)?;
        core.release(id)?;
        Ok(sealed)
    }

    /// Seal a create that was forwarded to a remote ring owner. The
    /// owner seals *and* consumes the creator's reference in one RPC, so
    /// the client's trailing release (plasma's put is create → write →
    /// seal → release) completes locally — the staged entry starts
    /// closing and that release finishes it — instead of a second
    /// network call that could fail mid-put and strand the pin.
    /// `SEAL_AT` is idempotent on the owner, so a lost response is safe
    /// to retry; an owner that became unreachable leaves its staged
    /// orphan to quiesce-time reconciliation (which aborts it).
    pub(super) fn seal_forwarded(
        &self,
        id: ObjectId,
        owner: NodeId,
    ) -> Result<ObjectLocation, PlasmaError> {
        let peer = self.peer(owner)?;
        match self.peer_call(&peer, method::SEAL_AT, &[&IdReq { id }.encode()]) {
            Ok(body) => {
                let resp = CreateAtResp::decode(body)
                    .map_err(|e| PlasmaError::Protocol(format!("seal_at response: {e}")))?;
                let CreateAtResp::Ok(loc) = resp else {
                    return Err(PlasmaError::Protocol(format!("seal_at answered {resp:?}")));
                };
                self.inner.ledger.close_staged(id);
                Ok(loc)
            }
            Err(fail @ (PeerFail::Skipped | PeerFail::Unsent(_) | PeerFail::Unreachable(_))) => {
                // The object cannot be sealed now. Drop the requester's
                // staging entry so quiesce accounting stays clean; the
                // owner's staged orphan is aborted when the pair next
                // reconciles.
                let ledger = &self.inner.ledger;
                ledger.remove(Side::Held, id, Kind::Staged, Some(owner));
                Err(self.peer_err(&peer, fail))
            }
            Err(fail) => Err(self.peer_err(&peer, fail)),
        }
    }

    /// Abort a create that was forwarded to `owner`. Best-effort: if the
    /// owner is unreachable the staged orphan is aborted by
    /// reconciliation at quiesce, so a failed ABORT_AT is not an error
    /// the caller can act on.
    pub(super) fn abort_forwarded(&self, id: ObjectId, owner: NodeId) {
        if let Ok(peer) = self.peer(owner) {
            let _ = self.peer_call(&peer, method::ABORT_AT, &[&IdReq { id }.encode()]);
        }
    }

    /// `GET_MANY` handler. Partial success by design: each id answers
    /// for itself. Pins are taken (and attributed to the caller, `from`)
    /// only for ids found sealed here or lent away, so a NotFound entry
    /// can never leak a reference in the ledger.
    ///
    /// A lent id is answered with its holder's descriptor and pinned in
    /// this node's ledger only: the holder's lease reference keeps the
    /// copy, and a pin out on the lease keeps the lease. A caller still
    /// pinning the copy this node spilled is the one exception: it reads
    /// that copy again, so that a caller's pins on one id are all of one
    /// kind and its release can only ever return what it took.
    pub(super) fn serve_get_many(&self, from: NodeId, req: GetManyReq) -> GetManyResp {
        let inner = &self.inner;
        let answer = |id: ObjectId| {
            // A leased copy held here is its owner's to hand out: a
            // broadcast observing one could serve reads after the
            // owner's copy was deleted (the duplication left by an
            // ambiguous spill).
            let hidden = matches!(inner.ledger.held_copy(id), Some((Kind::Lease, _)));
            let own = (!hidden).then(|| inner.core.get_local(id)).flatten();
            let own = own.or_else(|| {
                let spilled = inner.ledger.reads_spilled_copy(id, from);
                spilled.then(|| inner.core.get_pending(id)).flatten()
            });
            if let Some(loc) = own {
                inner.ledger.record(Side::Out, id, Kind::Pin, from, 0);
                inner.heat.record(id, from);
                return GetManyEntry::Pinned(loc);
            }
            match inner.ledger.lend(id, from) {
                Some(loc) => {
                    inner.metrics.redirects_served.inc();
                    GetManyEntry::Moved(loc)
                }
                None => GetManyEntry::NotFound(id),
            }
        };
        GetManyResp {
            entries: req.ids.iter().copied().map(answer).collect(),
        }
    }

    /// `CREATE_AT` handler: the owner's half of a ring-routed create.
    /// A decoded payload is data then metadata, not a byte more or less.
    pub(super) fn create_at(&self, from: NodeId, req: CreateAtReq) -> Result<CreateAtResp, Status> {
        let inner = &self.inner;
        let payload = req.payload.as_ref();
        let payload = payload.map(|bytes| bytes.split_at(req.data_size as usize));
        // Dispute ownership only from an installed ring: without one
        // this node cannot know better than the requester.
        if self.ring_owner(req.id).is_some_and(|o| o != inner.node) {
            return Ok(CreateAtResp::WrongOwner);
        }
        // Idempotent retry of a whole put. Nothing was ledgered for the
        // first attempt, and nothing need be: an id names immutable
        // bytes, so the id sealed here with these sizes and these very
        // bytes *is* the object the caller is putting — its first
        // attempt landed and the response was lost. Anything else under
        // the id (other bytes, an unsealed create, a copy lent away) is
        // somebody's object already.
        if let Some((data, metadata)) = payload {
            if inner.core.exists_any_state(req.id) {
                return match self.sealed_copy_is(req.id, data, metadata) {
                    Some(loc) => Ok(CreateAtResp::Ok(loc)),
                    None => Ok(CreateAtResp::Exists),
                };
            }
        }
        // Idempotent retry: the same requester re-asking for its own
        // staged create gets the same location back (its first response
        // may have been lost in flight).
        if let Some(staged) = inner.ledger.find(Side::Out, req.id, Kind::Staged) {
            return match inner.core.peek_unsealed(req.id) {
                Some(loc) if staged.peer == from => Ok(CreateAtResp::Ok(loc)),
                _ => Ok(CreateAtResp::Exists),
            };
        }
        // Admission gate sits *after* the idempotent-retry checks: a
        // requester re-asking about its own create must get its location
        // back even under overload.
        //
        // The core's id map is the uniqueness arbiter: no pre-check,
        // `create` itself refuses duplicates.
        match self.create_here(req.id, req.data_size, req.metadata_size, payload) {
            Ok(loc) => {
                if payload.is_none() {
                    // The entry *is* the creator's reference, pinned to
                    // the requester until SEAL_AT / ABORT_AT ends the
                    // staging — and what lets reconciliation abort an
                    // orphan. A whole put left no reference to track.
                    let ledger = &inner.ledger;
                    ledger.record(Side::Out, req.id, Kind::Staged, from, loc.total_size());
                }
                Ok(CreateAtResp::Ok(loc))
            }
            Err(PlasmaError::ObjectExists(_)) => Ok(CreateAtResp::Exists),
            Err(PlasmaError::Overloaded { .. }) => {
                Err(Status::new(StatusCode::ResourceExhausted, "overloaded"))
            }
            Err(e) => Err(Status::internal(e.to_string())),
        }
    }

    /// The location of `id` if it is sealed here as exactly `data` then
    /// `metadata`. The copy is pinned while its bytes are compared.
    pub(super) fn sealed_copy_is(
        &self,
        id: ObjectId,
        data: &[u8],
        metadata: &[u8],
    ) -> Option<ObjectLocation> {
        let core = &self.inner.core;
        let loc = core.get_local(id)?;
        let same = (loc.data_size, loc.metadata_size) == (data.len() as u64, metadata.len() as u64)
            && self
                .read_payload(&loc)
                .is_ok_and(|held| held[..data.len()] == *data && held[data.len()..] == *metadata);
        let _ = core.release(id);
        same.then_some(loc)
    }

    /// `SEAL_AT` handler: seal the requester's staged create and consume
    /// the creator's reference here, so the requester's put finishes
    /// without a trailing RELEASE that could be lost.
    pub(super) fn seal_at(&self, from: NodeId, id: ObjectId) -> Result<CreateAtResp, Status> {
        let inner = &self.inner;
        let staged = inner.ledger.remove(Side::Out, id, Kind::Staged, Some(from));
        let sealed = if staged.is_some() {
            let loc = inner.core.seal(id);
            let loc = loc.map_err(|e| Status::internal(e.to_string()))?;
            let _ = inner.core.release(id);
            Some(loc)
        } else {
            // Idempotent retry: a seal whose response was lost left the
            // object sealed with no staging entry — peek answers sealed
            // objects only, so this cannot resurrect aborts.
            inner.core.peek(id)
        };
        match sealed {
            Some(loc) => Ok(CreateAtResp::Ok(loc)),
            None => Err(Status::not_found("no staged create for id")),
        }
    }

    /// `ABORT_AT` handler. Idempotent: aborting an id the caller has no
    /// staged create for is a no-op (`false`).
    pub(super) fn abort_at(&self, from: NodeId, id: ObjectId) -> Result<bool, Status> {
        let inner = &self.inner;
        let staged = inner.ledger.remove(Side::Out, id, Kind::Staged, Some(from));
        if staged.is_some() {
            let aborted = inner.core.abort(id);
            aborted.map_err(|e| Status::internal(e.to_string()))?;
        }
        Ok(staged.is_some())
    }
}
