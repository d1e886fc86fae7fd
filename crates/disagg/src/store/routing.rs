//! Finding the node that answers for an id: the membership table and
//! the ring built on it, the remote lookup pass (ring owners → `Moved`
//! redirects → broadcast fallback, one overlapped exchange each), and
//! the ring-routed create — both the requester's half and the owner's.

use super::peer::PeerFail;
use super::{DisaggStore, Peer};
use crate::delegation::{Kind, Side};
use crate::proto::{
    method, BoolResp, CreateAtReq, CreateAtResp, CreateAtStatus, GetManyEntry, GetManyReq,
    GetManyResp, GetManyStatus, IdReq, MembershipResp,
};
use crate::ring::{Membership, Ring};
use bytes::Bytes;
use plasma::{ObjectId, ObjectLocation, PlasmaError};
use rpclite::{Status, StatusCode};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::Ordering;
use std::time::Instant;
use tfsim::NodeId;

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

    /// `MEMBERSHIP` handler: this node's table (epoch 0, no nodes,
    /// without one).
    pub(super) fn membership_resp(&self) -> MembershipResp {
        match self.membership() {
            Some(m) => MembershipResp {
                epoch: m.epoch,
                nodes: m.nodes,
            },
            None => MembershipResp {
                epoch: 0,
                nodes: Vec::new(),
            },
        }
    }

    /// React to the epoch in the header of a call from, or a reply by,
    /// `node`: if it is ahead of ours, pull that node's membership table
    /// over the interconnect and adopt it.
    pub(super) fn maybe_adopt_epoch(&self, node: NodeId, peer_epoch: u64) {
        if peer_epoch <= self.ring_epoch() {
            return;
        }
        let Ok(peer) = self.peer(node) else {
            return;
        };
        if let Ok(body) = self.peer_call(&peer, method::MEMBERSHIP, Bytes::new()) {
            if let Ok(resp) = MembershipResp::decode(body) {
                self.set_membership(Membership::new(resp.epoch, resp.nodes));
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
                let req = IdReq { id }.encode();
                if let Ok(body) = self.peer_call(&peers[i], method::CONTAINS, req) {
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
            .map(|peer| (peer, method::CONTAINS, IdReq { id }.encode()))
            .collect();
        for answer in self.scatter(&calls) {
            let Ok(body) = answer else { continue };
            if holds(body)? {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// One remote-lookup round for the `None` slots of `out`, in three
    /// phases of one [`DisaggStore::scatter`] each, so a phase costs its
    /// slowest round trip however many peers it asks: (1) one batched
    /// `GET_MANY` per ring owner; (2) the `Moved` redirects of all their
    /// answers, one call per holder; (3) a broadcast for whatever is
    /// still missing (whose own redirects are chased the same way).
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
        let mut found: HashMap<ObjectId, ObjectLocation> = HashMap::new();
        let peers = self.peers_snapshot();
        // What each ring owner answered for in this pass: the broadcast
        // does not ask it about those ids again.
        let mut answered: Vec<(NodeId, ObjectId)> = Vec::new();

        // Ring-targeted phases: resolve each missing id's rendezvous
        // owner locally (zero RPCs) and ask exactly that peer. Ids the
        // owner does not hold — stranded on a previous epoch's owner, not
        // yet created, or the owner is unreachable — fall through to the
        // broadcast, as do ids this node owns itself (the local pass
        // already missed them, so if they exist at all they live
        // off-ring).
        let ring = self.inner.ring.read().clone();
        if let Some(ring) = ring {
            // Groups in node order: the order of the sends and of the
            // absorbed answers must not depend on a hasher's seed.
            let mut by_owner: BTreeMap<NodeId, Vec<ObjectId>> = BTreeMap::new();
            // Self-owned miss: if this node lent the id away, its own
            // ledger is the redirect — chase the holder like a `Moved`
            // answer instead of broadcasting (the holder hides leased
            // copies from broadcasts).
            let mut lent: Vec<(ObjectId, NodeId)> = Vec::new();
            for &id in &missing {
                match ring.owner_of(id) {
                    Some(owner) if owner != self.inner.node => {
                        by_owner.entry(owner).or_default().push(id);
                    }
                    _ => {
                        if let Some(lease) = self.inner.ledger.find(Side::Out, id, Kind::Lease) {
                            lent.push((id, lease.peer));
                        }
                    }
                }
            }
            let asks: Vec<(&Peer, Vec<ObjectId>)> = by_owner
                .into_iter()
                .filter_map(|(owner, group)| Some((peers.iter().find(|p| p.node == owner)?, group)))
                .collect();
            let replied = self.ask_and_chase(&peers, &asks, lent, &mut found);
            for ((owner, group), replied) in asks.iter().zip(replied) {
                if replied {
                    answered.extend(group.iter().map(|id| (owner.node, *id)));
                }
            }
            // Redirect-resolved ids count as ring hits: the owner *did*
            // answer for them, one hop on.
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
            self.ask_and_chase(&peers, &asks, Vec::new(), &mut found);
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

    /// Two exchanges: ask each of `asks`' peers for its ids and absorb
    /// every direct answer, then chase `redirects` together with the
    /// `Moved` entries of all those answers. Returns, per ask, whether
    /// the peer answered.
    ///
    /// Absorbing before chasing matters: a copy that answers directly
    /// wins, and a `Moved` another peer gave for the same id is then not
    /// chased at all. (A leased copy never answers a broadcast — its
    /// holder hides it from all but redirected requests — so chasing
    /// first would pin a second copy only to hand it back.)
    fn ask_and_chase(
        &self,
        peers: &[Peer],
        asks: &[(&Peer, Vec<ObjectId>)],
        mut redirects: Vec<(ObjectId, NodeId)>,
        found: &mut HashMap<ObjectId, ObjectLocation>,
    ) -> Vec<bool> {
        let answers = self.get_many(asks, false);
        for ((peer, _), resp) in asks.iter().zip(&answers) {
            let Some(resp) = resp else { continue };
            self.absorb_lookup(peer, resp.found().copied().collect(), found);
            redirects.extend(resp.moved());
        }
        self.follow_redirects(peers, redirects, found);
        answers.iter().map(Option::is_some).collect()
    }

    /// Chase `Moved` redirects — `(id, holder)` pairs, from any number of
    /// `GET_MANY` answers — in one exchange: a ring owner that spilled an
    /// id answers with the holder's address, and this follow-up asks the
    /// holder directly — one extra hop, batched per holder, every holder
    /// asked at once. An id named at two holders is asked at both; the
    /// first copy absorbed wins and [`DisaggStore::absorb_lookup`] hands
    /// the other pin back.
    fn follow_redirects(
        &self,
        peers: &[Peer],
        redirects: Vec<(ObjectId, NodeId)>,
        found: &mut HashMap<ObjectId, ObjectLocation>,
    ) {
        let mut by_holder: BTreeMap<NodeId, Vec<ObjectId>> = BTreeMap::new();
        for (id, holder) in redirects {
            if found.contains_key(&id) {
                continue;
            }
            if holder == self.inner.node {
                // The redirect points home: this node holds the leased
                // copy. The local fast path hides it, but an
                // owner-sanctioned redirect may serve it.
                if let Some(loc) = self.inner.core.get_local(id) {
                    self.inner.metrics.redirects_followed.inc();
                    found.insert(id, loc);
                }
                continue;
            }
            by_holder.entry(holder).or_default().push(id);
        }
        let asks: Vec<(&Peer, Vec<ObjectId>)> = by_holder
            .into_iter()
            .filter_map(|(holder, ids)| Some((peers.iter().find(|p| p.node == holder)?, ids)))
            .collect();
        for ((holder, ids), resp) in asks.iter().zip(self.get_many(&asks, true)) {
            let Some(resp) = resp else { continue };
            self.inner.metrics.redirects_followed.add(ids.len() as u64);
            self.absorb_lookup(holder, resp.found().copied().collect(), found);
        }
    }

    /// One pinning `GET_MANY` to each of `asks`' peers for its ids, all
    /// in one [`DisaggStore::scatter`]: every id a peer holds sealed
    /// comes back pinned (attributed to this node) with its fabric
    /// descriptor attached — one round trip regardless of how many ids a
    /// batch carries or how many peers are asked. `None` for a peer that
    /// gave no usable answer. Every call issued counts under
    /// `lookup_rpcs`, and its batch size is recorded in
    /// `disagg.get_many.batch_size`.
    fn get_many(
        &self,
        asks: &[(&Peer, Vec<ObjectId>)],
        redirected: bool,
    ) -> Vec<Option<GetManyResp>> {
        if asks.is_empty() {
            return Vec::new();
        }
        let calls: Vec<_> = asks
            .iter()
            .map(|(peer, ids)| {
                let req = GetManyReq {
                    ids: ids.clone(),
                    redirected,
                };
                (*peer, method::GET_MANY, req.encode())
            })
            .collect();
        let answers = self.scatter(&calls).into_iter();
        answers
            .zip(asks)
            .map(|(answer, (_, ids))| {
                if !matches!(answer, Err(PeerFail::Skipped)) {
                    self.inner
                        .counters
                        .lookup_rpcs
                        .fetch_add(1, Ordering::Relaxed);
                    self.inner.metrics.get_many_batch.record(ids.len() as u64);
                }
                GetManyResp::decode(answer.ok()?).ok()
            })
            .collect()
    }

    /// Fold the locations one peer returned (with pins taken on our
    /// behalf) into `found`, ledgering each pin under that peer — the
    /// owner that actually took it: if the object moved between lookups,
    /// a pin on the new owner must not be merged into, and later
    /// "released" against, the stale owner's count. If two
    /// peers answered for the same id, the first absorbed pin wins and
    /// the duplicate is released back to the losing peer. The *same*
    /// peer answering an id twice is not a race but a batch that
    /// legitimately carried the id twice (the owner pinned once per
    /// instance, and the caller will release once per filled slot) —
    /// those extra pins are ledgered, not released.
    pub(super) fn absorb_lookup(
        &self,
        peer: &Peer,
        pinned: Vec<ObjectLocation>,
        found: &mut HashMap<ObjectId, ObjectLocation>,
    ) {
        let ledger = &self.inner.ledger;
        for loc in pinned {
            let Some(&winner_loc) = found.get(&loc.id) else {
                self.inner
                    .counters
                    .remote_found
                    .fetch_add(1, Ordering::Relaxed);
                ledger.record(Side::Held, loc.id, Kind::Pin, peer.node, 0);
                found.insert(loc.id, loc);
                continue;
            };
            // A location names the node whose segment holds the bytes,
            // which is the node that answered with it.
            if winner_loc.seg.owner == peer.node {
                ledger.record(Side::Held, loc.id, Kind::Pin, peer.node, 0);
                continue;
            }
            let req = IdReq { id: loc.id };
            // A loser that did not confirm the release (dead, unreachable,
            // or a definite error) keeps its pin until a retry lands:
            // park it instead of leaking it.
            if self.peer_call(peer, method::RELEASE, req.encode()).is_err() {
                self.park_release(peer.node, loc.id);
            }
        }
    }

    /// Ring-routed `create`: compute the id's owner locally, allocate
    /// there. Local owner → plain core create (the core's id map is the
    /// uniqueness arbiter). Remote owner → one point-to-point `CREATE_AT`;
    /// the owner stages the object, pins the creator reference to this
    /// node, and returns the fabric descriptor so the client writes the
    /// payload straight through the fabric. A `WrongOwner` answer means
    /// our membership epoch was stale: the owner's table came back with
    /// the reply, so re-route once.
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
        let mut request = None;
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
            let request = request.get_or_insert_with(|| {
                let req = CreateAtReq {
                    id,
                    data_size,
                    metadata_size,
                    payload: payload.map(|(data, metadata)| [data, metadata].concat().into()),
                };
                req.encode()
            });
            // Uniqueness lives at the owner, so an unreachable owner
            // fails the create outright — a create never proceeds on a
            // guess.
            let body = self
                .peer_call(&peer, method::CREATE_AT, request.clone())
                .map_err(|fail| self.object_err(&peer, id, fail))?;
            let resp = CreateAtResp::decode(body)
                .map_err(|e| PlasmaError::Protocol(format!("create_at response: {e}")))?;
            match resp.status {
                CreateAtStatus::Ok => {
                    let loc = resp.location.ok_or_else(|| {
                        PlasmaError::Protocol("create_at: Ok without location".to_string())
                    })?;
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
                CreateAtStatus::Exists => return Err(PlasmaError::ObjectExists(id)),
                CreateAtStatus::WrongOwner => {}
            }
        }
        Err(PlasmaError::PeerUnavailable(format!(
            "ring ownership of {id} unsettled (membership change in flight)"
        )))
    }

    /// Create on this node, past its admission gate: staged for the
    /// caller to fill and seal, or — given the bytes — filled and sealed
    /// here, leaving no reference behind.
    pub(super) fn create_here(
        &self,
        id: ObjectId,
        data_size: u64,
        metadata_size: u64,
        payload: Option<(&[u8], &[u8])>,
    ) -> Result<ObjectLocation, PlasmaError> {
        self.check_admission()?;
        match payload {
            None => self.inner.core.create(id, data_size, metadata_size),
            Some((data, metadata)) => self.inner.core.put(id, data, metadata),
        }
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
        match self.peer_call(&peer, method::SEAL_AT, IdReq { id }.encode()) {
            Ok(body) => {
                let resp = CreateAtResp::decode(body)
                    .map_err(|e| PlasmaError::Protocol(format!("seal_at response: {e}")))?;
                let loc = resp.location.ok_or_else(|| {
                    PlasmaError::Protocol("seal_at: response without location".to_string())
                })?;
                self.inner.ledger.close_staged(id);
                Ok(loc)
            }
            Err(fail @ (PeerFail::Skipped | PeerFail::Unreachable(_))) => {
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
            let _ = self.peer_call(&peer, method::ABORT_AT, IdReq { id }.encode());
        }
    }

    /// `GET_MANY` handler. Partial success by design: each id answers
    /// for itself. Pins are taken (and attributed to the caller, `from`)
    /// only for ids found sealed here, so a NotFound entry can never
    /// leak a reference in the ledger.
    pub(super) fn serve_get_many(&self, from: NodeId, req: GetManyReq) -> GetManyResp {
        let inner = &self.inner;
        let entry = |id, status, location, moved_to| GetManyEntry {
            id,
            status,
            location,
            moved_to,
        };
        let answer = |id: ObjectId| {
            // Leased copies answer only redirect-following requests: a
            // broadcast observing one could serve reads after the
            // owner's copy was deleted (the duplication left by an
            // ambiguous spill).
            let hidden =
                !req.redirected && matches!(inner.ledger.held_copy(id), Some((Kind::Lease, _)));
            if let Some(loc) = (!hidden).then(|| inner.core.get_local(id)).flatten() {
                inner.ledger.record(Side::Out, id, Kind::Pin, from, 0);
                inner.heat.record(id, from);
                return entry(id, GetManyStatus::Pinned, Some(loc), None);
            }
            // Not held here, but lent out: answer with a one-hop redirect
            // instead of NotFound, so the ring owner keeps resolving ids
            // it spilled away.
            match inner.ledger.find(Side::Out, id, Kind::Lease) {
                Some(lease) => {
                    inner.metrics.redirects_served.inc();
                    entry(id, GetManyStatus::Moved, None, Some(lease.peer))
                }
                None => entry(id, GetManyStatus::NotFound, None, None),
            }
        };
        GetManyResp {
            entries: req.ids.iter().copied().map(answer).collect(),
        }
    }

    /// `CREATE_AT` handler: the owner's half of a ring-routed create.
    pub(super) fn create_at(&self, from: NodeId, req: CreateAtReq) -> Result<CreateAtResp, Status> {
        let inner = &self.inner;
        let answer = |status, location| Ok(CreateAtResp { status, location });
        let sizes = req.data_size.checked_add(req.metadata_size);
        let payload = match &req.payload {
            // Data, then metadata, and not a byte more or less.
            Some(bytes) if sizes == Some(bytes.len() as u64) => {
                Some(bytes.split_at(req.data_size as usize))
            }
            Some(bytes) => {
                return Err(Status::invalid_argument(format!(
                    "create_at: a {} B payload for {} B of data and {} B of metadata",
                    bytes.len(),
                    req.data_size,
                    req.metadata_size
                )))
            }
            None => None,
        };
        // Dispute ownership only from an installed ring: without one
        // this node cannot know better than the requester.
        if self.ring_owner(req.id).is_some_and(|o| o != inner.node) {
            return answer(CreateAtStatus::WrongOwner, None);
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
                    Some(loc) => answer(CreateAtStatus::Ok, Some(loc)),
                    None => answer(CreateAtStatus::Exists, None),
                };
            }
        }
        // Idempotent retry: the same requester re-asking for its own
        // staged create gets the same location back (its first response
        // may have been lost in flight).
        if let Some(staged) = inner.ledger.find(Side::Out, req.id, Kind::Staged) {
            return match inner.core.peek_unsealed(req.id) {
                Some(loc) if staged.peer == from => answer(CreateAtStatus::Ok, Some(loc)),
                _ => answer(CreateAtStatus::Exists, None),
            };
        }
        // A lent object still exists (its bytes live at the holder):
        // refuse re-creation or the id would fork. The same goes for an
        // id with outstanding replicas.
        if inner.ledger.has_out_copy(req.id) {
            return answer(CreateAtStatus::Exists, None);
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
                answer(CreateAtStatus::Ok, Some(loc))
            }
            Err(PlasmaError::ObjectExists(_)) => answer(CreateAtStatus::Exists, None),
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
            Some(loc) => Ok(CreateAtResp {
                status: CreateAtStatus::Ok,
                location: Some(loc),
            }),
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
