//! Finding the node that answers for an id: the membership table and
//! the ring built on it, the remote lookup pass (ring owners, then a
//! broadcast fallback, one overlapped exchange each), and the forwarded
//! create — both the creator's half and the owner's.

use super::peer::PeerFail;
use super::DisaggStore;
use crate::delegation::{Kind, Side};
use crate::proto::{
    method, BoolResp, CreateAtResp, DelegateReq, GetManyEntry, GetManyResp, IdList, IdReq,
    MembershipTable, Message,
};
use crate::ring::{Membership, Ring};
use bytes::Bytes;
use ipc::Encode;
use plasma::{GetSlot, ObjectId, ObjectLocation, PlasmaError};
use rpclite::Status;
use std::sync::atomic::Ordering;
use std::time::Instant;
use tfsim::NodeId;

/// What one lookup pass knows of one slot it looks up.
struct Lookup {
    /// The slot: its index in the ids and in the results.
    k: usize,
    /// The pass's record of the first slot listing the same id, which
    /// keeps what is found for all of them.
    first: usize,
    /// The ring owner asked for it, if another node; and whether that
    /// owner answered.
    owner: Option<NodeId>,
    owner_answered: bool,
    /// Whether the broadcast asks for it.
    broadcast: bool,
    /// On a first record: the descriptor, and the node that pinned it
    /// (the one its release goes to).
    found: Option<(ObjectLocation, NodeId)>,
}

/// Point each record at the first record of its id. Records are in
/// slot order, so that is the smallest slot listing the id.
fn first_of_each_id(ids: &[ObjectId], slots: &mut [Lookup]) {
    if slots.len() < 2 {
        return;
    }
    let mut by_id: Vec<usize> = (0..slots.len()).collect();
    by_id.sort_unstable_by_key(|&r| (ids[slots[r].k], r));
    let mut first = by_id[0];
    for &r in &by_id {
        if ids[slots[r].k] != ids[slots[first].k] {
            first = r;
        }
        slots[r].first = first;
    }
}

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

    /// `f` of the installed ring, under its read guard (`None` without a
    /// membership): no copy of the table is made.
    pub(crate) fn with_ring<R>(&self, f: impl FnOnce(&Ring) -> R) -> Option<R> {
        self.inner.ring.read().as_ref().map(f)
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
        let push = (peer_epoch < self.ring_epoch()).then(|| self.membership_table());
        let body: &dyn Encode = match &push {
            Some(table) => table,
            None => &(),
        };
        if let Ok(body) = self.peer_call(node, method::MEMBERSHIP, body) {
            if let Ok(table) = MembershipTable::decode(body) {
                self.set_membership(Membership::new(table.epoch, table.nodes));
            }
        }
    }

    /// The peers' nodes with the ring's computed owner of `id` swapped
    /// to the front, so serial forwarding loops probe the likeliest
    /// holder first.
    pub(super) fn peers_owner_first(&self, id: ObjectId) -> impl Iterator<Item = NodeId> {
        let peers = self.peer_nodes();
        let owner = self.ring_owner(id);
        let at = owner.and_then(|owner| peers.binary_search(&owner).ok());
        let at = at.unwrap_or(0);
        (0..peers.len()).map(move |k| match k {
            0 => peers[at],
            k if k == at => peers[0],
            k => peers[k],
        })
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
        let ask = IdReq { id };
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
        let mut owner_said_no = None;
        if let Some(owner) = ring_owner {
            if let Ok(body) = self.peer_call(owner, method::CONTAINS, &ask) {
                if holds(body)? {
                    self.inner.metrics.ring_hit.inc();
                    return Ok(true);
                }
                owner_said_no = Some(owner);
            }
            self.inner.metrics.ring_fallback.inc();
        }
        // The owner answered: the broadcast need not ask it again. An
        // owner that did not answer stays in.
        let mut peers = self.peer_nodes().to_vec();
        if let Some(i) = owner_said_no.and_then(|owner| peers.binary_search(&owner).ok()) {
            peers.swap_remove(i);
        }
        // Ask every remaining peer in one exchange; unreachable peers
        // count as "not here" (partial answer, not an error).
        let calls: Vec<_> = peers
            .iter()
            .map(|&peer| (peer, method::CONTAINS, ask))
            .collect();
        for answer in self.scatter(&calls) {
            let Ok(body) = answer else { continue };
            if holds(body)? {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// One remote-lookup round for the empty slots of `out`, in two
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
    ///
    /// The pass keeps one record per slot it looks up, in slot order. A
    /// request lists its slots' ids in that order and its answer lists
    /// an entry per id in the same order, so each entry is filed by its
    /// slot; what is known of an id the batch lists more than once is
    /// kept on its first slot.
    /// Every slot it fills is [`GetSlot::Pinned`]: its release is a
    /// request, which reaches the ledger or the peer that took the pin.
    pub(super) fn remote_lookup_pass(&self, ids: &[ObjectId], out: &mut [GetSlot]) {
        let mut slots: Vec<Lookup> = (0..ids.len())
            .filter(|&k| out[k].is_empty())
            .map(|k| Lookup {
                k,
                first: 0,
                owner: None,
                owner_answered: false,
                broadcast: false,
                found: None,
            })
            .collect();
        if slots.is_empty() {
            return;
        }
        let pass_started = Instant::now();
        first_of_each_id(ids, &mut slots);

        // Ring-targeted phase: resolve each missing id's rendezvous
        // owner locally (zero RPCs) and ask exactly that peer. Ids the
        // owner does not hold — stranded on a previous epoch's owner, not
        // yet created, or the owner is unreachable — fall through to the
        // broadcast, as do ids this node owns itself and has not lent
        // (the local pass already missed them, so if they exist at all
        // they live off-ring).
        let routed = {
            let ring = self.inner.ring.read();
            ring.as_ref().map(|ring| {
                for slot in &mut slots {
                    let owner = ring.owner_of(ids[slot.k]);
                    slot.owner = owner.filter(|&owner| owner != self.inner.node);
                }
            })
        };
        if routed.is_some() {
            for r in 0..slots.len() {
                if slots[r].owner.is_some() {
                    continue;
                }
                if let Some(loc) = self.lent_here(ids[slots[r].k]) {
                    let first = slots[r].first;
                    slots[first].found.get_or_insert((loc, self.inner.node));
                }
            }
            // Each owner's slots, the owners in node order: the sends go
            // out, and their answers are absorbed, in that order.
            let mut asks: Vec<(NodeId, usize)> = (0..slots.len())
                .filter_map(|r| Some((slots[r].owner?, r)))
                .collect();
            asks.sort_unstable();
            self.ask(ids, &mut slots, &asks);
            // Ids an owner answered with its holder's descriptor count as
            // ring hits: the owner did answer for them.
            let hits = (0..slots.len())
                .filter(|&r| slots[slots[r].first].found.is_some())
                .count();
            self.inner.metrics.ring_hit.add(hits as u64);
            self.inner
                .metrics
                .ring_fallback
                .add((slots.len() - hits) as u64);
        }

        // Broadcast for whatever is still missing. Each peer is sent only
        // the ids it has not already answered for as their ring owner; an
        // owner that was skipped or did not answer stays in.
        for r in 0..slots.len() {
            slots[r].broadcast = slots[slots[r].first].found.is_none();
        }
        if slots.iter().any(|s| s.broadcast) {
            let mut asks: Vec<(NodeId, usize)> = Vec::new();
            for &peer in self.peer_nodes().iter() {
                for (r, s) in slots.iter().enumerate() {
                    if s.broadcast && !(s.owner_answered && s.owner == Some(peer)) {
                        asks.push((peer, r));
                    }
                }
            }
            self.ask(ids, &mut slots, &asks);
        }

        self.inner
            .metrics
            .lookup_fanout
            .record_duration(pass_started.elapsed());
        for r in 0..slots.len() {
            if let Some((loc, _)) = slots[slots[r].first].found {
                out[slots[r].k] = GetSlot::Pinned(loc);
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

    /// One pinning `GET_MANY` to each peer `asks` names, all in one
    /// [`DisaggStore::scatter`]: `asks` lists `(peer, record)` pairs in
    /// node order, each peer's in slot order, and a peer is asked its
    /// records' ids in that order, written from `ids` straight into its
    /// frame. Every id a peer holds sealed — or lent away — comes back
    /// pinned (attributed to this node) with its fabric descriptor
    /// attached, one round trip regardless of how many ids a batch
    /// carries or how many peers are asked, and is filed by its slot
    /// ([`DisaggStore::absorb_lookup`]); a slot whose ring owner answered
    /// is marked so. Every call issued counts under `lookup_rpcs`, and
    /// its batch size is recorded in `disagg.get_many.batch_size`.
    fn ask(&self, ids: &[ObjectId], slots: &mut [Lookup], asks: &[(NodeId, usize)]) {
        if asks.is_empty() {
            return;
        }
        let groups = || asks.chunk_by(|a, b| a.0 == b.0);
        let answers = {
            let slots = &*slots;
            let calls: Vec<_> = groups()
                .map(|group| {
                    let list =
                        IdList::new(group.len(), group.iter().map(|&(_, r)| ids[slots[r].k]));
                    (group[0].0, method::GET_MANY, list)
                })
                .collect();
            self.scatter(&calls)
        };
        for (answer, group) in answers.zip(groups()) {
            let peer = group[0].0;
            if !matches!(answer, Err(PeerFail::Skipped | PeerFail::NoPeer)) {
                self.inner
                    .counters
                    .lookup_rpcs
                    .fetch_add(1, Ordering::Relaxed);
                self.inner.metrics.get_many_batch.record(group.len() as u64);
            }
            let entries = answer.ok().and_then(|body| GetManyResp::entries(body).ok());
            let Some(entries) = entries else { continue };
            let records = group.iter().map(|&(_, r)| r);
            self.absorb_lookup(peer, ids, slots, records.clone(), entries);
            for r in records {
                if slots[r].owner == Some(peer) {
                    slots[r].owner_answered = true;
                }
            }
        }
    }

    /// Fold the descriptors one peer returned (with pins taken on our
    /// behalf), one per slot it was asked, into those slots, ledgering
    /// each pin under that peer — the node that actually took it, in its
    /// own ledger: if the object moved between lookups, a pin on the new
    /// owner must not be merged into, and later "released" against, the
    /// stale owner's count. A `Moved` descriptor names the holder's
    /// segment, not the peer's, so a slot keeps who answered beside
    /// what. If two peers answered for the same id, the first absorbed
    /// pin wins and the duplicate is released back to the losing peer —
    /// all of one answer's duplicates in one list `RELEASE` once the
    /// answer is folded, as is a descriptor of an id other than its
    /// slot's. The *same* peer answering an id twice is not a race but a
    /// batch that legitimately carried the id twice (the owner pinned
    /// once per instance, and the caller will release once per filled
    /// slot) — those extra pins are ledgered, not released.
    fn absorb_lookup(
        &self,
        peer: NodeId,
        ids: &[ObjectId],
        slots: &mut [Lookup],
        records: impl Iterator<Item = usize>,
        mut entries: impl Iterator<Item = GetManyEntry>,
    ) {
        let ledger = &self.inner.ledger;
        let mut lost = Vec::new();
        for r in records {
            let Some(entry) = entries.next() else { break };
            let Some(&loc) = entry.location() else {
                continue;
            };
            let first = slots[r].first;
            match slots[first].found {
                _ if loc.id != ids[slots[r].k] => {
                    lost.push(loc.id);
                    continue;
                }
                None => {
                    self.inner
                        .counters
                        .remote_found
                        .fetch_add(1, Ordering::Relaxed);
                    slots[first].found = Some((loc, peer));
                }
                Some((_, winner)) if winner != peer => {
                    lost.push(loc.id);
                    continue;
                }
                Some(_) => {}
            }
            if matches!(entry, GetManyEntry::Moved(_)) {
                self.inner.metrics.redirects_followed.inc();
            }
            ledger.record(Side::Held, loc.id, Kind::Pin, peer, 0);
        }
        if !lost.is_empty() {
            self.send_releases([(peer, lost)], true);
        }
    }

    /// The node that places `id`: this one while it has no peers (nobody
    /// could contest the id, so the local existence check *is* the
    /// uniqueness check), else the ring's owner. A store with peers but
    /// no membership table cannot place an object: creating it here on a
    /// guess could fork the id against a peer.
    pub(super) fn placement(&self, id: ObjectId) -> Result<NodeId, PlasmaError> {
        if self.peer_count() == 0 {
            return Ok(self.inner.node);
        }
        self.ring_owner(id).ok_or_else(|| {
            PlasmaError::PeerUnavailable(format!(
                "no membership table (or an empty one): cannot place {id} among {} peer(s)",
                self.peer_count()
            ))
        })
    }

    /// Have the owner of `copy.id` adopt the unsealed copy this node
    /// wrote at `copy`: one `CREATE_AT` naming it, answered once the
    /// owner has sealed the bytes it pulled over the fabric. Returns the
    /// owner's sealed location, or `None` when this node places the id —
    /// it owns it, or a `WrongOwner` answer's reply header set a stale
    /// table right — and the caller seals here. A `WrongOwner` re-routes once; an
    /// unreachable owner fails the create outright, which never proceeds
    /// on a guess.
    ///
    /// The owner is done with the copy once it answered, or if it never
    /// saw the request: the copy is the caller's again. A request that
    /// went unanswered may still be served, so its copy is kept
    /// ([`DisaggStore::keep_copy`]) until the owner answers a later call.
    pub(super) fn offer_to_owner(
        &self,
        copy: &ObjectLocation,
    ) -> Result<Option<ObjectLocation>, PlasmaError> {
        let id = copy.id;
        for _ in 0..2 {
            let owner = self.placement(id)?;
            if owner == self.inner.node {
                return Ok(None);
            }
            let req = DelegateReq { location: *copy };
            let body = match self.peer_call(owner, method::CREATE_AT, &req) {
                Ok(body) => body,
                Err(fail) => {
                    if !fail.unsent() && fail.status().is_none() {
                        self.keep_copy(owner, id);
                    }
                    return Err(self.object_err(owner, id, fail));
                }
            };
            let resp = CreateAtResp::decode(body)
                .map_err(|e| PlasmaError::Protocol(format!("create_at response: {e}")))?;
            match resp {
                CreateAtResp::Ok(loc) => return Ok(Some(loc)),
                CreateAtResp::Exists => return Err(PlasmaError::ObjectExists(id)),
                CreateAtResp::WrongOwner => {}
            }
        }
        Err(PlasmaError::PeerUnavailable(format!(
            "ring ownership of {id} unsettled (membership change in flight)"
        )))
    }

    /// Seal, as the id's owner, the object just created under `id` here
    /// and filled, and drop its creator's reference: a put, and an
    /// adoption of another node's. An id lent away or replicated still
    /// exists, and the ledger says so; the core says nothing once the
    /// local copy went. The ledger is asked after the core took the id,
    /// before any get can see it: a spill records its lease before its
    /// local copy goes, so a spill that completed meanwhile is seen
    /// here, and an owner never seals an id it also lends (the holder's
    /// copy of such an id would be retired under the readers its owner
    /// hands it to).
    pub(super) fn seal_filled(&self, id: ObjectId) -> Result<ObjectLocation, PlasmaError> {
        let core = &self.inner.core;
        self.refuse_lent(id)?;
        let sealed = core.seal(id)?;
        core.release(id)?;
        Ok(sealed)
    }

    /// Abort the object the core just created under `id` if this node
    /// lent `id` out or replicated it: see [`DisaggStore::seal_filled`].
    pub(super) fn refuse_lent(&self, id: ObjectId) -> Result<(), PlasmaError> {
        if self.inner.ledger.has_out_copy(id) {
            let _ = self.inner.core.abort(id);
            return Err(PlasmaError::ObjectExists(id));
        }
        Ok(())
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
    pub(super) fn serve_get_many(
        &self,
        from: NodeId,
        ids: impl Iterator<Item = ObjectId>,
    ) -> GetManyResp {
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
            entries: ids.map(answer).collect(),
        }
    }

    /// `CREATE_AT` handler: the owner's half of a forwarded create. The
    /// creator wrote the object at `src`, in its own segment; this node
    /// checks that it owns the id and that the id is new, pulls the bytes
    /// over the fabric and seals them. An id already here is somebody's
    /// object, unless it is sealed with exactly `src`'s bytes: an id
    /// names immutable bytes, so that is this very create, whose first
    /// attempt landed and whose answer was lost. A refusal, and a read
    /// that fails, leave nothing here.
    pub(super) fn create_at(&self, src: &ObjectLocation) -> Result<CreateAtResp, Status> {
        let inner = &self.inner;
        // Dispute ownership only from an installed ring: without one
        // this node cannot know better than the requester.
        if self.ring_owner(src.id).is_some_and(|o| o != inner.node) {
            return Ok(CreateAtResp::WrongOwner);
        }
        if inner.core.exists_any_state(src.id) {
            return Ok(match self.copy_of(src) {
                Some(loc) => CreateAtResp::Ok(loc),
                None => CreateAtResp::Exists,
            });
        }
        // The core's create is the uniqueness arbiter: a create racing
        // this one for the id fails one of the two.
        let sealed = self.copy_in(src).and_then(|_| self.seal_filled(src.id));
        match sealed {
            Ok(loc) => Ok(CreateAtResp::Ok(loc)),
            Err(PlasmaError::ObjectExists(_)) => Ok(CreateAtResp::Exists),
            Err(e) => Err(Status::internal(e.to_string())),
        }
    }
}
