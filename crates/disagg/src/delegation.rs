//! The delegation ledger: every piece of per-object state one store
//! keeps *for* or *at* another, in one two-sided table under one lock.
//!
//! The paper's store-to-store channel has two jobs — look an id up, keep
//! ids unique. Everything else the interconnect does is bookkeeping of
//! who holds what on whose authority, and all of it has one shape:
//!
//! * the **`out`** side records what peers hold on *this* node's
//!   authority — pins it took for remote readers, the lease on an object
//!   it spilled away, the read replicas it handed out;
//! * the **`held`** side records what this node holds on a *peer's*
//!   authority — the mirror image of each of those.
//!
//! An entry is a [`Delegation`] `{ kind, peer, count, bytes }`. Requests
//! and responses get lost, so the two sides of one delegation drift
//! apart; one exchange heals every kind of drift: the holder reports its
//! `held` entries toward an owner ([`Ledger::claims_on`]), the owner
//! judges each with [`owner_verdict`] and trims what went unreported
//! ([`Ledger::settle`]), and the holder obeys the answer. The ring owner
//! decides; holders obey.
//!
//! Nothing in this module performs I/O: the ledger is a mutex around two
//! maps and the verdict is a pure function of plain data, so the same
//! rules can be driven by a model checker as well as by the store.

use parking_lot::Mutex;
use plasma::{ObjectId, ObjectLocation, PlasmaError};
use std::collections::{HashMap, HashSet};
use std::ops::{AddAssign, Index, IndexMut};
use tfsim::NodeId;

/// What a delegation entitles its holder to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Kind {
    /// A reference on a sealed object, taken while serving a remote get
    /// and dropped by `RELEASE`: the owner neither evicts nor deletes
    /// the object while `count` of them are out. A pin on the owner's
    /// own copy holds a reference of its core; a pin on a lent id holds
    /// none — the holder's lease reference keeps that copy, and the pin
    /// keeps the lease (see [`Delegation::at`]).
    Pin = 0,
    /// The single lease on a spilled object: the holder has the only
    /// copy and keeps one reference on it until the owner retires the
    /// lease; the owner keeps the id and answers gets with the holder's
    /// descriptor.
    Lease = 1,
    /// A read replica: the holder serves its own reads from a copy, the
    /// owner keeps its copy and must invalidate the replica before a
    /// delete may proceed.
    Replica = 2,
}

impl Kind {
    /// Every kind, in wire order.
    pub const ALL: [Kind; 3] = [Kind::Pin, Kind::Lease, Kind::Replica];

    /// Decode the wire value (`None` for one this build does not know).
    pub fn from_u64(v: u64) -> Option<Kind> {
        Kind::ALL.get(usize::try_from(v).ok()?).copied()
    }

    /// Leases and replicas stand for a sealed *copy* of the object at
    /// the holder; pins stand for references.
    pub fn is_copy(self) -> bool {
        matches!(self, Kind::Lease | Kind::Replica)
    }
}

/// Which end of a delegation an entry records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Side {
    /// A peer holds this on our authority (we are the owner).
    Out,
    /// We hold this on a peer's authority (the peer is the owner).
    Held,
}

/// Where an entry is in its life. `out` entries are `Live` but for a
/// lease or replica a delete is retiring.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Both ends count it; it is reported at reconcile.
    Live,
    /// One end is done and the other has not heard. A `Pin` is closing
    /// when its `RELEASE` failed against an unreachable owner and is
    /// parked for retry. An owner's `Lease` is closing once a delete was told to retire the
    /// holder's copy: no get is handed its descriptor any more. So is an
    /// owner's `Replica`: no replica of the object is made until the
    /// delete's confirm.
    Closing,
}

/// One ledger entry: the far end of a delegation and how much of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delegation {
    /// What is delegated.
    pub kind: Kind,
    /// The other node: the holder on the `out` side, the owner on the
    /// `held` side.
    pub peer: NodeId,
    /// References this entry stands for: pins for a `Pin`, the deletes
    /// retiring it for an owner's closing `Lease`, 1 otherwise.
    pub count: u64,
    /// Object size (data + metadata) for copies.
    pub bytes: u64,
    /// Lifecycle state.
    pub phase: Phase,
    /// The holder's sealed copy, on an owner's entries that hand it
    /// out: its `Lease`, and the `Pin`s it took on the lent id. `None`
    /// everywhere else — an owner's pin without it is on the owner's
    /// own copy and holds a reference of its core.
    pub at: Option<ObjectLocation>,
}

impl Delegation {
    /// An owner's pin, toward `reader`, on the holder's copy of a lent id.
    fn lends_to(&self, reader: NodeId) -> bool {
        self.kind == Kind::Pin && self.peer == reader && self.at.is_some()
    }

    /// An owner's pin, toward `reader`, on its own copy of the id.
    fn pins_own_copy_for(&self, reader: NodeId) -> bool {
        self.kind == Kind::Pin && self.peer == reader && self.at.is_none()
    }
}

/// One row of [`Ledger::records`]: an entry with its id and side — the
/// answer to "who holds a copy of this object, and under what authority?"
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DelegationRecord {
    /// The object.
    pub id: ObjectId,
    /// Which end this node is.
    pub side: Side,
    /// What is delegated.
    pub kind: Kind,
    /// The other node.
    pub peer: NodeId,
    /// References the entry stands for.
    pub count: u64,
    /// Object size, where the kind records one.
    pub bytes: u64,
    /// Lifecycle state.
    pub phase: Phase,
    /// The holder's sealed copy, where the entry hands it out.
    pub at: Option<ObjectLocation>,
}

/// A count per [`Kind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Tally([u64; 3]);

impl Tally {
    /// Sum over all kinds.
    pub fn total(&self) -> u64 {
        self.0.iter().sum()
    }
}

impl Index<Kind> for Tally {
    type Output = u64;
    fn index(&self, kind: Kind) -> &u64 {
        &self.0[kind as usize]
    }
}

impl IndexMut<Kind> for Tally {
    fn index_mut(&mut self, kind: Kind) -> &mut u64 {
        &mut self.0[kind as usize]
    }
}

impl AddAssign for Tally {
    fn add_assign(&mut self, other: Tally) {
        for kind in Kind::ALL {
            self[kind] += other[kind];
        }
    }
}

/// One line of a holder's report: it holds `count` of `kind` on `id`.
pub type Claim = (ObjectId, Kind, u64);

/// What one reconcile sweep over every peer changed.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ReconcileReport {
    /// Entries (and, for copies, the local bytes) this node dropped
    /// because their owner said so.
    pub dropped: Tally,
    /// References and entries owners gave up because this node no longer
    /// claims them.
    pub trimmed: Tally,
    /// Peers the sweep could not heal: down, unreachable, or answering
    /// garbage. Every other peer was visited regardless.
    pub unreachable: Vec<NodeId>,
}

/// What the owner knows about one id when a holder's claim names it.
#[derive(Debug, Clone, Copy)]
pub struct OwnerView<'a> {
    /// The owner has a sealed local copy of the object.
    pub sealed: bool,
    /// The owner's `out` entries for the id, toward every peer.
    pub out: &'a [Delegation],
}

/// The owner's answer to one claim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The claim stands. For a copy the owner does not have on its books
    /// this *installs* the entry — the holder adopted, and the response
    /// that would have told the owner was lost.
    Keep,
    /// The claim is void: the holder erases its entry (and its copy),
    /// the owner erases the reporter's entry if it has one.
    Drop,
    /// The owner counts this many more references than the holder
    /// claims and gives them up; the claim itself stands.
    Trim(u64),
}

/// The one authority rule, as a table over `kind` × the owner's view.
/// `claimed == 0` asks about an entry the reporter did *not* name.
///
/// | kind | owner's view | verdict |
/// |---|---|---|
/// | any | entry toward the reporter, not claimed | `Trim(all of it)` — a lost response left it; nothing will ever release it |
/// | `Pin` | counts none for the reporter | `Drop` — every pin the reporter ledgers is a phantom |
/// | `Pin` | counts more than claimed | `Trim(excess)` |
/// | `Pin` | counts no more than claimed | `Keep` — an over-report never inflates the owner |
/// | `Lease` | has a sealed copy again | `Drop` — the delegation is redundant |
/// | `Lease` | no lease toward the reporter | `Drop` — an owner gives its copy up only once it recorded the lease, so this is what an ambiguous spill left of an object the owner kept, and has deleted since (or leased elsewhere: overwriting that would fork it) |
/// | `Lease` | otherwise | `Keep` (a lease a delete left closing opens again) |
/// | `Replica` | no sealed copy (deleted or evicted since) | `Drop` |
/// | `Replica` | the id is lent | `Drop` — lent ⊕ replicated |
/// | `Replica` | otherwise | `Keep` (install: heals a lost `REPLICATE_AT` response) |
pub fn owner_verdict(view: &OwnerView<'_>, reporter: NodeId, kind: Kind, claimed: u64) -> Verdict {
    let mine: u64 = view
        .out
        .iter()
        .filter(|d| d.kind == kind && d.peer == reporter)
        .map(|d| d.count)
        .sum();
    if claimed == 0 {
        return if mine > 0 {
            Verdict::Trim(mine)
        } else {
            Verdict::Keep
        };
    }
    let void = match kind {
        Kind::Pin if mine > claimed => return Verdict::Trim(mine - claimed),
        Kind::Pin => mine == 0,
        Kind::Lease => view.sealed || mine == 0,
        Kind::Replica => !view.sealed || view.out.iter().any(|d| d.kind == Kind::Lease),
    };
    if void {
        Verdict::Drop
    } else {
        Verdict::Keep
    }
}

/// What [`Ledger::settle`] decided, and what the owner's store must now
/// do to its local objects to match.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Settlement {
    /// Claims judged [`Verdict::Drop`]: the answer to the reporter.
    pub drop: Vec<(ObjectId, Kind)>,
    /// What the owner gave up, per kind: the answer to the reporter.
    pub trimmed: Tally,
    /// Object references to release: `(id, how many)` trimmed pins on
    /// the owner's own copy. A trimmed pin on a lent id releases nothing.
    pub release: Vec<(ObjectId, u64)>,
}

#[derive(Default)]
struct Sides {
    out: HashMap<ObjectId, Vec<Delegation>>,
    held: HashMap<ObjectId, Vec<Delegation>>,
    /// Sum of `count` over closing `held` pins, so the check every
    /// successful peer call makes for parked releases is O(1).
    parked: u64,
}

impl Sides {
    fn side(&mut self, side: Side) -> &mut HashMap<ObjectId, Vec<Delegation>> {
        match side {
            Side::Out => &mut self.out,
            Side::Held => &mut self.held,
        }
    }

    /// Take `n` off the entry at `at` (all of it when `n` covers it),
    /// dropping the entry, and the id, once empty. Returns the entry as
    /// it was.
    fn take(&mut self, side: Side, id: ObjectId, at: usize, n: u64) -> Delegation {
        let map = self.side(side);
        let entries = map.get_mut(&id).expect("caller found the entry");
        let was = entries[at];
        if n >= was.count {
            entries.swap_remove(at);
            if entries.is_empty() {
                map.remove(&id);
            }
        } else {
            entries[at].count -= n;
        }
        was
    }

    fn position(
        &mut self,
        side: Side,
        id: ObjectId,
        want: impl Fn(&Delegation) -> bool,
    ) -> Option<usize> {
        self.side(side).get(&id)?.iter().position(want)
    }
}

/// Both sides of every delegation one node takes part in.
#[derive(Default)]
pub struct Ledger {
    sides: Mutex<Sides>,
}

impl Ledger {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one live unit of `kind` on `id` toward `peer`. A `Pin`
    /// adds to the count it already has. Every other kind is a single
    /// entry, and recording it enforces what the kind means: an owner
    /// records one lease (the newer holder
    /// replaces the older); a holder has one copy of an id, so a copy
    /// recorded on the `held` side replaces whichever copy entry was
    /// there; a replica is one entry per holder.
    pub fn record(&self, side: Side, id: ObjectId, kind: Kind, peer: NodeId, bytes: u64) {
        let mut sides = self.sides.lock();
        let entries = sides.side(side).entry(id).or_default();
        match (side, kind) {
            (_, Kind::Pin) => {
                debug_assert!(
                    side == Side::Held || !entries.iter().any(|d| d.lends_to(peer)),
                    "{peer:?} would pin both {id:?}'s own copy and its lease"
                );
                let live = |d: &&mut Delegation| {
                    d.kind == Kind::Pin
                        && d.peer == peer
                        && d.phase == Phase::Live
                        && d.at.is_none()
                };
                if let Some(d) = entries.iter_mut().find(live) {
                    d.count += 1;
                    return;
                }
            }
            (Side::Held, Kind::Lease | Kind::Replica) => entries.retain(|d| !d.kind.is_copy()),
            (Side::Out, Kind::Replica) => {
                entries.retain(|d| !(d.kind == Kind::Replica && d.peer == peer))
            }
            (Side::Out, Kind::Lease) => entries.retain(|d| d.kind != kind),
        }
        entries.push(Delegation {
            kind,
            peer,
            count: 1,
            bytes,
            phase: Phase::Live,
            at: None,
        });
    }

    /// Record the lease of `id` to `holder`, whose sealed copy is `at`,
    /// replacing any other: what an owner learns from the holder's
    /// adoption.
    pub fn lend_out(&self, id: ObjectId, holder: NodeId, at: ObjectLocation) {
        let mut sides = self.sides.lock();
        let entries = sides.out.entry(id).or_default();
        entries.retain(|d| d.kind != Kind::Lease);
        entries.push(Delegation {
            kind: Kind::Lease,
            peer: holder,
            count: 1,
            bytes: at.total_size(),
            phase: Phase::Live,
            at: Some(at),
        });
    }

    /// Hand `reader` the holder's copy of a lent `id`: one more pin on
    /// the lease, counted here and nowhere else. `None` unless a live
    /// lease with a known copy is out — none, or one a delete is
    /// retiring.
    pub fn lend(&self, id: ObjectId, reader: NodeId) -> Option<ObjectLocation> {
        let mut sides = self.sides.lock();
        let entries = sides.out.get_mut(&id)?;
        let live = |d: &Delegation| d.kind == Kind::Lease && d.phase == Phase::Live;
        let at = entries.iter().find(|d| live(d))?.at?;
        debug_assert!(
            !entries.iter().any(|d| d.pins_own_copy_for(reader)),
            "{reader:?} would pin both {id:?}'s own copy and its lease"
        );
        let lent = |d: &&mut Delegation| d.lends_to(reader);
        match entries.iter_mut().find(lent) {
            Some(d) => d.count += 1,
            None => entries.push(Delegation {
                kind: Kind::Pin,
                peer: reader,
                count: 1,
                bytes: 0,
                phase: Phase::Live,
                at: Some(at),
            }),
        }
        Some(at)
    }

    /// Whether `reader` still pins the copy this node had of an `id` it
    /// has since lent away (a lease is out, live or closing): its next
    /// read of the id must be of that copy too, for a reader holds one
    /// kind of pin on an id.
    pub fn reads_spilled_copy(&self, id: ObjectId, reader: NodeId) -> bool {
        let sides = self.sides.lock();
        let entries = sides.out.get(&id).map_or(&[][..], Vec::as_slice);
        let lent = entries.iter().any(|d| d.kind == Kind::Lease);
        lent && entries.iter().any(|d| d.pins_own_copy_for(reader))
    }

    /// A delete asks to retire the lease on `id`: refused while any pin
    /// is out on it (`ObjectInUse`), otherwise the lease is closing —
    /// no get is handed the holder's copy again — with one more delete
    /// retiring it, and its holder is returned, for the delete to
    /// retire. `Ok(None)`: `id` is not lent.
    pub fn close_lease(&self, id: ObjectId) -> Result<Option<NodeId>, PlasmaError> {
        let mut sides = self.sides.lock();
        let Some(entries) = sides.out.get_mut(&id) else {
            return Ok(None);
        };
        let pinned = entries
            .iter()
            .any(|d| d.kind == Kind::Pin && d.at.is_some());
        let Some(lease) = entries.iter_mut().find(|d| d.kind == Kind::Lease) else {
            return Ok(None);
        };
        if pinned {
            return Err(PlasmaError::ObjectInUse(id));
        }
        lease.count += u64::from(lease.phase == Phase::Closing);
        lease.phase = Phase::Closing;
        Ok(Some(lease.peer))
    }

    /// A delete is retiring every replica of `id`: each `out` replica
    /// entry turns `Closing` until the delete's confirm erases it, and
    /// no new replica of `id` is made meanwhile. One made between the
    /// delete's two steps would survive it, its entry erased by the
    /// confirm for the copy that was retired.
    pub fn close_replicas(&self, id: ObjectId) {
        let mut sides = self.sides.lock();
        let entries = sides.out.get_mut(&id).into_iter().flatten();
        for replica in entries.filter(|d| d.kind == Kind::Replica) {
            replica.phase = Phase::Closing;
        }
    }

    /// Whether a delete is retiring the replicas of `id`.
    pub fn replicas_closing(&self, id: ObjectId) -> bool {
        let sides = self.sides.lock();
        let entries = sides.out.get(&id).into_iter().flatten();
        entries
            .filter(|d| d.kind == Kind::Replica)
            .any(|d| d.phase == Phase::Closing)
    }

    /// A delete that closed the lease on `id` toward `holder` gives up
    /// without having reached the holder: one delete fewer retires it,
    /// and once none does it is live again — the copy is as the delete
    /// found it. A delete that may have retired the copy never gives up,
    /// so a lease it left closing stays closed until a delete confirms
    /// it or a reconcile finds the copy. Returns whether it is live.
    pub fn reopen_lease(&self, id: ObjectId, holder: NodeId) -> bool {
        let mut sides = self.sides.lock();
        let closing = |d: &&mut Delegation| {
            d.kind == Kind::Lease && d.peer == holder && d.phase == Phase::Closing
        };
        let entries = sides.out.get_mut(&id);
        let Some(lease) = entries.and_then(|e| e.iter_mut().find(closing)) else {
            return false;
        };
        match lease.count {
            1 => lease.phase = Phase::Live,
            _ => lease.count -= 1,
        }
        lease.phase == Phase::Live
    }

    /// Erase the live entry of `kind` on `id` — toward `peer` when one
    /// is named, so an answer about one peer's entry never clobbers
    /// another's. On the `out` side a closing lease is erased too: that
    /// is how its delete ends. Returns the entry that was there.
    pub fn remove(
        &self,
        side: Side,
        id: ObjectId,
        kind: Kind,
        peer: Option<NodeId>,
    ) -> Option<Delegation> {
        let mut sides = self.sides.lock();
        let at = sides.position(side, id, |d| {
            let live = d.phase == Phase::Live || side == Side::Out;
            d.kind == kind && live && peer.is_none_or(|p| d.peer == p)
        })?;
        Some(sides.take(side, id, at, u64::MAX))
    }

    /// Drop one live pin on `id`. With `peer` named, exactly that peer's
    /// (the `RELEASE` handler's check: `false` means none was recorded).
    /// Without, any owner's — pins on one immutable object are fungible
    /// as long as each owner eventually receives its own total — taking
    /// one `prefer` accepts first, so a dead owner does not block
    /// releasing pins held on live ones. Returns the entry the pin came
    /// off, as it was: whose pin it was, and on an owner whether it held
    /// a reference of the core ([`Delegation::at`]).
    pub fn unpin(
        &self,
        side: Side,
        id: ObjectId,
        peer: Option<NodeId>,
        prefer: impl Fn(NodeId) -> bool,
    ) -> Option<Delegation> {
        let mut sides = self.sides.lock();
        let pin = |d: &Delegation| d.kind == Kind::Pin && d.phase == Phase::Live;
        let at = match peer {
            Some(p) => sides.position(side, id, |d| pin(d) && d.peer == p),
            None => sides
                .position(side, id, |d| pin(d) && prefer(d.peer))
                .or_else(|| sides.position(side, id, pin)),
        }?;
        Some(sides.take(side, id, at, 1))
    }

    /// The first live entry of `kind` on `id`: the lease holder, an
    /// owner pins are held at.
    pub fn find(&self, side: Side, id: ObjectId, kind: Kind) -> Option<Delegation> {
        let mut sides = self.sides.lock();
        let at = sides.position(side, id, |d| d.kind == kind && d.phase == Phase::Live)?;
        Some(sides.side(side)[&id][at])
    }

    /// The peers with a live entry of `kind` on `id` (replica holders).
    pub fn peers(&self, side: Side, id: ObjectId, kind: Kind) -> Vec<NodeId> {
        let mut sides = self.sides.lock();
        let entries = sides.side(side).get(&id).map_or(&[][..], Vec::as_slice);
        let of_kind = entries.iter().filter(|d| d.kind == kind);
        of_kind.map(|d| d.peer).collect()
    }

    /// The delegated copy this node holds of `id`, if any: its kind and
    /// the owner it is held for. One lookup on the local get path.
    pub fn held_copy(&self, id: ObjectId) -> Option<(Kind, NodeId)> {
        let sides = self.sides.lock();
        let copy = sides.held.get(&id)?.iter().find(|d| d.kind.is_copy())?;
        Some((copy.kind, copy.peer))
    }

    /// Whether a lease or any replica of `id` is out: the object still
    /// exists, wherever this node's own copy is.
    pub fn has_out_copy(&self, id: ObjectId) -> bool {
        let sides = self.sides.lock();
        sides
            .out
            .get(&id)
            .is_some_and(|entries| entries.iter().any(|d| d.kind.is_copy()))
    }

    /// Park one `RELEASE` that could not reach `owner`: the pin is done
    /// here and closing until a retry lands.
    pub fn park(&self, id: ObjectId, owner: NodeId) {
        let mut sides = self.sides.lock();
        sides.parked += 1;
        let entries = sides.held.entry(id).or_default();
        let closing = |d: &&mut Delegation| {
            d.kind == Kind::Pin && d.peer == owner && d.phase == Phase::Closing
        };
        match entries.iter_mut().find(closing) {
            Some(d) => d.count += 1,
            None => entries.push(Delegation {
                kind: Kind::Pin,
                peer: owner,
                count: 1,
                bytes: 0,
                phase: Phase::Closing,
                at: None,
            }),
        }
    }

    /// Take the releases parked for `owner` that can go again, one id
    /// per release: those of ids this node holds no live pin on at
    /// `owner`. A parked release may have landed (only its answer was
    /// lost), and pins on one id are fungible at their owner: sent
    /// while a live pin stands, it would return that one. Once none
    /// does, the owner's `false` flag says it landed.
    pub fn take_parked(&self, owner: NodeId) -> Vec<ObjectId> {
        self.take_parked_where(owner, false)
    }

    /// Take every release parked for `owner`: a reconcile with it, which
    /// claims only live pins, settles them all.
    pub fn clear_parked(&self, owner: NodeId) -> Vec<ObjectId> {
        self.take_parked_where(owner, true)
    }

    fn take_parked_where(&self, owner: NodeId, beside_live: bool) -> Vec<ObjectId> {
        let mut sides = self.sides.lock();
        if sides.parked == 0 {
            return Vec::new();
        }
        let mut taken = Vec::new();
        sides.held.retain(|id, entries| {
            let pin_toward =
                |d: &Delegation, phase| d.kind == Kind::Pin && d.peer == owner && d.phase == phase;
            let live = entries.iter().any(|d| pin_toward(d, Phase::Live));
            if live && !beside_live {
                return true;
            }
            entries.retain(|d| {
                let parked = pin_toward(d, Phase::Closing);
                if parked {
                    taken.extend((0..d.count).map(|_| *id));
                }
                !parked
            });
            !entries.is_empty()
        });
        sides.parked -= taken.len() as u64;
        taken
    }

    /// Releases parked across all owners.
    pub fn parked(&self) -> u64 {
        self.sides.lock().parked
    }

    /// Every entry on both sides.
    pub fn records(&self) -> Vec<DelegationRecord> {
        let sides = self.sides.lock();
        let rows = |side: Side, map: &HashMap<ObjectId, Vec<Delegation>>| {
            let mut rows = Vec::new();
            for (id, entries) in map {
                rows.extend(entries.iter().map(|d| DelegationRecord {
                    id: *id,
                    side,
                    kind: d.kind,
                    peer: d.peer,
                    count: d.count,
                    bytes: d.bytes,
                    phase: d.phase,
                    at: d.at,
                }));
            }
            rows
        };
        let mut all = rows(Side::Out, &sides.out);
        all.extend(rows(Side::Held, &sides.held));
        all
    }

    /// Holder half of the exchange: everything live this node holds on
    /// `owner`'s authority. A copy entry whose local bytes are gone
    /// (`has_copy` says no — evicted, or deleted behind the ledger's
    /// back) is erased instead of claimed, so it is never healed back
    /// into the owner's books.
    pub fn claims_on(&self, owner: NodeId, has_copy: impl Fn(ObjectId) -> bool) -> Vec<Claim> {
        let mut sides = self.sides.lock();
        let mut claims = Vec::new();
        sides.held.retain(|id, entries| {
            entries.retain(|d| {
                if d.peer != owner || d.phase != Phase::Live {
                    return true;
                }
                let backed = !d.kind.is_copy() || has_copy(*id);
                if backed {
                    claims.push((*id, d.kind, d.count));
                }
                backed
            });
            !entries.is_empty()
        });
        claims
    }

    /// Owner half of the exchange: judge each of `reporter`'s claims
    /// with [`owner_verdict`], then trim every entry toward `reporter`
    /// it did not claim, applying both to the `out` side. `sealed_size`
    /// answers the size of the owner's sealed local copy of an id, if it
    /// has one. Only sound while no traffic between the pair is in
    /// flight — a response on the wire carries state the reporter has
    /// not ledgered yet.
    pub fn settle(
        &self,
        reporter: NodeId,
        claims: &[Claim],
        sealed_size: impl Fn(ObjectId) -> Option<u64>,
    ) -> Settlement {
        let mut sides = self.sides.lock();
        let mut settled = Settlement::default();
        let mut claimed: HashSet<(ObjectId, Kind)> = HashSet::with_capacity(claims.len());
        for &(id, kind, count) in claims {
            claimed.insert((id, kind));
            let local = kind.is_copy().then(|| sealed_size(id)).flatten();
            let entries = sides.out.entry(id).or_default();
            let view = OwnerView {
                sealed: local.is_some(),
                out: entries,
            };
            let mine = entries
                .iter()
                .position(|d| d.kind == kind && d.peer == reporter);
            match (owner_verdict(&view, reporter, kind, count), mine) {
                (Verdict::Keep, None) if kind.is_copy() => entries.push(Delegation {
                    kind,
                    peer: reporter,
                    count: 1,
                    bytes: local.unwrap_or(0),
                    phase: Phase::Live,
                    at: None,
                }),
                (Verdict::Keep, Some(at)) if kind.is_copy() => {
                    (entries[at].phase, entries[at].count) = (Phase::Live, 1);
                }
                (Verdict::Keep, _) => {}
                (Verdict::Drop, at) => {
                    settled.drop.push((id, kind));
                    if let Some(at) = at {
                        entries.swap_remove(at);
                    }
                }
                (Verdict::Trim(n), _) => {
                    settled.trimmed[kind] += n;
                    let mut left = n;
                    let toward = entries
                        .iter_mut()
                        .filter(|d| d.kind == kind && d.peer == reporter);
                    for d in toward {
                        let cut = left.min(d.count);
                        (d.count, left) = (d.count - cut, left - cut);
                        if d.at.is_none() && cut > 0 {
                            settled.release.push((id, cut));
                        }
                    }
                    entries.retain(|d| d.count > 0);
                }
            }
            if sides.out[&id].is_empty() {
                sides.out.remove(&id);
            }
        }
        // Every entry toward the reporter that it did not claim: the
        // verdict on a claim of 0 trims all of it.
        sides.out.retain(|id, entries| {
            entries.retain(|d| {
                let unclaimed = d.peer == reporter && !claimed.contains(&(*id, d.kind));
                if unclaimed {
                    settled.trimmed[d.kind] += d.count;
                    if d.kind == Kind::Pin && d.at.is_none() {
                        settled.release.push((*id, d.count));
                    }
                    return false;
                }
                true
            });
            !entries.is_empty()
        });
        settled
    }
}
