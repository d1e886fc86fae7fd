//! Store-to-store interconnect protocol.
//!
//! The messages Plasma stores exchange over the (simulated) gRPC channel:
//! pinning descriptor lookup, ring-routed create, reference release
//! feedback, forwarded delete, and the delegation (spill,
//! replica, invalidate) and reconciliation exchanges. Every request
//! starts with one fixed-width [`CallHeader`] — who is asking — and
//! every `Ok` reply with a [`ReplyHeader`] — the responder's membership
//! epoch; no message body repeats either fact. Every message
//! is a [`Message`]: fixed-width fields written with [`ipc::Enc`] and
//! read back in order with [`ipc::Dec`], the codec the Plasma IPC
//! protocol uses. A decoder reads every field and not a byte more, so a
//! cut or padded frame, an unknown tag or an out-of-range value is a
//! [`CodecError`], never a default.
//! No frame carries an object's bytes: a request or an answer about one
//! carries its descriptor, and the bytes move over the fabric, read by
//! the node that needs them ([`crate::DisaggStore::read_payload`]).

use crate::delegation::{Claim, Kind, Tally};
use bytes::Bytes;
use ipc::{CodecError, Dec, Enc, Encode};
use plasma::protocol::{get_id, get_location, put_id, put_location, LOCATION_LEN};
use plasma::{ObjectId, ObjectLocation, OBJECT_ID_LEN};
use tfsim::NodeId;

/// Interconnect method ids.
pub mod method {
    /// Retired method ids with the verb each once carried: the epoch-0
    /// broadcast lookup and id reservation, the deferred delete that is
    /// now a flag on `DELETE`, the framed data plane's read and write,
    /// the per-kind reconciles `RECONCILE` absorbed, the lease chase
    /// `INVALIDATE` absorbed, and the seal and abort of a create staged
    /// at its owner, which `CREATE_AT`'s adoption replaced. A retired id is never reused, so an old
    /// peer's call can only meet `Unimplemented`. The dispatch test, the
    /// verb-table test and `scripts/docs_drift.sh` all read this list.
    pub const RETIRED: &[(u32, &str)] = &[
        (1, "lookup"),
        (2, "reserve"),
        (7, "delete_deferred"),
        (12, "seal_at"),
        (13, "abort_at"),
        (16, "borrow_reconcile"),
        (17, "data_read"),
        (18, "data_write"),
        (21, "replica_reconcile"),
        (22, "delete_held"),
    ];

    /// Release references held on behalf of the caller, one per listed
    /// id (`IdsReq` → `ReleaseResp`, one was-pinned flag per id): a
    /// single release is a list of one, a batch get's pins at one
    /// owner go back in one.
    pub const RELEASE: u32 = 3;
    /// Does a sealed object exist here? (`IdReq` → `BoolResp`).
    pub const CONTAINS: u32 = 4;
    /// Delete, immediate or deferred behind readers (`DeleteReq` →
    /// `DeleteResp`), answered by the owner without a call of its own:
    /// deleted (now, or deferred), or the copies — each holder and its
    /// kind — the requester must retire first with `INVALIDATE`. The
    /// requester then asks again naming the holders it cleared, and the
    /// owner drops exactly those rows.
    pub const DELETE: u32 = 5;
    /// List the responder's sealed objects (empty → `ListResp`).
    pub const LIST: u32 = 6;
    /// Metrics introspection (empty → `MetricsResp`): the responder's
    /// full [`obs`] snapshot, so any node can observe any peer live.
    /// Operator-only: no protocol decision reads a peer's snapshot.
    pub const METRICS: u32 = 8;
    /// Batched multi-get (`GetManyReq` → `GetManyResp`): pin and return
    /// fabric descriptors for many object ids in one round trip, with
    /// per-id status for partial success. The remote-get hot path — K
    /// objects on one owner cost one RPC instead of K.
    pub const GET_MANY: u32 = 9;
    /// Delegation reconciliation (`ReconcileReq` → `ReconcileResp`): the
    /// caller reports everything it holds on the responder's
    /// authority — pins, a lease, replicas — and the
    /// responder, as owner, answers which of those to drop and trims
    /// what went unreported (see [`crate::delegation::owner_verdict`]).
    /// Heals every half-finished exchange a lost request or response can
    /// leave. Only sound while no traffic between the pair is in flight
    /// — e.g. at quiesce.
    pub const RECONCILE: u32 = 10;
    /// Forwarded create (`DelegateReq` → `CreateAtResp`): the creator
    /// wrote the object into its own segment, and the id's rendezvous
    /// owner adopts it — checks that it owns the id and that the id is
    /// new, pulls the bytes over the fabric from the creator's copy,
    /// seals them and answers with its sealed location. Id uniqueness
    /// is an owner-local check. A retry whose first attempt landed is
    /// recognised by its content: the id sealed here with the copy's
    /// bytes is answered with its location again.
    pub const CREATE_AT: u32 = 11;
    /// Membership exchange (empty or `MembershipTable` →
    /// `MembershipTable`): the responder installs a pushed table if it is
    /// newer than its own, then answers with its table. A requester sends
    /// it after a reply whose header shows another epoch than its own: a
    /// pull (empty) from a peer that is ahead, a push to one that is
    /// behind. The one verb whose reply starts no exchange of its own.
    pub const MEMBERSHIP: u32 = 14;
    /// Elastic spill (`DelegateReq` → `DelegateResp`): the id's ring owner
    /// asks its next rendezvous choice to adopt a sealed object. The
    /// lender's headroom gate decides; it copies the bytes over the
    /// fabric from the owner's (pinned) segment, seals a local replica,
    /// and records the lease it now holds — only then does the owner
    /// delete its copy, so duplication (never loss) is the sole failure
    /// mode of a lost response.
    pub const SPILL_AT: u32 = 15;
    /// Hot-object read replication (`DelegateReq` → `DelegateResp`): the
    /// id's ring owner asks a frequent reader to adopt a *read replica*
    /// of a sealed object. Unlike SPILL_AT the owner keeps its copy and
    /// remains the write/metadata authority; the holder records the
    /// replica it now holds and serves subsequent local gets from the
    /// replica. A delete retires every replica with INVALIDATE first.
    pub const REPLICATE_AT: u32 = 19;
    /// The one way a delegated copy dies (`RetireReq` → `BoolResp`
    /// dropped-now): the named owner's delete is retiring the object's
    /// copies, and the responder retires the one it holds *on that
    /// owner's authority* — a copy recorded under another owner, or
    /// none, answers `false` and is left alone. The caller is whoever
    /// runs the delete, not necessarily the owner. A replica is
    /// flushed from the simulated cache (`tfsim::cache`, so staleness is
    /// observable) and deleted behind its readers; a leased copy — the
    /// object's only bytes — is deleted at once, and a reader still
    /// pinning it fails the call with the typed `ObjectInUse`. The
    /// generic DELETE refuses to consume a delegated copy: a fan-out
    /// delete that reached a mere holder would otherwise ack while the
    /// owner's primary (or an ambiguous-spill duplicate) kept serving
    /// reads.
    pub const INVALIDATE: u32 = 20;

    /// Method-id → verb-name table (metric labels, diagnostics).
    pub const VERBS: &[(u32, &str)] = &[
        (RELEASE, "release"),
        (CONTAINS, "contains"),
        (DELETE, "delete"),
        (LIST, "list"),
        (METRICS, "metrics"),
        (GET_MANY, "get_many"),
        (RECONCILE, "reconcile"),
        (CREATE_AT, "create_at"),
        (MEMBERSHIP, "membership"),
        (SPILL_AT, "spill_at"),
        (REPLICATE_AT, "replicate_at"),
        (INVALIDATE, "invalidate"),
    ];
}

/// Every interconnect message is an [`ipc::Message`]: fields written in
/// order, read back in the same order, and a length stated before any is
/// written.
pub use ipc::Message;

/// Split a frame into its header and the body that follows it.
fn unframe<H: Message>(frame: Bytes) -> Result<(H, Bytes), CodecError> {
    let mut d = Dec::new(frame);
    let header = H::get(&mut d)?;
    let body = d.take(d.remaining())?;
    Ok((header, body))
}

/// A list's count: the `u32` before its items.
fn count_len(items: usize) -> u32 {
    u32::try_from(items).expect("fewer than 2^32 items")
}

/// Write a count of the items that follow, then each item.
fn put_list<T>(e: &mut Enc, items: &[T], put: impl Fn(&mut Enc, &T)) {
    e.u32(count_len(items.len()));
    for item in items {
        put(e, item);
    }
}

/// Read a count of items of at least `min_len` bytes each: a count the
/// frame cannot hold is refused before anything is read or allocated
/// for it.
fn get_count(d: &mut Dec, min_len: usize) -> Result<usize, CodecError> {
    let n = d.u32()? as usize;
    if n > d.remaining() / min_len {
        return Err(CodecError::Invalid("item count past the frame"));
    }
    Ok(n)
}

/// Read a count, then that many items of at least `min_len` bytes each.
fn get_list<T>(
    d: &mut Dec,
    min_len: usize,
    mut get: impl FnMut(&mut Dec) -> Result<T, CodecError>,
) -> Result<Vec<T>, CodecError> {
    let n = get_count(d, min_len)?;
    (0..n).map(|_| get(d)).collect()
}

/// A message that is one list, read in place off its frame: every item
/// is decoded once up front — so a count past the frame, a bad item or a
/// trailing byte refuses the whole frame, as [`Message::decode`] would —
/// and decoded again as the iterator yields it. Nothing is collected.
pub struct Items<T> {
    d: Dec,
    left: usize,
    get: fn(&mut Dec) -> Result<T, CodecError>,
}

impl<T> Items<T> {
    fn read(
        body: Bytes,
        min_len: usize,
        get: fn(&mut Dec) -> Result<T, CodecError>,
    ) -> Result<Self, CodecError> {
        let mut check = Dec::new(body.clone());
        let n = get_count(&mut check, min_len)?;
        for _ in 0..n {
            get(&mut check)?;
        }
        check.finish()?;
        let mut d = Dec::new(body);
        d.u32()?;
        Ok(Items { d, left: n, get })
    }
}

impl<T> Iterator for Items<T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        self.left = self.left.checked_sub(1)?;
        Some((self.get)(&mut self.d).expect("every item decoded once already"))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl<T> ExactSizeIterator for Items<T> {}

/// A list of ids as `GET_MANY` and `RELEASE` requests carry them (a
/// count, then each id), written from the caller's own ids: byte for
/// byte [`GetManyReq`]'s and [`IdsReq`]'s encoding of the same ids.
#[derive(Clone)]
pub struct IdList<I> {
    len: usize,
    ids: I,
}

impl<I: Iterator<Item = ObjectId> + Clone> IdList<I> {
    /// The list of the `len` ids `ids` yields.
    pub fn new(len: usize, ids: I) -> Self {
        IdList { len, ids }
    }
}

impl<'a> IdList<std::iter::Copied<std::slice::Iter<'a, ObjectId>>> {
    /// The list of `ids`.
    pub fn of(ids: &'a [ObjectId]) -> Self {
        IdList::new(ids.len(), ids.iter().copied())
    }
}

impl<I: Iterator<Item = ObjectId> + Clone> Encode for IdList<I> {
    fn encoded_len(&self) -> usize {
        4 + self.len * OBJECT_ID_LEN
    }

    fn encode_to(&self, e: &mut Enc) {
        e.u32(count_len(self.len));
        let mut written = 0;
        for id in self.ids.clone() {
            put_id(e, &id);
            written += 1;
        }
        assert_eq!(written, self.len, "an id list yields the ids it states");
    }
}

fn get_node(d: &mut Dec) -> Result<NodeId, CodecError> {
    Ok(NodeId(d.u16()?))
}

fn get_kind(d: &mut Dec) -> Result<Kind, CodecError> {
    Kind::from_u64(u64::from(d.u8()?)).ok_or(CodecError::Invalid("delegation kind"))
}

/// The fixed-width prefix of every interconnect request: who is asking.
/// Written by the one place that sends a call and read by the one place
/// that dispatches it, so no message body carries it. The caller's
/// membership epoch is not in it: the responder stamps its own on the
/// reply, and the caller pulls or pushes the table from there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CallHeader {
    /// The calling node: pins and delegated copies are recorded against
    /// it.
    pub from: NodeId,
}

impl CallHeader {
    /// Encoded width in bytes.
    pub const LEN: usize = 2;

    /// The request frame: this header, then `body`, joined. A store
    /// sends its calls as parts instead (the header, then the message),
    /// which the rpclite envelope writes back to back; this is for a
    /// caller that hands a service a request by hand.
    pub fn frame(&self, body: &[u8]) -> Bytes {
        ipc::encode(&[self as &dyn Encode, &body])
    }

    /// Split a request frame into its header and body.
    pub fn unframe(frame: Bytes) -> Result<(CallHeader, Bytes), CodecError> {
        unframe(frame)
    }
}

impl Encode for CallHeader {
    fn encoded_len(&self) -> usize {
        Self::LEN
    }

    fn encode_to(&self, e: &mut Enc) {
        e.u16(self.from.0);
    }
}

impl Message for CallHeader {
    fn get(d: &mut Dec) -> Result<Self, CodecError> {
        Ok(CallHeader { from: get_node(d)? })
    }
}

/// The fixed-width prefix of every `Ok` interconnect reply: the
/// responder's membership epoch (0 = none installed), so a caller that
/// is behind pulls the responder's table and one that is ahead pushes
/// its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplyHeader {
    /// The responder's membership epoch.
    pub epoch: u64,
}

impl ReplyHeader {
    /// Encoded width in bytes.
    pub const LEN: usize = 8;

    /// The reply frame: this header, then `body`, written once, into one
    /// buffer.
    pub fn frame(&self, body: &dyn Encode) -> Bytes {
        ipc::encode(&[self as &dyn Encode, body])
    }

    /// Split a reply frame into its header and body.
    pub fn unframe(frame: Bytes) -> Result<(ReplyHeader, Bytes), CodecError> {
        unframe(frame)
    }
}

impl Encode for ReplyHeader {
    fn encoded_len(&self) -> usize {
        Self::LEN
    }

    fn encode_to(&self, e: &mut Enc) {
        e.u64(self.epoch);
    }
}

impl Message for ReplyHeader {
    fn get(d: &mut Dec) -> Result<Self, CodecError> {
        Ok(ReplyHeader { epoch: d.u64()? })
    }
}

/// Batched multi-get request: pin and return fabric descriptors for many
/// object ids in one round trip (the remote multi-get hot path). A store
/// sends one as an [`IdList`] over its own ids, and reads one in place
/// ([`GetManyReq::ids`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GetManyReq {
    /// Object ids to fetch (found objects are pinned on the caller's
    /// behalf).
    pub ids: Vec<ObjectId>,
}

impl GetManyReq {
    /// The ids of a `GET_MANY` body, read in place.
    pub fn ids(body: Bytes) -> Result<Items<ObjectId>, CodecError> {
        Items::read(body, OBJECT_ID_LEN, get_id)
    }
}

impl Encode for GetManyReq {
    fn encoded_len(&self) -> usize {
        IdList::of(&self.ids).encoded_len()
    }

    fn encode_to(&self, e: &mut Enc) {
        IdList::of(&self.ids).encode_to(e);
    }
}

impl Message for GetManyReq {
    fn get(d: &mut Dec) -> Result<Self, CodecError> {
        Ok(GetManyReq {
            ids: get_list(d, OBJECT_ID_LEN, get_id)?,
        })
    }
}

/// One id's outcome in a multi-get. The RPC as a whole succeeds even
/// when only some ids are present (partial success); each entry says
/// what happened to its id and carries what that outcome needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GetManyEntry {
    /// The object is sealed here and has been pinned for the requester:
    /// its fabric descriptor.
    Pinned(ObjectLocation),
    /// The object is not sealed on the responder.
    NotFound(ObjectId),
    /// The responder is the id's ring owner but lent the object to a
    /// holder (elastic spill): the descriptor of the holder's sealed
    /// copy, pinned for the requester in the responder's ledger. The
    /// requester maps the holder's segment directly; the holder is not
    /// asked anything.
    Moved(ObjectLocation),
}

impl GetManyEntry {
    /// The descriptor a `Pinned` or `Moved` entry hands out.
    pub fn location(&self) -> Option<&ObjectLocation> {
        match self {
            GetManyEntry::Pinned(loc) | GetManyEntry::Moved(loc) => Some(loc),
            GetManyEntry::NotFound(_) => None,
        }
    }
}

impl Encode for GetManyEntry {
    fn encoded_len(&self) -> usize {
        1 + match self {
            GetManyEntry::Pinned(_) | GetManyEntry::Moved(_) => LOCATION_LEN,
            GetManyEntry::NotFound(_) => OBJECT_ID_LEN,
        }
    }

    fn encode_to(&self, e: &mut Enc) {
        match self {
            GetManyEntry::Pinned(loc) => put_location(e.u8(0), loc),
            GetManyEntry::NotFound(id) => put_id(e.u8(1), id),
            GetManyEntry::Moved(loc) => put_location(e.u8(2), loc),
        }
    }
}

impl Message for GetManyEntry {
    fn get(d: &mut Dec) -> Result<Self, CodecError> {
        Ok(match d.u8()? {
            0 => GetManyEntry::Pinned(get_location(d)?),
            1 => GetManyEntry::NotFound(get_id(d)?),
            2 => GetManyEntry::Moved(get_location(d)?),
            _ => return Err(CodecError::Invalid("get_many outcome")),
        })
    }
}

/// Multi-get response: one entry per requested id, in request order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GetManyResp {
    /// Per-id outcomes.
    pub entries: Vec<GetManyEntry>,
}

impl GetManyResp {
    /// The entries of a `GET_MANY` answer, read in place.
    pub fn entries(body: Bytes) -> Result<Items<GetManyEntry>, CodecError> {
        Items::read(body, 1 + OBJECT_ID_LEN, GetManyEntry::get)
    }
}

impl Encode for GetManyResp {
    fn encoded_len(&self) -> usize {
        4 + self.entries.iter().map(Encode::encoded_len).sum::<usize>()
    }

    fn encode_to(&self, e: &mut Enc) {
        put_list(e, &self.entries, |e, entry| entry.encode_to(e));
    }
}

impl Message for GetManyResp {
    fn get(d: &mut Dec) -> Result<Self, CodecError> {
        Ok(GetManyResp {
            entries: get_list(d, 1 + OBJECT_ID_LEN, GetManyEntry::get)?,
        })
    }
}

/// A request about a list of objects and nothing else: the pins a
/// `RELEASE` returns, one per listed id — an id listed twice is two. A
/// store sends one as an [`IdList`] over its own ids, and reads one in
/// place ([`IdsReq::ids`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IdsReq {
    /// The objects in question, in order.
    pub ids: Vec<ObjectId>,
}

impl IdsReq {
    /// The ids of a `RELEASE` body, read in place.
    pub fn ids(body: Bytes) -> Result<Items<ObjectId>, CodecError> {
        Items::read(body, OBJECT_ID_LEN, get_id)
    }
}

impl Encode for IdsReq {
    fn encoded_len(&self) -> usize {
        IdList::of(&self.ids).encoded_len()
    }

    fn encode_to(&self, e: &mut Enc) {
        IdList::of(&self.ids).encode_to(e);
    }
}

impl Message for IdsReq {
    fn get(d: &mut Dec) -> Result<Self, CodecError> {
        Ok(IdsReq {
            ids: get_list(d, OBJECT_ID_LEN, get_id)?,
        })
    }
}

/// Release response: per requested id, in request order, whether a pin
/// was recorded for the caller. `false` tells the caller the entry it
/// released against was a phantom.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReleaseResp {
    /// One was-pinned flag per requested id.
    pub pinned: Vec<bool>,
}

impl ReleaseResp {
    /// The flags of a `RELEASE` answer, read in place.
    pub fn flags(body: Bytes) -> Result<Items<bool>, CodecError> {
        Items::read(body, 1, Dec::bool)
    }
}

impl Encode for ReleaseResp {
    fn encoded_len(&self) -> usize {
        4 + self.pinned.len()
    }

    fn encode_to(&self, e: &mut Enc) {
        put_list(e, &self.pinned, |e, pinned| {
            e.bool(*pinned);
        });
    }
}

impl Message for ReleaseResp {
    fn get(d: &mut Dec) -> Result<Self, CodecError> {
        Ok(ReleaseResp {
            pinned: get_list(d, 1, |d| d.bool())?,
        })
    }
}

/// Delegation reconciliation request: everything live the caller
/// holds on the responder's authority. What is absent is held zero
/// times.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReconcileReq {
    /// Every `(id, kind, count)` the caller's ledger holds toward the
    /// responder.
    pub claims: Vec<Claim>,
}

impl Encode for ReconcileReq {
    fn encoded_len(&self) -> usize {
        4 + self.claims.len() * (OBJECT_ID_LEN + 9)
    }

    fn encode_to(&self, e: &mut Enc) {
        put_list(e, &self.claims, |e, (id, kind, count)| {
            put_id(e, id);
            e.u8(*kind as u8).u64(*count);
        });
    }
}

impl Message for ReconcileReq {
    fn get(d: &mut Dec) -> Result<Self, CodecError> {
        let claim = |d: &mut Dec| Ok((get_id(d)?, get_kind(d)?, d.u64()?));
        Ok(ReconcileReq {
            claims: get_list(d, OBJECT_ID_LEN + 9, claim)?,
        })
    }
}

/// Delegation reconciliation response: the owner's answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReconcileResp {
    /// Claims the caller must drop — erase the entry and, for a lease
    /// or replica, delete the local copy.
    pub drop: Vec<(ObjectId, Kind)>,
    /// What the responder gave up because the caller did not claim
    /// it, per kind.
    pub trimmed: Tally,
}

impl Encode for ReconcileResp {
    fn encoded_len(&self) -> usize {
        4 + self.drop.len() * (OBJECT_ID_LEN + 1) + 8 * Kind::ALL.len()
    }

    fn encode_to(&self, e: &mut Enc) {
        put_list(e, &self.drop, |e, (id, kind)| {
            put_id(e, id);
            e.u8(*kind as u8);
        });
        for kind in Kind::ALL {
            e.u64(self.trimmed[kind]);
        }
    }
}

impl Message for ReconcileResp {
    fn get(d: &mut Dec) -> Result<Self, CodecError> {
        let drop = get_list(d, OBJECT_ID_LEN + 1, |d| Ok((get_id(d)?, get_kind(d)?)))?;
        let mut trimmed = Tally::default();
        for kind in Kind::ALL {
            trimmed[kind] = d.u64()?;
        }
        Ok(ReconcileResp { drop, trimmed })
    }
}

/// Outcome of a forwarded create on the computed owner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CreateAtResp {
    /// Adopted and sealed (or a retry of the same create that landed):
    /// the fabric descriptor of the owner's sealed copy.
    Ok(ObjectLocation),
    /// The id already exists on the owner — cluster-wide duplicate.
    Exists,
    /// The responder's membership table says it does not own this id:
    /// one of the two tables is stale. The reply header carries the
    /// responder's epoch, so by the time the caller reads this it has
    /// pulled the newer table or pushed its own, and can re-route once.
    WrongOwner,
}

impl Encode for CreateAtResp {
    fn encoded_len(&self) -> usize {
        match self {
            CreateAtResp::Ok(_) => 1 + LOCATION_LEN,
            CreateAtResp::Exists | CreateAtResp::WrongOwner => 1,
        }
    }

    fn encode_to(&self, e: &mut Enc) {
        match self {
            CreateAtResp::Ok(loc) => put_location(e.u8(0), loc),
            CreateAtResp::Exists => {
                e.u8(1);
            }
            CreateAtResp::WrongOwner => {
                e.u8(2);
            }
        }
    }
}

impl Message for CreateAtResp {
    fn get(d: &mut Dec) -> Result<Self, CodecError> {
        Ok(match d.u8()? {
            0 => CreateAtResp::Ok(get_location(d)?),
            1 => CreateAtResp::Exists,
            2 => CreateAtResp::WrongOwner,
            _ => return Err(CodecError::Invalid("create_at outcome")),
        })
    }
}

/// A full membership table: what a `MEMBERSHIP` push carries and what
/// every `MEMBERSHIP` answers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MembershipTable {
    /// Table version (0 = no membership installed).
    pub epoch: u64,
    /// Member nodes.
    pub nodes: Vec<NodeId>,
}

impl Encode for MembershipTable {
    fn encoded_len(&self) -> usize {
        8 + 4 + 2 * self.nodes.len()
    }

    fn encode_to(&self, e: &mut Enc) {
        e.u64(self.epoch);
        put_list(e, &self.nodes, |e, node| {
            e.u16(node.0);
        });
    }
}

impl Message for MembershipTable {
    fn get(d: &mut Dec) -> Result<Self, CodecError> {
        Ok(MembershipTable {
            epoch: d.u64()?,
            nodes: get_list(d, 2, get_node)?,
        })
    }
}

/// Adoption request ([`method::SPILL_AT`], [`method::REPLICATE_AT`],
/// [`method::CREATE_AT`]): the caller asks the responder to adopt a copy
/// of the object described by `location` — the id's ring owner offering
/// its sealed object as the one leased copy or as a read replica beside
/// its own, or a creator offering the object it wrote to the id's
/// owner. The caller keeps the source copy until the response arrives
/// (and, for a create, until no unanswered request naming it can still
/// be served), so the adopter can read the bytes over the fabric at any
/// point during the call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DelegateReq {
    /// Fabric descriptor of the source copy on the caller; the adopter
    /// pulls the bytes over the fabric from it.
    pub location: ObjectLocation,
}

impl Encode for DelegateReq {
    fn encoded_len(&self) -> usize {
        LOCATION_LEN
    }

    fn encode_to(&self, e: &mut Enc) {
        put_location(e, &self.location);
    }
}

impl Message for DelegateReq {
    fn get(d: &mut Dec) -> Result<Self, CodecError> {
        Ok(DelegateReq {
            location: get_location(d)?,
        })
    }
}

/// Outcome of a delegation on the adopter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DelegateResp {
    /// The responder adopted the object: a sealed local copy exists, at
    /// this descriptor, and a ledger entry toward the caller is
    /// recorded. After a spill the owner may now delete its copy, and
    /// hands this one out instead.
    Adopted(ObjectLocation),
    /// The responder declined (it is itself under memory pressure, or
    /// the copy failed). The owner must keep its copy; nothing was
    /// recorded.
    Refused,
}

impl Encode for DelegateResp {
    fn encoded_len(&self) -> usize {
        match self {
            DelegateResp::Adopted(_) => 1 + LOCATION_LEN,
            DelegateResp::Refused => 1,
        }
    }

    fn encode_to(&self, e: &mut Enc) {
        match self {
            DelegateResp::Adopted(loc) => put_location(e.u8(0), loc),
            DelegateResp::Refused => {
                e.u8(1);
            }
        }
    }
}

impl Message for DelegateResp {
    fn get(d: &mut Dec) -> Result<Self, CodecError> {
        match d.u8()? {
            0 => Ok(DelegateResp::Adopted(get_location(d)?)),
            1 => Ok(DelegateResp::Refused),
            _ => Err(CodecError::Invalid("delegation outcome")),
        }
    }
}

/// A request about one object and nothing else: contains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IdReq {
    /// The object in question.
    pub id: ObjectId,
}

impl Encode for IdReq {
    fn encoded_len(&self) -> usize {
        OBJECT_ID_LEN
    }

    fn encode_to(&self, e: &mut Enc) {
        put_id(e, &self.id);
    }
}

impl Message for IdReq {
    fn get(d: &mut Dec) -> Result<Self, CodecError> {
        Ok(IdReq { id: get_id(d)? })
    }
}

/// An `INVALIDATE`: retire the copy of `id` held on `owner`'s authority.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetireReq {
    /// The object whose copy dies.
    pub id: ObjectId,
    /// The owner whose delete retires it: a copy recorded under another
    /// owner stays.
    pub owner: NodeId,
}

impl Encode for RetireReq {
    fn encoded_len(&self) -> usize {
        OBJECT_ID_LEN + 2
    }

    fn encode_to(&self, e: &mut Enc) {
        put_id(e, &self.id);
        e.u16(self.owner.0);
    }
}

impl Message for RetireReq {
    fn get(d: &mut Dec) -> Result<Self, CodecError> {
        Ok(RetireReq {
            id: get_id(d)?,
            owner: get_node(d)?,
        })
    }
}

/// A delete: immediate, or deferred behind the object's readers. Its
/// first ask names no holder; each later one names the holders whose
/// copies the requester retired since the owner's last answer — or,
/// when the requester gives up, the lease holders none of its
/// `INVALIDATE`s reached.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeleteReq {
    /// The object to delete.
    pub id: ObjectId,
    /// Hide the object now and free it once its last reader releases,
    /// instead of failing `ObjectInUse`.
    pub deferred: bool,
    /// Holders whose copies are retired: the owner drops their rows.
    pub cleared: Vec<NodeId>,
    /// Lease holders this delete closed and never reached: it gives up,
    /// and the owner opens their leases again. Never beside `cleared`.
    pub kept: Vec<NodeId>,
}

impl Encode for DeleteReq {
    fn encoded_len(&self) -> usize {
        let list = |holders: &Vec<NodeId>| match holders.len() {
            0 => 0,
            n => 4 + 2 * n,
        };
        OBJECT_ID_LEN + 1 + list(&self.cleared) + list(&self.kept)
    }

    /// One flags byte after the id — bit 0 deferred, bit 1 a list of
    /// cleared holders follows, bit 2 a list of kept ones — so a first
    /// ask is as long as a delete was before it had a second step.
    fn encode_to(&self, e: &mut Enc) {
        put_id(e, &self.id);
        let confirm = !self.cleared.is_empty();
        let give_up = !self.kept.is_empty();
        e.u8(u8::from(self.deferred) | u8::from(confirm) << 1 | u8::from(give_up) << 2);
        for holders in [&self.cleared, &self.kept] {
            if !holders.is_empty() {
                put_list(e, holders, |e, node| {
                    e.u16(node.0);
                });
            }
        }
    }
}

impl Message for DeleteReq {
    fn get(d: &mut Dec) -> Result<Self, CodecError> {
        let id = get_id(d)?;
        let flags = d.u8()?;
        if flags > 5 {
            return Err(CodecError::Invalid("delete flags"));
        }
        let mut holders = |bit: u8| match flags & bit {
            0 => Ok(Vec::new()),
            _ => match get_list(d, 2, get_node)? {
                named if named.is_empty() => {
                    Err(CodecError::Invalid("a list that names no holder"))
                }
                named => Ok(named),
            },
        };
        let cleared = holders(2)?;
        let kept = holders(4)?;
        Ok(DeleteReq {
            id,
            deferred: flags & 1 != 0,
            cleared,
            kept,
        })
    }
}

/// The owner's answer to a delete.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeleteResp {
    /// Deleted: now (`true`) or deferred behind its readers (`false`).
    Done(bool),
    /// Copies are out: the requester must retire each — its holder and
    /// its kind — and ask again naming the holders it cleared.
    Clear(Vec<(NodeId, Kind)>),
}

impl Encode for DeleteResp {
    fn encoded_len(&self) -> usize {
        match self {
            DeleteResp::Done(_) => 1,
            DeleteResp::Clear(copies) => 1 + 4 + 3 * copies.len(),
        }
    }

    /// `Done` is one byte, `0` or `1`, as the `BoolResp` it replaced.
    fn encode_to(&self, e: &mut Enc) {
        match self {
            DeleteResp::Done(now) => {
                e.bool(*now);
            }
            DeleteResp::Clear(copies) => {
                put_list(e.u8(2), copies, |e, (holder, kind)| {
                    e.u16(holder.0).u8(*kind as u8);
                });
            }
        }
    }
}

impl Message for DeleteResp {
    fn get(d: &mut Dec) -> Result<Self, CodecError> {
        Ok(match d.u8()? {
            0 => DeleteResp::Done(false),
            1 => DeleteResp::Done(true),
            2 => DeleteResp::Clear(get_list(d, 3, |d| Ok((get_node(d)?, get_kind(d)?)))?),
            _ => return Err(CodecError::Invalid("delete outcome")),
        })
    }
}

/// Per-object info in a list response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ListEntry {
    /// Object id.
    pub id: ObjectId,
    /// Payload size in bytes.
    pub data_size: u64,
    /// Metadata size in bytes.
    pub metadata_size: u64,
    /// Reference count at list time.
    pub ref_count: u64,
}

/// Response to a LIST: the responder's sealed objects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ListResp {
    /// Responding node.
    pub node: NodeId,
    /// The responder's sealed objects.
    pub entries: Vec<ListEntry>,
}

impl Encode for ListResp {
    fn encoded_len(&self) -> usize {
        2 + 4 + self.entries.len() * (OBJECT_ID_LEN + 24)
    }

    fn encode_to(&self, e: &mut Enc) {
        e.u16(self.node.0);
        put_list(e, &self.entries, |e, entry| {
            put_id(e, &entry.id);
            e.u64(entry.data_size)
                .u64(entry.metadata_size)
                .u64(entry.ref_count);
        });
    }
}

impl Message for ListResp {
    fn get(d: &mut Dec) -> Result<Self, CodecError> {
        let entry = |d: &mut Dec| {
            Ok(ListEntry {
                id: get_id(d)?,
                data_size: d.u64()?,
                metadata_size: d.u64()?,
                ref_count: d.u64()?,
            })
        };
        Ok(ListResp {
            node: get_node(d)?,
            entries: get_list(d, OBJECT_ID_LEN + 24, entry)?,
        })
    }
}

/// Response to a METRICS call: the responder's serialized
/// [`obs::MetricsSnapshot`] (opaque here; the obs codec owns the format,
/// so the interconnect never needs re-releasing when metrics evolve).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsResp {
    /// Responding node.
    pub node: NodeId,
    /// Serialized [`obs::MetricsSnapshot`].
    pub snapshot: Bytes,
}

impl Encode for MetricsResp {
    fn encoded_len(&self) -> usize {
        2 + 8 + self.snapshot.len()
    }

    fn encode_to(&self, e: &mut Enc) {
        e.u16(self.node.0).bytes(&self.snapshot);
    }
}

impl Message for MetricsResp {
    fn get(d: &mut Dec) -> Result<Self, CodecError> {
        Ok(MetricsResp {
            node: get_node(d)?,
            snapshot: d.bytes()?,
        })
    }
}

/// Boolean response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoolResp {
    /// The boolean payload.
    pub value: bool,
}

impl Encode for BoolResp {
    fn encoded_len(&self) -> usize {
        1
    }

    fn encode_to(&self, e: &mut Enc) {
        e.bool(self.value);
    }
}

impl Message for BoolResp {
    fn get(d: &mut Dec) -> Result<Self, CodecError> {
        Ok(BoolResp { value: d.bool()? })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::fmt::Debug;
    use tfsim::SegKey;

    fn loc(n: u8) -> ObjectLocation {
        ObjectLocation {
            id: ObjectId::from_bytes([n; 20]),
            seg: SegKey {
                owner: NodeId(2),
                index: 0,
            },
            offset: 128,
            data_size: 1 << 20,
            metadata_size: 64,
        }
    }

    #[test]
    fn headers_roundtrip_and_reject_every_truncation() {
        let body = IdReq {
            id: ObjectId::from_name("x"),
        }
        .encode();
        let call = CallHeader { from: NodeId(513) };
        let framed = call.frame(&body);
        assert_eq!(framed.len(), CallHeader::LEN + body.len());
        assert_eq!(CallHeader::unframe(framed.clone()).unwrap(), (call, body));
        // An empty body is a header and nothing else.
        let (_, empty) = CallHeader::unframe(framed.slice(..CallHeader::LEN)).unwrap();
        assert!(empty.is_empty());
        for cut in 0..CallHeader::LEN {
            let cut = CallHeader::unframe(framed.slice(..cut));
            assert!(matches!(cut, Err(CodecError::Truncated { .. })));
        }

        let reply = ReplyHeader { epoch: 7 };
        let body = BoolResp { value: true }.encode();
        let framed = reply.frame(&body);
        assert_eq!(framed.len(), ReplyHeader::LEN + body.len());
        assert_eq!(ReplyHeader::unframe(framed.clone()).unwrap(), (reply, body));
        for cut in 0..ReplyHeader::LEN {
            let cut = ReplyHeader::unframe(framed.slice(..cut));
            assert!(matches!(cut, Err(CodecError::Truncated { .. })));
        }
    }

    #[test]
    fn id_and_delete_reqs_roundtrip() {
        let i = IdReq {
            id: ObjectId::from_name("y"),
        };
        assert_eq!(IdReq::decode(i.encode()).unwrap(), i);
        let z = ObjectId::from_name("z");
        for deferred in [false, true] {
            let holders = vec![NodeId(3), NodeId(1)];
            for (cleared, kept) in [
                (vec![], vec![]),
                (holders.clone(), vec![]),
                (vec![], holders),
            ] {
                let d = DeleteReq {
                    id: z,
                    deferred,
                    cleared,
                    kept,
                };
                assert_eq!(DeleteReq::decode(d.encode()).unwrap(), d);
            }
            // A first ask is an id and one byte, as long as the one-step
            // delete's request: the model clock charges by the byte.
            let first = DeleteReq {
                id: z,
                deferred,
                cleared: vec![],
                kept: vec![],
            };
            assert_eq!(first.encode().len(), OBJECT_ID_LEN + 1);
        }
        // A bare id is not a delete: the flag is a field like any other.
        assert!(DeleteReq::decode(i.encode()).is_err());
        // Nor is a confirm or a give-up that names no holder.
        for flags in [2, 4] {
            let mut empty = z.as_bytes().to_vec();
            empty.extend_from_slice(&[flags, 0, 0, 0, 0]);
            assert!(DeleteReq::decode(Bytes::from(empty)).is_err());
        }
        let r = RetireReq {
            id: z,
            owner: NodeId(9),
        };
        assert_eq!(RetireReq::decode(r.encode()).unwrap(), r);
        for value in [false, true] {
            let b = BoolResp { value };
            assert_eq!(BoolResp::decode(b.encode()).unwrap(), b);
            // A finished delete's answer is the one byte it always was.
            assert_eq!(DeleteResp::Done(value).encode(), b.encode());
        }
        let clear = DeleteResp::Clear(vec![(NodeId(1), Kind::Replica), (NodeId(2), Kind::Lease)]);
        assert_eq!(DeleteResp::decode(clear.encode()).unwrap(), clear);
    }

    #[test]
    fn list_resp_roundtrip() {
        let r = ListResp {
            node: NodeId(4),
            entries: vec![
                ListEntry {
                    id: ObjectId::from_name("l1"),
                    data_size: 100,
                    metadata_size: 4,
                    ref_count: 2,
                },
                ListEntry {
                    id: ObjectId::from_name("l2"),
                    data_size: 0,
                    metadata_size: 0,
                    ref_count: 0,
                },
            ],
        };
        assert_eq!(ListResp::decode(r.encode()).unwrap(), r);
        let empty = ListResp {
            node: NodeId(0),
            entries: vec![],
        };
        assert_eq!(ListResp::decode(empty.encode()).unwrap(), empty);
    }

    #[test]
    fn metrics_resp_roundtrip() {
        let r = MetricsResp {
            node: NodeId(7),
            snapshot: Bytes::from_static(&[1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
        };
        assert_eq!(MetricsResp::decode(r.encode()).unwrap(), r);
        let empty = MetricsResp {
            node: NodeId(0),
            snapshot: Bytes::new(),
        };
        assert_eq!(MetricsResp::decode(empty.encode()).unwrap(), empty);
    }

    #[test]
    fn get_many_roundtrip() {
        let req = GetManyReq {
            ids: vec![ObjectId::from_name("a"), ObjectId::from_name("b")],
        };
        assert_eq!(GetManyReq::decode(req.encode()).unwrap(), req);
        // A request is the ids and nothing else: a count, then each id.
        assert_eq!(req.encode().len(), 4 + 2 * OBJECT_ID_LEN);
        let empty = GetManyReq { ids: vec![] };
        assert_eq!(GetManyReq::decode(empty.encode()).unwrap(), empty);

        let resp = GetManyResp {
            entries: vec![
                GetManyEntry::Pinned(loc(1)),
                GetManyEntry::NotFound(ObjectId::from_name("missing")),
                GetManyEntry::Moved(loc(5)),
            ],
        };
        let back = GetManyResp::decode(resp.encode()).unwrap();
        assert_eq!(back, resp);
        let handed: Vec<_> = back
            .entries
            .iter()
            .filter_map(GetManyEntry::location)
            .collect();
        assert_eq!(handed, [&loc(1), &loc(5)]);
        // A redirect is as long as a pin: both carry one descriptor.
        let one = |entry| {
            GetManyResp {
                entries: vec![entry],
            }
            .encode()
            .len()
        };
        assert_eq!(
            one(GetManyEntry::Moved(loc(5))),
            one(GetManyEntry::Pinned(loc(1)))
        );
        let none = GetManyResp { entries: vec![] };
        assert_eq!(GetManyResp::decode(none.encode()).unwrap(), none);
    }

    #[test]
    fn release_roundtrip() {
        let a = ObjectId::from_name("a");
        let req = IdsReq {
            ids: vec![a, ObjectId::from_name("b"), a],
        };
        assert_eq!(IdsReq::decode(req.encode()).unwrap(), req);
        // A single release is a list of one: a count, then the id.
        let one = IdsReq { ids: vec![a] }.encode();
        assert_eq!(one.len(), 4 + OBJECT_ID_LEN);
        assert_eq!(one[4..], *a.as_bytes());
        let resp = ReleaseResp {
            pinned: vec![true, false, true],
        };
        assert_eq!(ReleaseResp::decode(resp.encode()).unwrap(), resp);
        // A bare id, the request this verb once took, is not a list.
        assert!(IdsReq::decode(IdReq { id: a }.encode()).is_err());
    }

    #[test]
    fn reconcile_roundtrip() {
        let req = ReconcileReq {
            claims: vec![
                (ObjectId::from_name("a"), Kind::Pin, 3),
                (ObjectId::from_name("b"), Kind::Replica, 1),
            ],
        };
        assert_eq!(ReconcileReq::decode(req.encode()).unwrap(), req);
        let empty = ReconcileReq { claims: vec![] };
        assert_eq!(ReconcileReq::decode(empty.encode()).unwrap(), empty);

        let mut trimmed = Tally::default();
        trimmed[Kind::Pin] = 7;
        trimmed[Kind::Lease] = 1;
        let resp = ReconcileResp {
            drop: vec![(ObjectId::from_name("b"), Kind::Lease)],
            trimmed,
        };
        assert_eq!(ReconcileResp::decode(resp.encode()).unwrap(), resp);
        let none = ReconcileResp {
            drop: vec![],
            trimmed: Tally::default(),
        };
        assert_eq!(ReconcileResp::decode(none.encode()).unwrap(), none);
    }

    #[test]
    fn create_at_roundtrip() {
        let req = DelegateReq { location: loc(8) };
        assert_eq!(DelegateReq::decode(req.encode()).unwrap(), req);
        for resp in [
            CreateAtResp::Ok(loc(9)),
            CreateAtResp::Exists,
            CreateAtResp::WrongOwner,
        ] {
            assert_eq!(CreateAtResp::decode(resp.encode()).unwrap(), resp);
        }
    }

    #[test]
    fn membership_resp_roundtrip() {
        let r = MembershipTable {
            epoch: 4,
            nodes: vec![NodeId(0), NodeId(1), NodeId(5)],
        };
        assert_eq!(MembershipTable::decode(r.encode()).unwrap(), r);
        let empty = MembershipTable {
            epoch: 0,
            nodes: vec![],
        };
        assert_eq!(MembershipTable::decode(empty.encode()).unwrap(), empty);
    }

    #[test]
    fn delegate_roundtrip() {
        let req = DelegateReq { location: loc(4) };
        assert_eq!(DelegateReq::decode(req.encode()).unwrap(), req);
        for resp in [DelegateResp::Adopted(loc(5)), DelegateResp::Refused] {
            assert_eq!(DelegateResp::decode(resp.encode()).unwrap(), resp);
        }
        // No answer is no answer, not a refusal.
        assert!(DelegateResp::decode(Bytes::new()).is_err());
    }

    /// A location whose `offset + data_size + metadata_size` overflows
    /// does not decode, in a request (`DelegateReq`) or in an answer
    /// (`GetManyResp`, `CreateAtResp`); one that ends at `u64::MAX` does.
    #[test]
    fn a_location_whose_end_overflows_is_refused() {
        let sized = |offset, data_size, metadata_size| ObjectLocation {
            offset,
            data_size,
            metadata_size,
            ..loc(3)
        };
        let messages = |l: ObjectLocation| {
            let get_many = GetManyResp {
                entries: vec![GetManyEntry::Pinned(l)],
            };
            [
                DelegateReq::decode(DelegateReq { location: l }.encode()).map(|r| r.location),
                GetManyResp::decode(get_many.encode()).map(|r| *r.entries[0].location().unwrap()),
                CreateAtResp::decode(CreateAtResp::Ok(l).encode()).map(|r| match r {
                    CreateAtResp::Ok(l) => l,
                    other => panic!("{other:?}"),
                }),
            ]
        };
        for l in [
            sized(0, u64::MAX, 1),
            sized(0, 1, u64::MAX),
            sized(u64::MAX, 1, 0),
            sized(1 << 63, 1 << 62, 1 << 62),
        ] {
            for decoded in messages(l) {
                let refused = CodecError::Invalid("location end past u64");
                assert_eq!(decoded, Err(refused), "{l:?}");
            }
        }
        for l in [sized(0, u64::MAX, 0), sized(1, u64::MAX - 2, 1)] {
            for decoded in messages(l) {
                assert_eq!(decoded, Ok(l));
            }
        }
    }

    /// The executable form of "a read never moves payload bytes in a
    /// frame": the frames that carry a fabric descriptor — header
    /// included — do not grow with the object: every field is fixed
    /// width, so a 1 MiB object's frame is exactly as long as a 64 B
    /// object's. A `CREATE_AT` is one of them: a put's bytes never ride
    /// the frame.
    #[test]
    fn descriptor_frames_are_constant_in_object_size() {
        let sized = |data_size: u64| ObjectLocation {
            data_size,
            metadata_size: 0,
            ..loc(1)
        };
        let call = CallHeader { from: NodeId(2) };
        let reply = ReplyHeader { epoch: 1 };
        let frames = |l: ObjectLocation| {
            let get_many = GetManyResp {
                entries: vec![GetManyEntry::Pinned(l), GetManyEntry::Moved(l)],
            };
            [
                call.frame(&DelegateReq { location: l }.encode()).len(),
                reply.frame(&get_many.encode()).len(),
                reply.frame(&CreateAtResp::Ok(l).encode()).len(),
                reply.frame(&DelegateResp::Adopted(l).encode()).len(),
            ]
        };
        let (small, large) = (frames(sized(64)), frames(sized(1 << 20)));
        for (s, l) in small.iter().zip(large) {
            assert!(*s < 128, "a control frame is a few dozen bytes, got {s}");
            assert_eq!(*s, l, "a 16384x larger object changed the frame");
        }
    }

    /// Every message states its encoded length before a byte is written,
    /// and a frame is allocated at that length: a wrong one fails here,
    /// against the bytes a growable encoder writes, and not as a silent
    /// regrow of the frame. The borrowed id lists and read-in-place
    /// lists agree byte for byte with the messages they stand for.
    #[test]
    fn every_message_states_its_encoded_length() {
        let (a, b) = (ObjectId::from_bytes([1; 20]), ObjectId::from_bytes([2; 20]));
        let ids = [vec![], vec![a], vec![a, b, a]];
        let mut messages: Vec<Box<dyn Encode>> = vec![
            Box::new(CallHeader { from: NodeId(3) }),
            Box::new(ReplyHeader { epoch: 9 }),
            Box::new(IdReq { id: a }),
            Box::new(RetireReq {
                id: a,
                owner: NodeId(1),
            }),
            Box::new(DelegateReq { location: loc(4) }),
            Box::new(MembershipTable {
                epoch: 2,
                nodes: vec![NodeId(0), NodeId(5)],
            }),
            Box::new(MembershipTable {
                epoch: 0,
                nodes: vec![],
            }),
            Box::new(MetricsResp {
                node: NodeId(1),
                snapshot: Bytes::from_static(b"snap"),
            }),
            Box::new(ListResp {
                node: NodeId(1),
                entries: vec![ListEntry {
                    id: a,
                    data_size: 1,
                    metadata_size: 2,
                    ref_count: 3,
                }],
            }),
            Box::new(ReconcileReq {
                claims: vec![(a, Kind::Pin, 2), (b, Kind::Lease, 1)],
            }),
            Box::new(ReconcileResp {
                drop: vec![(a, Kind::Replica)],
                trimmed: Tally::default(),
            }),
            Box::new(GetManyResp {
                entries: vec![
                    GetManyEntry::Pinned(loc(1)),
                    GetManyEntry::NotFound(a),
                    GetManyEntry::Moved(loc(2)),
                ],
            }),
            Box::new(GetManyResp { entries: vec![] }),
            Box::new(DeleteResp::Done(true)),
            Box::new(DeleteResp::Clear(vec![
                (NodeId(1), Kind::Lease),
                (NodeId(2), Kind::Replica),
            ])),
        ];
        for value in [true, false] {
            messages.push(Box::new(BoolResp { value }));
        }
        for ids in &ids {
            messages.push(Box::new(GetManyReq { ids: ids.clone() }));
            messages.push(Box::new(IdsReq { ids: ids.clone() }));
            messages.push(Box::new(ReleaseResp {
                pinned: ids.iter().map(|id| *id == a).collect(),
            }));
        }
        for entry in [
            GetManyEntry::Pinned(loc(1)),
            GetManyEntry::NotFound(a),
            GetManyEntry::Moved(loc(2)),
        ] {
            messages.push(Box::new(entry));
        }
        for resp in [
            CreateAtResp::Ok(loc(1)),
            CreateAtResp::Exists,
            CreateAtResp::WrongOwner,
        ] {
            messages.push(Box::new(resp));
        }
        for resp in [DelegateResp::Adopted(loc(1)), DelegateResp::Refused] {
            messages.push(Box::new(resp));
        }
        for (cleared, kept) in [
            (vec![], vec![]),
            (vec![NodeId(1)], vec![]),
            (vec![], vec![NodeId(1), NodeId(2)]),
        ] {
            messages.push(Box::new(DeleteReq {
                id: a,
                deferred: true,
                cleared,
                kept,
            }));
        }
        for message in &messages {
            let mut grown = Enc::new();
            message.encode_to(&mut grown);
            assert_eq!(
                grown.len(),
                message.encoded_len(),
                "a stated length is the written one"
            );
            assert_eq!(ipc::encode(message.as_ref()), grown.finish());
        }
        for ids in &ids {
            let listed = ipc::encode(&IdList::new(ids.len(), ids.iter().copied()));
            assert_eq!(listed, GetManyReq { ids: ids.clone() }.encode());
            assert_eq!(
                IdsReq::ids(listed.clone()).unwrap().collect::<Vec<_>>(),
                *ids
            );
            assert_eq!(GetManyReq::ids(listed).unwrap().len(), ids.len());
        }
        let resp = GetManyResp {
            entries: vec![GetManyEntry::NotFound(a), GetManyEntry::Pinned(loc(3))],
        };
        let read: Vec<_> = GetManyResp::entries(resp.encode()).unwrap().collect();
        assert_eq!(read, resp.entries);
        let flags = ReleaseResp {
            pinned: vec![true, false, true],
        };
        let read: Vec<_> = ReleaseResp::flags(flags.encode()).unwrap().collect();
        assert_eq!(read, flags.pinned);
    }

    /// A list read in place refuses what [`Message::decode`] refuses —
    /// a cut, a byte more, a count the frame cannot hold, a bad item —
    /// before it yields anything.
    #[test]
    fn a_list_read_in_place_keeps_every_check() {
        let resp = GetManyResp {
            entries: vec![
                GetManyEntry::Pinned(loc(1)),
                GetManyEntry::NotFound(loc(2).id),
            ],
        }
        .encode();
        for keep in 0..resp.len() {
            assert!(
                GetManyResp::entries(resp.slice(..keep)).is_err(),
                "kept {keep}"
            );
        }
        let mut padded = resp.to_vec();
        padded.push(0);
        assert!(GetManyResp::entries(Bytes::from(padded)).is_err());
        let mut bad_tag = resp.to_vec();
        bad_tag[4] = 7;
        assert!(GetManyResp::entries(Bytes::from(bad_tag)).is_err());
        let huge = Bytes::from(u32::MAX.to_le_bytes().to_vec());
        assert!(IdsReq::ids(huge.clone()).is_err());
        assert!(ReleaseResp::flags(huge).is_err());
        let mut bad_bool = ReleaseResp { pinned: vec![true] }.encode().to_vec();
        bad_bool[4] = 2;
        assert!(ReleaseResp::flags(Bytes::from(bad_bool)).is_err());
    }

    #[test]
    fn verb_table_covers_every_method_id() {
        for (i, (id, name)) in method::VERBS.iter().enumerate() {
            assert_ne!(*id, 0, "{name}: id 0 is never assigned");
            for (retired, was) in method::RETIRED {
                assert_ne!(id, retired, "{name} reuses the id of retired {was}");
                assert_ne!(name, was, "retired verb {was} is listed under id {id}");
            }
            for (other_id, other_name) in &method::VERBS[..i] {
                assert_ne!(id, other_id, "{name} and {other_name} share id {id}");
                assert_ne!(name, other_name, "id {id} and {other_id} share a name");
            }
        }
    }

    /// Decode `b` as an `M`, keeping only whether it decoded.
    fn decodes<M: Message>(b: Bytes) -> Result<(), CodecError> {
        M::decode(b).map(drop)
    }

    type Decoder = fn(Bytes) -> Result<(), CodecError>;

    /// Every decoder, by the message it reads.
    const DECODERS: [(&str, Decoder); 20] = [
        ("CallHeader", decodes::<CallHeader>),
        ("ReplyHeader", decodes::<ReplyHeader>),
        ("GetManyReq", decodes::<GetManyReq>),
        ("GetManyResp", decodes::<GetManyResp>),
        ("IdsReq", decodes::<IdsReq>),
        ("ReleaseResp", decodes::<ReleaseResp>),
        ("ReconcileReq", decodes::<ReconcileReq>),
        ("ReconcileResp", decodes::<ReconcileResp>),
        ("CreateAtResp", decodes::<CreateAtResp>),
        ("MembershipTable", decodes::<MembershipTable>),
        ("DelegateReq", decodes::<DelegateReq>),
        ("DelegateResp", decodes::<DelegateResp>),
        ("IdReq", decodes::<IdReq>),
        ("DeleteReq", decodes::<DeleteReq>),
        ("DeleteResp", decodes::<DeleteResp>),
        ("RetireReq", decodes::<RetireReq>),
        ("ListResp", decodes::<ListResp>),
        ("MetricsResp", decodes::<MetricsResp>),
        ("BoolResp", decodes::<BoolResp>),
        ("GetManyEntry", decodes::<GetManyEntry>),
    ];

    /// `m` decodes back to itself, and neither a proper prefix of its
    /// encoding nor the encoding with one more byte decodes at all.
    fn strict<M: Message + PartialEq + Debug>(m: &M) -> Result<(), TestCaseError> {
        let wire = m.encode();
        prop_assert_eq!(&M::decode(wire.clone()).unwrap(), m);
        for cut in 0..wire.len() {
            prop_assert!(M::decode(wire.slice(..cut)).is_err(), "{m:?} cut to {cut}");
        }
        for extra in [0u8, 1, 0xFF] {
            let padded = Bytes::from([&wire[..], &[extra]].concat());
            prop_assert!(M::decode(padded).is_err(), "{m:?} and a {extra:#x}");
        }
        Ok(())
    }

    /// `wire` with the byte at `at` set to each value from `first_bad`
    /// up does not decode: an unknown tag, kind or bool is an error.
    fn out_of_range(wire: &Bytes, at: usize, first_bad: u8, decode: Decoder) -> bool {
        (first_bad..=u8::MAX).all(|bad| {
            let mut v = wire.to_vec();
            v[at] = bad;
            decode(Bytes::from(v)).is_err()
        })
    }

    proptest::proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Every message, both headers and every variant of every reply
        /// shape, at arbitrary field values: the encoding round-trips,
        /// every proper prefix and every one-byte extension is an
        /// error, and so is an out-of-range status, kind or bool byte.
        #[test]
        fn every_message_decodes_strictly(
            raw_id in proptest::collection::vec(any::<u8>(), OBJECT_ID_LEN..OBJECT_ID_LEN + 1),
            word in any::<u64>(),
            node in any::<u16>(),
            flag in any::<bool>(),
            count in 0usize..4,
            blob in proptest::collection::vec(any::<u8>(), 0..48),
        ) {
            let id = ObjectId::from_bytes(raw_id.try_into().unwrap());
            let location = ObjectLocation {
                id,
                seg: SegKey { owner: NodeId(node), index: word as u32 },
                offset: word >> 2,
                data_size: word >> 2,
                metadata_size: word >> 3,
            };
            let ids = vec![id; count];
            let kind = Kind::ALL[word as usize % Kind::ALL.len()];
            let mut trimmed = Tally::default();
            trimmed[kind] = word;
            let entries = vec![
                GetManyEntry::Pinned(location),
                GetManyEntry::NotFound(id),
                GetManyEntry::Moved(location),
            ];

            strict(&CallHeader { from: NodeId(node) })?;
            strict(&ReplyHeader { epoch: word })?;
            strict(&GetManyReq { ids: ids.clone() })?;
            strict(&GetManyResp { entries: entries[..count.min(3)].to_vec() })?;
            for entry in &entries {
                strict(entry)?;
            }
            strict(&IdsReq { ids: ids.clone() })?;
            strict(&ReleaseResp { pinned: vec![flag; count] })?;
            strict(&ReconcileReq { claims: vec![(id, kind, word); count] })?;
            strict(&ReconcileResp { drop: vec![(id, kind); count], trimmed })?;
            for resp in [CreateAtResp::Ok(location), CreateAtResp::Exists, CreateAtResp::WrongOwner] {
                strict(&resp)?;
            }
            strict(&MembershipTable { epoch: word, nodes: vec![NodeId(node); count] })?;
            strict(&DelegateReq { location })?;
            strict(&DelegateResp::Adopted(location))?;
            strict(&DelegateResp::Refused)?;
            strict(&IdReq { id })?;
            let cleared = vec![NodeId(node); count];
            strict(&DeleteReq { id, deferred: flag, cleared: cleared.clone(), kept: vec![] })?;
            strict(&DeleteReq { id, deferred: flag, cleared: vec![], kept: cleared.clone() })?;
            strict(&DeleteResp::Done(flag))?;
            strict(&DeleteResp::Clear(vec![(NodeId(node), kind); count]))?;
            strict(&RetireReq { id, owner: NodeId(node) })?;
            let entry = ListEntry { id, data_size: word, metadata_size: word, ref_count: word };
            strict(&ListResp { node: NodeId(node), entries: vec![entry; count] })?;
            strict(&MetricsResp { node: NodeId(node), snapshot: Bytes::from(blob.clone()) })?;
            strict(&BoolResp { value: flag })?;

            // Each tag, kind and bool byte, by its offset in a message.
            let one = |entry: GetManyEntry| GetManyResp { entries: vec![entry] }.encode();
            let id_len = OBJECT_ID_LEN;
            let delete = |cleared, kept| DeleteReq { id, deferred: flag, cleared, kept }.encode();
            let cases: [(Bytes, usize, u8, Decoder); 13] = [
                (one(GetManyEntry::NotFound(id)), 4, 3, decodes::<GetManyResp>),
                (ReleaseResp { pinned: vec![flag] }.encode(), 4, 2, decodes::<ReleaseResp>),
                (CreateAtResp::Exists.encode(), 0, 3, decodes::<CreateAtResp>),
                (DelegateResp::Refused.encode(), 0, 2, decodes::<DelegateResp>),
                (BoolResp { value: flag }.encode(), 0, 2, decodes::<BoolResp>),
                (delete(vec![], vec![]), id_len, 2, decodes::<DeleteReq>),
                (delete(vec![NodeId(node)], vec![]), id_len, 6, decodes::<DeleteReq>),
                (delete(vec![], vec![NodeId(node)]), id_len, 6, decodes::<DeleteReq>),
                (DeleteResp::Done(flag).encode(), 0, 3, decodes::<DeleteResp>),
                (
                    DeleteResp::Clear(vec![(NodeId(node), kind)]).encode(),
                    7,
                    3,
                    decodes::<DeleteResp>,
                ),
                (
                    ReconcileReq { claims: vec![(id, kind, word)] }.encode(),
                    4 + id_len,
                    3,
                    decodes::<ReconcileReq>,
                ),
                (
                    ReconcileResp { drop: vec![(id, kind)], trimmed }.encode(),
                    4 + id_len,
                    3,
                    decodes::<ReconcileResp>,
                ),
                (GetManyEntry::Moved(location).encode(), 0, 3, decodes::<GetManyEntry>),
            ];
            for (wire, at, first_bad, decode) in cases {
                prop_assert!(out_of_range(&wire, at, first_bad, decode), "{wire:?} at {at}");
            }
        }

        /// Arbitrary bytes never panic a decoder.
        #[test]
        fn garbage_rejected(data in proptest::collection::vec(any::<u8>(), 0..256)) {
            for (_, decode) in DECODERS {
                let _ = decode(Bytes::from(data.clone()));
            }
        }
    }
}
