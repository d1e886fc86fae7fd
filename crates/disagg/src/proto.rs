//! Store-to-store interconnect protocol.
//!
//! The messages Plasma stores exchange over the (simulated) gRPC channel:
//! pinning descriptor lookup, ring-routed create/seal/abort, reference
//! release feedback, forwarded delete, and the delegation (spill,
//! replica, invalidate) and reconciliation exchanges. Every request
//! starts with one fixed-width [`CallHeader`] — who is asking and the
//! membership epoch they routed by — and every `Ok` reply with a
//! [`ReplyHeader`]; no message body repeats either fact. Bodies are
//! encoded with the protobuf-style wire format from [`rpclite::wire`].
//! A *read* never moves payload bytes inside a frame: every answer
//! carries a descriptor and the bytes move over the fabric
//! ([`crate::DisaggStore::read_payload`]). The one message with a payload
//! is a `CREATE_AT` forwarding a small put (up to `plasma::INLINE_PUT_MAX` bytes), which
//! carries its own so the owner can create, fill and seal in one step.

use crate::delegation::{Claim, Kind, Tally};
use bytes::Bytes;
use plasma::{ObjectId, ObjectLocation, OBJECT_ID_LEN};
use rpclite::wire::{MsgDec, MsgEnc, WireError};
use tfsim::{NodeId, SegKey};

/// Interconnect method ids.
pub mod method {
    /// Retired method ids with the verb each once carried: the epoch-0
    /// broadcast lookup and id reservation, the deferred delete that is
    /// now a flag on `DELETE`, the framed data plane's read and write,
    /// the per-kind reconciles `RECONCILE` absorbed, and the lease chase
    /// `INVALIDATE` absorbed. A retired id is never reused, so an old
    /// peer's call can only meet `Unimplemented`. The dispatch test, the
    /// verb-table test and `scripts/docs_drift.sh` all read this list.
    pub const RETIRED: &[(u32, &str)] = &[
        (1, "lookup"),
        (2, "reserve"),
        (7, "delete_deferred"),
        (16, "borrow_reconcile"),
        (17, "data_read"),
        (18, "data_write"),
        (21, "replica_reconcile"),
        (22, "delete_held"),
    ];

    /// Release one reference held on behalf of the caller (`IdReq` →
    /// `BoolResp` was-pinned).
    pub const RELEASE: u32 = 3;
    /// Does a sealed object exist here? (`IdReq` → `BoolResp`).
    pub const CONTAINS: u32 = 4;
    /// Forwarded delete, immediate or deferred behind readers
    /// (`DeleteReq` → `BoolResp` deleted-now).
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
    /// authority — pins, staged creates, a lease, replicas — and the
    /// responder, as owner, answers which of those to drop and trims
    /// what went unreported (see [`crate::delegation::owner_verdict`]).
    /// Heals every half-finished exchange a lost request or response can
    /// leave. Only sound while no traffic between the pair is in flight
    /// — e.g. at quiesce.
    pub const RECONCILE: u32 = 10;
    /// Forwarded create (`CreateAtReq` → `CreateAtResp`): the rendezvous
    /// ring routed a `create` to the id's computed owner, which allocates
    /// locally — id uniqueness is an owner-local check. Idempotent per
    /// caller: a retry whose first attempt executed (response lost)
    /// returns the same staged location. With a `payload` it is a whole
    /// put — the owner creates, fills, seals and drops the creator's
    /// reference, and answers with the sealed location; nothing is
    /// staged, and a retry is recognised by its content.
    pub const CREATE_AT: u32 = 11;
    /// Seal a forwarded create on its owner (`IdReq` →
    /// `CreateAtResp` carrying the sealed location). Idempotent:
    /// re-sealing an already-sealed id returns its location again.
    pub const SEAL_AT: u32 = 12;
    /// Abort a forwarded create on its owner (`IdReq` →
    /// `BoolResp`). Idempotent: aborting an id with no staged create is
    /// a no-op (`false`).
    pub const ABORT_AT: u32 = 13;
    /// Membership pull (empty → `MembershipResp`): the responder's
    /// current membership table. Sent when a node observes a newer epoch
    /// than its own in the header of another call or reply; the one verb
    /// neither side adopts an epoch on — its reply *is* the table.
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
    /// replica. Deletes on the owner fan out INVALIDATE to every holder.
    pub const REPLICATE_AT: u32 = 19;
    /// The one way a delegated copy dies (`IdReq` → `BoolResp`
    /// dropped-now): the caller, as the id's owner, deleted (or
    /// reclaimed) the object, and the responder retires the copy it
    /// holds *on that owner's authority* — a copy recorded under another
    /// owner, or none, answers `false` and is left alone. A replica is
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
        (SEAL_AT, "seal_at"),
        (ABORT_AT, "abort_at"),
        (MEMBERSHIP, "membership"),
        (SPILL_AT, "spill_at"),
        (REPLICATE_AT, "replicate_at"),
        (INVALIDATE, "invalidate"),
    ];
}

fn prefixed(prefix: &[u8], body: &[u8]) -> Bytes {
    let mut frame = Vec::with_capacity(prefix.len() + body.len());
    frame.extend_from_slice(prefix);
    frame.extend_from_slice(body);
    Bytes::from(frame)
}

/// The fixed-width prefix of every interconnect request: who is asking,
/// and the membership epoch they routed by (0 = none installed). Written
/// by the one place that sends a call and read by the one place that
/// dispatches it, so no message body carries either fact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CallHeader {
    /// The calling node: pins, staged creates and delegated copies are
    /// recorded against it.
    pub from: NodeId,
    /// The caller's membership epoch; a responder that is behind pulls
    /// the caller's table before it answers.
    pub epoch: u64,
}

impl CallHeader {
    /// Encoded width in bytes.
    pub const LEN: usize = 10;

    /// The header's wire bytes, which every request body starts with.
    pub fn encode(&self) -> [u8; Self::LEN] {
        let mut prefix = [0u8; Self::LEN];
        prefix[..2].copy_from_slice(&self.from.0.to_le_bytes());
        prefix[2..].copy_from_slice(&self.epoch.to_le_bytes());
        prefix
    }

    /// The request frame: this header, then `body`, joined. A store
    /// sends its calls as parts instead (the header, then the body's),
    /// which the rpclite envelope writes back to back; this is for a
    /// caller that hands a service a request by hand.
    pub fn frame(&self, body: &[u8]) -> Bytes {
        prefixed(&self.encode(), body)
    }

    /// Split a request frame into its header and body.
    pub fn split(mut frame: Bytes) -> Result<(CallHeader, Bytes), WireError> {
        if frame.len() < Self::LEN {
            return Err(WireError::Truncated);
        }
        let prefix = frame.split_to(Self::LEN);
        let (from, epoch) = prefix.split_at(2);
        let header = CallHeader {
            from: NodeId(u16::from_le_bytes(from.try_into().expect("two bytes"))),
            epoch: u64::from_le_bytes(epoch.try_into().expect("eight bytes")),
        };
        Ok((header, frame))
    }
}

/// The fixed-width prefix of every `Ok` interconnect reply: the
/// responder's membership epoch (0 = none installed), so a caller that
/// is behind pulls the responder's table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplyHeader {
    /// The responder's membership epoch.
    pub epoch: u64,
}

impl ReplyHeader {
    /// Encoded width in bytes.
    pub const LEN: usize = 8;

    /// The reply frame: this header, then `body`.
    pub fn frame(&self, body: &[u8]) -> Bytes {
        prefixed(&self.epoch.to_le_bytes(), body)
    }

    /// Split a reply frame into its header and body.
    pub fn split(mut frame: Bytes) -> Result<(ReplyHeader, Bytes), WireError> {
        if frame.len() < Self::LEN {
            return Err(WireError::Truncated);
        }
        let prefix = frame.split_to(Self::LEN);
        let epoch = u64::from_le_bytes(prefix[..].try_into().expect("eight bytes"));
        Ok((ReplyHeader { epoch }, frame))
    }
}

fn enc_id(e: &mut MsgEnc, field: u32, id: &ObjectId) {
    e.bytes(field, id.as_bytes());
}

fn dec_id(b: &Bytes) -> Result<ObjectId, WireError> {
    let arr: [u8; OBJECT_ID_LEN] = b[..].try_into().map_err(|_| WireError::MissingField(0))?;
    Ok(ObjectId::from_bytes(arr))
}

fn enc_location(loc: &ObjectLocation) -> MsgEnc {
    let mut e = MsgEnc::new();
    enc_id(&mut e, 1, &loc.id);
    e.uint(2, u64::from(loc.seg.owner.0))
        .uint(3, u64::from(loc.seg.index))
        .uint(4, loc.offset)
        .uint(5, loc.data_size)
        .uint(6, loc.metadata_size);
    e
}

/// A location arrives from a peer, and every reader of one sums its
/// fields (`total_size`, a view's end): one whose end does not fit in a
/// `u64` names no bytes and is refused here, once, for all of them.
fn dec_location(b: Bytes) -> Result<ObjectLocation, WireError> {
    let f = MsgDec::new(b).collect()?;
    let (offset, data_size, metadata_size) = (f.uint(4)?, f.uint(5)?, f.uint(6)?);
    offset
        .checked_add(data_size)
        .and_then(|end| end.checked_add(metadata_size))
        .ok_or(WireError::MissingField(6))?;
    Ok(ObjectLocation {
        id: dec_id(&f.bytes(1)?)?,
        seg: SegKey {
            owner: NodeId(u16::try_from(f.uint(2)?).map_err(|_| WireError::MissingField(2))?),
            index: u32::try_from(f.uint(3)?).map_err(|_| WireError::MissingField(3))?,
        },
        offset,
        data_size,
        metadata_size,
    })
}

/// Batched multi-get request: pin and return fabric descriptors for many
/// object ids in one round trip (the remote multi-get hot path).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GetManyReq {
    /// Object ids to fetch (found objects are pinned on the caller's
    /// behalf).
    pub ids: Vec<ObjectId>,
    /// The caller is following a location it was handed by a `Moved`
    /// redirect. Borrowed replicas (bytes held for
    /// another node's ledger) answer only these requests: an ordinary
    /// broadcast must not observe them, or a replica duplicated by an
    /// ambiguous spill could serve reads its owner's delete never
    /// reaches.
    pub redirected: bool,
}

impl GetManyReq {
    /// Serialize to wire bytes.
    pub fn encode(&self) -> Bytes {
        let mut e = MsgEnc::new();
        for id in &self.ids {
            enc_id(&mut e, 2, id);
        }
        e.uint(4, u64::from(self.redirected));
        e.finish()
    }

    /// Parse from wire bytes.
    pub fn decode(b: Bytes) -> Result<Self, WireError> {
        let f = MsgDec::new(b).collect()?;
        let ids = f
            .get_all(2)
            .map(|v| {
                v.as_bytes()
                    .ok_or(WireError::MissingField(2))
                    .and_then(dec_id)
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(GetManyReq {
            ids,
            redirected: f.uint_or(4, 0) != 0,
        })
    }
}

/// Per-id outcome of a multi-get. The RPC as a whole succeeds even when
/// only some ids are present (partial success); each entry says what
/// happened to its id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GetManyStatus {
    /// The object is sealed here; it has been pinned for the requester
    /// and its fabric descriptor is attached.
    Pinned = 0,
    /// The object is not sealed on the responder.
    NotFound = 1,
    /// The responder is the id's ring owner but lent the object to a
    /// peer (elastic spill); `moved_to` names the holder. The requester
    /// should re-issue the get there (one-hop redirect).
    Moved = 2,
}

impl GetManyStatus {
    fn from_u64(v: u64) -> GetManyStatus {
        match v {
            0 => GetManyStatus::Pinned,
            2 => GetManyStatus::Moved,
            _ => GetManyStatus::NotFound,
        }
    }
}

/// One id's entry in a [`GetManyResp`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GetManyEntry {
    /// The requested id this entry answers for.
    pub id: ObjectId,
    /// What happened to it on the responder.
    pub status: GetManyStatus,
    /// Fabric descriptor; present iff `status` is
    /// [`GetManyStatus::Pinned`].
    pub location: Option<ObjectLocation>,
    /// Holder to redirect to; present iff `status` is
    /// [`GetManyStatus::Moved`].
    pub moved_to: Option<NodeId>,
}

/// Multi-get response: one entry per requested id, in request order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GetManyResp {
    /// Per-id outcomes.
    pub entries: Vec<GetManyEntry>,
}

impl GetManyResp {
    /// Serialize to wire bytes.
    pub fn encode(&self) -> Bytes {
        let mut e = MsgEnc::new();
        for entry in &self.entries {
            let mut m = MsgEnc::new();
            enc_id(&mut m, 1, &entry.id);
            m.uint(2, entry.status as u64);
            if let Some(loc) = &entry.location {
                m.message(3, enc_location(loc));
            }
            if let Some(holder) = entry.moved_to {
                m.uint(4, u64::from(holder.0));
            }
            e.message(1, m);
        }
        e.finish()
    }

    /// Parse from wire bytes.
    pub fn decode(b: Bytes) -> Result<Self, WireError> {
        let f = MsgDec::new(b).collect()?;
        let entries = f
            .get_all(1)
            .map(|v| -> Result<GetManyEntry, WireError> {
                let m = MsgDec::new(v.as_bytes().cloned().ok_or(WireError::MissingField(1))?)
                    .collect()?;
                let location = match m.get(3) {
                    Some(fv) => Some(dec_location(
                        fv.as_bytes().cloned().ok_or(WireError::MissingField(3))?,
                    )?),
                    None => None,
                };
                let moved_to = match m.get(4) {
                    Some(fv) => {
                        let raw = fv.as_uint().ok_or(WireError::MissingField(4))?;
                        Some(NodeId(
                            u16::try_from(raw).map_err(|_| WireError::MissingField(4))?,
                        ))
                    }
                    None => None,
                };
                Ok(GetManyEntry {
                    id: dec_id(&m.bytes(1)?)?,
                    status: GetManyStatus::from_u64(m.uint_or(2, 1)),
                    location,
                    moved_to,
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(GetManyResp { entries })
    }

    /// The pinned entries' fabric descriptors, in response order.
    pub fn found(&self) -> impl Iterator<Item = &ObjectLocation> {
        self.entries.iter().filter_map(|e| e.location.as_ref())
    }

    /// The redirected entries as `(id, holder)` pairs, in response
    /// order — ids the responder lent out, answerable at `holder`.
    pub fn moved(&self) -> impl Iterator<Item = (ObjectId, NodeId)> + '_ {
        self.entries.iter().filter_map(|e| match e.status {
            GetManyStatus::Moved => e.moved_to.map(|holder| (e.id, holder)),
            _ => None,
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

impl ReconcileReq {
    /// Serialize to wire bytes.
    pub fn encode(&self) -> Bytes {
        let mut e = MsgEnc::new();
        for (id, kind, count) in &self.claims {
            let mut m = MsgEnc::new();
            enc_id(&mut m, 1, id);
            m.uint(2, *count).uint(3, *kind as u64);
            e.message(2, m);
        }
        e.finish()
    }

    /// Parse from wire bytes.
    pub fn decode(b: Bytes) -> Result<Self, WireError> {
        let f = MsgDec::new(b).collect()?;
        let claims = f
            .get_all(2)
            .map(|v| -> Result<Claim, WireError> {
                let m = MsgDec::new(v.as_bytes().cloned().ok_or(WireError::MissingField(2))?)
                    .collect()?;
                let kind = Kind::from_u64(m.uint_or(3, 0)).ok_or(WireError::MissingField(3))?;
                Ok((dec_id(&m.bytes(1)?)?, kind, m.uint_or(2, 0)))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ReconcileReq { claims })
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

impl ReconcileResp {
    /// Serialize to wire bytes.
    pub fn encode(&self) -> Bytes {
        let mut e = MsgEnc::new();
        for (id, kind) in &self.drop {
            let mut m = MsgEnc::new();
            enc_id(&mut m, 1, id);
            m.uint(2, *kind as u64);
            e.message(1, m);
        }
        for kind in Kind::ALL {
            e.uint(2, self.trimmed[kind]);
        }
        e.finish()
    }

    /// Parse from wire bytes.
    pub fn decode(b: Bytes) -> Result<Self, WireError> {
        let f = MsgDec::new(b).collect()?;
        let drop = f
            .get_all(1)
            .map(|v| -> Result<(ObjectId, Kind), WireError> {
                let m = MsgDec::new(v.as_bytes().cloned().ok_or(WireError::MissingField(1))?)
                    .collect()?;
                let kind = Kind::from_u64(m.uint_or(2, 0)).ok_or(WireError::MissingField(2))?;
                Ok((dec_id(&m.bytes(1)?)?, kind))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let mut trimmed = Tally::default();
        for (kind, v) in Kind::ALL.into_iter().zip(f.get_all(2)) {
            trimmed[kind] = v.as_uint().ok_or(WireError::MissingField(2))?;
        }
        Ok(ReconcileResp { drop, trimmed })
    }
}

/// Forwarded create: allocate `id` on the responder (the id's rendezvous
/// owner). Uniqueness is checked owner-locally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CreateAtReq {
    /// The id to create (the caller becomes its writer/creator).
    pub id: ObjectId,
    /// Payload size in bytes.
    pub data_size: u64,
    /// Metadata size in bytes.
    pub metadata_size: u64,
    /// The whole object — data, then metadata — when the create forwards
    /// a small put: the owner fills and seals it too. `None` stages the
    /// object for the caller to write through the fabric.
    pub payload: Option<Bytes>,
}

/// The most a `CreateAtReq`'s fields take beside its payload: the id
/// field (tag, length, id) and three one-byte tags with varints of at
/// most ten bytes.
const CREATE_AT_FIELDS_MAX: usize = 2 + OBJECT_ID_LEN + 3 * 11;

impl CreateAtReq {
    /// Serialize to wire bytes.
    pub fn encode(&self) -> Bytes {
        let carried = self.payload.as_ref().map_or(0, |p| p.len());
        let mut e = Self::fields(&self.id, self.data_size, self.metadata_size, carried);
        if let Some(payload) = &self.payload {
            e.bytes(6, payload);
        }
        e.finish()
    }

    /// The encoding of a `CreateAtReq` forwarding a put of `data_size`
    /// data and `metadata_size` metadata bytes, up to and including its
    /// payload's length prefix. Followed by the data, then the metadata,
    /// it is the whole request: the sender hands the three to the
    /// envelope as parts, which copies the payload into the frame once.
    pub(crate) fn put_head(id: &ObjectId, data_size: u64, metadata_size: u64) -> Bytes {
        let mut e = Self::fields(id, data_size, metadata_size, 0);
        e.bytes_head(6, (data_size + metadata_size) as usize);
        e.finish()
    }

    /// The fields every `CreateAtReq` carries, in an encoder with room
    /// for `carried` payload bytes besides.
    fn fields(id: &ObjectId, data_size: u64, metadata_size: u64, carried: usize) -> MsgEnc {
        let mut e = MsgEnc::with_capacity(CREATE_AT_FIELDS_MAX + carried);
        enc_id(&mut e, 3, id);
        e.uint(4, data_size).uint(5, metadata_size);
        e
    }

    /// Parse from wire bytes.
    pub fn decode(b: Bytes) -> Result<Self, WireError> {
        let f = MsgDec::new(b).collect()?;
        let payload = match f.get(6) {
            Some(fv) => Some(fv.as_bytes().cloned().ok_or(WireError::MissingField(6))?),
            None => None,
        };
        Ok(CreateAtReq {
            id: dec_id(&f.bytes(3)?)?,
            data_size: f.uint_or(4, 0),
            metadata_size: f.uint_or(5, 0),
            payload,
        })
    }
}

/// Outcome of a forwarded create on the computed owner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CreateAtStatus {
    /// Created (or a retry of the same caller's create): the fabric
    /// descriptor is attached. Without a payload the object is staged
    /// and the caller may write; with one it is already sealed.
    Ok = 0,
    /// The id already exists on the owner — cluster-wide duplicate.
    Exists = 1,
    /// The responder's membership table says it does not own this id;
    /// the caller's routing epoch is stale. The reply header carries the
    /// responder's epoch, so the caller has pulled the newer table by
    /// the time it reads this and can simply re-route.
    WrongOwner = 2,
}

impl CreateAtStatus {
    fn from_u64(v: u64) -> CreateAtStatus {
        match v {
            0 => CreateAtStatus::Ok,
            1 => CreateAtStatus::Exists,
            _ => CreateAtStatus::WrongOwner,
        }
    }
}

/// Response to a forwarded create.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CreateAtResp {
    /// What happened on the owner.
    pub status: CreateAtStatus,
    /// Fabric descriptor of the staged (or, for a payload-carrying
    /// create, sealed) object; present iff `status` is
    /// [`CreateAtStatus::Ok`].
    pub location: Option<ObjectLocation>,
}

impl CreateAtResp {
    /// Serialize to wire bytes.
    pub fn encode(&self) -> Bytes {
        let mut e = MsgEnc::new();
        e.uint(1, self.status as u64);
        if let Some(loc) = &self.location {
            e.message(2, enc_location(loc));
        }
        e.finish()
    }

    /// Parse from wire bytes.
    pub fn decode(b: Bytes) -> Result<Self, WireError> {
        let f = MsgDec::new(b).collect()?;
        let location = match f.get(2) {
            Some(fv) => Some(dec_location(
                fv.as_bytes().cloned().ok_or(WireError::MissingField(2))?,
            )?),
            None => None,
        };
        Ok(CreateAtResp {
            status: CreateAtStatus::from_u64(f.uint_or(1, 2)),
            location,
        })
    }
}

/// Response to a MEMBERSHIP pull: the responder's full membership table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MembershipResp {
    /// Table version (0 = no membership installed).
    pub epoch: u64,
    /// Member nodes.
    pub nodes: Vec<NodeId>,
}

impl MembershipResp {
    /// Serialize to wire bytes.
    pub fn encode(&self) -> Bytes {
        let mut e = MsgEnc::new();
        e.uint(1, self.epoch);
        for node in &self.nodes {
            e.uint(2, u64::from(node.0));
        }
        e.finish()
    }

    /// Parse from wire bytes.
    pub fn decode(b: Bytes) -> Result<Self, WireError> {
        let f = MsgDec::new(b).collect()?;
        let nodes = f
            .get_all(2)
            .map(|v| -> Result<NodeId, WireError> {
                let raw = v.as_uint().ok_or(WireError::MissingField(2))?;
                Ok(NodeId(
                    u16::try_from(raw).map_err(|_| WireError::MissingField(2))?,
                ))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(MembershipResp {
            epoch: f.uint_or(1, 0),
            nodes,
        })
    }
}

/// Delegation request ([`method::SPILL_AT`], [`method::REPLICATE_AT`]):
/// the caller, the id's ring owner, asks the responder to adopt a copy
/// of the sealed object described by `location` — as the object's one
/// leased copy, or as a read replica beside the owner's own. The owner
/// guarantees the source copy stays pinned until the response arrives,
/// so the adopter can read the bytes over the fabric at any point during
/// the call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DelegateReq {
    /// Fabric descriptor of the (pinned) source copy on the owner; the
    /// adopter pulls the bytes over the fabric from it.
    pub location: ObjectLocation,
}

impl DelegateReq {
    /// Serialize to wire bytes.
    pub fn encode(&self) -> Bytes {
        let mut e = MsgEnc::new();
        e.message(3, enc_location(&self.location));
        e.finish()
    }

    /// Parse from wire bytes.
    pub fn decode(b: Bytes) -> Result<Self, WireError> {
        let f = MsgDec::new(b).collect()?;
        Ok(DelegateReq {
            location: dec_location(f.bytes(3)?)?,
        })
    }
}

/// Outcome of a delegation on the adopter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DelegateStatus {
    /// The responder adopted the object: a sealed local copy exists and
    /// a ledger entry toward the caller is recorded. After a spill the
    /// owner may now delete its copy.
    Adopted = 0,
    /// The responder declined (it is itself under memory pressure, or
    /// the copy failed). The owner must keep its copy; nothing was
    /// recorded.
    Refused = 1,
}

impl DelegateStatus {
    fn from_u64(v: u64) -> DelegateStatus {
        match v {
            0 => DelegateStatus::Adopted,
            _ => DelegateStatus::Refused,
        }
    }
}

/// Response to a delegation request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DelegateResp {
    /// What happened on the adopter.
    pub status: DelegateStatus,
}

impl DelegateResp {
    /// Serialize to wire bytes.
    pub fn encode(&self) -> Bytes {
        let mut e = MsgEnc::new();
        e.uint(1, self.status as u64);
        e.finish()
    }

    /// Parse from wire bytes.
    pub fn decode(b: Bytes) -> Result<Self, WireError> {
        let f = MsgDec::new(b).collect()?;
        Ok(DelegateResp {
            status: DelegateStatus::from_u64(f.uint_or(1, 1)),
        })
    }
}

/// A request about one object and nothing else: release, contains,
/// seal / abort of a staged create, invalidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IdReq {
    /// The object in question.
    pub id: ObjectId,
}

impl IdReq {
    /// Serialize to wire bytes.
    pub fn encode(&self) -> Bytes {
        let mut e = MsgEnc::new();
        enc_id(&mut e, 1, &self.id);
        e.finish()
    }

    /// Parse from wire bytes.
    pub fn decode(b: Bytes) -> Result<Self, WireError> {
        let f = MsgDec::new(b).collect()?;
        Ok(IdReq {
            id: dec_id(&f.bytes(1)?)?,
        })
    }
}

/// Forwarded delete: immediate, or deferred behind the object's readers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeleteReq {
    /// The object to delete.
    pub id: ObjectId,
    /// Hide the object now and free it once its last reader releases,
    /// instead of failing `ObjectInUse`.
    pub deferred: bool,
}

impl DeleteReq {
    /// Serialize to wire bytes.
    pub fn encode(&self) -> Bytes {
        let mut e = MsgEnc::new();
        enc_id(&mut e, 1, &self.id);
        e.uint(2, u64::from(self.deferred));
        e.finish()
    }

    /// Parse from wire bytes.
    pub fn decode(b: Bytes) -> Result<Self, WireError> {
        let f = MsgDec::new(b).collect()?;
        Ok(DeleteReq {
            id: dec_id(&f.bytes(1)?)?,
            deferred: f.uint_or(2, 0) != 0,
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

impl ListResp {
    /// Serialize to wire bytes.
    pub fn encode(&self) -> Bytes {
        let mut e = MsgEnc::new();
        e.uint(1, u64::from(self.node.0));
        for entry in &self.entries {
            let mut m = MsgEnc::new();
            enc_id(&mut m, 1, &entry.id);
            m.uint(2, entry.data_size)
                .uint(3, entry.metadata_size)
                .uint(4, entry.ref_count);
            e.message(2, m);
        }
        e.finish()
    }

    /// Parse from wire bytes.
    pub fn decode(b: Bytes) -> Result<Self, WireError> {
        let f = MsgDec::new(b).collect()?;
        let node = NodeId(u16::try_from(f.uint(1)?).map_err(|_| WireError::MissingField(1))?);
        let entries = f
            .get_all(2)
            .map(|v| -> Result<ListEntry, WireError> {
                let m = MsgDec::new(v.as_bytes().cloned().ok_or(WireError::MissingField(2))?)
                    .collect()?;
                Ok(ListEntry {
                    id: dec_id(&m.bytes(1)?)?,
                    data_size: m.uint(2)?,
                    metadata_size: m.uint(3)?,
                    ref_count: m.uint_or(4, 0),
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ListResp { node, entries })
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

impl MetricsResp {
    /// Serialize to wire bytes.
    pub fn encode(&self) -> Bytes {
        let mut e = MsgEnc::new();
        e.uint(1, u64::from(self.node.0)).bytes(2, &self.snapshot);
        e.finish()
    }

    /// Parse from wire bytes.
    pub fn decode(b: Bytes) -> Result<Self, WireError> {
        let f = MsgDec::new(b).collect()?;
        Ok(MetricsResp {
            node: NodeId(u16::try_from(f.uint(1)?).map_err(|_| WireError::MissingField(1))?),
            snapshot: f.bytes(2)?,
        })
    }
}

/// Boolean response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoolResp {
    /// The boolean payload.
    pub value: bool,
}

impl BoolResp {
    /// Serialize to wire bytes.
    pub fn encode(&self) -> Bytes {
        let mut e = MsgEnc::new();
        e.uint(1, u64::from(self.value));
        e.finish()
    }

    /// Parse from wire bytes.
    pub fn decode(b: Bytes) -> Result<Self, WireError> {
        let f = MsgDec::new(b).collect()?;
        Ok(BoolResp {
            value: f.uint_or(1, 0) != 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let call = CallHeader {
            from: NodeId(513),
            epoch: u64::MAX - 1,
        };
        let framed = call.frame(&body);
        assert_eq!(framed.len(), CallHeader::LEN + body.len());
        assert_eq!(CallHeader::split(framed.clone()).unwrap(), (call, body));
        // An empty body is a header and nothing else.
        let (_, empty) = CallHeader::split(framed.slice(..CallHeader::LEN)).unwrap();
        assert!(empty.is_empty());
        for cut in 0..CallHeader::LEN {
            assert_eq!(
                CallHeader::split(framed.slice(..cut)),
                Err(WireError::Truncated)
            );
        }

        let reply = ReplyHeader { epoch: 7 };
        let body = BoolResp { value: true }.encode();
        let framed = reply.frame(&body);
        assert_eq!(framed.len(), ReplyHeader::LEN + body.len());
        assert_eq!(ReplyHeader::split(framed.clone()).unwrap(), (reply, body));
        for cut in 0..ReplyHeader::LEN {
            assert_eq!(
                ReplyHeader::split(framed.slice(..cut)),
                Err(WireError::Truncated)
            );
        }
    }

    #[test]
    fn id_and_delete_reqs_roundtrip() {
        let i = IdReq {
            id: ObjectId::from_name("y"),
        };
        assert_eq!(IdReq::decode(i.encode()).unwrap(), i);
        for deferred in [false, true] {
            let d = DeleteReq {
                id: ObjectId::from_name("z"),
                deferred,
            };
            assert_eq!(DeleteReq::decode(d.encode()).unwrap(), d);
        }
        // A bare id is an immediate delete.
        let bare = DeleteReq::decode(i.encode()).unwrap();
        assert!(!bare.deferred);
        let b = BoolResp { value: true };
        assert_eq!(BoolResp::decode(b.encode()).unwrap(), b);
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
            redirected: true,
        };
        assert_eq!(GetManyReq::decode(req.encode()).unwrap(), req);
        let empty = GetManyReq {
            ids: vec![],
            redirected: false,
        };
        assert_eq!(GetManyReq::decode(empty.encode()).unwrap(), empty);

        let resp = GetManyResp {
            entries: vec![
                GetManyEntry {
                    id: loc(1).id,
                    status: GetManyStatus::Pinned,
                    location: Some(loc(1)),
                    moved_to: None,
                },
                GetManyEntry {
                    id: ObjectId::from_name("missing"),
                    status: GetManyStatus::NotFound,
                    location: None,
                    moved_to: None,
                },
                GetManyEntry {
                    id: ObjectId::from_name("lent"),
                    status: GetManyStatus::Moved,
                    location: None,
                    moved_to: Some(NodeId(5)),
                },
            ],
        };
        let back = GetManyResp::decode(resp.encode()).unwrap();
        assert_eq!(back, resp);
        assert_eq!(back.found().count(), 1);
        let none = GetManyResp { entries: vec![] };
        assert_eq!(GetManyResp::decode(none.encode()).unwrap(), none);
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
        let staged = CreateAtReq {
            id: ObjectId::from_name("fwd"),
            data_size: 4096,
            metadata_size: 16,
            payload: None,
        };
        let inline = CreateAtReq {
            data_size: 5,
            metadata_size: 2,
            payload: Some(Bytes::from_static(b"hellomd")),
            ..staged.clone()
        };
        // An empty payload is still a payload: a zero-byte put.
        let empty = CreateAtReq {
            data_size: 0,
            metadata_size: 0,
            payload: Some(Bytes::new()),
            ..staged.clone()
        };
        let head = CreateAtReq::put_head(&inline.id, 5, 2);
        assert_eq!(inline.encode(), [&head[..], b"hello", b"md"].concat());
        for req in [staged, inline, empty] {
            assert_eq!(CreateAtReq::decode(req.encode()).unwrap(), req);
        }

        let ok = CreateAtResp {
            status: CreateAtStatus::Ok,
            location: Some(loc(9)),
        };
        assert_eq!(CreateAtResp::decode(ok.encode()).unwrap(), ok);
        for status in [CreateAtStatus::Exists, CreateAtStatus::WrongOwner] {
            let resp = CreateAtResp {
                status,
                location: None,
            };
            assert_eq!(CreateAtResp::decode(resp.encode()).unwrap(), resp);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// A forwarded put's fields, then its data, then its metadata,
        /// are the `MsgEnc` encoding of the request carrying the joined
        /// payload, at every size up to past the largest inlined put and
        /// at every split between data and metadata.
        #[test]
        fn a_put_create_at_equals_the_encoding_of_its_joined_payload(
            len in 0usize..300 << 10,
            split in proptest::prelude::any::<usize>(),
            fill in proptest::prelude::any::<u8>(),
        ) {
            let id = ObjectId::from_name("fwd/put");
            let payload: Vec<u8> = (0..len).map(|i| fill.wrapping_add(i as u8)).collect();
            let (data, metadata) = payload.split_at(split % (len + 1));
            let mut e = MsgEnc::new();
            enc_id(&mut e, 3, &id);
            e.uint(4, data.len() as u64)
                .uint(5, metadata.len() as u64)
                .bytes(6, &payload);
            let head = CreateAtReq::put_head(&id, data.len() as u64, metadata.len() as u64);
            proptest::prop_assert!(e.finish() == [&head[..], data, metadata].concat());
        }
    }

    #[test]
    fn membership_resp_roundtrip() {
        let r = MembershipResp {
            epoch: 4,
            nodes: vec![NodeId(0), NodeId(1), NodeId(5)],
        };
        assert_eq!(MembershipResp::decode(r.encode()).unwrap(), r);
        let empty = MembershipResp {
            epoch: 0,
            nodes: vec![],
        };
        assert_eq!(MembershipResp::decode(empty.encode()).unwrap(), empty);
    }

    #[test]
    fn delegate_roundtrip() {
        let req = DelegateReq { location: loc(4) };
        assert_eq!(DelegateReq::decode(req.encode()).unwrap(), req);
        for status in [DelegateStatus::Adopted, DelegateStatus::Refused] {
            let resp = DelegateResp { status };
            assert_eq!(DelegateResp::decode(resp.encode()).unwrap(), resp);
        }
        // Missing status defaults to the safe Refused (owner keeps copy).
        let bare = DelegateResp::decode(MsgEnc::new().finish()).unwrap();
        assert_eq!(bare.status, DelegateStatus::Refused);
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
                entries: vec![GetManyEntry {
                    id: l.id,
                    status: GetManyStatus::Pinned,
                    location: Some(l),
                    moved_to: None,
                }],
            };
            let create_at = CreateAtResp {
                status: CreateAtStatus::Ok,
                location: Some(l),
            };
            [
                DelegateReq::decode(DelegateReq { location: l }.encode()).map(|r| r.location),
                GetManyResp::decode(get_many.encode()).map(|r| r.entries[0].location.unwrap()),
                CreateAtResp::decode(create_at.encode()).map(|r| r.location.unwrap()),
            ]
        };
        for l in [
            sized(0, u64::MAX, 1),
            sized(0, 1, u64::MAX),
            sized(u64::MAX, 1, 0),
            sized(1 << 63, 1 << 62, 1 << 62),
        ] {
            for decoded in messages(l) {
                assert_eq!(decoded, Err(WireError::MissingField(6)), "{l:?}");
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
    /// included — are O(1) in object size: a 1 MiB object's frame outgrows
    /// a 64 B object's by the varint width of the size field and nothing
    /// else. The one frame with a payload, a `CREATE_AT` forwarding a
    /// small put, is that payload plus O(1).
    #[test]
    fn descriptor_frames_are_constant_in_object_size() {
        let sized = |data_size: u64| ObjectLocation {
            data_size,
            metadata_size: 0,
            ..loc(1)
        };
        let call = CallHeader {
            from: NodeId(2),
            epoch: 1,
        };
        let reply = ReplyHeader { epoch: 1 };
        let create_at = |l: ObjectLocation, payload| CreateAtReq {
            id: l.id,
            data_size: l.data_size,
            metadata_size: 0,
            payload,
        };
        let frames = |l: ObjectLocation| {
            [
                call.frame(&DelegateReq { location: l }.encode()).len(),
                call.frame(&create_at(l, None).encode()).len(),
                reply
                    .frame(
                        &GetManyResp {
                            entries: vec![GetManyEntry {
                                id: l.id,
                                status: GetManyStatus::Pinned,
                                location: Some(l),
                                moved_to: None,
                            }],
                        }
                        .encode(),
                    )
                    .len(),
                reply
                    .frame(
                        &CreateAtResp {
                            status: CreateAtStatus::Ok,
                            location: Some(l),
                        }
                        .encode(),
                    )
                    .len(),
            ]
        };
        // 64 encodes in one varint byte, 1 MiB (2^20) in three.
        let (small, large) = (frames(sized(64)), frames(sized(1 << 20)));
        for (s, l) in small.iter().zip(large) {
            assert!(*s < 128, "a control frame is a few dozen bytes, got {s}");
            assert!(
                l - s <= 2,
                "frame grew {} bytes for a 16384x larger object",
                l - s
            );
        }
        for len in [0usize, 64, 64 << 10, plasma::INLINE_PUT_MAX] {
            let payload = Some(Bytes::from(vec![7u8; len]));
            let frame = call.frame(&create_at(sized(len as u64), payload).encode());
            let overhead = frame.len() - len;
            assert!(
                overhead < 64,
                "{len} B put: {overhead} B beside the payload"
            );
        }
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

    #[test]
    fn garbage_rejected() {
        assert!(GetManyReq::decode(Bytes::from_static(&[0xFF, 0xFF])).is_err());
        assert!(IdReq::decode(Bytes::new()).is_err());
        assert!(DeleteReq::decode(Bytes::new()).is_err());
    }
}
