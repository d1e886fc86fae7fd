//! Plasma client.
//!
//! Connects to a store over any [`ipc::Conn`] and exposes the classic
//! Plasma API: `create` (returning a writable builder), `seal`, `get`
//! (returning read-only buffers), `release`, `delete`, `contains`, `list`.
//!
//! A *read* never moves payload bytes over the IPC channel: the store
//! hands back [`ObjectLocation`]s and the client maps the owning (possibly
//! remote) segment through the fabric — the disaggregated-memory analogue
//! of Plasma's file-descriptor passing. Whether a buffer read is then
//! charged the local or the remote cost falls out of *which node the
//! client runs on*, with no client-visible API difference. A `put` of up
//! to [`INLINE_PUT_MAX`] bytes is the one call that carries its own
//! payload: the client already holds the whole object, so one request
//! replaces create, seal and release, and the client's store writes the
//! bytes into its own memory, as a builder would have. An object whose
//! id another node owns is adopted by that node from there, over the
//! fabric: a builder's seal and a put cost it the same one call.
//!
//! An optional [`ClientCost`] charges the modeled IPC round-trip and
//! per-object servicing cost to the simulation clock; this is what gives
//! the local path of the paper's Fig. 6 its microsecond-scale,
//! object-count-proportional retrieval latency.
//!
//! A reference goes back one of two ways. A pin the store took in its
//! own object table ([`GetSlot::PinnedHere`]) is *posted* by a client on
//! the store's node: the client puts its id on the store's
//! [`ReleaseRing`], handed over when the client is built, with no
//! request and no modeled delay, and the store applies it at its next
//! table access, before anything else reads the table. Every other
//! reference is *requested*, because it must reach a ledger: a pin taken
//! at a peer or in the store's delegation ledger, and a builder's.
//! Either way a batch's references go back under the batch-hold rule
//! ([`ReleaseGroups`]): a `get` that filled two or more slots opens a
//! release group, counted per filled slot. Releasing any member but the
//! last is answered at once; the last posts the group's pins here and
//! sends its others in one `Release` request, none if it has none, so a
//! local 32-object batch costs one request, its get. Until then the
//! store still counts every member's reference: another client's
//! `delete` of one reads `ObjectInUse`. This client's own `delete` of an
//! id first returns the releases of it it deferred, and dropping the
//! client returns every group's deferred releases, each by the same rule.

use crate::error::PlasmaError;
use crate::id::ObjectId;
use crate::object::{GetSlot, ObjectInfo, ObjectLocation};
use crate::protocol::{get_frame, locations, put_frame, release_frame, tag, Request, Response};
use crate::release::{ReleaseGroups, ReleaseRing};
use crate::store::StoreStats;
use ipc::{Conn, Frame};
use netsim::{LinkModel, SharedLink};
use parking_lot::Mutex;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::time::Duration;
use tfsim::{Clock, Fabric, MappedView, Mapping, NodeId, SegKey};

/// Largest object (data + metadata, in bytes) [`PlasmaClient::put`] sends
/// inside its request. The request copies a carried byte once and the
/// client's store writes it once, into its own segment, where a builder
/// would have written it through its mapping; in return the put saves
/// the builder's two other IPC round trips. Whichever path wrote it, an
/// object whose id another node owns reaches that owner the same way: it
/// adopts the copy over the fabric, for one `CREATE_AT` (DESIGN.md, "A put
/// is adopted"). The value was sized while the builder path also paid a
/// second round trip between stores.
pub const INLINE_PUT_MAX: usize = 256 << 10;

/// Modeled cost of client↔store IPC, charged to the simulation clock.
#[derive(Clone)]
pub struct ClientCost {
    /// Per-request round-trip (Unix-domain-socket-scale by default),
    /// drawn at (request kind, its number among this client's of it).
    pub request_link: SharedLink,
    /// Per-object servicing cost inside a batched request (lookup, entry
    /// marshalling). Calibrated so 1000 local objects retrieve in ~1.9 ms
    /// (paper Fig. 6 local path).
    pub per_object: Duration,
    pub clock: Clock,
}

impl ClientCost {
    /// The calibrated local-Plasma cost model.
    pub fn local_plasma(clock: Clock, seed: u64) -> Self {
        ClientCost {
            request_link: SharedLink::new(LinkModel::uds_ipc(), seed),
            per_object: Duration::from_nanos(1830),
            clock,
        }
    }
}

/// A read-only view of a sealed object's buffers. Dropping the buffer does
/// NOT release the store reference — call [`PlasmaClient::release`] when
/// done (mirrors Plasma's explicit release discipline).
#[derive(Debug, Clone)]
pub struct ObjectBuffer {
    pub id: ObjectId,
    data: MappedView,
    metadata: MappedView,
}

impl ObjectBuffer {
    /// The object's data buffer.
    pub fn data(&self) -> &MappedView {
        &self.data
    }

    /// The object's metadata buffer (may be empty).
    pub fn metadata(&self) -> &MappedView {
        &self.metadata
    }

    /// Data size in bytes.
    pub fn len(&self) -> u64 {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Read the full data buffer.
    pub fn read_all(&self) -> Result<Vec<u8>, PlasmaError> {
        Ok(self.data.read_all()?)
    }
}

/// A writable, not-yet-sealed object. Write the buffers, then
/// [`ObjectBuilder::seal`]. A builder dropped any other way — an early
/// return after a failed write or a failed seal, say — aborts its
/// create, so the id and the buffer are not left behind.
pub struct ObjectBuilder<'a> {
    client: &'a PlasmaClient,
    location: ObjectLocation,
    data: MappedView,
    metadata: MappedView,
    /// Neither sealed nor aborted yet: dropping the builder aborts.
    open: bool,
}

impl std::fmt::Debug for ObjectBuilder<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObjectBuilder")
            .field("location", &self.location)
            .finish()
    }
}

impl<'a> ObjectBuilder<'a> {
    pub fn id(&self) -> ObjectId {
        self.location.id
    }

    /// Writable view of the data buffer.
    pub fn data(&self) -> &MappedView {
        &self.data
    }

    /// Writable view of the metadata buffer.
    pub fn metadata(&self) -> &MappedView {
        &self.metadata
    }

    /// Write `bytes` at `offset` within the data buffer.
    pub fn write(&self, offset: u64, bytes: &[u8]) -> Result<(), PlasmaError> {
        Ok(self.data.write_at(offset, bytes)?)
    }

    /// Write the metadata buffer.
    pub fn write_metadata(&self, offset: u64, bytes: &[u8]) -> Result<(), PlasmaError> {
        Ok(self.metadata.write_at(offset, bytes)?)
    }

    /// Seal the object, making it immutable and visible to `get`, and
    /// release the creator's reference. A seal that fails abandons the
    /// object (the drop aborts it — a no-op if the seal did land and only
    /// its answer was lost: a sealed object cannot be aborted).
    pub fn seal(mut self) -> Result<ObjectId, PlasmaError> {
        let id = self.location.id;
        self.client
            .request_location(&Request::Seal(id).to_frame())?;
        self.open = false;
        self.client.release(id)?;
        Ok(id)
    }

    /// Abandon the object, freeing its allocation.
    pub fn abort(mut self) -> Result<(), PlasmaError> {
        self.open = false;
        self.client.request_unit(Request::Abort(self.location.id))
    }
}

impl Drop for ObjectBuilder<'_> {
    fn drop(&mut self) {
        if self.open {
            // Best-effort: there is no one to report a failure to.
            let _ = self.client.request_unit(Request::Abort(self.location.id));
        }
    }
}

/// Request kinds, by tag: every request tag is at most [`tag::PUT`].
const KINDS: usize = tag::PUT as usize + 1;

/// The references a client holds that go back some other way than one
/// request each.
#[derive(Default)]
struct Held {
    /// The batch gets whose references are not all released yet.
    groups: ReleaseGroups,
    /// Per id, the pins gets took in the store's own table and this
    /// client has not given back: the releases it posts. A credit is
    /// taken exactly when one of them is posted, so a release is posted
    /// only while the store counts a pin of this client's there;
    /// references on one immutable object are fungible, so which get
    /// took it does not matter.
    posts: HashMap<ObjectId, u32>,
}

impl Held {
    /// Take one of `id`'s postable pins, if any is left.
    fn take_post(&mut self, id: ObjectId) -> bool {
        let Some(left) = self.posts.get_mut(&id) else {
            return false;
        };
        *left -= 1;
        if *left == 0 {
            self.posts.remove(&id);
        }
        true
    }

    /// Post each of `ids` a credit is left for to `ring`, taking the
    /// credit, and keep the others in `ids`, in order, to request.
    fn post_here(&mut self, ring: &ReleaseRing, ids: &mut Vec<ObjectId>) {
        ring.post_where(ids, |id| self.take_post(id));
    }
}

/// A Plasma client bound to a node of the fabric.
pub struct PlasmaClient {
    /// The connection, and the requests sent per kind, indexed by
    /// `Frame::msg_type`: the next one's number, at which the modeled
    /// link draws its delay.
    conn: Mutex<(Box<dyn Conn>, [u64; KINDS])>,
    /// The release ring of the store at the other end of `conn`.
    ring: ReleaseRing,
    fabric: Fabric,
    node: NodeId,
    mappings: Mutex<HashMap<SegKey, Mapping>>,
    cost: Option<ClientCost>,
    held: Mutex<Held>,
    /// A mutant whose delete and drop request the deferred releases of
    /// pins here and keep their credits, so a test can show the harm.
    #[cfg(test)]
    requests_deferred: std::sync::atomic::AtomicBool,
}

impl PlasmaClient {
    /// Wrap an established connection to the store whose release ring is
    /// `ring` ([`crate::StoreCore::release_ring`]). `node` determines
    /// which fabric access path (local or remote) buffer reads take.
    pub fn new(conn: Box<dyn Conn>, ring: ReleaseRing, fabric: Fabric, node: NodeId) -> Self {
        Self::with_cost(conn, ring, fabric, node, None)
    }

    /// Like [`PlasmaClient::new`] with modeled IPC costs.
    pub fn with_cost(
        conn: Box<dyn Conn>,
        ring: ReleaseRing,
        fabric: Fabric,
        node: NodeId,
        cost: Option<ClientCost>,
    ) -> Self {
        PlasmaClient {
            conn: Mutex::new((conn, [0; KINDS])),
            ring,
            fabric,
            node,
            mappings: Mutex::new(HashMap::new()),
            cost,
            held: Mutex::new(Held::default()),
            #[cfg(test)]
            requests_deferred: Default::default(),
        }
    }

    /// Make this client's delete and drop request every deferred release.
    #[cfg(test)]
    pub(crate) fn request_deferred(&self) {
        let mutant = &self.requests_deferred;
        mutant.store(true, std::sync::atomic::Ordering::Relaxed);
    }

    /// Whether a delete and a drop post the deferred releases of pins
    /// here: always, but in the mutant.
    #[cfg(test)]
    fn posts_deferred(&self) -> bool {
        !self
            .requests_deferred
            .load(std::sync::atomic::Ordering::Relaxed)
    }

    #[cfg(not(test))]
    fn posts_deferred(&self) -> bool {
        true
    }

    /// The id of `slot`'s pin if this client may post its release: taken
    /// in the table of the store whose ring it holds, on this client's
    /// node. A client on another node requests: a post would be a write
    /// into a remote node's memory, which the fabric does not keep
    /// coherent.
    fn postable(&self, slot: GetSlot) -> Option<ObjectId> {
        match slot {
            GetSlot::PinnedHere(loc)
                if loc.seg == self.ring.seg() && loc.seg.owner == self.node =>
            {
                Some(loc.id)
            }
            _ => None,
        }
    }

    /// The node this client runs on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    fn request(&self, req: Request) -> Result<Response, PlasmaError> {
        self.exchange(&req.to_frame())
    }

    /// Send one request frame and read the store's answer.
    fn exchange(&self, frame: &Frame) -> Result<Response, PlasmaError> {
        let resp_frame = self.exchange_frame(frame)?;
        match Response::from_frame(&resp_frame)? {
            Response::Error(e) => Err(e),
            other => Ok(other),
        }
    }

    /// Send one request frame and return the store's answer undecoded.
    fn exchange_frame(&self, frame: &Frame) -> Result<Frame, PlasmaError> {
        let (seq, resp_frame) = {
            let (conn, sent) = &mut *self.conn.lock();
            conn.send(frame)?;
            let sent = &mut sent[frame.msg_type as usize];
            let seq = *sent;
            *sent += 1;
            (seq, conn.recv()?)
        };
        if let Some(c) = &self.cost {
            let bytes = frame.payload.len() + resp_frame.payload.len();
            let kind = u64::from(frame.msg_type);
            c.clock.charge(c.request_link.delay_at(kind, seq, bytes));
        }
        Ok(resp_frame)
    }

    fn request_unit(&self, req: Request) -> Result<(), PlasmaError> {
        self.exchange_unit(&req.to_frame())
    }

    fn exchange_unit(&self, frame: &Frame) -> Result<(), PlasmaError> {
        match self.exchange(frame)? {
            Response::Unit => Ok(()),
            other => Err(PlasmaError::Protocol(format!(
                "expected Unit, got {other:?}"
            ))),
        }
    }

    fn request_location(&self, frame: &Frame) -> Result<ObjectLocation, PlasmaError> {
        match self.exchange(frame)? {
            Response::Location(loc) => Ok(loc),
            other => Err(PlasmaError::Protocol(format!(
                "expected Location, got {other:?}"
            ))),
        }
    }

    /// Windows on the data and the metadata of `loc`, through this
    /// node's mapping of its segment, attached at the segment's first
    /// use.
    fn views_for(&self, loc: &ObjectLocation) -> Result<(MappedView, MappedView), PlasmaError> {
        let mut maps = self.mappings.lock();
        let mapping = match maps.entry(loc.seg) {
            Entry::Occupied(known) => known.into_mut(),
            Entry::Vacant(new) => new.insert(self.fabric.attach(self.node, loc.seg)?),
        };
        let data = mapping.view(loc.offset, loc.data_size)?;
        let metadata = mapping.view(loc.offset + loc.data_size, loc.metadata_size)?;
        Ok((data, metadata))
    }

    fn buffer_for(&self, loc: &ObjectLocation) -> Result<ObjectBuffer, PlasmaError> {
        let (data, metadata) = self.views_for(loc)?;
        Ok(ObjectBuffer {
            id: loc.id,
            data,
            metadata,
        })
    }

    /// Create an object of `data_size` + `metadata_size` bytes; returns a
    /// writable builder holding the creator's reference.
    pub fn create(
        &self,
        id: ObjectId,
        data_size: u64,
        metadata_size: u64,
    ) -> Result<ObjectBuilder<'_>, PlasmaError> {
        let create = Request::Create {
            id,
            data_size,
            metadata_size,
        };
        let location = self.request_location(&create.to_frame())?;
        let (data, metadata) = self.views_for(&location)?;
        Ok(ObjectBuilder {
            client: self,
            location,
            data,
            metadata,
            open: true,
        })
    }

    /// Store a whole object. Up to [`INLINE_PUT_MAX`] bytes travel inside
    /// one request, encoded straight from `data` and `metadata`, and the
    /// owning store does the rest; a larger object is created, written
    /// through the fabric mapping and sealed.
    pub fn put(&self, id: ObjectId, data: &[u8], metadata: &[u8]) -> Result<ObjectId, PlasmaError> {
        if data.len() + metadata.len() <= INLINE_PUT_MAX {
            return self
                .request_location(&put_frame(&id, data, metadata))
                .map(|_| id);
        }
        let builder = self.create(id, data.len() as u64, metadata.len() as u64)?;
        if !data.is_empty() {
            builder.write(0, data)?;
        }
        if !metadata.is_empty() {
            builder.write_metadata(0, metadata)?;
        }
        builder.seal()
    }

    /// Batched get with timeout. Each returned buffer holds a store
    /// reference; call [`PlasmaClient::release`] when done reading. Two
    /// or more filled slots form a release group, and each slot the
    /// store pinned in its own table is released by a post (module
    /// docs). A slot whose buffers cannot be mapped fails the call, and
    /// every filled slot's reference goes back first. The request is
    /// written from `ids`, and the answer's locations are read off its
    /// frame.
    pub fn get(
        &self,
        ids: &[ObjectId],
        timeout: Duration,
    ) -> Result<Vec<Option<ObjectBuffer>>, PlasmaError> {
        let timeout_ms = u64::try_from(timeout.as_millis()).unwrap_or(u64::MAX);
        let resp = self.exchange_frame(&get_frame(ids, timeout_ms))?;
        if resp.msg_type != tag::R_LOCATIONS {
            return match Response::from_frame(&resp)? {
                Response::Error(e) => Err(e),
                _ => Err(PlasmaError::Protocol("expected Locations".into())),
            };
        }
        let slots = locations(&resp.payload)?;
        if let Some(c) = &self.cost {
            c.clock.charge(c.per_object * ids.len() as u32);
        }
        let mut bufs = Vec::with_capacity(slots.len());
        let mut fills = 0;
        for slot in slots.clone() {
            let Some(loc) = slot.location() else {
                bufs.push(None);
                continue;
            };
            fills += 1;
            match self.buffer_for(&loc) {
                Ok(buf) => bufs.push(Some(buf)),
                Err(e) => {
                    // Every filled slot's reference goes back, each by
                    // its own way. Best-effort: the mapping error is the
                    // one to report.
                    let mut filled: Vec<ObjectId> = Vec::with_capacity(slots.len());
                    for slot in slots {
                        match (self.postable(slot), slot.location()) {
                            (Some(id), _) => self.ring.post(id),
                            (None, Some(loc)) => filled.push(loc.id),
                            (None, None) => {}
                        }
                    }
                    if !filled.is_empty() {
                        let _ = self.request_unit(Request::Release(filled));
                    }
                    return Err(e);
                }
            }
        }
        let mut held = self.held.lock();
        if fills > 1 {
            let mut filled = Vec::with_capacity(fills);
            filled.extend(bufs.iter().flatten().map(|b| b.id));
            held.groups.open(filled);
        }
        for id in slots.filter_map(|slot| self.postable(slot)) {
            *held.posts.entry(id).or_default() += 1;
        }
        Ok(bufs)
    }

    /// Get a single object, erroring on timeout.
    pub fn get_one(&self, id: ObjectId, timeout: Duration) -> Result<ObjectBuffer, PlasmaError> {
        self.get(&[id], timeout)?
            .pop()
            .flatten()
            .ok_or(PlasmaError::Timeout)
    }

    /// Drop one reference on `id`. A member of a release group but its
    /// last is answered `Ok` at once; the last returns the group's
    /// references. While this client holds a pin on an id in the store's
    /// own table, a release of it is posted to the store's ring,
    /// unanswered and uncharged; the others go in one request (module
    /// docs). References on one immutable object are fungible, so which
    /// of `id`'s pins a release returns is this client's choice.
    pub fn release(&self, id: ObjectId) -> Result<(), PlasmaError> {
        let ids = {
            let mut held = self.held.lock();
            let Some(mut ids) = held.groups.release(id) else {
                return Ok(());
            };
            if ids.is_empty() {
                // No group waits for it: a release of its own.
                let posted = held.take_post(id);
                drop(held);
                if !posted {
                    return self.exchange_unit(&release_frame(&[id]));
                }
                self.ring.post(id);
                return Ok(());
            }
            ids.push(id);
            held.post_here(&self.ring, &mut ids);
            ids
        };
        if ids.is_empty() {
            return Ok(());
        }
        self.exchange_unit(&release_frame(&ids))
    }

    /// Return the releases of `id` this client deferred, before a delete
    /// of it: the caller released it, so the store must not still count
    /// those references.
    fn release_deferred(&self, id: ObjectId) -> Result<(), PlasmaError> {
        let ids = {
            let mut held = self.held.lock();
            let deferred = held.groups.take_deferred(id);
            if deferred == 0 {
                return Ok(());
            }
            let mut ids = vec![id; deferred];
            if self.posts_deferred() {
                held.post_here(&self.ring, &mut ids);
            }
            ids
        };
        if ids.is_empty() {
            return Ok(());
        }
        self.request_unit(Request::Release(ids))
    }

    /// Delete a sealed, unreferenced object.
    pub fn delete(&self, id: ObjectId) -> Result<(), PlasmaError> {
        self.release_deferred(id)?;
        self.request_unit(Request::Delete(id))
    }

    /// Delete as soon as unreferenced: immediately if possible (returns
    /// `true`), otherwise when the last reference is released.
    pub fn delete_deferred(&self, id: ObjectId) -> Result<bool, PlasmaError> {
        self.release_deferred(id)?;
        match self.request(Request::DeleteDeferred(id))? {
            Response::Bool(b) => Ok(b),
            other => Err(PlasmaError::Protocol(format!(
                "expected Bool, got {other:?}"
            ))),
        }
    }

    /// Whether a sealed object with this id exists.
    pub fn contains(&self, id: ObjectId) -> Result<bool, PlasmaError> {
        match self.request(Request::Contains(id))? {
            Response::Bool(b) => Ok(b),
            other => Err(PlasmaError::Protocol(format!(
                "expected Bool, got {other:?}"
            ))),
        }
    }

    /// List all objects in the store.
    pub fn list(&self) -> Result<Vec<ObjectInfo>, PlasmaError> {
        match self.request(Request::List)? {
            Response::List(l) => Ok(l),
            other => Err(PlasmaError::Protocol(format!(
                "expected List, got {other:?}"
            ))),
        }
    }

    /// Store statistics.
    pub fn stats(&self) -> Result<StoreStats, PlasmaError> {
        match self.request(Request::Stats)? {
            Response::Stats(s) => Ok(s),
            other => Err(PlasmaError::Protocol(format!(
                "expected Stats, got {other:?}"
            ))),
        }
    }

    /// Ask the store to evict at least `bytes`; returns bytes reclaimed.
    pub fn evict(&self, bytes: u64) -> Result<u64, PlasmaError> {
        match self.request(Request::Evict(bytes))? {
            Response::U64(v) => Ok(v),
            other => Err(PlasmaError::Protocol(format!(
                "expected U64, got {other:?}"
            ))),
        }
    }
}

impl Drop for PlasmaClient {
    /// Return every open group's deferred releases, each pin here
    /// posted. Members never released stay referenced, as a dropped
    /// buffer's reference does.
    fn drop(&mut self) {
        let posts = self.posts_deferred();
        let held = self.held.get_mut();
        let mut deferred = held.groups.close_all();
        if posts {
            held.post_here(&self.ring, &mut deferred);
        }
        if !deferred.is_empty() {
            // Best-effort: there is no one to report a failure to.
            let _ = self.request_unit(Request::Release(deferred));
        }
    }
}

/// A seal-notification stream (requires its own dedicated connection).
pub struct Notifications {
    conn: Box<dyn Conn>,
}

impl Notifications {
    /// Turn `conn` into a notification stream.
    pub fn subscribe(mut conn: Box<dyn Conn>) -> Result<Self, PlasmaError> {
        conn.send(&Request::Subscribe.to_frame())?;
        let ack = conn.recv()?;
        match Response::from_frame(&ack)? {
            Response::Unit => Ok(Notifications { conn }),
            Response::Error(e) => Err(e),
            other => Err(PlasmaError::Protocol(format!(
                "expected Unit ack, got {other:?}"
            ))),
        }
    }

    /// Block for the next sealed-object notification.
    pub fn recv(&mut self) -> Result<ObjectLocation, PlasmaError> {
        let frame = self.conn.recv()?;
        match Response::from_frame(&frame)? {
            Response::Notify(loc) => Ok(loc),
            other => Err(PlasmaError::Protocol(format!(
                "expected Notify, got {other:?}"
            ))),
        }
    }
}
