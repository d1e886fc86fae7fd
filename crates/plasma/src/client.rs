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
//! References go back under the batch-hold rule ([`ReleaseGroups`]): a
//! `get` that filled two or more slots opens a release group, counted per
//! filled slot. Releasing any member but the last is answered at once,
//! without a request; the last sends the whole group in one `Release`
//! request, so a 32-object batch costs one request to get and one to
//! release. Until then the store still counts every member's reference:
//! another client's `delete` of one reads `ObjectInUse`. This client's
//! own `delete` of an id first sends the releases of it it deferred, and
//! dropping the client sends every group's deferred releases.

use crate::error::PlasmaError;
use crate::id::ObjectId;
use crate::object::{ObjectInfo, ObjectLocation};
use crate::protocol::{put_frame, Request, Response};
use crate::release::ReleaseGroups;
use crate::store::StoreStats;
use ipc::{Conn, Frame};
use netsim::{LinkModel, SharedLink};
use parking_lot::Mutex;
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
    /// Per-request round-trip (Unix-domain-socket-scale by default).
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

/// A Plasma client bound to a node of the fabric.
pub struct PlasmaClient {
    conn: Mutex<Box<dyn Conn>>,
    fabric: Fabric,
    node: NodeId,
    mappings: Mutex<HashMap<SegKey, Mapping>>,
    cost: Option<ClientCost>,
    /// The batch gets whose references are not all released yet.
    groups: Mutex<ReleaseGroups>,
}

impl PlasmaClient {
    /// Wrap an established connection. `node` determines which fabric
    /// access path (local or remote) buffer reads take.
    pub fn new(conn: Box<dyn Conn>, fabric: Fabric, node: NodeId) -> Self {
        Self::with_cost(conn, fabric, node, None)
    }

    /// Like [`PlasmaClient::new`] with modeled IPC costs.
    pub fn with_cost(
        conn: Box<dyn Conn>,
        fabric: Fabric,
        node: NodeId,
        cost: Option<ClientCost>,
    ) -> Self {
        PlasmaClient {
            conn: Mutex::new(conn),
            fabric,
            node,
            mappings: Mutex::new(HashMap::new()),
            cost,
            groups: Mutex::new(ReleaseGroups::default()),
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
        let req_len = frame.payload.len();
        let resp_frame = {
            let mut conn = self.conn.lock();
            conn.send(frame)?;
            conn.recv()?
        };
        if let Some(c) = &self.cost {
            c.clock
                .charge(c.request_link.delay(req_len + resp_frame.payload.len()));
        }
        match Response::from_frame(&resp_frame)? {
            Response::Error(e) => Err(e),
            other => Ok(other),
        }
    }

    fn request_unit(&self, req: Request) -> Result<(), PlasmaError> {
        match self.request(req)? {
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

    fn mapping_for(&self, seg: SegKey) -> Result<Mapping, PlasmaError> {
        let mut maps = self.mappings.lock();
        if let Some(m) = maps.get(&seg) {
            return Ok(m.clone());
        }
        let m = self.fabric.attach(self.node, seg)?;
        maps.insert(seg, m.clone());
        Ok(m)
    }

    fn views_for(&self, loc: &ObjectLocation) -> Result<(MappedView, MappedView), PlasmaError> {
        let mapping = self.mapping_for(loc.seg)?;
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
    /// or more filled slots form a release group (module docs). A slot
    /// whose buffers cannot be mapped fails the call, and every filled
    /// slot's reference goes back first.
    pub fn get(
        &self,
        ids: &[ObjectId],
        timeout: Duration,
    ) -> Result<Vec<Option<ObjectBuffer>>, PlasmaError> {
        let resp = self.request(Request::Get {
            ids: ids.to_vec(),
            timeout_ms: u64::try_from(timeout.as_millis()).unwrap_or(u64::MAX),
        })?;
        let Response::Locations(locs) = resp else {
            return Err(PlasmaError::Protocol("expected Locations".into()));
        };
        if let Some(c) = &self.cost {
            c.clock.charge(c.per_object * ids.len() as u32);
        }
        let bufs: Result<Vec<Option<ObjectBuffer>>, PlasmaError> = locs
            .iter()
            .map(|loc| loc.as_ref().map(|l| self.buffer_for(l)).transpose())
            .collect();
        let filled = || locs.iter().flatten().map(|l| l.id).collect();
        let fills = locs.iter().flatten().count();
        match bufs {
            Err(e) => {
                if fills > 0 {
                    // Best-effort: the mapping error is the one to report.
                    let _ = self.request_unit(Request::Release(filled()));
                }
                Err(e)
            }
            Ok(bufs) => {
                if fills > 1 {
                    self.groups.lock().open(filled());
                }
                Ok(bufs)
            }
        }
    }

    /// Get a single object, erroring on timeout.
    pub fn get_one(&self, id: ObjectId, timeout: Duration) -> Result<ObjectBuffer, PlasmaError> {
        self.get(&[id], timeout)?
            .pop()
            .flatten()
            .ok_or(PlasmaError::Timeout)
    }

    /// Drop one reference on `id`. A member of a release group but its
    /// last is answered `Ok` at once; the last sends the group's
    /// releases in one request (module docs).
    pub fn release(&self, id: ObjectId) -> Result<(), PlasmaError> {
        let Some(mut ids) = self.groups.lock().release(id) else {
            return Ok(());
        };
        ids.push(id);
        self.request_unit(Request::Release(ids))
    }

    /// Send the releases of `id` this client deferred, before a delete
    /// of it: the caller released it, so the store must not still count
    /// those references.
    fn release_deferred(&self, id: ObjectId) -> Result<(), PlasmaError> {
        let held = self.groups.lock().take_deferred(id);
        if held == 0 {
            return Ok(());
        }
        self.request_unit(Request::Release(vec![id; held]))
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
    /// Send every open group's deferred releases. Members never released
    /// stay referenced, as a dropped buffer's reference does.
    fn drop(&mut self) {
        let deferred = self.groups.get_mut().close_all();
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
