//! The Plasma store engine.
//!
//! A [`StoreCore`] is "a memory bookkeeping service for Plasma data
//! objects" (paper §IV-A1): it owns a region of *disaggregated* memory
//! (donated into the fabric at construction), allocates object buffers in
//! it with the size-class [`Slab`] allocator, and tracks object lifecycle —
//! create → write (by the creator, directly through the fabric) → seal →
//! get/release → delete or evict.
//!
//! Semantics mirror Apache Arrow Plasma:
//!
//! * objects are **immutable after seal**; `get` only sees sealed objects;
//! * every client reference pins the object: referenced objects are never
//!   evicted ("in-use objects will not be evicted, because clients might
//!   still be reading from memory");
//! * when an allocation fails, sealed unreferenced objects are evicted in
//!   LRU order until it fits;
//! * `get` can block with a timeout until an object is sealed;
//! * sealing broadcasts a notification to subscribers.
//!
//! ## Concurrency structure (DESIGN.md §14)
//!
//! The paper notes "Mutex functionality was built in to ensure
//! thread-safety": one mutex around the object table. This store is built
//! the same way. One `Mutex<Table>` covers the objects, the LRU list (each
//! evictable object's place in it kept in its entry, so a pin or an unpin
//! hashes the id once), the lifecycle counters and the segment's
//! allocator, and one `Condvar` paired with it wakes blocked `get`s.
//! Payload bytes never pass the lock — clients read and write through
//! the fabric mapping — so every critical section is a metadata edit,
//! and the fastest recorded per-node workload leaves the lock ≥ 96 %
//! idle (EXPERIMENTS.md, "Decision (PR 17)").
//! `plasma.shard.contention` counts the acquisitions that found it held.
//!
//! A release a client posts to the store's [`ReleaseRing`] instead of
//! requesting is applied at the start of the next table access, under
//! the table lock: every acquisition drains the ring first, so a delete,
//! an eviction or an audit that follows a post finds its reference gone.

use crate::error::PlasmaError;
use crate::id::ObjectId;
use crate::lru::Lru;
use crate::object::{GetSlot, ObjectEntry, ObjectInfo, ObjectLocation, ObjectState};
use crate::release::ReleaseRing;
use memalloc::{RegionAllocator, Slab, SIZE_CLASSES};
use obs::{Counter, Gauge, Histogram, Registry};
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::collections::HashMap;
#[cfg(test)]
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tfsim::{Fabric, Mapping, NodeId, SegKey};

/// Store construction parameters.
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Human-readable store name (also the default IPC endpoint name).
    pub name: String,
    /// Bytes of local memory donated to the disaggregated pool and managed
    /// by this store.
    pub memory_bytes: usize,
}

impl StoreConfig {
    pub fn new(name: impl Into<String>, memory_bytes: usize) -> Self {
        StoreConfig {
            name: name.into(),
            memory_bytes,
        }
    }
}

/// Aggregate store statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    pub capacity: u64,
    pub allocated_bytes: u64,
    pub objects: u64,
    pub sealed_objects: u64,
    pub creates: u64,
    pub seals: u64,
    pub gets: u64,
    pub get_misses: u64,
    pub releases: u64,
    pub deletes: u64,
    pub evictions: u64,
    pub evicted_bytes: u64,
}

/// Everything the store's one lock covers: the object table, the LRU
/// list of its evictable entries (each entry keeps its own place in it),
/// and the allocator of the donated segment behind them.
struct Table {
    objects: HashMap<ObjectId, ObjectEntry>,
    lru: Lru,
    /// Lifecycle counters; the capacity fields are filled in by
    /// [`StoreCore::stats`] from the allocator.
    stats: StoreStats,
    alloc: Slab,
    /// The releases taken off the ring, while they are applied; empty
    /// between accesses, its room kept.
    posted: Vec<ObjectId>,
}

impl Table {
    fn allocated_bytes(&self) -> u64 {
        self.alloc.stats().allocated_bytes
    }

    /// Take a reference on `id` for a getter, if a `get` may see it:
    /// pinned objects leave the LRU list, so eviction never meets them.
    /// `seg` is the store's segment.
    fn pin(&mut self, seg: SegKey, id: ObjectId) -> Option<ObjectLocation> {
        let e = self.objects.get_mut(&id).filter(|e| e.visible())?;
        e.ref_count += 1;
        if let Some(slot) = e.lru.take() {
            self.lru.remove(slot);
        }
        let loc = location(seg, id, e);
        self.stats.gets += 1;
        Some(loc)
    }
}

/// Where `e` lives, as handed to clients.
fn location(seg: SegKey, id: ObjectId, e: &ObjectEntry) -> ObjectLocation {
    ObjectLocation {
        id,
        seg,
        offset: e.offset,
        data_size: e.data_size,
        metadata_size: e.metadata_size,
    }
}

/// Pre-registered `obs` handles for the store's hot paths. Wall-clock
/// operation latency plus eviction counters; all recording is
/// atomics-only (the registry is touched once, at construction).
struct StoreMetrics {
    registry: Arc<Registry>,
    create: Arc<Histogram>,
    seal: Arc<Histogram>,
    get: Arc<Histogram>,
    release: Arc<Histogram>,
    evictions: Arc<Counter>,
    evicted_bytes: Arc<Counter>,
    /// Capacity gauges for operators (`METRICS`, `metrics_dump`), kept
    /// in sync with the allocator on every path that changes occupancy.
    /// No protocol reads them: a lender judges its own headroom.
    capacity_bytes: Arc<Gauge>,
    used_bytes: Arc<Gauge>,
    free_bytes: Arc<Gauge>,
    /// `plasma.shard.contention`: table-lock acquisitions that found the
    /// lock held (a `try_lock` miss) — the direct view of table
    /// serialisation. The name predates the single table; benchmarks read
    /// it by string.
    contention: Arc<Counter>,
    /// `plasma.alloc.class.<size>.{live,held}_bytes`: per-size-class
    /// occupancy (parallel to `memalloc::SIZE_CLASSES`).
    class_gauges: Vec<(Arc<Gauge>, Arc<Gauge>)>,
}

impl StoreMetrics {
    fn new(registry: Arc<Registry>) -> StoreMetrics {
        let class_gauges = SIZE_CLASSES
            .iter()
            .map(|c| {
                (
                    registry.gauge(&format!("plasma.alloc.class.{c}.live_bytes")),
                    registry.gauge(&format!("plasma.alloc.class.{c}.held_bytes")),
                )
            })
            .collect();
        StoreMetrics {
            create: registry.histogram("plasma.create.latency_ns"),
            seal: registry.histogram("plasma.seal.latency_ns"),
            get: registry.histogram("plasma.get.latency_ns"),
            release: registry.histogram("plasma.release.latency_ns"),
            evictions: registry.counter("plasma.evictions"),
            evicted_bytes: registry.counter("plasma.evicted_bytes"),
            capacity_bytes: registry.gauge("plasma.capacity_bytes"),
            used_bytes: registry.gauge("plasma.used_bytes"),
            free_bytes: registry.gauge("plasma.free_bytes"),
            contention: registry.counter("plasma.shard.contention"),
            class_gauges,
            registry,
        }
    }

    /// Refresh the capacity and per-class occupancy gauges from the
    /// allocator state. Called once by every call that changes occupancy
    /// — however many victims it evicted on the way — under the table
    /// lock, so it allocates nothing.
    fn sync_capacity(&self, t: &Table) {
        let capacity = t.alloc.capacity() as i64;
        let used = t.allocated_bytes() as i64;
        self.capacity_bytes.set(capacity);
        self.used_bytes.set(used);
        self.free_bytes.set(capacity - used);
        for ((live, held), occ) in self.class_gauges.iter().zip(t.alloc.class_occupancy()) {
            live.set(occ.live_bytes as i64);
            held.set(occ.held_bytes as i64);
        }
    }
}

struct Inner {
    name: String,
    node: NodeId,
    fabric: Fabric,
    /// This node's mapping of the segment the store donated, attached
    /// once, at construction: every object is written through it.
    mapping: Mapping,
    /// This node's mappings of other nodes' segments, each attached at
    /// its first use and kept: a segment is never taken back.
    peer_mappings: Mutex<HashMap<SegKey, Mapping>>,
    table: Mutex<Table>,
    /// Signalled by every seal; blocked `get_wait`s sleep on it under
    /// the table lock. A seal with nobody asleep costs no system call.
    sealed: Condvar,
    subscribers: Mutex<Vec<Sender<ObjectLocation>>>,
    /// The releases the store's clients post: drained at every table
    /// access, under the table lock.
    ring: ReleaseRing,
    metrics: StoreMetrics,
    /// A mutant whose table access skips the drain, so a test can show
    /// that it depends on the drain.
    #[cfg(test)]
    skip_drain: AtomicBool,
}

/// The store engine. Cheap to clone (shared handle).
#[derive(Clone)]
pub struct StoreCore {
    inner: Arc<Inner>,
}

impl StoreCore {
    /// Create a store on `node`, donating `config.memory_bytes` into the
    /// fabric.
    pub fn new(fabric: &Fabric, node: NodeId, config: StoreConfig) -> Result<Self, PlasmaError> {
        let seg = fabric.donate(node, config.memory_bytes)?;
        let mapping = fabric.attach(node, seg)?;
        let capacity = config.memory_bytes as u64;
        let metrics = StoreMetrics::new(Registry::new());
        metrics.capacity_bytes.set(capacity as i64);
        metrics.free_bytes.set(capacity as i64);
        Ok(StoreCore {
            inner: Arc::new(Inner {
                name: config.name,
                node,
                fabric: fabric.clone(),
                mapping,
                peer_mappings: Mutex::new(HashMap::new()),
                table: Mutex::new(Table {
                    objects: HashMap::new(),
                    lru: Lru::new(),
                    stats: StoreStats::default(),
                    alloc: Slab::new(capacity),
                    posted: Vec::new(),
                }),
                sealed: Condvar::new(),
                subscribers: Mutex::new(Vec::new()),
                ring: ReleaseRing::new(seg),
                metrics,
                #[cfg(test)]
                skip_drain: Default::default(),
            }),
        })
    }

    /// The store's name.
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// The node-wide metrics registry. The store registers its own
    /// `plasma.*` metrics here; higher layers (disagg, rpclite clients)
    /// register theirs in the same registry so one snapshot covers the
    /// whole node.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.inner.metrics.registry
    }

    /// The node this store runs on.
    pub fn node(&self) -> NodeId {
        self.inner.node
    }

    /// The store's release ring, which its clients are handed when
    /// they are built.
    pub fn release_ring(&self) -> ReleaseRing {
        self.inner.ring.clone()
    }

    /// Lock the table, counting contended acquisitions, and apply every
    /// release posted to the ring before anything else reads it.
    fn table(&self) -> MutexGuard<'_, Table> {
        let mut t = match self.inner.table.try_lock() {
            Some(g) => g,
            None => {
                self.inner.metrics.contention.inc();
                self.inner.table.lock()
            }
        };
        self.drain_posted(&mut t);
        t
    }

    /// Apply the releases posted to the ring. A posted release returns a
    /// pin this table holds for its client, so it cannot fail, and has
    /// nobody to report to if it did.
    fn drain_posted(&self, t: &mut Table) {
        #[cfg(test)]
        if self.inner.skip_drain.load(Ordering::Relaxed) {
            return;
        }
        if !self.inner.ring.take(&mut t.posted) {
            return;
        }
        let mut posted = std::mem::take(&mut t.posted);
        for id in posted.drain(..) {
            let released = self.unpin(t, id);
            debug_assert!(released.is_ok(), "a posted release of {id}: {released:?}");
        }
        t.posted = posted;
    }

    /// Make every later table access skip the drain.
    #[cfg(test)]
    pub(crate) fn skip_drain(&self) {
        self.inner.skip_drain.store(true, Ordering::Relaxed);
    }

    /// The segment the store donated, which holds every object.
    pub fn seg_key(&self) -> SegKey {
        self.inner.mapping.key()
    }

    /// The fabric this store participates in.
    pub fn fabric(&self) -> &Fabric {
        &self.inner.fabric
    }

    /// A local mapping of the store's segment (owner path).
    pub fn local_mapping(&self) -> Result<Mapping, PlasmaError> {
        Ok(self.inner.mapping.clone())
    }

    /// This node's mapping of the segment holding `loc`, whichever node
    /// donated it. Each segment is attached once, at its first use.
    pub fn mapping_for(&self, loc: &ObjectLocation) -> Result<Mapping, PlasmaError> {
        if loc.seg == self.inner.mapping.key() {
            return Ok(self.inner.mapping.clone());
        }
        let mut peers = self.inner.peer_mappings.lock();
        if let Some(mapping) = peers.get(&loc.seg) {
            return Ok(mapping.clone());
        }
        let mapping = self.inner.fabric.attach(self.inner.node, loc.seg)?;
        peers.insert(loc.seg, mapping.clone());
        Ok(mapping)
    }

    /// Allocate a new object. The creator holds one reference and must
    /// write the buffer (through the fabric) and then [`StoreCore::seal`].
    /// Uniqueness, allocation (with any eviction it needs) and the insert
    /// are one critical section: a create refused as a duplicate has
    /// evicted nothing. Sizes arrive from clients and peers, so a sum
    /// that overflows is refused before the table is touched.
    pub fn create(
        &self,
        id: ObjectId,
        data_size: u64,
        metadata_size: u64,
    ) -> Result<ObjectLocation, PlasmaError> {
        let t0 = Instant::now();
        let overflow = || PlasmaError::Protocol("data + metadata size overflows u64".into());
        let total = data_size.checked_add(metadata_size).ok_or_else(overflow)?;
        let mut t = self.table();
        if t.objects.contains_key(&id) {
            return Err(PlasmaError::ObjectExists(id));
        }
        let placed = self.allocate(&mut t, total);
        // Once, for whatever it evicted, whether or not it fit.
        self.inner.metrics.sync_capacity(&t);
        let entry = ObjectEntry {
            offset: placed?,
            data_size,
            metadata_size,
            state: ObjectState::Created,
            ref_count: 1,
            pending_deletion: false,
            lru: None,
        };
        let loc = location(self.seg_key(), id, &entry);
        t.objects.insert(id, entry);
        t.stats.creates += 1;
        t.stats.objects += 1;
        drop(t);
        self.inner.metrics.create.record_duration(t0.elapsed());
        Ok(loc)
    }

    /// Find room for `total` bytes, evicting the LRU victim until it fits
    /// or nothing is left to evict. Returns the offset within the segment.
    fn allocate(&self, t: &mut Table, total: u64) -> Result<u64, PlasmaError> {
        let size = total.max(1);
        loop {
            if let Ok(offset) = t.alloc.alloc(size) {
                return Ok(offset);
            }
            if self.evict_one(t).is_none() {
                return Err(PlasmaError::OutOfMemory {
                    requested: total,
                    capacity: t.alloc.capacity(),
                });
            }
        }
    }

    /// Seal an object: it becomes immutable and visible to `get`. Wakes
    /// blocked getters and notifies subscribers.
    pub fn seal(&self, id: ObjectId) -> Result<ObjectLocation, PlasmaError> {
        let t0 = Instant::now();
        let loc = {
            let mut guard = self.table();
            let t = &mut *guard;
            let entry = t
                .objects
                .get_mut(&id)
                .ok_or(PlasmaError::ObjectNotFound(id))?;
            match entry.state {
                ObjectState::Sealed => return Err(PlasmaError::AlreadySealed(id)),
                ObjectState::Created if entry.pending_deletion => {
                    return Err(PlasmaError::ObjectNotFound(id))
                }
                ObjectState::Created => entry.state = ObjectState::Sealed,
            }
            t.stats.seals += 1;
            t.stats.sealed_objects += 1;
            location(self.seg_key(), id, entry)
        };
        // The state flipped under the lock `get_wait` scans and waits
        // under, so every waiter either saw it or is already asleep.
        self.inner.sealed.notify_all();
        // Notify subscribers; drop hung-up ones.
        self.inner
            .subscribers
            .lock()
            .retain(|tx| tx.send(loc).is_ok());
        self.inner.metrics.seal.record_duration(t0.elapsed());
        Ok(loc)
    }

    /// Store a whole object the caller already holds: create, write
    /// `data` then `metadata` through the local mapping, seal, and drop
    /// the creator's reference — what a client's create → write → seal →
    /// release amounts to, in one call on the node whose memory it is.
    /// Returns the sealed location. A failed write aborts the create.
    pub fn put(
        &self,
        id: ObjectId,
        data: &[u8],
        metadata: &[u8],
    ) -> Result<ObjectLocation, PlasmaError> {
        self.create_filled(id, data, metadata)?;
        let sealed = self.seal(id)?;
        self.release(id)?;
        Ok(sealed)
    }

    /// [`StoreCore::put`] up to the seal: the object is created holding
    /// `data` then `metadata`, still unsealed and invisible to `get`, and
    /// the creator's reference is the caller's, to seal (or abort) and
    /// release — or to keep. A failed write aborts the create.
    pub fn create_filled(
        &self,
        id: ObjectId,
        data: &[u8],
        metadata: &[u8],
    ) -> Result<ObjectLocation, PlasmaError> {
        self.fill_with(id, data.len() as u64, metadata.len() as u64, |map, loc| {
            if !data.is_empty() {
                map.write_at(loc.offset, data)?;
            }
            if !metadata.is_empty() {
                map.write_at(loc.offset + loc.data_size, metadata)?;
            }
            Ok(())
        })
    }

    /// [`StoreCore::create_filled`] with the write as a parameter, so a
    /// test can make it fail.
    fn fill_with(
        &self,
        id: ObjectId,
        data_size: u64,
        metadata_size: u64,
        fill: impl FnOnce(&Mapping, &ObjectLocation) -> Result<(), PlasmaError>,
    ) -> Result<ObjectLocation, PlasmaError> {
        let loc = self.create(id, data_size, metadata_size)?;
        if let Err(e) = fill(&self.inner.mapping, &loc) {
            let _ = self.abort(id);
            return Err(e);
        }
        Ok(loc)
    }

    /// Non-blocking lookup of a sealed object. On success the caller gains
    /// a reference (pinning the object against eviction).
    pub fn get_local(&self, id: ObjectId) -> Option<ObjectLocation> {
        let t0 = Instant::now();
        let mut t = self.table();
        let Some(loc) = t.pin(self.seg_key(), id) else {
            t.stats.get_misses += 1;
            return None;
        };
        drop(t);
        self.inner.metrics.get.record_duration(t0.elapsed());
        Some(loc)
    }

    /// Pin a sealed object whose deferred delete still waits on its
    /// readers: one more reader of bytes that stay until the last one
    /// releases. `None` for any other object. A store that handed an
    /// object to another node while readers held its copy uses it, so
    /// that those readers' next reads of the id find the same copy.
    pub fn get_pending(&self, id: ObjectId) -> Option<ObjectLocation> {
        let mut t = self.table();
        let e = t.objects.get_mut(&id)?;
        if !(e.pending_deletion && e.state == ObjectState::Sealed && e.ref_count > 0) {
            return None;
        }
        e.ref_count += 1;
        Some(location(self.seg_key(), id, e))
    }

    /// Blocking batched get: waits up to `timeout` for each id to be
    /// sealed. Returns locations in request order (`None` = not available
    /// in time). Each `Some` carries a reference the caller must release.
    pub fn get_wait(&self, ids: &[ObjectId], timeout: Duration) -> Vec<Option<ObjectLocation>> {
        let mut out = Vec::with_capacity(ids.len());
        self.get_wait_into(ids, timeout, &mut out);
        // In place: a slot and an optional location take the same room.
        out.into_iter().map(GetSlot::location).collect()
    }

    /// [`StoreCore::get_wait`] into `out`, which is cleared and given one
    /// slot per id, each filled slot pinned here: a caller that keeps
    /// `out` across gets allocates nothing once it has held the largest
    /// batch.
    pub fn get_wait_into(&self, ids: &[ObjectId], timeout: Duration, out: &mut Vec<GetSlot>) {
        let t0 = Instant::now();
        let deadline = t0 + timeout;
        out.clear();
        out.resize(ids.len(), GetSlot::Empty);
        let mut t = self.table();
        loop {
            let mut missing = 0u64;
            for (slot, id) in out.iter_mut().zip(ids) {
                if slot.is_empty() {
                    let pinned = t.pin(self.seg_key(), *id);
                    *slot = pinned.map_or(GetSlot::Empty, GetSlot::PinnedHere);
                    missing += u64::from(slot.is_empty());
                }
            }
            let now = Instant::now();
            if missing == 0 || now >= deadline {
                t.stats.get_misses += missing;
                break;
            }
            // Sleep until a seal or the deadline; either way scan once
            // more. The wait releases the lock the scan ran under, and
            // `seal` needs that lock: no seal falls between the two.
            let _ = self.inner.sealed.wait_for(&mut t, deadline - now);
        }
        drop(t);
        self.inner.metrics.get.record_duration(t0.elapsed());
    }

    /// Drop one reference. When the last reference is gone the object
    /// becomes evictable, or is freed if it was deleted or hidden.
    pub fn release(&self, id: ObjectId) -> Result<(), PlasmaError> {
        let t0 = Instant::now();
        let mut t = self.table();
        self.unpin(&mut t, id)?;
        drop(t);
        self.inner.metrics.release.record_duration(t0.elapsed());
        Ok(())
    }

    /// [`StoreCore::release`] under the table lock: a request's release
    /// and a posted one.
    fn unpin(&self, t: &mut Table, id: ObjectId) -> Result<(), PlasmaError> {
        let entry = t
            .objects
            .get_mut(&id)
            .ok_or(PlasmaError::ObjectNotFound(id))?;
        if entry.ref_count == 0 {
            return Err(PlasmaError::NotReferenced(id));
        }
        entry.ref_count -= 1;
        let sealed = entry.state == ObjectState::Sealed;
        match (entry.ref_count, entry.pending_deletion) {
            (0, true) => {
                self.drop_object(t, id);
                t.stats.deletes += u64::from(sealed);
            }
            (0, false) if sealed => {
                // Referenced until now, so not a member: a get's pin
                // takes it out of the list.
                debug_assert!(entry.lru.is_none(), "a referenced object is not evictable");
                entry.lru = Some(t.lru.push(id));
            }
            _ => {}
        }
        t.stats.releases += 1;
        Ok(())
    }

    /// Delete a sealed, unreferenced object, freeing its memory.
    pub fn delete(&self, id: ObjectId) -> Result<(), PlasmaError> {
        let mut t = self.table();
        let entry = t.objects.get(&id).ok_or(PlasmaError::ObjectNotFound(id))?;
        if entry.ref_count > 0 {
            return Err(PlasmaError::ObjectInUse(id));
        }
        if entry.state != ObjectState::Sealed {
            return Err(PlasmaError::NotSealed(id));
        }
        self.drop_object(&mut t, id);
        t.stats.deletes += 1;
        Ok(())
    }

    /// Delete a sealed object as soon as it is no longer referenced: if it
    /// is unreferenced now, delete immediately (returns `true`); otherwise
    /// hide it from new `get`s and drop it when its last reference is
    /// released (returns `false`). Mirrors Arrow Plasma's deferred Delete.
    pub fn delete_deferred(&self, id: ObjectId) -> Result<bool, PlasmaError> {
        let mut guard = self.table();
        let t = &mut *guard;
        let entry = t
            .objects
            .get_mut(&id)
            .ok_or(PlasmaError::ObjectNotFound(id))?;
        if entry.state != ObjectState::Sealed {
            return Err(PlasmaError::NotSealed(id));
        }
        if entry.ref_count == 0 {
            self.drop_object(t, id);
            t.stats.deletes += 1;
            Ok(true)
        } else {
            entry.pending_deletion = true;
            if let Some(slot) = entry.lru.take() {
                t.lru.remove(slot);
            }
            Ok(false)
        }
    }

    /// Hide an object the caller created but has not sealed, for good:
    /// it is never sealed here and no `get` or subscriber ever sees it,
    /// and its buffer is freed when its last reference is released —
    /// not before, so whoever still maps it keeps valid memory. What a
    /// creator keeps of an object its owner sealed from this copy.
    pub fn hide(&self, id: ObjectId) -> Result<(), PlasmaError> {
        let mut t = self.table();
        let entry = t
            .objects
            .get_mut(&id)
            .ok_or(PlasmaError::ObjectNotFound(id))?;
        if entry.state != ObjectState::Created {
            return Err(PlasmaError::AlreadySealed(id));
        }
        entry.pending_deletion = true;
        Ok(())
    }

    /// Abort an object the caller created but has not sealed: frees the
    /// allocation. (Plasma's `Abort`.)
    pub fn abort(&self, id: ObjectId) -> Result<(), PlasmaError> {
        let mut t = self.table();
        let entry = t.objects.get(&id).ok_or(PlasmaError::ObjectNotFound(id))?;
        if entry.state != ObjectState::Created {
            return Err(PlasmaError::AlreadySealed(id));
        }
        self.drop_object(&mut t, id);
        Ok(())
    }

    /// Remove `id` from the table, free its buffer and refresh the
    /// capacity gauges. Returns the bytes the object occupied (0 if it
    /// was not there).
    fn drop_object(&self, t: &mut Table, id: ObjectId) -> u64 {
        let bytes = Self::unlink(t, id);
        self.inner.metrics.sync_capacity(t);
        bytes
    }

    /// [`StoreCore::drop_object`] less the gauge refresh, for a caller
    /// that may drop several objects and refreshes once itself.
    fn unlink(t: &mut Table, id: ObjectId) -> u64 {
        let Some(mut entry) = t.objects.remove(&id) else {
            return 0;
        };
        if let Some(slot) = entry.lru.take() {
            t.lru.remove(slot);
        }
        t.alloc
            .free(entry.offset)
            .expect("object table and allocator agree");
        if entry.state == ObjectState::Sealed {
            t.stats.sealed_objects -= 1;
        }
        t.stats.objects -= 1;
        entry.total_size()
    }

    /// Evict the least-recently-used evictable object. Returns the
    /// evicted bytes, or `None` if nothing is evictable. The caller
    /// refreshes the capacity gauges when it is done evicting.
    fn evict_one(&self, t: &mut Table) -> Option<u64> {
        let id = t.lru.coldest()?;
        let bytes = Self::unlink(t, id);
        t.stats.evictions += 1;
        t.stats.evicted_bytes += bytes;
        self.inner.metrics.evictions.inc();
        self.inner.metrics.evicted_bytes.add(bytes);
        Some(bytes)
    }

    /// Evict until at least `bytes` have been reclaimed (or nothing is
    /// evictable). Returns the number of bytes reclaimed.
    pub fn evict(&self, bytes: u64) -> u64 {
        let mut t = self.table();
        let mut reclaimed = 0u64;
        while reclaimed < bytes {
            match self.evict_one(&mut t) {
                Some(b) => reclaimed += b,
                None => break,
            }
        }
        self.inner.metrics.sync_capacity(&t);
        reclaimed
    }

    /// Non-pinning lookup of a sealed object: returns its location without
    /// taking a reference. Used for contains-style interconnect queries;
    /// the returned location may be evicted at any time.
    pub fn peek(&self, id: ObjectId) -> Option<ObjectLocation> {
        let t = self.table();
        let e = t.objects.get(&id).filter(|e| e.visible())?;
        Some(location(self.seg_key(), id, e))
    }

    /// Location of a created-but-unsealed object that is not hidden —
    /// where its creator wrote it. A creator offers it to the id's owner
    /// to adopt.
    pub fn peek_unsealed(&self, id: ObjectId) -> Option<ObjectLocation> {
        let t = self.table();
        match t.objects.get(&id) {
            Some(e) if e.state == ObjectState::Created && !e.pending_deletion => {
                Some(location(self.seg_key(), id, e))
            }
            _ => None,
        }
    }

    /// Whether a *sealed* object with this id exists (Plasma `Contains`).
    pub fn contains(&self, id: ObjectId) -> bool {
        self.table()
            .objects
            .get(&id)
            .is_some_and(ObjectEntry::visible)
    }

    /// Whether the id exists in any state (used for id-uniqueness checks).
    pub fn exists_any_state(&self, id: ObjectId) -> bool {
        self.table().objects.contains_key(&id)
    }

    /// List all objects, sorted by id: one consistent snapshot.
    pub fn list(&self) -> Vec<ObjectInfo> {
        let mut v: Vec<ObjectInfo> = self
            .table()
            .objects
            .iter()
            .map(|(&id, e)| ObjectInfo {
                id,
                data_size: e.data_size,
                metadata_size: e.metadata_size,
                state: e.state,
                ref_count: e.ref_count,
            })
            .collect();
        v.sort_by_key(|o| o.id);
        v
    }

    /// Subscribe to seal notifications.
    pub fn subscribe(&self) -> Receiver<ObjectLocation> {
        let (tx, rx) = channel();
        self.inner.subscribers.lock().push(tx);
        rx
    }

    /// Current statistics: one consistent snapshot of the lifecycle
    /// counters and the allocator's capacity fields.
    pub fn stats(&self) -> StoreStats {
        let t = self.table();
        StoreStats {
            capacity: t.alloc.capacity(),
            allocated_bytes: t.allocated_bytes(),
            ..t.stats
        }
    }

    /// Up to `max` eviction candidates, coldest first: sealed,
    /// unreferenced objects in LRU order, with their total sizes.
    /// This is the spill picker's menu — the same objects plain eviction
    /// would destroy, offered for relocation instead. Read-only;
    /// membership may change the moment the lock drops.
    pub fn cold_candidates(&self, max: usize) -> Vec<(ObjectId, u64)> {
        let t = self.table();
        t.lru
            .iter()
            .take(max)
            .map(|id| (id, t.objects.get(&id).map_or(0, ObjectEntry::total_size)))
            .collect()
    }
}

impl std::fmt::Debug for StoreCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StoreCore")
            .field("name", &self.inner.name)
            .field("node", &self.inner.node)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store(bytes: usize) -> StoreCore {
        let fabric = Fabric::virtual_thymesisflow();
        let node = fabric.register_node();
        StoreCore::new(&fabric, node, StoreConfig::new("test", bytes)).unwrap()
    }

    fn id(n: u8) -> ObjectId {
        ObjectId::from_bytes([n; 20])
    }

    #[test]
    fn create_write_seal_get_roundtrip() {
        let s = store(1 << 20);
        let loc = s.create(id(1), 11, 0).unwrap();
        let map = s.local_mapping().unwrap();
        map.write_at(loc.offset, b"hello world").unwrap();
        s.seal(id(1)).unwrap();
        let got = s.get_local(id(1)).unwrap();
        assert_eq!(got.id, id(1));
        assert_eq!(got.seg, s.seg_key());
        assert_eq!(got.offset, loc.offset);
        assert_eq!(got.data_size, 11);
        assert_eq!(got.metadata_size, 0);
        assert_eq!(map.read_vec(got.offset, 11).unwrap(), b"hello world");
    }

    #[test]
    fn put_leaves_a_sealed_unreferenced_object() {
        let s = store(1 << 20);
        let loc = s.put(id(1), b"hello", b"md").unwrap();
        assert_eq!((loc.data_size, loc.metadata_size), (5, 2));
        assert_eq!(s.peek(id(1)), Some(loc));
        let info = s.list().pop().unwrap();
        assert_eq!(info.state, ObjectState::Sealed);
        assert_eq!(info.ref_count, 0, "the creator's reference is gone");
        let map = s.local_mapping().unwrap();
        assert_eq!(map.read_vec(loc.offset, 7).unwrap(), b"hellomd");
        // Sealed and unreferenced: deletable at once, like any put.
        assert_eq!(
            s.put(id(1), b"other", &[]).unwrap_err(),
            PlasmaError::ObjectExists(id(1))
        );
        s.delete(id(1)).unwrap();
        // A zero-byte object is an object.
        s.put(id(2), &[], &[]).unwrap();
        assert!(s.contains(id(2)));
    }

    #[test]
    fn put_whose_fill_fails_leaves_nothing() {
        let s = store(1 << 20);
        let err = s
            .fill_with(id(1), 4096, 0, |_, _| Err(PlasmaError::Fabric("no".into())))
            .unwrap_err();
        assert_eq!(err, PlasmaError::Fabric("no".into()));
        assert!(!s.exists_any_state(id(1)));
        let st = s.stats();
        assert_eq!((st.objects, st.allocated_bytes, st.seals), (0, 0, 0));
        // The id is free again.
        s.put(id(1), b"x", &[]).unwrap();
    }

    #[test]
    fn duplicate_create_rejected() {
        let s = store(1 << 20);
        s.create(id(1), 10, 0).unwrap();
        assert_eq!(
            s.create(id(1), 10, 0).unwrap_err(),
            PlasmaError::ObjectExists(id(1))
        );
    }

    #[test]
    fn unsealed_objects_are_invisible_to_get() {
        let s = store(1 << 20);
        s.create(id(1), 10, 0).unwrap();
        assert!(s.get_local(id(1)).is_none());
        assert!(!s.contains(id(1)));
        assert!(s.exists_any_state(id(1)));
        s.seal(id(1)).unwrap();
        assert!(s.contains(id(1)));
        assert!(s.get_local(id(1)).is_some());
    }

    #[test]
    fn double_seal_rejected() {
        let s = store(1 << 20);
        s.create(id(1), 10, 0).unwrap();
        s.seal(id(1)).unwrap();
        assert_eq!(
            s.seal(id(1)).unwrap_err(),
            PlasmaError::AlreadySealed(id(1))
        );
    }

    #[test]
    fn seal_missing_rejected() {
        let s = store(1 << 20);
        assert_eq!(
            s.seal(id(9)).unwrap_err(),
            PlasmaError::ObjectNotFound(id(9))
        );
    }

    #[test]
    fn metadata_is_accounted() {
        let s = store(1 << 20);
        let loc = s.create(id(1), 100, 28).unwrap();
        assert_eq!(loc.data_size, 100);
        assert_eq!(loc.metadata_size, 28);
        assert_eq!(loc.total_size(), 128);
    }

    #[test]
    fn release_and_delete_lifecycle() {
        let s = store(1 << 20);
        s.create(id(1), 10, 0).unwrap();
        s.seal(id(1)).unwrap();
        // refcount: creator=1
        assert_eq!(
            s.delete(id(1)).unwrap_err(),
            PlasmaError::ObjectInUse(id(1))
        );
        s.release(id(1)).unwrap();
        s.delete(id(1)).unwrap();
        assert!(!s.contains(id(1)));
        assert_eq!(s.stats().allocated_bytes, 0);
    }

    #[test]
    fn release_underflow_rejected() {
        let s = store(1 << 20);
        s.create(id(1), 10, 0).unwrap();
        s.seal(id(1)).unwrap();
        s.release(id(1)).unwrap();
        assert_eq!(
            s.release(id(1)).unwrap_err(),
            PlasmaError::NotReferenced(id(1))
        );
    }

    #[test]
    fn delete_unsealed_rejected_but_abort_works() {
        let s = store(1 << 20);
        s.create(id(1), 10, 0).unwrap();
        // Creator still holds a ref, and it's unsealed.
        assert_eq!(
            s.delete(id(1)).unwrap_err(),
            PlasmaError::ObjectInUse(id(1))
        );
        s.abort(id(1)).unwrap();
        assert!(!s.exists_any_state(id(1)));
        // Abort of a sealed object is rejected.
        s.create(id(2), 10, 0).unwrap();
        s.seal(id(2)).unwrap();
        assert_eq!(
            s.abort(id(2)).unwrap_err(),
            PlasmaError::AlreadySealed(id(2))
        );
    }

    #[test]
    fn deferred_delete_waits_for_last_reference() {
        let s = store(1 << 20);
        s.create(id(1), 100, 0).unwrap();
        s.seal(id(1)).unwrap(); // creator ref held
        let g = s.get_local(id(1)).unwrap(); // second ref
        let _ = g;
        // Deferred: both refs still out, so not deleted yet...
        assert!(!s.delete_deferred(id(1)).unwrap());
        // ...and the object is hidden from new gets and contains.
        assert!(!s.contains(id(1)));
        assert!(s.get_local(id(1)).is_none());
        assert!(s.peek(id(1)).is_none());
        // First release: still one ref out.
        s.release(id(1)).unwrap();
        assert!(s.exists_any_state(id(1)));
        // Last release: dropped.
        s.release(id(1)).unwrap();
        assert!(!s.exists_any_state(id(1)));
        assert_eq!(s.stats().deletes, 1);
        assert_eq!(s.stats().allocated_bytes, 0);
    }

    #[test]
    fn deferred_delete_of_unreferenced_object_is_immediate() {
        let s = store(1 << 20);
        s.create(id(1), 100, 0).unwrap();
        s.seal(id(1)).unwrap();
        s.release(id(1)).unwrap();
        assert!(s.delete_deferred(id(1)).unwrap());
        assert!(!s.exists_any_state(id(1)));
    }

    #[test]
    fn deferred_delete_errors_match_delete() {
        let s = store(1 << 20);
        assert_eq!(
            s.delete_deferred(id(9)).unwrap_err(),
            PlasmaError::ObjectNotFound(id(9))
        );
        s.create(id(1), 10, 0).unwrap();
        assert_eq!(
            s.delete_deferred(id(1)).unwrap_err(),
            PlasmaError::NotSealed(id(1))
        );
    }

    #[test]
    fn eviction_reclaims_lru_unreferenced() {
        // Three 256 KiB objects (an exact slab class) fill the store.
        let s = store(768 << 10);
        for n in 1..=3u8 {
            s.create(id(n), 256 << 10, 0).unwrap();
            s.seal(id(n)).unwrap();
            s.release(id(n)).unwrap(); // make evictable
        }
        // Touch object 1 so object 2 is LRU.
        let g = s.get_local(id(1)).unwrap();
        s.release(g.id).unwrap();
        // A fourth object forces eviction of id(2).
        s.create(id(4), 256 << 10, 0).unwrap();
        assert!(s.contains(id(1)));
        assert!(!s.contains(id(2)), "LRU object should be evicted");
        assert!(s.contains(id(3)));
        assert_eq!(s.stats().evictions, 1);
    }

    #[test]
    fn referenced_objects_survive_eviction_pressure() {
        let s = store(1 << 20);
        s.create(id(1), 700 << 10, 0).unwrap();
        s.seal(id(1)).unwrap(); // creator ref still held -> pinned
        let err = s.create(id(2), 700 << 10, 0).unwrap_err();
        assert!(matches!(err, PlasmaError::OutOfMemory { .. }));
        assert!(s.contains(id(1)));
    }

    #[test]
    fn all_pinned_returns_oom_instead_of_looping() {
        let s = store(1 << 20);
        // Several sealed objects, every one still referenced: the LRU
        // index is empty, so an impossible allocation must fail fast
        // with OutOfMemory instead of spinning in the eviction loop.
        for n in 1..=3u8 {
            s.create(id(n), 200 << 10, 0).unwrap();
            s.seal(id(n)).unwrap(); // creator ref retained -> pinned
        }
        let start = Instant::now();
        let err = s.create(id(9), 700 << 10, 0).unwrap_err();
        assert!(
            matches!(err, PlasmaError::OutOfMemory { .. }),
            "got {err:?}"
        );
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "OOM must be immediate, not a loop"
        );
        let st = s.stats();
        assert_eq!(st.evictions, 0);
        assert_eq!(st.evicted_bytes, 0);
        for n in 1..=3u8 {
            assert!(s.contains(id(n)), "pinned object {n} must survive");
        }
    }

    #[test]
    fn eviction_order_stable_under_reinsertion() {
        let s = store(768 << 10);
        for n in 1..=3u8 {
            s.create(id(n), 256 << 10, 0).unwrap();
            s.seal(id(n)).unwrap();
            s.release(id(n)).unwrap();
        }
        // Re-pin and re-release object 1: it must move to the MRU end,
        // leaving object 2 as the eviction victim.
        s.get_local(id(1)).unwrap();
        s.release(id(1)).unwrap();
        s.create(id(4), 256 << 10, 0).unwrap();
        assert!(!s.contains(id(2)), "oldest untouched object evicted first");
        assert!(s.contains(id(1)) && s.contains(id(3)));
        // Next eviction takes object 3, then object 1 — the re-inserted
        // object is evicted last.
        assert_eq!(s.evict(1), 256 << 10);
        assert!(!s.contains(id(3)));
        assert!(s.contains(id(1)));
        assert_eq!(s.evict(1), 256 << 10);
        assert!(!s.contains(id(1)));
    }

    #[test]
    fn eviction_metrics_match_stats_and_each_other() {
        let s = store(1 << 20);
        for n in 1..=3u8 {
            s.create(id(n), 200 << 10, 0).unwrap();
            s.seal(id(n)).unwrap();
            s.release(id(n)).unwrap();
        }
        let reclaimed = s.evict(350 << 10); // pops two 200 KiB objects
        assert_eq!(reclaimed, 400 << 10);
        let st = s.stats();
        assert_eq!(st.evictions, 2);
        assert_eq!(st.evicted_bytes, 400 << 10);
        // The obs counters must agree exactly with the store stats.
        let snap = s.registry().snapshot();
        assert_eq!(snap.counter("plasma.evictions"), st.evictions);
        assert_eq!(snap.counter("plasma.evicted_bytes"), st.evicted_bytes);
    }

    #[test]
    fn capacity_gauges_track_occupancy() {
        let s = store(1 << 20);
        let snap = s.registry().snapshot();
        assert_eq!(snap.gauge("plasma.capacity_bytes"), 1 << 20);
        assert_eq!(snap.gauge("plasma.used_bytes"), 0);
        assert_eq!(snap.gauge("plasma.free_bytes"), 1 << 20);

        s.create(id(1), 4096, 0).unwrap();
        let snap = s.registry().snapshot();
        let used = snap.gauge("plasma.used_bytes");
        assert!(used >= 4096, "used={used}");
        assert_eq!(snap.gauge("plasma.free_bytes"), (1 << 20) - used);

        s.seal(id(1)).unwrap();
        s.release(id(1)).unwrap();
        s.delete(id(1)).unwrap();
        let snap = s.registry().snapshot();
        assert_eq!(snap.gauge("plasma.used_bytes"), 0);
        assert_eq!(snap.gauge("plasma.free_bytes"), 1 << 20);
    }

    #[test]
    fn cold_candidates_follow_lru_order() {
        let s = store(1 << 20);
        for n in 1..=3u8 {
            s.create(id(n), 1000, 0).unwrap();
            s.seal(id(n)).unwrap();
            s.release(id(n)).unwrap();
        }
        // Touch 1 so 2 becomes coldest; pin 3 so it leaves the menu.
        s.get_local(id(1)).unwrap();
        s.release(id(1)).unwrap();
        let pin = s.get_local(id(3)).unwrap();
        let _ = pin;
        let cands = s.cold_candidates(8);
        assert_eq!(
            cands.iter().map(|(i, _)| *i).collect::<Vec<_>>(),
            vec![id(2), id(1)]
        );
        assert!(cands.iter().all(|&(_, b)| b == 1000));
        assert_eq!(s.cold_candidates(1).len(), 1);
        // Non-destructive: nothing was evicted by looking.
        assert!(s.contains(id(1)) && s.contains(id(2)));
    }

    #[test]
    fn op_latency_histograms_record_activity() {
        let s = store(1 << 20);
        s.create(id(1), 64, 0).unwrap();
        s.seal(id(1)).unwrap();
        s.get_local(id(1)).unwrap();
        s.release(id(1)).unwrap();
        let snap = s.registry().snapshot();
        for name in [
            "plasma.create.latency_ns",
            "plasma.seal.latency_ns",
            "plasma.get.latency_ns",
            "plasma.release.latency_ns",
        ] {
            let h = snap
                .histogram(name)
                .unwrap_or_else(|| panic!("{name} missing"));
            assert!(h.count >= 1, "{name} not recorded");
            assert!(h.max > 0, "{name} recorded zero wall time");
        }
    }

    #[test]
    fn get_wait_blocks_until_seal() {
        let s = store(1 << 20);
        s.create(id(1), 10, 0).unwrap();
        let s2 = s.clone();
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            s2.seal(id(1)).unwrap();
        });
        let got = s.get_wait(&[id(1)], Duration::from_secs(5));
        assert!(got[0].is_some());
        t.join().unwrap();
    }

    #[test]
    fn get_wait_is_woken_by_a_seal_long_before_its_timeout() {
        // Each round's seal is the only thing that can end its wait in
        // time. A getter asleep but not counted as a sleeper would sleep
        // through the seal's notify to the timeout; the watchdog fails
        // the round long before that.
        const ROUNDS: usize = 20;
        const TIMEOUT: Duration = Duration::from_secs(60);
        const WATCHDOG: Duration = Duration::from_secs(10);
        let oid = |n: usize| ObjectId::from_name(&format!("woken-{n}"));
        let s = store(1 << 20);
        for n in 0..ROUNDS {
            s.create(oid(n), 64, 0).unwrap();
        }
        let (done, finished) = std::sync::mpsc::channel();
        let getter = {
            let s = s.clone();
            std::thread::spawn(move || {
                for n in 0..ROUNDS {
                    let got = s.get_wait(&[oid(n)], TIMEOUT);
                    done.send(got[0].is_some()).unwrap();
                }
            })
        };
        for n in 0..ROUNDS {
            // Let the getter park first.
            std::thread::sleep(Duration::from_millis(5));
            s.seal(oid(n)).unwrap();
            assert_eq!(
                finished.recv_timeout(WATCHDOG),
                Ok(true),
                "round {n}: the seal did not wake the getter"
            );
        }
        getter.join().unwrap();
    }

    #[test]
    fn get_wait_times_out_on_missing() {
        let s = store(1 << 20);
        let start = Instant::now();
        let got = s.get_wait(&[id(9)], Duration::from_millis(50));
        assert!(got[0].is_none());
        assert!(start.elapsed() >= Duration::from_millis(50));
    }

    #[test]
    fn get_wait_partial_batch() {
        let s = store(1 << 20);
        s.create(id(1), 4, 0).unwrap();
        s.seal(id(1)).unwrap();
        let got = s.get_wait(&[id(1), id(2)], Duration::from_millis(30));
        assert!(got[0].is_some());
        assert!(got[1].is_none());
    }

    #[test]
    fn subscribe_receives_seal_notifications() {
        let s = store(1 << 20);
        let rx = s.subscribe();
        s.create(id(1), 10, 0).unwrap();
        s.seal(id(1)).unwrap();
        let n = rx.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(n.id, id(1));
        assert_eq!(n.data_size, 10);
    }

    #[test]
    fn list_reports_states() {
        let s = store(1 << 20);
        s.create(id(1), 10, 0).unwrap();
        s.create(id(2), 20, 0).unwrap();
        s.seal(id(2)).unwrap();
        let infos = s.list();
        assert_eq!(infos.len(), 2);
        let by_id: HashMap<ObjectId, ObjectInfo> = infos.into_iter().map(|i| (i.id, i)).collect();
        assert_eq!(by_id[&id(1)].state, ObjectState::Created);
        assert_eq!(by_id[&id(2)].state, ObjectState::Sealed);
    }

    #[test]
    fn stats_reflect_activity() {
        let s = store(1 << 20);
        s.create(id(1), 100, 0).unwrap();
        s.seal(id(1)).unwrap();
        let _ = s.get_local(id(1)).unwrap();
        let _ = s.get_local(id(9)); // miss
        let st = s.stats();
        assert_eq!(st.creates, 1);
        assert_eq!(st.seals, 1);
        assert_eq!(st.gets, 1);
        assert_eq!(st.get_misses, 1);
        assert!(st.allocated_bytes >= 100);
        assert_eq!(st.capacity, 1 << 20);
    }

    #[test]
    fn concurrent_producers_and_consumers() {
        let s = store(8 << 20);
        let producers: Vec<_> = (0..4u8)
            .map(|p| {
                let s = s.clone();
                std::thread::spawn(move || {
                    for i in 0..25u8 {
                        let oid = ObjectId::from_name(&format!("p{p}-o{i}"));
                        let loc = s.create(oid, 256, 0).unwrap();
                        let map = s.local_mapping().unwrap();
                        map.write_at(loc.offset, &[p ^ i; 256]).unwrap();
                        s.seal(oid).unwrap();
                        s.release(oid).unwrap();
                    }
                })
            })
            .collect();
        let consumers: Vec<_> = (0..4u8)
            .map(|p| {
                let s = s.clone();
                std::thread::spawn(move || {
                    for i in 0..25u8 {
                        let oid = ObjectId::from_name(&format!("p{p}-o{i}"));
                        let got = s.get_wait(&[oid], Duration::from_secs(10));
                        let loc = got[0].expect("object must appear");
                        let map = s.local_mapping().unwrap();
                        let data = map.read_vec(loc.offset, 256).unwrap();
                        assert!(data.iter().all(|&b| b == p ^ i));
                        s.release(oid).unwrap();
                    }
                })
            })
            .collect();
        for t in producers.into_iter().chain(consumers) {
            t.join().unwrap();
        }
        assert_eq!(s.stats().gets, 100);
    }

    #[test]
    fn get_wait_never_misses_a_racing_seal() {
        // Each round seals a fresh id with no delay while a `get_wait`
        // for it starts on the other side of a barrier. A lost wakeup
        // would not hang — the wait times out and the rescan finds the
        // object — it would stall one round for the whole timeout.
        const ROUNDS: usize = 300;
        let timeout = Duration::from_secs(5);
        let oid = |n: usize| ObjectId::from_name(&format!("race-{n}"));
        let s = store(1 << 20);
        let start = Arc::new(std::sync::Barrier::new(2));
        let sealer = {
            let (s, start) = (s.clone(), Arc::clone(&start));
            std::thread::spawn(move || {
                for n in 0..ROUNDS {
                    start.wait();
                    s.seal(oid(n)).unwrap();
                }
            })
        };
        let t0 = Instant::now();
        for n in 0..ROUNDS {
            s.create(oid(n), 64, 0).unwrap();
            start.wait();
            let got = s.get_wait(&[oid(n)], timeout);
            assert!(got[0].is_some(), "round {n} missed its seal");
        }
        sealer.join().unwrap();
        assert!(
            t0.elapsed() < timeout,
            "a round stalled: {:?} for {ROUNDS} rounds",
            t0.elapsed()
        );
    }

    #[test]
    fn eviction_picks_lru_in_release_order() {
        // Hashed (not sequential) ids: eviction order follows the
        // store-wide release order, whatever the ids are.
        let s = store(1 << 20);
        let ids: Vec<ObjectId> = (0..4u8)
            .map(|n| ObjectId::from_name(&format!("glru-{n}")))
            .collect();
        for oid in &ids {
            s.create(*oid, 100 << 10, 0).unwrap();
            s.seal(*oid).unwrap();
            s.release(*oid).unwrap();
        }
        // Refresh ids[0]: ids[1] becomes the victim.
        s.get_local(ids[0]).unwrap();
        s.release(ids[0]).unwrap();
        assert_eq!(s.evict(1), 100 << 10);
        assert!(!s.contains(ids[1]), "LRU victim evicted first");
        assert!(s.contains(ids[0]) && s.contains(ids[2]) && s.contains(ids[3]));
        assert_eq!(s.evict(1), 100 << 10);
        assert!(!s.contains(ids[2]));
        assert_eq!(s.evict(1), 100 << 10);
        assert!(!s.contains(ids[3]));
        assert_eq!(s.evict(1), 100 << 10);
        assert!(!s.contains(ids[0]), "refreshed object evicted last");
    }

    #[test]
    fn slab_allocator_store_roundtrip_and_class_gauges() {
        let s = store(4 << 20);
        let loc = s.create(id(1), 1000, 24).unwrap();
        let map = s.local_mapping().unwrap();
        map.write_at(loc.offset, &[7u8; 1024]).unwrap();
        s.seal(id(1)).unwrap();
        assert!(s.get_local(id(1)).is_some());
        // 1024 bytes must occupy the 1 KiB class.
        let snap = s.registry().snapshot();
        assert_eq!(snap.gauge("plasma.alloc.class.1024.live_bytes"), 1024);
        assert!(snap.gauge("plasma.alloc.class.1024.held_bytes") >= 1024);
        // Release both refs and delete: gauges return to zero.
        s.release(id(1)).unwrap();
        s.release(id(1)).unwrap();
        s.delete(id(1)).unwrap();
        let snap = s.registry().snapshot();
        assert_eq!(snap.gauge("plasma.alloc.class.1024.live_bytes"), 0);
        assert_eq!(snap.gauge("plasma.used_bytes"), 0);
    }

    #[test]
    fn off_ladder_size_holds_a_whole_slot_but_is_accounted_as_requested() {
        // 300 KiB sits between the 256 KiB and 512 KiB classes: it takes a
        // one-slot 512 KiB slab, while `allocated_bytes` (and everything
        // derived from it: `plasma.used_bytes`, the spill watermarks and
        // a lender's headroom gate) counts the 300 KiB requested. Slot
        // rounding is visible only in the class gauges.
        let s = store(1 << 20);
        let before = s.stats().allocated_bytes;
        s.create(id(1), 300 << 10, 0).unwrap();
        assert_eq!(s.stats().allocated_bytes - before, 300 << 10);
        let snap = s.registry().snapshot();
        assert_eq!(snap.gauge("plasma.alloc.class.524288.held_bytes"), 524_288);
        assert_eq!(
            snap.gauge("plasma.alloc.class.524288.live_bytes"),
            300 << 10
        );
        assert_eq!(snap.gauge("plasma.used_bytes"), 300 << 10);
        // So only two such objects fit in 1 MiB, not the three their
        // requested sizes add up to.
        s.create(id(2), 300 << 10, 0).unwrap();
        assert!(matches!(
            s.create(id(3), 300 << 10, 0),
            Err(PlasmaError::OutOfMemory { .. })
        ));
    }

    #[test]
    fn contention_counter_counts_try_lock_misses() {
        let s = store(4 << 20);
        // Hammer the table from many threads: try-lock misses are likely
        // (not guaranteed on one CPU — assert only that the counter
        // exists and never goes backwards).
        let oid = ObjectId::from_name("hot");
        s.create(oid, 64, 0).unwrap();
        s.seal(oid).unwrap();
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let s = s.clone();
                std::thread::spawn(move || {
                    for _ in 0..500 {
                        let g = s.get_local(oid).unwrap();
                        let _ = g;
                        s.release(oid).unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let snap = s.registry().snapshot();
        let _ = snap.counter("plasma.shard.contention"); // registered
        assert_eq!(s.stats().gets, 2000);
    }
}
