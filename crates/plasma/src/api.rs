//! The store service abstraction.
//!
//! [`ObjectStore`] is the behavioural contract between the Plasma IPC
//! server and whatever engine backs it — the single-node [`StoreCore`]
//! here, or the distributed `disagg::DisaggStore` that layers remote
//! lookup and id-uniqueness on top. Because clients only ever talk to the
//! trait via the protocol, "the distributed nature can largely remain
//! hidden to Plasma clients" (paper §IV-A2).

use crate::error::PlasmaError;
use crate::id::ObjectId;
use crate::object::{GetSlot, ObjectInfo, ObjectLocation};
use crate::store::{StoreCore, StoreStats};
use std::sync::mpsc::Receiver;
use std::time::Duration;

/// Everything a Plasma endpoint must be able to do.
pub trait ObjectStore: Send + Sync {
    fn create(
        &self,
        id: ObjectId,
        data_size: u64,
        metadata_size: u64,
    ) -> Result<ObjectLocation, PlasmaError>;

    fn seal(&self, id: ObjectId) -> Result<ObjectLocation, PlasmaError>;

    /// Create, fill, seal and release in one call, for a caller that
    /// already holds the whole object: the bytes are written by the store
    /// that owns the id, into its own memory. Returns the sealed location;
    /// no reference is left with the caller.
    fn put(
        &self,
        id: ObjectId,
        data: &[u8],
        metadata: &[u8],
    ) -> Result<ObjectLocation, PlasmaError>;

    /// Batched lookup with timeout, into `out`, which is cleared and
    /// given one slot per id; empty slots were not available in time.
    /// Filled slots carry a reference the caller must release, and say
    /// whether it was taken in this store's own object table
    /// ([`GetSlot::PinnedHere`]). A caller that keeps `out` across gets
    /// (the server keeps one per connection) allocates nothing for it
    /// once it has held the largest batch.
    fn get_into(
        &self,
        ids: &[ObjectId],
        timeout: Duration,
        out: &mut Vec<GetSlot>,
    ) -> Result<(), PlasmaError>;

    /// [`ObjectStore::get_into`] into a new vector, `None` for an empty
    /// slot.
    fn get(
        &self,
        ids: &[ObjectId],
        timeout: Duration,
    ) -> Result<Vec<Option<ObjectLocation>>, PlasmaError> {
        let mut out = Vec::with_capacity(ids.len());
        self.get_into(ids, timeout, &mut out)?;
        // In place: a slot and an optional location take the same room.
        Ok(out.into_iter().map(GetSlot::location).collect())
    }

    fn release(&self, id: ObjectId) -> Result<(), PlasmaError>;

    /// Drop one reference per listed id, as a client's release group
    /// returns them (see [`crate::ReleaseGroups`]): releases each id in
    /// turn and returns the first error.
    fn release_many(&self, ids: &[ObjectId]) -> Result<(), PlasmaError> {
        let released = ids.iter().map(|id| self.release(*id));
        released.fold(Ok(()), Result::and)
    }

    fn delete(&self, id: ObjectId) -> Result<(), PlasmaError>;

    /// Delete now if unreferenced (`true`), else when the last reference
    /// is released (`false`).
    fn delete_deferred(&self, id: ObjectId) -> Result<bool, PlasmaError>;

    fn abort(&self, id: ObjectId) -> Result<(), PlasmaError>;

    fn contains(&self, id: ObjectId) -> Result<bool, PlasmaError>;

    fn list(&self) -> Result<Vec<ObjectInfo>, PlasmaError>;

    fn stats(&self) -> Result<StoreStats, PlasmaError>;

    fn evict(&self, bytes: u64) -> Result<u64, PlasmaError>;

    /// Seal-notification stream.
    fn subscribe(&self) -> Receiver<ObjectLocation>;
}

impl ObjectStore for StoreCore {
    fn create(
        &self,
        id: ObjectId,
        data_size: u64,
        metadata_size: u64,
    ) -> Result<ObjectLocation, PlasmaError> {
        StoreCore::create(self, id, data_size, metadata_size)
    }

    fn seal(&self, id: ObjectId) -> Result<ObjectLocation, PlasmaError> {
        StoreCore::seal(self, id)
    }

    fn put(
        &self,
        id: ObjectId,
        data: &[u8],
        metadata: &[u8],
    ) -> Result<ObjectLocation, PlasmaError> {
        StoreCore::put(self, id, data, metadata)
    }

    fn get_into(
        &self,
        ids: &[ObjectId],
        timeout: Duration,
        out: &mut Vec<GetSlot>,
    ) -> Result<(), PlasmaError> {
        StoreCore::get_wait_into(self, ids, timeout, out);
        Ok(())
    }

    fn release(&self, id: ObjectId) -> Result<(), PlasmaError> {
        StoreCore::release(self, id)
    }

    fn delete(&self, id: ObjectId) -> Result<(), PlasmaError> {
        StoreCore::delete(self, id)
    }

    fn delete_deferred(&self, id: ObjectId) -> Result<bool, PlasmaError> {
        StoreCore::delete_deferred(self, id)
    }

    fn abort(&self, id: ObjectId) -> Result<(), PlasmaError> {
        StoreCore::abort(self, id)
    }

    fn contains(&self, id: ObjectId) -> Result<bool, PlasmaError> {
        Ok(StoreCore::contains(self, id))
    }

    fn list(&self) -> Result<Vec<ObjectInfo>, PlasmaError> {
        Ok(StoreCore::list(self))
    }

    fn stats(&self) -> Result<StoreStats, PlasmaError> {
        Ok(StoreCore::stats(self))
    }

    fn evict(&self, bytes: u64) -> Result<u64, PlasmaError> {
        Ok(StoreCore::evict(self, bytes))
    }

    fn subscribe(&self) -> Receiver<ObjectLocation> {
        StoreCore::subscribe(self)
    }
}
