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
use crate::object::{ObjectInfo, ObjectLocation};
use crate::store::{StoreCore, StoreStats};
use crossbeam::channel::Receiver;
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

    /// Batched lookup with timeout; `None` entries were not available in
    /// time. Successful entries carry a reference the caller must release.
    fn get(
        &self,
        ids: &[ObjectId],
        timeout: Duration,
    ) -> Result<Vec<Option<ObjectLocation>>, PlasmaError>;

    fn release(&self, id: ObjectId) -> Result<(), PlasmaError>;

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

    fn get(
        &self,
        ids: &[ObjectId],
        timeout: Duration,
    ) -> Result<Vec<Option<ObjectLocation>>, PlasmaError> {
        Ok(StoreCore::get_wait(self, ids, timeout))
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
