//! Object table entries and public object metadata.

use crate::id::ObjectId;
use crate::lru::Slot;
use tfsim::SegKey;

/// Lifecycle state of a stored object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObjectState {
    /// Allocated and writable by its creator; invisible to `get`.
    Created,
    /// Immutable and readable by everyone.
    Sealed,
}

/// Internal bookkeeping for one object.
#[derive(Debug)]
pub(crate) struct ObjectEntry {
    /// Offset of the data buffer within the store's segment.
    pub offset: u64,
    pub data_size: u64,
    pub metadata_size: u64,
    pub state: ObjectState,
    /// Client references (creator + getters). Objects with references are
    /// never evicted — the paper's "in-use objects will not be evicted".
    pub ref_count: u64,
    /// Deferred deletion requested: the object is hidden from new `get`s
    /// and dropped when the last reference is released.
    pub pending_deletion: bool,
    /// Its place in the store's LRU list while it is evictable (sealed,
    /// unreferenced and not pending deletion), else `None`.
    pub lru: Option<Slot>,
}

impl ObjectEntry {
    pub fn total_size(&self) -> u64 {
        self.data_size + self.metadata_size
    }

    /// Whether a `get` may see the object: sealed, and not hidden by a
    /// deferred delete.
    pub fn visible(&self) -> bool {
        self.state == ObjectState::Sealed && !self.pending_deletion
    }
}

/// Where an object's buffer lives: everything a client needs to map it
/// through the fabric. This is the moral equivalent of Plasma's file
/// descriptor + offset handoff, adapted to disaggregated segments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObjectLocation {
    pub id: ObjectId,
    /// The donated segment holding the object.
    pub seg: SegKey,
    /// Offset of the data buffer within the segment.
    pub offset: u64,
    pub data_size: u64,
    /// Metadata bytes follow the data buffer immediately.
    pub metadata_size: u64,
}

impl ObjectLocation {
    pub fn total_size(&self) -> u64 {
        self.data_size + self.metadata_size
    }
}

/// One slot of a get's answer. Its tag byte on the wire is 0, 1 or 2,
/// in the order of the variants: nothing in time, or a location pinned
/// for the caller, and where the answering store took that pin.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GetSlot {
    #[default]
    Empty,
    /// Pinned anywhere but in the answering store's own object table — at
    /// a peer, or in a ledger: its release is a request, which reaches
    /// whatever took the pin.
    Pinned(ObjectLocation),
    /// Pinned in the answering store's own object table: its client may
    /// post the release to that store's [`crate::ReleaseRing`].
    PinnedHere(ObjectLocation),
}

impl GetSlot {
    /// The pinned location, if the slot was filled.
    pub fn location(self) -> Option<ObjectLocation> {
        match self {
            GetSlot::Empty => None,
            GetSlot::Pinned(loc) | GetSlot::PinnedHere(loc) => Some(loc),
        }
    }

    pub fn is_empty(&self) -> bool {
        *self == GetSlot::Empty
    }

    pub fn is_filled(&self) -> bool {
        !self.is_empty()
    }
}

/// Public per-object info returned by list/stat calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObjectInfo {
    pub id: ObjectId,
    pub data_size: u64,
    pub metadata_size: u64,
    pub state: ObjectState,
    pub ref_count: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_size_sums_data_and_metadata() {
        let e = ObjectEntry {
            offset: 0,
            data_size: 100,
            metadata_size: 28,
            state: ObjectState::Created,
            ref_count: 1,
            pending_deletion: false,
            lru: None,
        };
        assert_eq!(e.total_size(), 128);
    }
}
