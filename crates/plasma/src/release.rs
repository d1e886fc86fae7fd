//! How references go back: release groups, the batch-hold rule shared
//! by the client and the distributed store, and the release ring a
//! store's clients post their own releases to.
//!
//! A batched `get` that filled two or more slots returns its references
//! together. Each release of a member but the last is answered at once,
//! its reference still counted where it was taken; the last returns the
//! whole group in one exchange — from a [`crate::PlasmaClient`], its
//! pins in the store's own table posted to the store's ring and the
//! others in one `Release` request, sent only if one is left; from a
//! distributed store, one `RELEASE` per owner. A batch's references
//! therefore stay counted until its last release, and a delete of a
//! member from the side that deferred its release returns that release
//! first.

use crate::id::ObjectId;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use tfsim::SegKey;

/// The open release groups of one client or store. Counted per filled
/// slot, as a store counts references, so an id filled in two slots is
/// two members. References on one immutable object are fungible, so a
/// release joins the most recently opened group that has its id
/// waiting.
#[derive(Debug, Default)]
pub struct ReleaseGroups {
    /// Per open group, oldest first: the ids still waiting for their
    /// release, and those released already, whose references are still
    /// counted.
    groups: Vec<(Vec<ObjectId>, Vec<ObjectId>)>,
}

impl ReleaseGroups {
    /// Open a group for the references one `get` took. Room for every
    /// member's release is taken now, so the releases, the last one's
    /// included, grow nothing.
    pub fn open(&mut self, members: Vec<ObjectId>) {
        let released = Vec::with_capacity(members.len());
        self.groups.push((members, released));
    }

    /// What a release of `id` sends besides itself: `None` while its
    /// group still waits for other members, else the releases its group
    /// deferred (none if no group has it waiting).
    pub fn release(&mut self, id: ObjectId) -> Option<Vec<ObjectId>> {
        let mut groups = self.groups.iter().enumerate().rev();
        let found = groups
            .find_map(|(at, (waiting, _))| Some((at, waiting.iter().position(|w| *w == id)?)));
        let Some((at, member)) = found else {
            return Some(Vec::new());
        };
        let (waiting, released) = &mut self.groups[at];
        waiting.swap_remove(member);
        if waiting.is_empty() {
            return Some(self.groups.remove(at).1);
        }
        released.push(id);
        None
    }

    /// Take every deferred release of `id` out of its group; how many.
    pub fn take_deferred(&mut self, id: ObjectId) -> usize {
        let mut taken = 0;
        for (_, released) in &mut self.groups {
            let before = released.len();
            released.retain(|r| *r != id);
            taken += before - released.len();
        }
        taken
    }

    /// Close every group: the deferred releases, in the order the groups
    /// were opened. Members not yet released stay the caller's.
    pub fn close_all(&mut self) -> Vec<ObjectId> {
        let groups = self.groups.drain(..);
        groups.flat_map(|(_, released)| released).collect()
    }

    /// How many groups are open.
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }
}

/// A store's release ring: the releases its clients post instead of
/// requesting, each the id of a pin the store took in its own object
/// table ([`crate::GetSlot::PinnedHere`]). A post takes the ring's lock
/// alone and is never answered; the store applies every posted release
/// under its table lock at the start of each table access, taking the
/// ring's lock after the table's, so whatever reads the table after a
/// post returned finds the reference gone. Cheap to clone: a client is
/// handed its store's ring when it is built.
#[derive(Clone)]
pub struct ReleaseRing {
    inner: Arc<RingInner>,
}

struct RingInner {
    /// The segment of the store whose ring this is: the one its
    /// here-pinned locations name.
    seg: SegKey,
    posted: Mutex<Vec<ObjectId>>,
    /// Whether `posted` may hold an id: set and cleared under its lock,
    /// read without it, so a table access with nothing posted takes no
    /// second lock.
    any: AtomicBool,
}

impl ReleaseRing {
    pub(crate) fn new(seg: SegKey) -> Self {
        ReleaseRing {
            inner: Arc::new(RingInner {
                seg,
                posted: Mutex::new(Vec::new()),
                any: AtomicBool::new(false),
            }),
        }
    }

    /// The segment of the store whose ring this is.
    pub(crate) fn seg(&self) -> SegKey {
        self.inner.seg
    }

    /// Post the release of one pin.
    pub(crate) fn post(&self, id: ObjectId) {
        let mut posted = self.inner.posted.lock();
        posted.push(id);
        self.inner.any.store(true, Ordering::Release);
    }

    /// Post the release of each of `ids` that `here` takes, under one
    /// lock, and keep the others in `ids`, in order.
    pub(crate) fn post_where(
        &self,
        ids: &mut Vec<ObjectId>,
        mut here: impl FnMut(ObjectId) -> bool,
    ) {
        let mut posted = self.inner.posted.lock();
        let before = posted.len();
        ids.retain(|&id| {
            !here(id) || {
                posted.push(id);
                false
            }
        });
        if posted.len() > before {
            self.inner.any.store(true, Ordering::Release);
        }
    }

    /// Swap every posted release into `into`, which is empty: the two
    /// lists trade their room, so neither grows once both have held the
    /// most releases posted between two table accesses. Whether any was.
    pub(crate) fn take(&self, into: &mut Vec<ObjectId>) -> bool {
        if !self.inner.any.load(Ordering::Acquire) {
            return false;
        }
        let mut posted = self.inner.posted.lock();
        std::mem::swap(&mut *posted, into);
        self.inner.any.store(false, Ordering::Relaxed);
        !into.is_empty()
    }
}

impl std::fmt::Debug for ReleaseRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReleaseRing")
            .field("seg", &self.inner.seg)
            .finish()
    }
}
