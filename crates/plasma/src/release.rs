//! Release groups: the batch-hold rule, shared by the client and the
//! distributed store.
//!
//! A batched `get` that filled two or more slots returns its references
//! together. Each release of a member but the last is answered at once,
//! its reference still counted where it was taken; the last returns the
//! whole group in one exchange — one `Release` request from a
//! [`crate::PlasmaClient`], one `RELEASE` per owner from a distributed
//! store. A batch's references therefore stay counted until its last
//! release, and a delete of a member from the side that deferred its
//! release sends that release first.

use crate::id::ObjectId;

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
