//! LRU list for the eviction policy.
//!
//! Tracks the recency of *evictable* (sealed, unreferenced) objects. The
//! store pushes an object when its reference count drops to zero and
//! removes it when it gains a reference, is deleted or is evicted. A
//! pushed object's [`Slot`] lives in its own object-table entry, so a
//! pin or an unpin edits the list through the entry it already looked
//! up: no second map is hashed.
//!
//! The list is doubly linked through a slab of nodes: a removed node's
//! index is chained onto a free list and taken by the next push, so the
//! list allocates only to grow past the most members it has held.

use crate::id::ObjectId;

/// No node: the end of a chain.
const NIL: u32 = u32::MAX;

/// A member's place in the list, kept by its owner (the object's table
/// entry) and handed back to [`Lru::remove`]. Not `Clone`: a slot is
/// removed once.
#[derive(Debug)]
pub struct Slot(u32);

#[derive(Debug)]
struct Node {
    id: ObjectId,
    /// Towards the coldest end; for a free node, unused.
    prev: u32,
    /// Towards the warmest end; for a free node, the next free one.
    next: u32,
}

/// Recency-ordered list of object ids, coldest first.
#[derive(Debug)]
pub struct Lru {
    nodes: Vec<Node>,
    coldest: u32,
    warmest: u32,
    free: u32,
    len: usize,
}

impl Default for Lru {
    fn default() -> Self {
        Lru {
            nodes: Vec::new(),
            coldest: NIL,
            warmest: NIL,
            free: NIL,
            len: 0,
        }
    }
}

impl Lru {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Add `id` as the most recently used member.
    pub fn push(&mut self, id: ObjectId) -> Slot {
        let node = Node {
            id,
            prev: self.warmest,
            next: NIL,
        };
        let at = match self.free {
            NIL => {
                let at = u32::try_from(self.nodes.len()).expect("fewer than 2^32 - 1 members");
                assert_ne!(at, NIL, "fewer than 2^32 - 1 members");
                self.nodes.push(node);
                at
            }
            at => {
                self.free = self.nodes[at as usize].next;
                self.nodes[at as usize] = node;
                at
            }
        };
        match self.warmest {
            NIL => self.coldest = at,
            warmest => self.nodes[warmest as usize].next = at,
        }
        self.warmest = at;
        self.len += 1;
        Slot(at)
    }

    /// Take the member at `slot` out of the list; its id.
    pub fn remove(&mut self, slot: Slot) -> ObjectId {
        let Node { id, prev, next } = self.nodes[slot.0 as usize];
        match prev {
            NIL => self.coldest = next,
            prev => self.nodes[prev as usize].next = next,
        }
        match next {
            NIL => self.warmest = prev,
            next => self.nodes[next as usize].prev = prev,
        }
        self.nodes[slot.0 as usize].next = self.free;
        self.free = slot.0;
        self.len -= 1;
        id
    }

    /// The least recently used member, left in the list: its owner
    /// removes it through its slot.
    pub fn coldest(&self) -> Option<ObjectId> {
        (self.coldest != NIL).then(|| self.nodes[self.coldest as usize].id)
    }

    /// Members coldest first, without changing the list (the spill
    /// picker reads candidates; only eviction removes them).
    pub fn iter(&self) -> impl Iterator<Item = ObjectId> + '_ {
        let mut at = self.coldest;
        std::iter::from_fn(move || {
            let node = (at != NIL).then(|| &self.nodes[at as usize])?;
            at = node.next;
            Some(node.id)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn id(n: u8) -> ObjectId {
        ObjectId::from_bytes([n; 20])
    }

    /// Remove and return the coldest member, as eviction does: by the
    /// slot its owner kept.
    fn pop(lru: &mut Lru, slots: &mut Vec<(ObjectId, Slot)>) -> Option<ObjectId> {
        let coldest = lru.coldest()?;
        let at = slots.iter().position(|(id, _)| *id == coldest)?;
        Some(lru.remove(slots.swap_remove(at).1))
    }

    /// `id` made most recently used: taken out first if it is a member,
    /// as a pin and the unpin after it do.
    fn touch(lru: &mut Lru, slots: &mut Vec<(ObjectId, Slot)>, id: ObjectId) {
        if let Some(at) = slots.iter().position(|(member, _)| *member == id) {
            lru.remove(slots.swap_remove(at).1);
        }
        slots.push((id, lru.push(id)));
    }

    #[test]
    fn pops_in_recency_order() {
        let (mut lru, mut slots) = (Lru::new(), Vec::new());
        touch(&mut lru, &mut slots, id(1));
        touch(&mut lru, &mut slots, id(2));
        touch(&mut lru, &mut slots, id(3));
        touch(&mut lru, &mut slots, id(1)); // refresh 1
        assert_eq!(pop(&mut lru, &mut slots), Some(id(2)));
        assert_eq!(pop(&mut lru, &mut slots), Some(id(3)));
        assert_eq!(pop(&mut lru, &mut slots), Some(id(1)));
        assert_eq!(pop(&mut lru, &mut slots), None);
    }

    #[test]
    fn remove_unlinks() {
        let mut lru = Lru::new();
        let one = lru.push(id(1));
        let two = lru.push(id(2));
        assert_eq!(lru.remove(one), id(1));
        assert_eq!(lru.coldest(), Some(id(2)));
        assert_eq!(lru.remove(two), id(2));
        assert!(lru.is_empty());
        assert_eq!(lru.coldest(), None);
    }

    #[test]
    fn touch_is_idempotent_in_membership() {
        let (mut lru, mut slots) = (Lru::new(), Vec::new());
        touch(&mut lru, &mut slots, id(7));
        touch(&mut lru, &mut slots, id(7));
        assert_eq!(lru.len(), 1);
        assert_eq!(lru.iter().collect::<Vec<_>>(), vec![id(7)]);
    }

    #[test]
    fn reinsertion_after_remove_goes_to_mru() {
        let mut lru = Lru::new();
        let one = lru.push(id(1));
        let two = lru.push(id(2));
        let three = lru.push(id(3));
        // id(1) gains a reference (removed), then is released again:
        // it must re-enter at the MRU end, not its old position.
        assert_eq!(lru.remove(one), id(1));
        let one = lru.push(id(1));
        assert_eq!(lru.iter().collect::<Vec<_>>(), vec![id(2), id(3), id(1)]);
        for slot in [two, three, one] {
            lru.remove(slot);
        }
        assert!(lru.is_empty());
    }

    #[test]
    fn order_stable_across_interleaved_touch_remove_cycles() {
        let (mut lru, mut slots) = (Lru::new(), Vec::new());
        for n in 1..=5u8 {
            touch(&mut lru, &mut slots, id(n));
        }
        // Cycle every entry once through remove+push in reverse order;
        // the pop order must follow the *new* push order exactly.
        for n in (1..=5u8).rev() {
            touch(&mut lru, &mut slots, id(n));
        }
        let popped: Vec<_> = std::iter::from_fn(|| pop(&mut lru, &mut slots)).collect();
        assert_eq!(popped, vec![id(5), id(4), id(3), id(2), id(1)]);
    }

    #[test]
    fn pop_on_empty_is_stable_not_looping() {
        let (mut lru, mut slots) = (Lru::new(), Vec::new());
        assert_eq!(pop(&mut lru, &mut slots), None);
        touch(&mut lru, &mut slots, id(1));
        assert_eq!(pop(&mut lru, &mut slots), Some(id(1)));
        // An exhausted list keeps reading None (the store's eviction
        // loop relies on this to fail fast with OutOfMemory).
        assert_eq!(lru.coldest(), None);
        assert_eq!(lru.coldest(), None);
        assert!(lru.is_empty());
    }

    #[test]
    fn removed_nodes_are_reused_before_the_slab_grows() {
        let mut lru = Lru::new();
        let slots: Vec<Slot> = (0..8).map(|n| lru.push(id(n))).collect();
        for slot in slots {
            lru.remove(slot);
        }
        for round in 0..100u8 {
            let slot = lru.push(id(round));
            lru.remove(slot);
        }
        assert_eq!(lru.nodes.len(), 8);
        assert_eq!(lru.nodes.capacity(), 8);
    }

    #[derive(Debug, Clone)]
    enum Step {
        Push(u8),
        /// Remove the member at this index of the model's slots, if any.
        Remove(usize),
        /// Remove the coldest member, as eviction does.
        Coldest,
    }

    fn step() -> impl Strategy<Value = Step> {
        prop_oneof![
            (0u8..16).prop_map(Step::Push),
            (0usize..16).prop_map(Step::Remove),
            Just(Step::Coldest),
        ]
    }

    proptest! {
        /// The slab list and a plain recency list (a `Vec`, coldest
        /// first) agree after every step of a random sequence of pushes,
        /// removals by slot and removals of the coldest member: on the
        /// coldest member, the length and the whole order.
        #[test]
        fn the_slab_list_is_a_recency_list(steps in proptest::collection::vec(step(), 0..200)) {
            let mut lru = Lru::new();
            let mut model: Vec<ObjectId> = Vec::new();
            // What each member's owner keeps: its id and slot.
            let mut slots: Vec<(ObjectId, Slot)> = Vec::new();
            for step in steps {
                match step {
                    Step::Push(n) => {
                        // An id is a member at most once: a pushed member
                        // is refreshed, as the store never pushes one twice.
                        touch(&mut lru, &mut slots, id(n));
                        model.retain(|m| *m != id(n));
                        model.push(id(n));
                    }
                    Step::Remove(at) if at < slots.len() => {
                        let (member, slot) = slots.swap_remove(at);
                        prop_assert_eq!(lru.remove(slot), member);
                        model.retain(|m| *m != member);
                    }
                    Step::Remove(_) => {}
                    Step::Coldest => {
                        let popped = pop(&mut lru, &mut slots);
                        prop_assert_eq!(popped, (!model.is_empty()).then(|| model.remove(0)));
                    }
                }
                prop_assert_eq!(lru.coldest(), model.first().copied());
                prop_assert_eq!(lru.len(), model.len());
                prop_assert_eq!(lru.iter().collect::<Vec<_>>(), model.clone());
            }
        }
    }
}
