//! LRU index for the eviction policy.
//!
//! Tracks the recency of *evictable* (sealed, unreferenced) objects. The
//! store inserts an object when its reference count drops to zero, touches
//! it on access, and removes it when it gains a reference or is deleted.
//! Eviction pops the least-recently-used entries until enough bytes are
//! reclaimed.

use crate::id::ObjectId;
use std::collections::{BTreeMap, HashMap};

/// Recency-ordered set of object ids.
#[derive(Debug, Default)]
pub struct LruIndex {
    by_seq: BTreeMap<u64, ObjectId>,
    seq_of: HashMap<ObjectId, u64>,
    next_seq: u64,
}

impl LruIndex {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn len(&self) -> usize {
        self.by_seq.len()
    }

    pub fn is_empty(&self) -> bool {
        self.by_seq.is_empty()
    }

    pub fn contains(&self, id: &ObjectId) -> bool {
        self.seq_of.contains_key(id)
    }

    /// Insert or refresh `id` as most recently used.
    pub fn touch(&mut self, id: ObjectId) {
        if let Some(old) = self.seq_of.remove(&id) {
            self.by_seq.remove(&old);
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.by_seq.insert(seq, id);
        self.seq_of.insert(id, seq);
    }

    /// Remove `id` (it gained a reference or was deleted).
    pub fn remove(&mut self, id: &ObjectId) -> bool {
        match self.seq_of.remove(id) {
            Some(seq) => {
                self.by_seq.remove(&seq);
                true
            }
            None => false,
        }
    }

    /// Pop the least-recently-used id.
    pub fn pop_lru(&mut self) -> Option<ObjectId> {
        let (&seq, &id) = self.by_seq.iter().next()?;
        self.by_seq.remove(&seq);
        self.seq_of.remove(&id);
        Some(id)
    }

    /// Iterate ids coldest-first without mutating the index (the spill
    /// picker reads candidates; only eviction pops them).
    pub fn iter_lru(&self) -> impl Iterator<Item = ObjectId> + '_ {
        self.by_seq.values().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(n: u8) -> ObjectId {
        ObjectId::from_bytes([n; 20])
    }

    #[test]
    fn pops_in_recency_order() {
        let mut lru = LruIndex::new();
        lru.touch(id(1));
        lru.touch(id(2));
        lru.touch(id(3));
        lru.touch(id(1)); // refresh 1
        assert_eq!(lru.pop_lru(), Some(id(2)));
        assert_eq!(lru.pop_lru(), Some(id(3)));
        assert_eq!(lru.pop_lru(), Some(id(1)));
        assert_eq!(lru.pop_lru(), None);
    }

    #[test]
    fn remove_unlinks() {
        let mut lru = LruIndex::new();
        lru.touch(id(1));
        lru.touch(id(2));
        assert!(lru.remove(&id(1)));
        assert!(!lru.remove(&id(1)));
        assert_eq!(lru.pop_lru(), Some(id(2)));
        assert!(lru.is_empty());
    }

    #[test]
    fn touch_is_idempotent_in_membership() {
        let mut lru = LruIndex::new();
        lru.touch(id(7));
        lru.touch(id(7));
        assert_eq!(lru.len(), 1);
        assert!(lru.contains(&id(7)));
    }

    #[test]
    fn reinsertion_after_remove_goes_to_mru() {
        let mut lru = LruIndex::new();
        lru.touch(id(1));
        lru.touch(id(2));
        lru.touch(id(3));
        // id(1) gains a reference (removed), then is released again:
        // it must re-enter at the MRU end, not its old position.
        assert!(lru.remove(&id(1)));
        lru.touch(id(1));
        assert_eq!(lru.pop_lru(), Some(id(2)));
        assert_eq!(lru.pop_lru(), Some(id(3)));
        assert_eq!(lru.pop_lru(), Some(id(1)));
    }

    #[test]
    fn order_stable_across_interleaved_touch_remove_cycles() {
        let mut lru = LruIndex::new();
        for n in 1..=5u8 {
            lru.touch(id(n));
        }
        // Cycle every entry once through remove+touch in reverse order;
        // the pop order must follow the *new* touch order exactly.
        for n in (1..=5u8).rev() {
            lru.remove(&id(n));
            lru.touch(id(n));
        }
        let popped: Vec<_> = std::iter::from_fn(|| lru.pop_lru()).collect();
        assert_eq!(popped, vec![id(5), id(4), id(3), id(2), id(1)]);
    }

    #[test]
    fn pop_on_empty_is_stable_not_looping() {
        let mut lru = LruIndex::new();
        assert_eq!(lru.pop_lru(), None);
        lru.touch(id(1));
        assert_eq!(lru.pop_lru(), Some(id(1)));
        // Popping an exhausted index keeps returning None (the store's
        // eviction loop relies on this to fail fast with OutOfMemory).
        assert_eq!(lru.pop_lru(), None);
        assert_eq!(lru.pop_lru(), None);
        assert!(lru.is_empty());
    }
}
