//! Per-node CPU cache simulation.
//!
//! Models the cache-coherency hazard of ThymesisFlow's one-way coherent
//! writes (paper Fig. 3): when node *B* writes into memory *donated by node
//! A* over the fabric, the write reaches A's DRAM, but A's CPU may still
//! hold the previous value of those cachelines. A will keep reading the
//! stale value until the lines are explicitly invalidated (which on the real
//! system would require a custom kernel module).
//!
//! The simulation is a read-allocate LRU cache of 128-byte lines (the
//! POWER9 cacheline size). Reads by the owning node go *through* its cache;
//! fabric-originated writes bypass it, which is exactly what creates
//! observable staleness. [`CacheSim::invalidate_range`] models explicit
//! cache management.

use crate::seg::{SegError, Segment};
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// POWER9 cacheline size in bytes.
pub const DEFAULT_LINE_SIZE: usize = 128;

/// Identity of a segment for cache keying (the `Arc` allocation address).
fn seg_tag(seg: &Arc<Segment>) -> usize {
    Arc::as_ptr(seg) as usize
}

type LineKey = (usize, u64); // (segment tag, line index)

#[derive(Default)]
struct LruState {
    /// line key -> (data, LRU stamp)
    lines: HashMap<LineKey, (Box<[u8]>, u64)>,
    /// LRU stamp -> line key (inverse index for O(log n) eviction)
    order: BTreeMap<u64, LineKey>,
    next_stamp: u64,
}

impl LruState {
    fn touch(&mut self, key: LineKey) {
        if let Some((_, stamp)) = self.lines.get_mut(&key) {
            self.order.remove(stamp);
            *stamp = self.next_stamp;
            self.order.insert(self.next_stamp, key);
            self.next_stamp += 1;
        }
    }

    fn insert(&mut self, key: LineKey, data: Box<[u8]>, capacity: usize) {
        if let Some((_, old_stamp)) = self.lines.insert(key, (data, self.next_stamp)) {
            self.order.remove(&old_stamp);
        }
        self.order.insert(self.next_stamp, key);
        self.next_stamp += 1;
        while self.lines.len() > capacity {
            let (&stamp, &victim) = self.order.iter().next().expect("order tracks lines");
            self.order.remove(&stamp);
            self.lines.remove(&victim);
        }
    }

    fn remove(&mut self, key: &LineKey) {
        if let Some((_, stamp)) = self.lines.remove(key) {
            self.order.remove(&stamp);
        }
    }
}

/// Outcome of a cached read: how many lines hit vs missed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheOutcome {
    pub hit_lines: u64,
    pub miss_lines: u64,
}

/// A simulated per-node CPU cache (see module docs).
pub struct CacheSim {
    line_size: usize,
    capacity_lines: usize,
    state: Mutex<LruState>,
    hits: AtomicU64,
    misses: AtomicU64,
    invalidations: AtomicU64,
}

impl CacheSim {
    /// A cache of `capacity_lines` lines of `line_size` bytes each.
    pub fn new(line_size: usize, capacity_lines: usize) -> Self {
        assert!(
            line_size.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(capacity_lines > 0, "cache must hold at least one line");
        CacheSim {
            line_size,
            capacity_lines,
            state: Mutex::new(LruState::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        }
    }

    /// Default-shaped cache: 128-byte lines, 8 Ki lines (1 MiB).
    pub fn power9_l2() -> Self {
        Self::new(DEFAULT_LINE_SIZE, 8192)
    }

    pub fn line_size(&self) -> usize {
        self.line_size
    }

    /// Read `dst.len()` bytes at `offset` from `seg`, going through the
    /// cache: hit lines are served from (possibly stale) cached copies,
    /// miss lines are fetched from the segment and allocated.
    pub fn read_through(
        &self,
        seg: &Arc<Segment>,
        offset: u64,
        dst: &mut [u8],
    ) -> Result<CacheOutcome, SegError> {
        if dst.is_empty() {
            return Ok(CacheOutcome::default());
        }
        // Bounds check up front so a partial read never happens.
        if offset
            .checked_add(dst.len() as u64)
            .is_none_or(|end| end > seg.len())
        {
            return Err(SegError::OutOfBounds {
                offset,
                len: dst.len(),
                segment_len: seg.len(),
            });
        }
        let tag = seg_tag(seg);
        let ls = self.line_size as u64;
        let first_line = offset / ls;
        let last_line = (offset + dst.len() as u64 - 1) / ls;
        let mut outcome = CacheOutcome::default();
        let mut state = self.state.lock();
        for line in first_line..=last_line {
            let line_start = line * ls;
            // Intersection of this line with the requested range.
            let lo = line_start.max(offset);
            let hi = (line_start + ls).min(offset + dst.len() as u64);
            let dst_range = (lo - offset) as usize..(hi - offset) as usize;
            let in_line = (lo - line_start) as usize..(hi - line_start) as usize;
            let key = (tag, line);
            if let Some((data, _)) = state.lines.get(&key) {
                dst[dst_range].copy_from_slice(&data[in_line]);
                state.touch(key);
                outcome.hit_lines += 1;
            } else {
                // Fetch the whole line (clamped to segment end).
                let fetch_len = ((line_start + ls).min(seg.len()) - line_start) as usize;
                let mut buf = vec![0u8; fetch_len];
                seg.read_into(line_start, &mut buf)?;
                dst[dst_range].copy_from_slice(&buf[in_line]);
                state.insert(key, buf.into_boxed_slice(), self.capacity_lines);
                outcome.miss_lines += 1;
            }
        }
        self.hits.fetch_add(outcome.hit_lines, Ordering::Relaxed);
        self.misses.fetch_add(outcome.miss_lines, Ordering::Relaxed);
        Ok(outcome)
    }

    /// A write performed *by the owning node itself*: coherent with its own
    /// cache, so affected lines are dropped before the segment is updated.
    pub fn write_local(&self, seg: &Arc<Segment>, offset: u64, src: &[u8]) -> Result<(), SegError> {
        self.invalidate_range(seg, offset, src.len());
        seg.write_from(offset, src)
    }

    /// Drop any cached lines overlapping `offset..offset+len` — models
    /// explicit cache management (e.g. the custom kernel module the paper
    /// discusses).
    pub fn invalidate_range(&self, seg: &Arc<Segment>, offset: u64, len: usize) {
        if len == 0 {
            return;
        }
        let tag = seg_tag(seg);
        let ls = self.line_size as u64;
        let first = offset / ls;
        let last = (offset + len as u64 - 1) / ls;
        let mut state = self.state.lock();
        let mut n = 0u64;
        for line in first..=last {
            state.remove(&(tag, line));
            n += 1;
        }
        self.invalidations.fetch_add(n, Ordering::Relaxed);
    }

    /// (hits, misses, invalidated-lines) since creation.
    pub fn counters(&self) -> (u64, u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
            self.invalidations.load(Ordering::Relaxed),
        )
    }

    /// Number of lines currently resident.
    pub fn resident_lines(&self) -> usize {
        self.state.lock().lines.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg_with(data: &[u8]) -> Arc<Segment> {
        let s = Arc::new(Segment::new(data.len().max(1).next_multiple_of(4096)).unwrap());
        s.write_from(0, data).unwrap();
        s
    }

    #[test]
    fn miss_then_hit() {
        let cache = CacheSim::new(128, 16);
        let seg = seg_with(&[7u8; 4096]);
        let mut buf = [0u8; 256];
        let o1 = cache.read_through(&seg, 0, &mut buf).unwrap();
        assert_eq!(
            o1,
            CacheOutcome {
                hit_lines: 0,
                miss_lines: 2
            }
        );
        let o2 = cache.read_through(&seg, 0, &mut buf).unwrap();
        assert_eq!(
            o2,
            CacheOutcome {
                hit_lines: 2,
                miss_lines: 0
            }
        );
        assert!(buf.iter().all(|&b| b == 7));
    }

    #[test]
    fn stale_read_after_uncoordinated_write() {
        // This is the paper's Fig. 3b hazard reproduced in miniature.
        let cache = CacheSim::new(128, 16);
        let seg = seg_with(b"old value........");
        let mut buf = [0u8; 9];
        cache.read_through(&seg, 0, &mut buf).unwrap();
        assert_eq!(&buf, b"old value");
        // A "remote node" writes directly to the backing memory.
        seg.write_from(0, b"new value").unwrap();
        // The owner still sees the stale cached line...
        cache.read_through(&seg, 0, &mut buf).unwrap();
        assert_eq!(&buf, b"old value");
        // ...until it explicitly invalidates.
        cache.invalidate_range(&seg, 0, 9);
        cache.read_through(&seg, 0, &mut buf).unwrap();
        assert_eq!(&buf, b"new value");
    }

    #[test]
    fn local_write_is_coherent() {
        let cache = CacheSim::new(128, 16);
        let seg = seg_with(b"aaaaaaaaaaaaaaaa");
        let mut buf = [0u8; 4];
        cache.read_through(&seg, 0, &mut buf).unwrap();
        cache.write_local(&seg, 0, b"bbbb").unwrap();
        cache.read_through(&seg, 0, &mut buf).unwrap();
        assert_eq!(&buf, b"bbbb");
    }

    #[test]
    fn lru_evicts_oldest_line() {
        let cache = CacheSim::new(128, 2);
        let seg = seg_with(&[0u8; 4096]);
        let mut b = [0u8; 1];
        cache.read_through(&seg, 0, &mut b).unwrap(); // line 0
        cache.read_through(&seg, 128, &mut b).unwrap(); // line 1
        cache.read_through(&seg, 0, &mut b).unwrap(); // touch line 0
        cache.read_through(&seg, 256, &mut b).unwrap(); // line 2 -> evicts line 1
        assert_eq!(cache.resident_lines(), 2);
        let o = cache.read_through(&seg, 0, &mut b).unwrap();
        assert_eq!(o.hit_lines, 1, "line 0 should have survived");
        let o = cache.read_through(&seg, 128, &mut b).unwrap();
        assert_eq!(o.miss_lines, 1, "line 1 should have been evicted");
    }

    #[test]
    fn unaligned_ranges_cover_partial_lines() {
        let cache = CacheSim::new(128, 16);
        let data: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();
        let seg = seg_with(&data);
        let mut buf = vec![0u8; 300];
        cache.read_through(&seg, 100, &mut buf).unwrap();
        assert_eq!(&buf[..], &data[100..400]);
    }

    #[test]
    fn out_of_bounds_is_an_error() {
        let cache = CacheSim::new(128, 16);
        let seg = seg_with(&[0u8; 4096]);
        let mut buf = [0u8; 64];
        assert!(cache.read_through(&seg, 4090, &mut buf).is_err());
    }

    #[test]
    fn distinct_segments_do_not_alias() {
        let cache = CacheSim::new(128, 16);
        let a = seg_with(&[1u8; 4096]);
        let b = seg_with(&[2u8; 4096]);
        let mut buf = [0u8; 8];
        cache.read_through(&a, 0, &mut buf).unwrap();
        assert_eq!(buf, [1u8; 8]);
        cache.read_through(&b, 0, &mut buf).unwrap();
        assert_eq!(buf, [2u8; 8]);
    }
}
