//! The disaggregated-memory fabric.
//!
//! A [`Fabric`] models a rack-scale ThymesisFlow deployment: a set of nodes,
//! each of which may *donate* memory segments into the disaggregated pool.
//! Any node can then *attach* a donated segment, obtaining a [`Mapping`]
//! through which plain reads and writes are routed. Accesses through a
//! mapping are charged to the fabric's [`Clock`] according to its
//! [`CostModel`] — the local path if the mapper owns the segment, the remote
//! path otherwise — and recorded in [`FabricStats`].
//!
//! Per-link state ([`LinkState`]) supports failure injection (a downed link
//! makes remote accesses fail) and degradation (a bandwidth-divided link),
//! which the test suite uses to exercise error handling in the layers above.

use crate::cache::CacheSim;
use crate::clock::Clock;
use crate::cost::{CostModel, MemOp, Path};
use crate::seg::{SegError, Segment};
use crate::stats::FabricStats;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Identifier of a node participating in the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u16);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// Identifier of a donated segment: owning node plus per-node index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SegKey {
    pub owner: NodeId,
    pub index: u32,
}

impl fmt::Display for SegKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/seg{}", self.owner, self.index)
    }
}

/// State of the fabric link between a pair of nodes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LinkState {
    /// Healthy link: accesses are charged the nominal remote cost.
    Up,
    /// Failed link: remote accesses return [`FabricError::LinkDown`].
    Down,
    /// Degraded link: modeled cost is multiplied by the factor (>1 slows).
    Degraded(f64),
}

/// Errors surfaced by fabric operations.
#[derive(Debug, Clone, PartialEq)]
pub enum FabricError {
    UnknownNode(NodeId),
    UnknownSegment(SegKey),
    LinkDown { from: NodeId, to: NodeId },
    Seg(SegError),
}

impl fmt::Display for FabricError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FabricError::UnknownNode(n) => write!(f, "unknown node {n}"),
            FabricError::UnknownSegment(k) => write!(f, "unknown segment {k}"),
            FabricError::LinkDown { from, to } => write!(f, "fabric link {from} -> {to} is down"),
            FabricError::Seg(e) => write!(f, "segment error: {e}"),
        }
    }
}

impl std::error::Error for FabricError {}

impl From<SegError> for FabricError {
    fn from(e: SegError) -> Self {
        FabricError::Seg(e)
    }
}

struct NodeEntry {
    donated: Vec<Arc<Segment>>,
    cache: Arc<CacheSim>,
}

struct FabricInner {
    nodes: Vec<NodeEntry>,
    /// Non-Up links, keyed by unordered pair (lo, hi). Absent = Up.
    links: HashMap<(u16, u16), LinkState>,
}

/// Everything a fabric's handles share.
struct Shared {
    inner: RwLock<FabricInner>,
    clock: Clock,
    cost: CostModel,
    stats: FabricStats,
    /// SplitMix64 state backing the cost model's per-op jitter.
    noise: AtomicU64,
}

/// A simulated disaggregated-memory fabric. A handle is one shared
/// reference: a clone or a drop is one atomic operation.
#[derive(Clone)]
pub struct Fabric(Arc<Shared>);

impl Fabric {
    /// Fabric with the paper-calibrated cost model and a virtual clock —
    /// the one configuration every store, test and figure harness runs on.
    pub fn virtual_thymesisflow() -> Self {
        Fabric(Arc::new(Shared {
            inner: RwLock::new(FabricInner {
                nodes: Vec::new(),
                links: HashMap::new(),
            }),
            clock: Clock::virtual_time(),
            cost: CostModel::thymesisflow(),
            stats: FabricStats::new(),
            noise: AtomicU64::new(0x5EED_0FFA_B51C),
        }))
    }

    /// Register a new node; returns its id.
    pub fn register_node(&self) -> NodeId {
        let mut inner = self.0.inner.write();
        let id = NodeId(u16::try_from(inner.nodes.len()).expect("fabric node limit"));
        inner.nodes.push(NodeEntry {
            donated: Vec::new(),
            cache: Arc::new(CacheSim::power9_l2()),
        });
        id
    }

    /// Donate `size` bytes of `node`'s memory into the disaggregated pool.
    pub fn donate(&self, node: NodeId, size: usize) -> Result<SegKey, FabricError> {
        let seg = Arc::new(Segment::new(size)?);
        let mut inner = self.0.inner.write();
        let entry = inner
            .nodes
            .get_mut(node.0 as usize)
            .ok_or(FabricError::UnknownNode(node))?;
        let index = u32::try_from(entry.donated.len()).expect("segment limit");
        entry.donated.push(seg);
        Ok(SegKey { owner: node, index })
    }

    /// Attach a donated segment from the perspective of `mapper`, yielding a
    /// [`Mapping`] that charges local or remote costs as appropriate.
    pub fn attach(&self, mapper: NodeId, key: SegKey) -> Result<Mapping, FabricError> {
        let inner = self.0.inner.read();
        if mapper.0 as usize >= inner.nodes.len() {
            return Err(FabricError::UnknownNode(mapper));
        }
        let owner_entry = inner
            .nodes
            .get(key.owner.0 as usize)
            .ok_or(FabricError::UnknownNode(key.owner))?;
        let seg = owner_entry
            .donated
            .get(key.index as usize)
            .cloned()
            .ok_or(FabricError::UnknownSegment(key))?;
        let path = if mapper == key.owner {
            Path::Local
        } else {
            Path::Remote
        };
        Ok(Mapping(Arc::new(MappingInner {
            seg,
            key,
            mapper,
            path,
            fabric: self.clone(),
        })))
    }

    /// The per-node CPU cache simulation (used by coherency experiments).
    pub fn node_cache(&self, node: NodeId) -> Result<Arc<CacheSim>, FabricError> {
        let inner = self.0.inner.read();
        inner
            .nodes
            .get(node.0 as usize)
            .map(|e| Arc::clone(&e.cache))
            .ok_or(FabricError::UnknownNode(node))
    }

    /// Set the state of the (undirected) link between two nodes.
    pub fn set_link(&self, a: NodeId, b: NodeId, state: LinkState) {
        let key = link_key(a, b);
        let mut inner = self.0.inner.write();
        match state {
            LinkState::Up => {
                inner.links.remove(&key);
            }
            other => {
                inner.links.insert(key, other);
            }
        }
    }

    /// Per-operation cost noise factor in `[1-jitter, 1+jitter]`, drawn
    /// from a shared deterministic SplitMix64 stream.
    fn noise_factor(&self) -> f64 {
        let j = self.0.cost.jitter;
        if j == 0.0 {
            return 1.0;
        }
        let x = self
            .0
            .noise
            .fetch_add(0x9E3779B97F4A7C15, Ordering::Relaxed)
            .wrapping_add(0x9E3779B97F4A7C15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^= z >> 31;
        let u = (z >> 11) as f64 / (1u64 << 53) as f64;
        1.0 - j + 2.0 * j * u
    }

    fn link_state(&self, a: NodeId, b: NodeId) -> LinkState {
        if a == b {
            return LinkState::Up;
        }
        self.0
            .inner
            .read()
            .links
            .get(&link_key(a, b))
            .copied()
            .unwrap_or(LinkState::Up)
    }

    pub fn clock(&self) -> &Clock {
        &self.0.clock
    }

    pub fn stats(&self) -> &FabricStats {
        &self.0.stats
    }
}

impl fmt::Debug for Fabric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Fabric")
            .field("nodes", &self.0.inner.read().nodes.len())
            .finish()
    }
}

fn link_key(a: NodeId, b: NodeId) -> (u16, u16) {
    if a.0 <= b.0 {
        (a.0, b.0)
    } else {
        (b.0, a.0)
    }
}

/// A node's view of one donated segment. All data-plane access in the
/// workspace funnels through this type, so costs and stats stay honest.
/// A handle is one shared reference, as a [`Fabric`] is: each
/// [`Fabric::attach`] allocates one, and its clones share it.
#[derive(Clone)]
pub struct Mapping(Arc<MappingInner>);

struct MappingInner {
    seg: Arc<Segment>,
    key: SegKey,
    mapper: NodeId,
    path: Path,
    fabric: Fabric,
}

impl Mapping {
    /// Which path ([`Path::Local`] or [`Path::Remote`]) this mapping takes.
    pub fn path(&self) -> Path {
        self.0.path
    }

    /// The segment this mapping refers to.
    pub fn key(&self) -> SegKey {
        self.0.key
    }

    /// The node holding this mapping.
    pub fn mapper(&self) -> NodeId {
        self.0.mapper
    }

    /// Segment size in bytes.
    pub fn len(&self) -> u64 {
        self.0.seg.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.seg.is_empty()
    }

    /// The raw backing segment — for owner-side cached access experiments.
    pub fn segment(&self) -> &Arc<Segment> {
        &self.0.seg
    }

    fn charge(&self, op: MemOp, bytes: usize) -> Result<(), FabricError> {
        let MappingInner {
            key,
            mapper,
            path,
            fabric,
            ..
        } = &*self.0;
        let mut cost = fabric
            .0
            .cost
            .cost(*path, op, bytes)
            .mul_f64(fabric.noise_factor());
        if *path == Path::Remote {
            match fabric.link_state(*mapper, key.owner) {
                LinkState::Up => {}
                LinkState::Down => {
                    return Err(FabricError::LinkDown {
                        from: *mapper,
                        to: key.owner,
                    })
                }
                LinkState::Degraded(factor) => {
                    cost = Duration::from_secs_f64(cost.as_secs_f64() * factor.max(1.0));
                }
            }
        }
        fabric.0.clock.charge(cost);
        fabric.0.stats.record(*path, op, bytes);
        Ok(())
    }

    /// Read `dst.len()` bytes at `offset`, charging the modeled cost.
    pub fn read_at(&self, offset: u64, dst: &mut [u8]) -> Result<(), FabricError> {
        self.0.seg.read_into(offset, dst)?;
        self.charge(MemOp::Read, dst.len())
    }

    /// Write `src` at `offset`, charging the modeled cost.
    pub fn write_at(&self, offset: u64, src: &[u8]) -> Result<(), FabricError> {
        self.0.seg.write_from(offset, src)?;
        self.charge(MemOp::Write, src.len())
    }

    /// Hand `f` the `len` bytes at `offset` in place, charged as
    /// [`Mapping::read_at`] of them charges, before `f` runs.
    fn read_with<R>(
        &self,
        offset: u64,
        len: usize,
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<R, FabricError> {
        let seg = &self.0.seg;
        seg.check(offset, len)?;
        self.charge(MemOp::Read, len)?;
        Ok(seg.read_with(offset, len, f)?)
    }

    /// Read into a fresh vector, in one pass over the bytes.
    pub fn read_vec(&self, offset: u64, len: usize) -> Result<Vec<u8>, FabricError> {
        self.read_with(offset, len, <[u8]>::to_vec)
    }

    /// Owner-side read *through the node's simulated CPU cache*. Only
    /// meaningful for local mappings; models the Fig. 3b staleness hazard.
    pub fn read_cached(&self, offset: u64, dst: &mut [u8]) -> Result<(), FabricError> {
        let cache = self.0.fabric.node_cache(self.0.mapper)?;
        cache.read_through(&self.0.seg, offset, dst)?;
        self.charge(MemOp::Read, dst.len())
    }

    /// A bounds-checked window `[offset, offset+len)` of this mapping.
    pub fn view(&self, offset: u64, len: u64) -> Result<MappedView, FabricError> {
        let segment_len = self.0.seg.len();
        if offset.checked_add(len).is_none_or(|end| end > segment_len) {
            return Err(FabricError::Seg(SegError::OutOfBounds {
                offset,
                len: usize::try_from(len).unwrap_or(usize::MAX),
                segment_len,
            }));
        }
        Ok(MappedView {
            mapping: self.clone(),
            base: offset,
            len,
        })
    }
}

impl fmt::Debug for Mapping {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Mapping")
            .field("key", &self.0.key)
            .field("mapper", &self.0.mapper)
            .field("path", &self.0.path)
            .field("len", &self.len())
            .finish()
    }
}

/// A window into a [`Mapping`] with its own relative coordinates — the shape
/// handed out as an object buffer by the Plasma layers.
#[derive(Debug, Clone)]
pub struct MappedView {
    mapping: Mapping,
    base: u64,
    len: u64,
}

impl MappedView {
    pub fn len(&self) -> u64 {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn path(&self) -> Path {
        self.mapping.path()
    }

    fn check(&self, offset: u64, len: usize) -> Result<u64, FabricError> {
        if offset
            .checked_add(len as u64)
            .is_none_or(|end| end > self.len)
        {
            return Err(FabricError::Seg(SegError::OutOfBounds {
                offset,
                len,
                segment_len: self.len,
            }));
        }
        Ok(self.base + offset)
    }

    /// Read `dst.len()` bytes at view-relative `offset`.
    pub fn read_at(&self, offset: u64, dst: &mut [u8]) -> Result<(), FabricError> {
        let abs = self.check(offset, dst.len())?;
        self.mapping.read_at(abs, dst)
    }

    /// Write `src` at view-relative `offset`.
    pub fn write_at(&self, offset: u64, src: &[u8]) -> Result<(), FabricError> {
        let abs = self.check(offset, src.len())?;
        self.mapping.write_at(abs, src)
    }

    /// Read the whole view in place: `f` gets its bytes, as the source
    /// of a copy it writes elsewhere, and the read is charged as
    /// [`MappedView::read_at`] of the whole view charges it, before `f`
    /// runs. No buffer is allocated for the bytes.
    pub fn read_with<R>(&self, f: impl FnOnce(&[u8]) -> R) -> Result<R, FabricError> {
        let len = usize::try_from(self.len).expect("view fits in memory");
        self.mapping.read_with(self.base, len, f)
    }

    /// Read the whole view into a vector, in one pass over the bytes.
    pub fn read_all(&self) -> Result<Vec<u8>, FabricError> {
        self.read_with(<[u8]>::to_vec)
    }

    /// Sequentially read the whole view in `chunk`-byte pieces (models a
    /// consumer streaming an object), returning the number of bytes read.
    pub fn read_sequential(&self, chunk: usize) -> Result<u64, FabricError> {
        assert!(chunk > 0);
        let mut buf = vec![0u8; chunk];
        let mut off = 0u64;
        while off < self.len {
            let n = usize::try_from((self.len - off).min(chunk as u64)).unwrap();
            self.read_at(off, &mut buf[..n])?;
            off += n as u64;
        }
        Ok(off)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_node_fabric() -> (Fabric, NodeId, NodeId, SegKey) {
        let f = Fabric::virtual_thymesisflow();
        let a = f.register_node();
        let b = f.register_node();
        let key = f.donate(a, 1 << 20).unwrap();
        (f, a, b, key)
    }

    /// A fabric and a mapping are each one pointer, and a view is a
    /// mapping and its window: a clone or a drop of any of them is one
    /// atomic operation.
    #[test]
    fn a_handle_is_one_pointer() {
        use std::mem::size_of;
        assert_eq!(size_of::<Fabric>(), size_of::<usize>());
        assert_eq!(size_of::<Mapping>(), size_of::<usize>());
        assert!(size_of::<MappedView>() <= 3 * size_of::<usize>());
        let (f, a, _, key) = two_node_fabric();
        let m = f.attach(a, key).unwrap();
        let v = m.view(0, 8).unwrap();
        assert_eq!(Arc::strong_count(&m.0), 2, "a view shares its mapping");
        assert_eq!(Arc::strong_count(&f.0), 2, "a mapping shares its fabric");
        drop(v);
        assert_eq!(Arc::strong_count(&m.0), 1);
    }

    #[test]
    fn reads_charge_what_read_at_charges() {
        let (f, a, b, key) = two_node_fabric();
        let ma = f.attach(a, key).unwrap();
        ma.write_at(64, b"one pass").unwrap();
        for m in [ma, f.attach(b, key).unwrap()] {
            let mut buf = [0u8; 8];
            let (_, by_read_at) = f.clock().time(|| m.read_at(64, &mut buf).unwrap());
            let (bytes, by_read_vec) = f.clock().time(|| m.read_vec(64, 8).unwrap());
            let view = m.view(64, 8).unwrap();
            let (all, by_read_all) = f.clock().time(|| view.read_all().unwrap());
            assert_eq!((&bytes[..], &all[..]), (&buf[..], &buf[..]));
            // Each is one charge of 8 bytes on one path; only the noise
            // factor, one draw each, tells them apart.
            let nominal = CostModel::thymesisflow()
                .cost(m.path(), MemOp::Read, 8)
                .as_secs_f64();
            for charged in [by_read_at, by_read_vec, by_read_all] {
                let factor = charged.as_secs_f64() / nominal;
                assert!((0.95..=1.05).contains(&factor), "{charged:?} of {nominal}");
            }
            assert!(m.read_vec(u64::MAX, 1).is_err());
        }
        let s = f.stats().snapshot();
        assert_eq!((s.local_read_ops, s.local_read_bytes), (3, 24));
        assert_eq!((s.remote_read_ops, s.remote_read_bytes), (3, 24));
    }

    #[test]
    fn local_and_remote_paths() {
        let (f, a, b, key) = two_node_fabric();
        assert_eq!(f.attach(a, key).unwrap().path(), Path::Local);
        assert_eq!(f.attach(b, key).unwrap().path(), Path::Remote);
    }

    #[test]
    fn data_visible_across_nodes() {
        let (f, a, b, key) = two_node_fabric();
        let ma = f.attach(a, key).unwrap();
        let mb = f.attach(b, key).unwrap();
        ma.write_at(123, b"shared over fabric").unwrap();
        assert_eq!(mb.read_vec(123, 18).unwrap(), b"shared over fabric");
    }

    #[test]
    fn remote_access_costs_more() {
        let (f, a, b, key) = two_node_fabric();
        let ma = f.attach(a, key).unwrap();
        let mb = f.attach(b, key).unwrap();
        let buf = vec![0u8; 1 << 19];
        let (_, local_cost) = f.clock().time(|| ma.write_at(0, &buf).unwrap());
        let (_, remote_cost) = f.clock().time(|| mb.write_at(0, &buf).unwrap());
        assert!(
            remote_cost > local_cost,
            "{remote_cost:?} <= {local_cost:?}"
        );
    }

    #[test]
    fn stats_accounting() {
        let (f, a, b, key) = two_node_fabric();
        let ma = f.attach(a, key).unwrap();
        let mb = f.attach(b, key).unwrap();
        ma.write_at(0, &[1u8; 100]).unwrap();
        let mut buf = [0u8; 40];
        mb.read_at(0, &mut buf).unwrap();
        let s = f.stats().snapshot();
        assert_eq!(s.local_write_bytes, 100);
        assert_eq!(s.remote_read_bytes, 40);
        assert_eq!(s.fabric_bytes(), 40);
    }

    #[test]
    fn link_down_blocks_remote_but_not_local() {
        let (f, a, b, key) = two_node_fabric();
        let ma = f.attach(a, key).unwrap();
        let mb = f.attach(b, key).unwrap();
        f.set_link(a, b, LinkState::Down);
        assert!(matches!(
            mb.read_vec(0, 8),
            Err(FabricError::LinkDown { .. })
        ));
        ma.read_vec(0, 8).unwrap();
        f.set_link(a, b, LinkState::Up);
        mb.read_vec(0, 8).unwrap();
    }

    #[test]
    fn degraded_link_multiplies_cost() {
        let (f, a, b, key) = two_node_fabric();
        let _ = a;
        let mb = f.attach(b, key).unwrap();
        let buf = vec![0u8; 1 << 18];
        let (_, nominal) = f.clock().time(|| mb.write_at(0, &buf).unwrap());
        f.set_link(a, b, LinkState::Degraded(4.0));
        let (_, degraded) = f.clock().time(|| mb.write_at(0, &buf).unwrap());
        assert!(degraded > nominal * 3, "{degraded:?} vs {nominal:?}");
    }

    #[test]
    fn an_unmappable_donation_is_an_error() {
        let f = Fabric::virtual_thymesisflow();
        let a = f.register_node();
        assert_eq!(
            f.donate(a, 1 << 50),
            Err(FabricError::Seg(SegError::MapFailed { len: 1 << 50 }))
        );
    }

    #[test]
    fn unknown_ids_are_errors() {
        let f = Fabric::virtual_thymesisflow();
        let a = f.register_node();
        assert!(matches!(
            f.donate(NodeId(9), 4096),
            Err(FabricError::UnknownNode(_))
        ));
        assert!(matches!(
            f.attach(
                a,
                SegKey {
                    owner: NodeId(9),
                    index: 0
                }
            ),
            Err(FabricError::UnknownNode(_))
        ));
        let key = f.donate(a, 4096).unwrap();
        assert!(matches!(
            f.attach(
                a,
                SegKey {
                    owner: a,
                    index: key.index + 1
                }
            ),
            Err(FabricError::UnknownSegment(_))
        ));
    }

    #[test]
    fn view_bounds_and_relative_addressing() {
        let (f, a, _, key) = two_node_fabric();
        let m = f.attach(a, key).unwrap();
        m.write_at(1000, b"abcdef").unwrap();
        let v = m.view(1000, 6).unwrap();
        assert_eq!(v.read_all().unwrap(), b"abcdef");
        let mut two = [0u8; 2];
        v.read_at(2, &mut two).unwrap();
        assert_eq!(&two, b"cd");
        assert!(v.read_at(5, &mut two).is_err());
        assert!(m.view(1 << 20, 1).is_err());
    }

    #[test]
    fn sequential_read_covers_view() {
        let (f, _, b, key) = two_node_fabric();
        let m = f.attach(b, key).unwrap();
        let v = m.view(0, 100_000).unwrap();
        assert_eq!(v.read_sequential(4096).unwrap(), 100_000);
        let s = f.stats().snapshot();
        assert_eq!(s.remote_read_bytes, 100_000);
    }

    #[test]
    fn owner_cached_read_sees_staleness_until_invalidate() {
        let (f, a, b, key) = two_node_fabric();
        let ma = f.attach(a, key).unwrap();
        let mb = f.attach(b, key).unwrap();
        ma.write_at(0, b"v1------").unwrap();
        let mut buf = [0u8; 8];
        ma.read_cached(0, &mut buf).unwrap();
        assert_eq!(&buf, b"v1------");
        // Remote write does not invalidate the owner's cache.
        mb.write_at(0, b"v2------").unwrap();
        ma.read_cached(0, &mut buf).unwrap();
        assert_eq!(&buf, b"v1------", "owner must observe stale data");
        // Uncached (coherent) read sees the new value.
        ma.read_at(0, &mut buf).unwrap();
        assert_eq!(&buf, b"v2------");
        // Invalidation restores coherence for cached reads too.
        f.node_cache(a)
            .unwrap()
            .invalidate_range(ma.segment(), 0, 8);
        ma.read_cached(0, &mut buf).unwrap();
        assert_eq!(&buf, b"v2------");
    }
}
