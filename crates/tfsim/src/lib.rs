//! # tfsim — ThymesisFlow-style disaggregated-memory fabric simulator
//!
//! This crate stands in for the ThymesisFlow hardware stack (POWER9 +
//! OpenCAPI FPGA) that the paper's testbed uses and that is not available
//! here. It reproduces the two properties of that hardware the paper's
//! design and evaluation depend on:
//!
//! 1. **Asymmetric access cost** — remote (fabric) loads/stores are slower
//!    than local ones by a calibrated factor
//!    ([`CostModel::thymesisflow`]: ~6.5 GiB/s local vs ~5.75 GiB/s remote
//!    single-thread streaming, sub-µs per-op setup latency on the remote
//!    path).
//! 2. **One-way cache coherency** — reads over the fabric are coherent, but
//!    a fabric write does not invalidate the *owning* node's CPU cache, so
//!    the owner can observe stale data ([`CacheSim`], paper Fig. 3b).
//!
//! Costs are charged to a [`Clock`] that accumulates virtual time, so
//! experiments are deterministic; see [`clock`].
//!
//! ## Example
//!
//! ```
//! use tfsim::{Fabric, Path};
//!
//! let fabric = Fabric::virtual_thymesisflow();
//! let a = fabric.register_node();
//! let b = fabric.register_node();
//!
//! // Node A donates 1 MiB into the disaggregated pool.
//! let key = fabric.donate(a, 1 << 20).unwrap();
//!
//! // Node B maps it and reads/writes it directly, like hardware would.
//! let map_b = fabric.attach(b, key).unwrap();
//! assert_eq!(map_b.path(), Path::Remote);
//! map_b.write_at(0, b"hello").unwrap();
//!
//! let map_a = fabric.attach(a, key).unwrap();
//! assert_eq!(map_a.read_vec(0, 5).unwrap(), b"hello");
//! ```

pub mod cache;
pub mod clock;
pub mod cost;
pub mod fabric;
pub mod seg;
pub mod stats;

pub use cache::{CacheOutcome, CacheSim, DEFAULT_LINE_SIZE};
pub use clock::Clock;
pub use cost::{CostModel, MemOp, Path, PathCost};
pub use fabric::{Fabric, FabricError, LinkState, MappedView, Mapping, NodeId, SegKey};
pub use seg::{SegError, Segment, SEGMENT_ALIGN};
pub use stats::{FabricStats, StatsSnapshot};
