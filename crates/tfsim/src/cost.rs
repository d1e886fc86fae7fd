//! Fabric cost model.
//!
//! Encodes the performance characteristics of a ThymesisFlow-style
//! disaggregated-memory interconnect as seen by a single hardware thread:
//! a fixed per-operation setup latency plus a per-byte streaming cost, with
//! separate parameters for the local and the remote (off-node, through the
//! FPGA/OpenCAPI path) cases.
//!
//! The default parameters are calibrated against the paper's measurements on
//! two IBM IC922 + AD9V3 systems: sequential single-thread read bandwidth of
//! ~6.5 GiB/s local and ~5.75 GiB/s remote (Fig. 7), and a remote access
//! setup latency in the sub-microsecond range typical of load/store fabrics
//! (ThymesisFlow reports ~600-960 ns round-trip for cacheline fetches).

use std::time::Duration;

const GIB: f64 = 1024.0 * 1024.0 * 1024.0;

/// Which path a memory access takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Path {
    /// Access to the node's own memory (including its own donated segment).
    Local,
    /// Access to another node's donated memory through the fabric.
    Remote,
}

/// Kind of memory operation being costed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemOp {
    Read,
    Write,
}

/// Parameters of one access path.
#[derive(Debug, Clone, Copy)]
pub struct PathCost {
    /// Sustained streaming bandwidth in GiB/s for reads.
    pub read_gibps: f64,
    /// Sustained streaming bandwidth in GiB/s for writes.
    pub write_gibps: f64,
    /// Fixed setup latency charged once per operation.
    pub op_latency: Duration,
}

impl PathCost {
    fn cost(&self, op: MemOp, bytes: usize) -> Duration {
        let gibps = match op {
            MemOp::Read => self.read_gibps,
            MemOp::Write => self.write_gibps,
        };
        let stream_ns = (bytes as f64) / (gibps * GIB) * 1e9;
        self.op_latency + Duration::from_nanos(stream_ns as u64)
    }
}

/// The full cost model of a simulated fabric.
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    pub local: PathCost,
    pub remote: PathCost,
    /// Multiplicative per-operation noise amplitude in `[0, 1)`: each
    /// access cost is scaled by a factor uniform in `[1-jitter, 1+jitter]`,
    /// reproducing the run-to-run spread the paper's Fig. 7 box plots show.
    pub jitter: f64,
}

impl CostModel {
    /// Calibrated to the paper's IC922 + ThymesisFlow testbed (see module
    /// docs). Use this for reproducing the paper's figures.
    pub fn thymesisflow() -> Self {
        CostModel {
            local: PathCost {
                read_gibps: 6.5,
                write_gibps: 6.5,
                op_latency: Duration::from_nanos(90),
            },
            remote: PathCost {
                read_gibps: 5.75,
                write_gibps: 5.4,
                op_latency: Duration::from_nanos(900),
            },
            jitter: 0.04,
        }
    }

    /// Cost of transferring `bytes` in one operation over `path`.
    pub fn cost(&self, path: Path, op: MemOp, bytes: usize) -> Duration {
        match path {
            Path::Local => self.local.cost(op, bytes),
            Path::Remote => self.remote.cost(op, bytes),
        }
    }

    /// Effective bandwidth (GiB/s) a single thread achieves for back-to-back
    /// operations of `chunk` bytes over `path`, per this model. Handy for
    /// calibration assertions in tests and benches.
    pub fn effective_gibps(&self, path: Path, op: MemOp, chunk: usize) -> f64 {
        let d = self.cost(path, op, chunk);
        if d.is_zero() {
            return f64::INFINITY;
        }
        (chunk as f64 / GIB) / d.as_secs_f64()
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::thymesisflow()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn remote_reads_slower_than_local() {
        let m = CostModel::thymesisflow();
        let local = m.cost(Path::Local, MemOp::Read, 1 << 20);
        let remote = m.cost(Path::Remote, MemOp::Read, 1 << 20);
        assert!(remote > local, "{remote:?} vs {local:?}");
    }

    #[test]
    fn calibration_matches_paper_plateau() {
        // For large transfers, effective bandwidth should approach the
        // paper's Fig. 7 plateau: ~6.5 GiB/s local, ~5.75 GiB/s remote.
        let m = CostModel::thymesisflow();
        let local = m.effective_gibps(Path::Local, MemOp::Read, 100 * 1000 * 1000);
        let remote = m.effective_gibps(Path::Remote, MemOp::Read, 100 * 1000 * 1000);
        assert!((local - 6.5).abs() < 0.1, "local={local}");
        assert!((remote - 5.75).abs() < 0.1, "remote={remote}");
        // ~11.5% penalty.
        let penalty = (local - remote) / local;
        assert!(penalty > 0.08 && penalty < 0.15, "penalty={penalty}");
    }

    #[test]
    fn op_latency_dominates_small_transfers() {
        let m = CostModel::thymesisflow();
        // A 64-byte remote access is dominated by setup latency, so
        // effective bandwidth collapses far below the plateau.
        let bw = m.effective_gibps(Path::Remote, MemOp::Read, 64);
        assert!(bw < 1.0, "bw={bw}");
    }

    #[test]
    fn zero_bytes_costs_only_latency() {
        let m = CostModel::thymesisflow();
        assert_eq!(m.cost(Path::Local, MemOp::Read, 0), m.local.op_latency);
    }
}
