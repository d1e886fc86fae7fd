//! CPU confinement and the environment record.
//!
//! Wall-clock numbers from this benchmark are only usable when the whole
//! process — load thread, Plasma server threads, RPC reader threads — runs
//! on one CPU: unpinned, a client↔server hand-off is a cross-vCPU futex
//! wake whose cost depends on where the scheduler happened to put the
//! server thread (see README, "Noise"). The process therefore narrows its
//! own affinity mask to a single allowed CPU before it spawns anything;
//! threads inherit the mask.

use std::process::Command;

/// Bytes in the affinity masks passed to the kernel (1024 CPUs).
const MASK_BYTES: usize = 128;

/// An affinity mask as the kernel reports it.
#[derive(Clone, Copy)]
pub struct CpuMask([u8; MASK_BYTES]);

impl CpuMask {
    pub fn cpus(&self) -> Vec<usize> {
        (0..MASK_BYTES * 8)
            .filter(|c| self.0[c / 8] & (1 << (c % 8)) != 0)
            .collect()
    }

    fn single(cpu: usize) -> CpuMask {
        let mut m = [0u8; MASK_BYTES];
        m[cpu / 8] |= 1 << (cpu % 8);
        CpuMask(m)
    }
}

extern "C" {
    // glibc wrappers; `pid` 0 means the calling thread.
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u8) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u8) -> i32;
}

/// The calling thread's allowed CPUs.
pub fn allowed() -> Option<CpuMask> {
    let mut m = [0u8; MASK_BYTES];
    // SAFETY: `m` is a writable buffer of exactly the size passed, which
    // is all sched_getaffinity requires of its mask argument.
    let rc = unsafe { sched_getaffinity(0, MASK_BYTES, m.as_mut_ptr()) };
    (rc == 0).then_some(CpuMask(m))
}

/// Restrict the calling thread (and every thread it later spawns) to
/// `mask`. Returns whether the kernel accepted it.
pub fn set(mask: &CpuMask) -> bool {
    // SAFETY: `mask.0` is a readable buffer of exactly the size passed.
    unsafe { sched_setaffinity(0, MASK_BYTES, mask.0.as_ptr()) == 0 }
}

/// What `confine` did.
pub struct Pinning {
    /// The CPU the process is confined to, if confinement succeeded.
    pub cpu: Option<usize>,
    /// The mask before confinement (for probes that need two CPUs).
    pub original: Option<CpuMask>,
}

/// Confine the process to one allowed CPU. Must run before any thread is
/// spawned. The highest-numbered allowed CPU is chosen: CPU 0 usually
/// also services the host's interrupts.
pub fn confine() -> Pinning {
    let original = allowed();
    let cpu = original
        .and_then(|m| m.cpus().last().copied())
        .filter(|&c| set(&CpuMask::single(c)));
    Pinning { cpu, original }
}

/// Host facts recorded next to every result.
pub struct Environment {
    pub nproc: usize,
    pub kernel: String,
    pub rustc: String,
}

pub fn environment(pinning: &Pinning) -> Environment {
    let nproc = pinning
        .original
        .map(|m| m.cpus().len())
        .or_else(|| std::thread::available_parallelism().ok().map(usize::from))
        .unwrap_or(1);
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    let rustc = Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    Environment {
        nproc,
        kernel,
        rustc,
    }
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_cpu_mask_round_trips() {
        assert_eq!(CpuMask::single(0).cpus(), vec![0]);
        assert_eq!(CpuMask::single(77).cpus(), vec![77]);
    }

    #[test]
    fn the_test_process_has_an_allowed_cpu() {
        let m = allowed().expect("sched_getaffinity works on Linux");
        assert!(!m.cpus().is_empty());
    }
}
