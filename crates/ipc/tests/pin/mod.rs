//! Pinning a test's threads to one CPU, shared by the test binaries that
//! need it.

/// Bytes in the affinity mask passed to the kernel (1024 CPUs).
const MASK_BYTES: usize = 128;

extern "C" {
    // glibc wrappers; `pid` 0 means the calling thread.
    fn sched_getcpu() -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u8) -> i32;
}

/// Confine the calling thread, and every thread it later spawns, to the
/// CPU it is running on now.
pub fn pin_here() -> usize {
    // SAFETY: no arguments; it only reports the calling thread's CPU.
    let cpu = usize::try_from(unsafe { sched_getcpu() }).expect("sched_getcpu");
    let mut mask = [0u8; MASK_BYTES];
    mask[cpu / 8] |= 1 << (cpu % 8);
    // SAFETY: `mask` is a readable buffer of exactly the size passed.
    let rc = unsafe { sched_setaffinity(0, MASK_BYTES, mask.as_ptr()) };
    assert_eq!(rc, 0, "sched_setaffinity to CPU {cpu}");
    cpu
}
