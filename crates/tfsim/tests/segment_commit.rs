//! A segment costs host memory for the pages written into it, not for its
//! size: mapping one commits nothing, the first write to a page commits
//! that page, and dropping the segment gives every committed page back.
//!
//! A test binary with one test: `VmRSS` counts every thread of the
//! process, so nothing else may run beside it.

use tfsim::Segment;

const MIB: u64 = 1 << 20;
const PAGE: u64 = 4096;

/// Resident memory of this process in bytes (`VmRSS`).
fn rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmRSS:"))
        .expect("a VmRSS line");
    let kib: u64 = line.split_whitespace().nth(1).unwrap().parse().unwrap();
    kib * 1024
}

#[test]
fn a_segment_commits_a_page_on_its_first_write_and_returns_it_on_drop() {
    let before = rss_bytes();
    let seg = Segment::new(256 << 20).unwrap();
    let mapped = rss_bytes();
    assert!(
        mapped.saturating_sub(before) < 8 * MIB,
        "mapping 256 MiB committed {} KiB",
        (mapped - before) / 1024
    );

    let written_len = 16 * MIB;
    for off in (0..written_len).step_by(PAGE as usize) {
        seg.write_from(off, &[0xA5]).unwrap();
    }
    let written = rss_bytes();
    assert!(
        written.saturating_sub(mapped) >= 15 * MIB,
        "one byte per page over 16 MiB committed only {} KiB",
        written.saturating_sub(mapped) / 1024
    );

    // Unwritten bytes read zero: the rest of each written page, and pages
    // never written.
    for off in (0..written_len).step_by((MIB + PAGE + 1) as usize) {
        assert_eq!(seg.read_vec(off + 1, 1).unwrap(), [0], "offset {off}+1");
    }
    for off in (written_len..seg.len()).step_by((7 * MIB + 123) as usize) {
        assert_eq!(seg.read_vec(off, 1).unwrap(), [0], "offset {off}");
    }
    assert_eq!(seg.read_vec(0, 1).unwrap(), [0xA5]);

    drop(seg);
    let dropped = rss_bytes();
    assert!(
        written.saturating_sub(dropped) >= 15 * MIB,
        "dropping the segment returned only {} KiB",
        written.saturating_sub(dropped) / 1024
    );
}
