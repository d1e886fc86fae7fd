//! A cluster's donated memory costs the host what is stored in it, not its
//! capacity: launching three nodes of 64 MiB each commits far less than
//! 192 MiB. A configuration the host cannot map fails the launch with an
//! error instead of aborting the process.
//!
//! A test binary with one test: `VmRSS` counts every thread of the
//! process, so nothing else may run beside it.

use disagg::{Cluster, ClusterConfig};

const MIB: u64 = 1 << 20;

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
fn launching_a_cluster_commits_none_of_its_donated_capacity() {
    let before = rss_bytes();
    let cluster = Cluster::launch(ClusterConfig::functional(3, 64 << 20)).unwrap();
    let launched = rss_bytes();
    assert!(
        launched.saturating_sub(before) < 32 * MIB,
        "launching 3 x 64 MiB committed {} KiB",
        (launched - before) / 1024
    );
    drop(cluster);

    let unmappable = Cluster::launch(ClusterConfig::functional(1, 1 << 50));
    assert!(unmappable.is_err(), "a 1 PiB node must fail the launch");
}
