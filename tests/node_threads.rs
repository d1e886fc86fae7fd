//! A cluster of any size runs one interconnect reader: no thread waits
//! to accept a connection, stopping and restarting a node's interconnect
//! adds none, and a Plasma client costs one `plasma-conn` thread for as
//! long as it is connected. One test in its own binary, so every thread
//! this process has is this test's or its cluster's.

use disagg::{Cluster, ClusterConfig};
use plasma::ObjectId;
use std::time::{Duration, Instant};

/// This process's thread names.
fn thread_names() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|task| {
            let comm = std::fs::read_to_string(task.ok()?.path().join("comm")).ok()?;
            Some(comm.trim_end().to_string())
        })
        .collect()
}

fn named(prefix: &str) -> usize {
    let names = thread_names();
    names.iter().filter(|n| n.starts_with(prefix)).count()
}

/// Wait until `prefix` names exactly `want` threads. A thread takes its
/// name once it runs and is gone once it has returned, both a little
/// after the call that starts or ends it; the bound only turns a thread
/// that never comes or never goes into a failure instead of a hang.
fn until_named(prefix: &str, want: usize) {
    let give_up = Instant::now() + Duration::from_secs(10);
    while named(prefix) != want {
        assert!(
            Instant::now() < give_up,
            "{} `{prefix}` threads, not {want}: {:?}",
            named(prefix),
            thread_names()
        );
        std::thread::yield_now();
    }
}

#[test]
fn a_node_is_one_reader_and_a_client_one_connection_thread() {
    let mut cluster = Cluster::launch(ClusterConfig::functional(16, 1 << 20)).unwrap();
    until_named("rpc-serve", 1);
    for accept in ["rpc-acc", "plasma-acc"] {
        assert_eq!(named(accept), 0, "{:?}", thread_names());
    }
    assert_eq!(named("plasma-conn"), 0);

    let clients: Vec<_> = (0..3).map(|i| cluster.client(i).unwrap()).collect();
    until_named("plasma-conn", 3);
    drop(clients);
    until_named("plasma-conn", 0);
    assert_eq!(named("rpc-serve"), 1);

    // Node 3's interconnect stops and comes back on the same reader.
    cluster.stop_rpc(3);
    assert_eq!(named("rpc-serve"), 1);
    cluster.restart_rpc(3).unwrap();
    assert_eq!(named("rpc-serve"), 1);
    let id = ObjectId::from_name(&cluster.owned_id(3, "after-restart"));
    let client = cluster.client(0).unwrap();
    client.put(id, b"node 3 answers", &[]).unwrap();
    assert!(cluster.store(3).core().contains(id));
    drop(client);

    drop(cluster);
    until_named("rpc-serve", 0);
}
