//! How many times a remote get allocates, on every thread together. A
//! client's get of an object another node owns is one Plasma request to
//! its own store, one `GET_MANY` to the owner and their answers; its
//! release is one Plasma request and one `RELEASE` nobody waits on,
//! filed with the owner's record and closed by the next get's
//! `GET_MANY`, which the owner answers after it. Each message is written
//! once, into the one buffer of the frame that carries it, and each
//! answer is read off its frame.
//!
//! A test binary of its own: the counting allocator in `allocs` sees
//! every thread of the process, so nothing else may run beside the one
//! test.

mod allocs;

use allocs::{nothing, Most, Row, CALLS, WARM};
use disagg::{Cluster, ClusterConfig};
use plasma::ObjectId;
use std::time::Duration;

/// The most allocations one get and release of a remote object may make:
/// 25.3 are made, and a round trip that encoded each message into a
/// buffer of its own and decoded each answer into vectors made 92.3.
const MOST: f64 = 27.5;

#[test]
fn a_remote_get_and_release_allocate_a_bounded_number_of_times() {
    // Every remote id is owned by node 1 and read from node 0; the first
    // get dials and maps what every later one reuses.
    let cluster = Cluster::launch(ClusterConfig::functional(2, 32 << 20)).unwrap();
    let client = cluster.client(0).unwrap();
    let ids: Vec<ObjectId> = cluster
        .owned_ids(1, "allocs/remote", WARM + CALLS)
        .iter()
        .map(|name| ObjectId::from_name(name))
        .collect();
    for &id in &ids {
        client.put(id, &[0x5A; 256], &[]).unwrap();
    }

    allocs::on_client_thread();
    let (client, ids) = (&client, &ids);
    allocs::within_budget(vec![Row {
        name: "remote get + release",
        most: Most::Together(MOST),
        before: nothing(),
        call: Box::new(move |n| {
            let got = client.get(&ids[n..][..1], Duration::from_secs(5)).unwrap();
            assert!(got[0].is_some(), "{} is found at its owner", ids[n]);
            drop(got);
            client.release(ids[n]).unwrap();
        }),
        after: nothing(),
    }]);
}
