//! Connection bookkeeping under churn: a connection whose client went
//! away must leave nothing behind at the server, not sit there until
//! shutdown.

use bytes::Bytes;
use rpclite::{RpcClient, Status};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

#[test]
fn finished_connection_threads_are_reaped_under_churn() {
    let hub = ipc::InprocHub::new();
    let listener = hub.bind("churn").unwrap();
    let echo = Arc::new(|_m: u32, b: Bytes| -> Result<Bytes, Status> { Ok(b) });
    let srv = rpclite::serve(Box::new(listener), echo);

    for _ in 0..16 {
        let client = RpcClient::new(Box::new(hub.connect("churn").unwrap()));
        client.call(1, Bytes::from_static(b"ping")).unwrap();
        drop(client);
    }
    let client = RpcClient::new(Box::new(hub.connect("churn").unwrap()));
    client.call(1, Bytes::from_static(b"ping")).unwrap();
    assert_eq!(srv.metrics().connections.load(Ordering::Relaxed), 17);

    // Each dropped client closed its connection, which wakes that
    // connection's thread; the thread forgets the connection on its way
    // out. Nothing is waited for but that count — the bound only turns a
    // thread that never wakes into a failure instead of a hang.
    let give_up = Instant::now() + Duration::from_secs(30);
    while srv.tracked_connections() > 1 {
        assert!(
            Instant::now() < give_up,
            "closed connections must be forgotten under churn, still tracking {}",
            srv.tracked_connections()
        );
        std::thread::yield_now();
    }
    drop(client);
}
