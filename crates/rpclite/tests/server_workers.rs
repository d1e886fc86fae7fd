//! Handler threads are reused and retire. One test in its own binary, so
//! every `rpc-handler` thread this process has is this test's server's.

use bytes::Bytes;
use parking_lot::Mutex;
use rpclite::{RpcClient, Status};
use std::collections::HashSet;
use std::sync::{Arc, Barrier};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

/// Threads of this process named `rpc-handler`.
fn handler_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.trim_end() == "rpc-handler")
        .count()
}

/// Wait until at most `n` handler threads exist. A handler that has
/// returned (and been joined, for `shutdown`) leaves the task list a
/// moment later; the bound only turns a thread that never leaves into a
/// failure instead of a hang.
fn settle_to(n: usize, what: &str) {
    let give_up = Instant::now() + Duration::from_secs(30);
    while handler_threads() > n {
        assert!(
            Instant::now() < give_up,
            "{what}: {} rpc-handler threads, expected at most {n}",
            handler_threads()
        );
        std::thread::yield_now();
    }
}

#[test]
fn handlers_are_reused_and_at_most_one_stays_parked() {
    const BURST: usize = 8;
    let served_by = Arc::new(Mutex::new(HashSet::<ThreadId>::new()));
    let service = {
        let served_by = Arc::clone(&served_by);
        // Method 2 returns only once all of the burst's calls are inside
        // the service at the same time.
        let together = Barrier::new(BURST);
        Arc::new(move |method: u32, body: Bytes| -> Result<Bytes, Status> {
            served_by.lock().insert(std::thread::current().id());
            if method == 2 {
                together.wait();
            }
            Ok(body)
        })
    };
    let hub = ipc::InprocHub::new();
    let mut srv = rpclite::serve(Box::new(hub.bind("workers").unwrap()), service);
    let client = Arc::new(RpcClient::new(Box::new(hub.connect("workers").unwrap())));

    // Sequential calls: each finds the handler the previous one parked.
    for i in 0..1000u32 {
        let body = Bytes::from(i.to_le_bytes().to_vec());
        assert_eq!(client.call(1, body.clone()).unwrap(), body);
    }
    assert_eq!(
        served_by.lock().len(),
        1,
        "1000 sequential calls, one handler"
    );
    assert_eq!(handler_threads(), 1);

    // A burst: 8 calls overlap, so 7 more handlers are spawned; once
    // they are answered, all but one retire.
    served_by.lock().clear();
    let burst: Vec<_> = (0..BURST)
        .map(|_| {
            let client = Arc::clone(&client);
            std::thread::spawn(move || client.call(2, Bytes::from_static(b"burst")).map(|_| ()))
        })
        .collect();
    for call in burst {
        call.join().unwrap().unwrap();
    }
    assert_eq!(served_by.lock().len(), BURST);
    settle_to(1, "after the burst");

    srv.shutdown();
    settle_to(0, "after shutdown");
    assert!(client.call(1, Bytes::new()).is_err());
}
