//! One reader serves every connection of a server, and is all the
//! server is: every call runs on it whichever connection sent it, the
//! server has one thread with eight connections as with one and none
//! waits to accept, a caller waiting for its response reads it itself,
//! and the idle reader stays parked until something wakes it. One test in its own binary, so every thread this
//! process has is this test's, its clients' or its server's.

use bytes::Bytes;
use parking_lot::Mutex;
use rpclite::{MethodId, RpcClient, Service, Status};
use std::collections::{BTreeMap, HashSet};
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::ThreadId;
use std::time::Duration;

/// This process's threads: each one's `/proc` directory and name.
fn threads() -> Vec<(PathBuf, String)> {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|task| {
            let dir = task.ok()?.path();
            let comm = std::fs::read_to_string(dir.join("comm")).ok()?;
            Some((dir, comm.trim_end().to_string()))
        })
        .collect()
}

fn thread_names() -> Vec<String> {
    threads().into_iter().map(|(_, name)| name).collect()
}

/// The server's threads: every `rpc-*` thread, since the clients have
/// none.
fn server_threads() -> Vec<(PathBuf, String)> {
    let mut server: Vec<_> = threads()
        .into_iter()
        .filter(|(_, name)| name.starts_with("rpc-"))
        .collect();
    server.sort();
    server
}

/// The server's threads, each with whether it is asleep and its
/// voluntary and involuntary context switches.
fn server_switches() -> BTreeMap<PathBuf, (bool, u64, u64)> {
    server_threads()
        .into_iter()
        .filter_map(|(dir, _)| {
            let status = std::fs::read_to_string(dir.join("status")).ok()?;
            let field = |key: &str| {
                let line = status.lines().find_map(|l| l.strip_prefix(key))?;
                Some(line.trim().to_string())
            };
            let asleep = field("State:")?.starts_with('S');
            let voluntary = field("voluntary_ctxt_switches:")?.parse().ok()?;
            let involuntary = field("nonvoluntary_ctxt_switches:")?.parse().ok()?;
            Some((dir, (asleep, voluntary, involuntary)))
        })
        .collect()
}

/// An echo; it notes each thread it ran on.
#[derive(Default)]
struct Leaf {
    ran_on: Mutex<HashSet<(ThreadId, String)>>,
}

impl Service for Leaf {
    fn call(&self, _method: MethodId, body: Bytes) -> Result<Bytes, Status> {
        let thread = std::thread::current();
        let name = thread.name().unwrap_or_default().to_string();
        self.ran_on.lock().insert((thread.id(), name));
        Ok(body)
    }
}

#[test]
fn calls_of_eight_connections_run_on_one_reader_and_no_client_has_a_reader() {
    let leaf = Arc::new(Leaf::default());
    let hub = ipc::InprocHub::new();
    let _srv = rpclite::serve(Box::new(hub.bind("census").unwrap()), leaf.clone());
    let dial = || RpcClient::new(Box::new(hub.connect("census").unwrap()));
    let calls = |client: &RpcClient| {
        for i in 0..1000u32 {
            let body = Bytes::from(i.to_le_bytes().to_vec());
            assert_eq!(client.call(1, body.clone()).unwrap(), body);
        }
    };

    let first = dial();
    calls(&first);
    let with_one = server_threads();
    // Seven more connections, calling all at once.
    let more: Vec<_> = (0..7).map(|_| dial()).collect();
    std::thread::scope(|scope| {
        for client in &more {
            scope.spawn(move || calls(client));
        }
    });
    assert_eq!(
        server_threads(),
        with_one,
        "server threads with 8 connections and with 1"
    );
    let ran_on = leaf.ran_on.lock();
    assert_eq!(ran_on.len(), 1, "threads that ran 8000 calls");
    let (_, name) = ran_on.iter().next().unwrap();
    assert_eq!(name, "rpc-serve");
    // After the burst the server is one reader and nothing else: no
    // thread waits to accept, and none reads for a client.
    let names: Vec<_> = server_threads().into_iter().map(|(_, n)| n).collect();
    assert_eq!(names, ["rpc-serve"]);
    let reading = thread_names().into_iter().filter(|n| n.contains("reader"));
    assert_eq!(reading.count(), 0, "{:?}", thread_names());

    // Idle, the reader stays parked: no switch in 750 ms, where a poll of
    // every 250–500 ms would wake it at least once. The first reading
    // waits for the reader to park after writing its last response.
    let parked = loop {
        let now = server_switches();
        if now.values().all(|(asleep, ..)| *asleep) {
            break now;
        }
        std::thread::yield_now();
    };
    assert_eq!(parked.len(), 1, "one reader");
    std::thread::sleep(Duration::from_millis(750));
    assert_eq!(server_switches(), parked, "an idle server thread woke");
}
