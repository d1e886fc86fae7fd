//! A call that cannot wait runs on the connection thread that read it,
//! a caller waiting for its response reads it itself, and an idle server
//! thread stays parked until something wakes it. One test in its own
//! binary, so every thread this process has is this test's, its client's
//! or its server's.

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

/// The server's threads (`rpc-conn`, `rpc-accept:*`), each with whether
/// it is asleep and its voluntary and involuntary context switches.
fn server_switches() -> BTreeMap<PathBuf, (bool, u64, u64)> {
    threads()
        .into_iter()
        .filter(|(_, name)| name == "rpc-conn" || name.starts_with("rpc-accept:"))
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

/// An echo whose every method is a leaf; it notes each thread it ran on.
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

    fn may_wait(&self, _method: MethodId) -> bool {
        false
    }
}

#[test]
fn inline_calls_run_on_their_connection_thread_and_no_client_has_a_reader() {
    let leaf = Arc::new(Leaf::default());
    let hub = ipc::InprocHub::new();
    let _srv = rpclite::serve(Box::new(hub.bind("census").unwrap()), leaf.clone());
    let client = RpcClient::new(Box::new(hub.connect("census").unwrap()));

    for i in 0..1000u32 {
        let body = Bytes::from(i.to_le_bytes().to_vec());
        assert_eq!(client.call(1, body.clone()).unwrap(), body);
    }
    let ran_on = leaf.ran_on.lock();
    assert_eq!(ran_on.len(), 1, "threads that ran 1000 calls in turn");
    let (_, name) = ran_on.iter().next().unwrap();
    assert_eq!(name, "rpc-conn");
    let names = thread_names();
    for absent in ["rpc-handler", "rpc-reader"] {
        assert!(!names.iter().any(|n| n == absent), "{absent} in {names:?}");
    }

    // Idle, the connection and accept threads stay parked: no switch in
    // 750 ms, where a poll of every 250–500 ms would wake them at least
    // once. The first reading waits for the connection thread to park
    // after writing its last response.
    let parked = loop {
        let now = server_switches();
        if now.values().all(|(asleep, ..)| *asleep) {
            break now;
        }
        std::thread::yield_now();
    };
    assert_eq!(parked.len(), 2, "one connection and one accept thread");
    std::thread::sleep(Duration::from_millis(750));
    assert_eq!(server_switches(), parked, "an idle server thread woke");
}
