//! A call that cannot wait runs on the connection thread that read it,
//! and a caller waiting for its response reads it itself. One test in its
//! own binary, so every thread this process has is this test's, its
//! client's or its server's.

use bytes::Bytes;
use parking_lot::Mutex;
use rpclite::{MethodId, RpcClient, Service, Status};
use std::collections::HashSet;
use std::sync::Arc;
use std::thread::ThreadId;

/// The names of this process's threads.
fn thread_names() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|comm| comm.trim_end().to_string())
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
}
