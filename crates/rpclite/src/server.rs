//! RPC server: accept loop + per-connection concurrent servicing.
//!
//! Each accepted connection gets a reader thread that decodes requests
//! and dispatches every call to its own handler thread; responses are
//! written back through a mutex-shared clone of the connection (frame
//! writes are atomic) **in completion order, not arrival order**. This is
//! what lets a pipelined client keep many correlation-id-tagged requests
//! in flight: a slow call no longer blocks the responses of faster calls
//! behind it.
//!
//! Nothing here polls. A connection thread parks in `recv` until a
//! request arrives or the connection ends — the client hung up, or
//! [`ServerHandle::shutdown`] closed it ([`ipc::Conn::close`] wakes the
//! parked `recv`). The accept loop, every connection thread and every
//! handler are scoped threads of one accept thread, so joining that one
//! thread is joining them all: after `shutdown` returns, no handler is
//! running and no response will be written. Failure-injection tests rely
//! on this to stop a peer node and know it is really gone.

use crate::envelope::{Request, Response, FRAME_REQUEST};
use crate::service::{Service, Status};
use ipc::{Conn, Listener, StopHandle};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{Builder, JoinHandle};

/// How many recent call ids a connection remembers for duplicate
/// suppression. Duplicated frames arrive adjacent to their original
/// (the network duplicates a frame, not a conversation), so a small
/// window is plenty.
const DEDUP_WINDOW: usize = 1024;

/// Sliding window of recently seen correlation ids, used to drop
/// duplicated request frames instead of executing a call twice. Calls
/// are not idempotent (a duplicated RELEASE would decrement a reference
/// count twice), so at-most-once execution per call id is part of the
/// server's contract.
struct SeenCalls {
    set: std::collections::HashSet<u64>,
    order: std::collections::VecDeque<u64>,
}

impl SeenCalls {
    fn new() -> SeenCalls {
        SeenCalls {
            set: std::collections::HashSet::new(),
            order: std::collections::VecDeque::new(),
        }
    }

    /// Record `call_id`; returns false if it was already seen (duplicate).
    fn first_sighting(&mut self, call_id: u64) -> bool {
        if !self.set.insert(call_id) {
            return false;
        }
        self.order.push_back(call_id);
        if self.order.len() > DEDUP_WINDOW {
            if let Some(old) = self.order.pop_front() {
                self.set.remove(&old);
            }
        }
        true
    }
}

/// Counters exposed by a running server.
#[derive(Debug, Default)]
pub struct ServerMetrics {
    /// Requests decoded and dispatched to the service.
    pub calls: AtomicU64,
    /// Calls that returned an error status (plus undecodable requests).
    pub errors: AtomicU64,
    /// Connections accepted over the server's lifetime.
    pub connections: AtomicU64,
    /// Duplicated request frames dropped without execution (a faulty
    /// network can replay a frame; calls are at-most-once per call id).
    pub duplicates: AtomicU64,
}

/// The connections a server currently holds open, keyed by accept
/// order: one clone of each, kept so shutdown can close it — a clone of
/// its own rather than the handlers' writer, so that closing never waits
/// behind a send. A connection thread removes its own entry on the way
/// out.
type Live = Mutex<HashMap<u64, Box<dyn Conn>>>;

/// Handle to a running server; shuts it down on drop.
pub struct ServerHandle {
    stop: StopHandle,
    accept_thread: Option<JoinHandle<()>>,
    live: Arc<Live>,
    metrics: Arc<ServerMetrics>,
    addr: String,
}

impl ServerHandle {
    /// Address clients should connect to.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Counters for this server (calls, errors, connections).
    pub fn metrics(&self) -> &ServerMetrics {
        &self.metrics
    }

    /// Connections currently open. A connection whose client hung up
    /// leaves nothing behind, so under churn this follows the number of
    /// *live* connections, not the number ever accepted.
    pub fn tracked_connections(&self) -> usize {
        self.live.lock().len()
    }

    /// Stop the server and wait until it is fully quiescent: the accept
    /// loop has exited, every accepted connection is closed, and every
    /// connection thread and handler has returned. A call in flight
    /// either delivered its response before the close or fails at the
    /// client with a transport error; clients see dead connections from
    /// then on.
    pub fn shutdown(&mut self) {
        self.stop.stop();
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Spawn a server on `listener`, dispatching to `service`.
pub fn serve(mut listener: Box<dyn Listener>, service: Arc<dyn Service>) -> ServerHandle {
    let stop = listener.stop_handle();
    let metrics = Arc::new(ServerMetrics::default());
    let addr = listener.addr();
    let live = Arc::new(Live::default());
    let accept_thread = Builder::new()
        .name(format!("rpc-accept:{addr}"))
        .spawn({
            let (metrics, live) = (Arc::clone(&metrics), Arc::clone(&live));
            move || {
                std::thread::scope(|scope| {
                    // Any `accept` error ends the server; a stop is the
                    // `Interrupted` one.
                    while let Ok(conn) = listener.accept() {
                        let id = metrics.connections.fetch_add(1, Ordering::Relaxed);
                        let Ok(closer) = conn.try_clone() else {
                            continue;
                        };
                        live.lock().insert(id, closer);
                        let (service, metrics, live) = (&*service, &*metrics, &*live);
                        Builder::new()
                            .name("rpc-conn".to_string())
                            .spawn_scoped(scope, move || {
                                serve_conn(conn, service, metrics);
                                live.lock().remove(&id);
                            })
                            .expect("spawn rpc connection thread");
                    }
                    // No connection is accepted past this point, so closing
                    // what is open wakes every connection thread there is;
                    // the scope joins them.
                    for conn in live.lock().values() {
                        conn.close();
                    }
                })
            }
        })
        .expect("spawn rpc accept thread");
    ServerHandle {
        stop,
        accept_thread: Some(accept_thread),
        live,
        metrics,
        addr,
    }
}

fn serve_conn(mut conn: Box<dyn Conn>, service: &dyn Service, metrics: &ServerMetrics) {
    // Handlers run concurrently and share the write half of the
    // connection behind a mutex; frames are written atomically, so
    // responses interleave cleanly in completion order.
    let Ok(writer) = conn.try_clone().map(Mutex::new) else {
        return;
    };
    // Per-connection duplicate suppression (see `SeenCalls`).
    let seen = Mutex::new(SeenCalls::new());
    // The scope joins every in-flight handler before the connection is
    // torn down — shutdown's "no handler survives" guarantee.
    std::thread::scope(|scope| {
        // `recv` fails once the peer is gone or the connection is closed.
        while let Ok(frame) = conn.recv() {
            if frame.msg_type != FRAME_REQUEST {
                // Protocol violation: drop the connection.
                break;
            }
            let (writer, seen) = (&writer, &seen);
            Builder::new()
                .name("rpc-handler".to_string())
                .spawn_scoped(scope, move || {
                    if let Some(response) = handle(&frame, service, metrics, seen) {
                        let _ = writer.lock().send(&response.to_frame());
                    }
                })
                .expect("spawn rpc handler thread");
        }
    });
}

/// Execute one request frame. `None` for a duplicated frame: the original
/// execution's response answers the client, and executing again would
/// double a non-idempotent call.
fn handle(
    frame: &ipc::Frame,
    service: &dyn Service,
    metrics: &ServerMetrics,
    seen: &Mutex<SeenCalls>,
) -> Option<Response> {
    let req = match Request::from_frame(frame) {
        Ok(req) => req,
        Err(e) => {
            metrics.errors.fetch_add(1, Ordering::Relaxed);
            return Some(Response {
                call_id: 0,
                result: Err(Status::invalid_argument(format!("bad request: {e}"))),
            });
        }
    };
    if !seen.lock().first_sighting(req.call_id) {
        metrics.duplicates.fetch_add(1, Ordering::Relaxed);
        return None;
    }
    metrics.calls.fetch_add(1, Ordering::Relaxed);
    let result = service.call(req.method, req.body);
    if result.is_err() {
        metrics.errors.fetch_add(1, Ordering::Relaxed);
    }
    Some(Response {
        call_id: req.call_id,
        result,
    })
}
