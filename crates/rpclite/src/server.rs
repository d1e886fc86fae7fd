//! RPC server: accept loop + per-connection concurrent servicing.
//!
//! Each accepted connection gets a thread that decodes its requests. A
//! call that cannot wait on another call ([`Service::may_wait`]) runs
//! right there, on the thread that read it, and its response is written
//! before the next request is read. Every other call goes to the server's
//! handler threads, and its response is written back **in completion
//! order, not arrival order**, through a mutex-shared clone of the
//! connection (frame writes are atomic). This is what lets a pipelined
//! client keep many correlation-id-tagged requests in flight: a call
//! blocked on another call never blocks the requests behind it.
//!
//! A handed-off call runs on a *parked* handler if the server has one and
//! on a new thread if it has none, so no call ever waits for another to
//! finish; a handler that finishes while another is parked exits, so an
//! idle server keeps at most one (DESIGN §8, "Serving a request"). There
//! is no pool size and no idle timer.
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
use crate::service::Service;
use ipc::{Conn, Frame, Listener, StopHandle};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::{Builder, JoinHandle, Scope};

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
    /// Calls that returned an error status, plus connections closed for
    /// a frame that was not a decodable request.
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

/// A decoded request and the write half of the connection its answer
/// goes to. The writer is shared by that connection's calls and outlives
/// its connection thread if a call does.
type Job = (Request, Arc<Mutex<Box<dyn Conn>>>);

/// What one server runs calls with: new threads, and at most one parked
/// handler between calls.
struct Handlers<'a> {
    parked: Mutex<Parked>,
    service: &'a dyn Service,
    metrics: &'a ServerMetrics,
}

/// The slot for the server's one parked handler.
#[derive(Default)]
enum Parked {
    /// Every handler is busy (or there is none).
    #[default]
    None,
    /// The inbox of the one handler waiting for a call.
    One(mpsc::Sender<Job>),
    /// The server is stopping: no handler parks any more.
    Stopped,
}

impl Handlers<'_> {
    /// Run one call and frame its response.
    fn answer(&self, request: Request) -> Frame {
        let result = self.service.call(request.method, request.body);
        if result.is_err() {
            self.metrics.errors.fetch_add(1, Ordering::Relaxed);
        }
        let response = Response {
            call_id: request.call_id,
            result,
        };
        response.to_frame()
    }

    /// Run `job` on the parked handler, or on a new thread if none is
    /// parked — never behind a busy handler, whose own call may be
    /// waiting for this very job (a nested call back to this server).
    fn submit<'scope>(&'scope self, scope: &'scope Scope<'scope, '_>, job: Job) {
        let free = match &mut *self.parked.lock() {
            parked @ Parked::One(_) => std::mem::take(parked),
            _ => Parked::None,
        };
        let job = match free {
            Parked::One(inbox) => match inbox.send(job) {
                Ok(()) => return,
                Err(mpsc::SendError(job)) => job,
            },
            _ => job,
        };
        Builder::new()
            .name("rpc-handler".to_string())
            .spawn_scoped(scope, move || self.run(job))
            .expect("spawn rpc handler thread");
    }

    /// A handler's life: run a job, then park for the next one — or exit,
    /// if another handler is parked already or the server is stopping.
    fn run(&self, mut job: Job) {
        loop {
            let (request, writer) = job;
            let response = self.answer(request);
            // Park before answering: the request this answer lets the
            // caller send must find this handler, not spawn another.
            let inbox = match &mut *self.parked.lock() {
                parked @ Parked::None => {
                    let (sender, inbox) = mpsc::channel();
                    *parked = Parked::One(sender);
                    Some(inbox)
                }
                _ => None,
            };
            let _ = writer.lock().send(&response);
            drop(writer);
            // The next job, or a closed inbox once `stop` dropped its sender.
            match inbox.map(|inbox| inbox.recv()) {
                Some(Ok(next)) => job = next,
                _ => return,
            }
        }
    }

    /// Wake the parked handler to exit, and let no handler park again. A
    /// job sent to it first still runs: `recv` delivers it before the
    /// closed inbox.
    fn stop(&self) {
        *self.parked.lock() = Parked::Stopped;
    }
}

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
                let handlers = Handlers {
                    parked: Mutex::default(),
                    service: &*service,
                    metrics: &metrics,
                };
                std::thread::scope(|scope| {
                    // Any `accept` error ends the server; a stop is the
                    // `Interrupted` one.
                    while let Ok(conn) = listener.accept() {
                        let id = metrics.connections.fetch_add(1, Ordering::Relaxed);
                        let Ok(closer) = conn.try_clone() else {
                            continue;
                        };
                        live.lock().insert(id, closer);
                        let (live, handlers) = (&*live, &handlers);
                        Builder::new()
                            .name("rpc-conn".to_string())
                            .spawn_scoped(scope, move || {
                                serve_conn(conn, scope, handlers);
                                live.lock().remove(&id);
                            })
                            .expect("spawn rpc connection thread");
                    }
                    // No connection is accepted past this point, so closing
                    // what is open wakes every connection thread there is,
                    // and stopping the handlers wakes every parked one; the
                    // scope joins them all.
                    for conn in live.lock().values() {
                        conn.close();
                    }
                    handlers.stop();
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

/// A connection thread: decode each request, drop a duplicate, and run
/// the call — here, if it cannot wait on another call, else on one of
/// `handlers`, so that a call blocked on another call never holds up the
/// next request on its connection.
fn serve_conn<'scope>(
    mut conn: Box<dyn Conn>,
    scope: &'scope Scope<'scope, '_>,
    handlers: &'scope Handlers,
) {
    let metrics = handlers.metrics;
    let Ok(writer) = conn.try_clone() else {
        return;
    };
    let writer = Arc::new(Mutex::new(writer));
    let mut seen = SeenCalls::new();
    // `recv` fails once the peer is gone or the connection is closed.
    while let Ok(frame) = conn.recv() {
        let request = match frame.msg_type {
            FRAME_REQUEST => Request::from_frame(&frame).ok(),
            _ => None,
        };
        let Some(request) = request else {
            // A frame that is not a decodable request — a wrong type, a
            // failed checksum, a truncation — is a protocol violation.
            // Its caller cannot be told apart from any other (the call id
            // is inside what failed to decode), so the connection ends:
            // the client fails every call on it at once and redials.
            metrics.errors.fetch_add(1, Ordering::Relaxed);
            conn.close();
            return;
        };
        if !seen.first_sighting(request.call_id) {
            // The original execution's response answers the client, and
            // executing again would double a non-idempotent call.
            metrics.duplicates.fetch_add(1, Ordering::Relaxed);
            continue;
        }
        metrics.calls.fetch_add(1, Ordering::Relaxed);
        if handlers.service.may_wait(request.method) {
            handlers.submit(scope, (request, Arc::clone(&writer)));
        } else {
            let response = handlers.answer(request);
            let _ = writer.lock().send(&response);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{RpcClient, RpcError};
    use crate::service::{MethodId, Status};
    use bytes::Bytes;
    use ipc::{Direction, FaultAction, FaultConn, FaultPolicy, Frame, InprocHub};
    use std::sync::atomic::AtomicBool;
    use std::time::Duration;

    #[test]
    fn a_waiting_handler_never_stalls_its_connection() {
        // Call 1 blocks until call 2, sent after it on the same
        // connection, releases it: call 2 must not wait for a handler
        // that call 1 holds. The warm-up call leaves one parked handler,
        // so call 1 takes it and call 2 finds none free.
        let (release, released) = mpsc::channel::<()>();
        let released = Mutex::new(released);
        let service = Arc::new(move |method: MethodId, body: Bytes| match method {
            1 => released
                .lock()
                .recv()
                .map(|()| body)
                .map_err(|_| Status::internal("releaser gone")),
            2 => release
                .send(())
                .map(|()| body)
                .map_err(|_| Status::internal("waiter gone")),
            _ => Ok(body),
        });
        let hub = InprocHub::new();
        let _srv = serve(Box::new(hub.bind("hol").unwrap()), service);
        let client = RpcClient::new(Box::new(hub.connect("hol").unwrap()));
        client.call(3, Bytes::new()).unwrap();

        let waiter = client.call_async(1, &[b"a".as_slice()]).unwrap();
        let releaser = client.call(2, Bytes::from_static(b"b")).unwrap();
        assert_eq!(&releaser[..], b"b");
        assert_eq!(&waiter.wait().unwrap()[..], b"a");
    }

    /// Method 1 may wait: it blocks until a method 2 releases it. Method
    /// 2 cannot, so it runs on the connection thread. Each records the
    /// name of the thread it ran on.
    struct Gate {
        release: mpsc::Sender<()>,
        released: Mutex<mpsc::Receiver<()>>,
        ran_on: Mutex<Vec<(MethodId, String)>>,
    }

    impl Service for Gate {
        fn call(&self, method: MethodId, body: Bytes) -> Result<Bytes, Status> {
            let thread = std::thread::current().name().unwrap_or("").to_string();
            self.ran_on.lock().push((method, thread));
            let partner = match method {
                1 => self.released.lock().recv().is_ok(),
                _ => self.release.send(()).is_ok(),
            };
            partner
                .then_some(body)
                .ok_or_else(|| Status::internal("gate partner gone"))
        }

        fn may_wait(&self, method: MethodId) -> bool {
            method == 1
        }
    }

    #[test]
    fn a_call_that_may_wait_never_holds_up_its_connection() {
        // Call 1 goes to a handler and blocks until call 2, sent after it
        // on the same connection, releases it. Call 2 runs on the
        // connection thread, so that thread must not be the one call 1
        // holds.
        let (release, released) = mpsc::channel();
        let gate = Arc::new(Gate {
            release,
            released: Mutex::new(released),
            ran_on: Mutex::default(),
        });
        let hub = InprocHub::new();
        let _srv = serve(Box::new(hub.bind("gate").unwrap()), gate.clone());
        let client = RpcClient::new(Box::new(hub.connect("gate").unwrap()));

        let waiter = client.call_async(1, &[b"a".as_slice()]).unwrap();
        let releaser = client.call(2, Bytes::from_static(b"b")).unwrap();
        assert_eq!(&releaser[..], b"b");
        assert_eq!(&waiter.wait().unwrap()[..], b"a");
        let mut ran_on = gate.ran_on.lock().clone();
        ran_on.sort();
        assert_eq!(
            ran_on,
            [(1, "rpc-handler".into()), (2, "rpc-conn".into())],
            "call 1 on a handler, call 2 on the connection thread"
        );
    }

    /// Corrupts the first request frame it is shown, then delivers.
    struct GarbleFirst(AtomicBool);

    impl FaultPolicy for GarbleFirst {
        fn on_frame(&self, _link: &str, dir: Direction, _frame: &Frame) -> FaultAction {
            if dir == Direction::Outbound && self.0.swap(false, Ordering::Relaxed) {
                FaultAction::Corrupt {
                    offset: 6,
                    mask: 0x10,
                }
            } else {
                FaultAction::Deliver
            }
        }
    }

    #[test]
    fn garbled_request_fails_its_call_at_once_and_the_client_redials() {
        let hub = InprocHub::new();
        let echo = Arc::new(|_m: MethodId, b: Bytes| -> Result<Bytes, Status> { Ok(b) });
        let srv = serve(Box::new(hub.bind("garble").unwrap()), echo);
        let policy: Arc<dyn FaultPolicy> = Arc::new(GarbleFirst(AtomicBool::new(true)));
        let dial_hub = hub.clone();
        let client = Arc::new(RpcClient::with_connector(
            Box::new(move || {
                let conn = dial_hub.connect("garble")?;
                let conn = FaultConn::wrap(Box::new(conn), "garble", Arc::clone(&policy));
                Ok(Box::new(conn) as Box<dyn Conn>)
            }),
            None,
        ));
        // No deadline: before the fix the answer went to call id 0 and
        // this call waited for ever. The bound only turns that into a
        // failure instead of a hang.
        let (done, outcome) = mpsc::channel();
        let caller = Arc::clone(&client);
        let call = std::thread::spawn(move || {
            let _ = done.send(caller.call(1, Bytes::from_static(b"garbled")));
        });
        let err = outcome
            .recv_timeout(Duration::from_secs(10))
            .expect("a garbled request must fail its call, not hang it")
            .unwrap_err();
        call.join().unwrap();
        assert!(matches!(err, RpcError::Transport(_)), "got {err}");
        assert!(err.is_retryable());
        assert_eq!(srv.metrics().errors.load(Ordering::Relaxed), 1);
        assert_eq!(srv.metrics().calls.load(Ordering::Relaxed), 0);

        let out = client.call(1, Bytes::from_static(b"clean")).unwrap();
        assert_eq!(&out[..], b"clean");
        assert_eq!(client.reconnect_count(), 2);
    }
}
