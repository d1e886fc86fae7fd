//! RPC server: an accept thread and one reader per server.
//!
//! The accept thread hands each connection it accepts to the server's
//! reader, and the connection reports to the reader's ready queue each
//! request that arrives on it and its own end ([`ipc::Conn::report_to`]).
//! The reader takes one report at a time, receives the one frame it
//! stands for without waiting, and decodes it. A call that cannot wait on
//! another call ([`Service::may_wait`]) runs right there, on the reader,
//! and its response is written before the next report is taken. Every
//! other call goes to the server's handler threads, and its response is
//! written back **in completion order, not arrival order**, through the
//! connection's mutex (frame writes are atomic). This is what lets a
//! pipelined client keep many correlation-id-tagged requests in flight: a
//! call blocked on another call never blocks the requests behind it.
//! Threads grow with servers, not with connections: a full mesh of `n`
//! nodes runs `n` readers, not `n × (n − 1)` connection threads.
//!
//! A handed-off call runs on a *parked* handler if the server has one and
//! on a new thread if it has none, so no call ever waits for another to
//! finish; a handler that finishes while another is parked exits, so an
//! idle server keeps at most one (DESIGN §8, "Serving a request"). There
//! is no pool size and no idle timer.
//!
//! Nothing here polls. The reader parks on its ready queue until a
//! connection reports or the accept thread sends it the stop;
//! [`ServerHandle::shutdown`] stops the listener, and the accept thread
//! then stops the reader, which closes every connection it holds. The
//! reader and every handler are scoped threads of the one accept thread,
//! so joining that one thread is joining them all: after `shutdown`
//! returns, no handler is running and no response will be written.
//! Failure-injection tests rely on this to stop a peer node and know it
//! is really gone.

use crate::envelope::{Request, Response, FRAME_REQUEST};
use crate::service::{Service, Status, StatusCode};
use ipc::{Conn, Frame, Listener, StopHandle};
use parking_lot::{Condvar, Mutex};
use std::collections::{HashMap, VecDeque};
use std::io;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Weak};
use std::thread::{Builder, JoinHandle, Scope};
use std::time::Instant;

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
    /// a frame that was not a decodable request, and connections refused
    /// because they cannot report their frames.
    pub errors: AtomicU64,
    /// Connections accepted over the server's lifetime.
    pub connections: AtomicU64,
    /// Duplicated request frames dropped without execution (a faulty
    /// network can replay a frame; calls are at-most-once per call id).
    pub duplicates: AtomicU64,
}

/// What the reader waits for, in the order it happened.
enum Report {
    /// A connection the accept thread took.
    Accepted(Box<dyn Conn>),
    /// Connection `key` has a frame, or has ended.
    Ready(u64),
    /// The listener has stopped: close every connection and return.
    Stop,
}

/// The reader's ready queue. The reader owns it; the accept thread and
/// every connection's report hold it weakly, so once the reader has
/// returned — or a panicking call has ended it — a report is handed
/// back instead of queued for no one.
///
/// A reporter wakes the reader after it has unlocked, and only if the
/// reader sleeps (the vendored condvar counts its sleepers). `std`'s
/// `mpsc` wakes its receiver under a lock of its own: on one CPU the
/// woken reader preempted the reporter and then found that lock held.
/// As the ready queue, it made 3.3–6.5 % of the futex wakes of `e2e`'s
/// `remote_read`, `write_churn` and `mixed_zipf` wake nobody, against
/// 0.4–0.5 % with this one (`scripts/futex_census.sh`, DESIGN §8).
#[derive(Default)]
struct ReadyQueue {
    reports: Mutex<VecDeque<Report>>,
    readable: Condvar,
}

impl ReadyQueue {
    /// The next report, waiting for one.
    fn next(&self) -> Report {
        let mut reports = self.reports.lock();
        loop {
            match reports.pop_front() {
                Some(report) => return report,
                None => self.readable.wait(&mut reports),
            }
        }
    }
}

/// Queue `report` for the reader, or hand it back if the reader has gone.
fn report(queue: &Weak<ReadyQueue>, report: Report) -> Result<(), Report> {
    let Some(queue) = queue.upgrade() else {
        return Err(report);
    };
    queue.reports.lock().push_back(report);
    queue.readable.notify_one();
    Ok(())
}

/// The reader's state for one open connection. The connection is shared
/// with the handlers that answer its calls, and may outlive its entry.
struct Served {
    conn: Arc<Mutex<Box<dyn Conn>>>,
    seen: SeenCalls,
}

/// A decoded request and the connection its answer goes to.
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
        let (call_id, writer) = (job.0.call_id, Arc::clone(&job.1));
        if spawn(scope, "rpc-handler", move || self.run(job)).is_err() {
            // No thread to run the call on: answer it the way an
            // overloaded server does, so its caller may retry.
            self.metrics.errors.fetch_add(1, Ordering::Relaxed);
            let response = Response {
                call_id,
                result: Err(Status::new(
                    StatusCode::Unavailable,
                    "no thread to run the call",
                )),
            };
            let _ = writer.lock().send(&response.to_frame());
        }
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
    /// How many connections the reader holds open.
    open: Arc<AtomicUsize>,
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
        self.open.load(Ordering::Relaxed)
    }

    /// Stop the server and wait until it is fully quiescent: the accept
    /// loop has exited, every accepted connection is closed, and the
    /// reader and every handler have returned. A call in flight either
    /// delivered its response before the close or fails at the client
    /// with a transport error; clients see dead connections from then on.
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

/// Spawn a server on `listener`, dispatching to `service`. Only
/// connections that report their frames ([`Conn::report_to`]) are
/// served; any other is closed and counted in [`ServerMetrics::errors`].
pub fn serve(mut listener: Box<dyn Listener>, service: Arc<dyn Service>) -> ServerHandle {
    let stop = listener.stop_handle();
    let metrics = Arc::new(ServerMetrics::default());
    let addr = listener.addr();
    let open = Arc::new(AtomicUsize::new(0));
    let accept_thread = Builder::new()
        .name(format!("rpc-accept:{addr}"))
        .spawn({
            let (metrics, open) = (Arc::clone(&metrics), Arc::clone(&open));
            move || {
                let handlers = Handlers {
                    parked: Mutex::default(),
                    service: &*service,
                    metrics: &metrics,
                };
                std::thread::scope(|scope| {
                    let ready = Arc::new(ReadyQueue::default());
                    let queue = Arc::downgrade(&ready);
                    let reader = {
                        let (handlers, open) = (&handlers, &*open);
                        move || read(&ready, scope, handlers, open)
                    };
                    // A reader that could not start, or that a panicking
                    // call ended, has dropped the queue: every connection
                    // below is then refused.
                    let _ = spawn(scope, "rpc-serve", reader);
                    // Any `accept` error ends the server; a stop is the
                    // `Interrupted` one.
                    while let Ok(conn) = listener.accept() {
                        metrics.connections.fetch_add(1, Ordering::Relaxed);
                        if let Err(Report::Accepted(conn)) = report(&queue, Report::Accepted(conn))
                        {
                            metrics.errors.fetch_add(1, Ordering::Relaxed);
                            conn.close();
                        }
                    }
                    // The reader closes every connection it holds and
                    // returns; stopping the handlers wakes every parked
                    // one. The scope joins them all.
                    let _ = report(&queue, Report::Stop);
                    handlers.stop();
                })
            }
        })
        .expect("spawn rpc accept thread");
    ServerHandle {
        stop,
        accept_thread: Some(accept_thread),
        open,
        metrics,
        addr,
    }
}

/// Start one of the server's threads. A spawn the system refuses (out of
/// threads or memory mappings) is an error its caller answers: a panic
/// here would end the accept loop, and its scope would then wait for
/// ever on the handlers it still runs.
fn spawn<'scope>(
    scope: &'scope Scope<'scope, '_>,
    name: &str,
    body: impl FnOnce() + Send + 'scope,
) -> io::Result<()> {
    #[cfg(test)]
    if REFUSE_NEXT_SPAWN.with(|refuse| refuse.replace(false)) {
        return Err(io::ErrorKind::WouldBlock.into());
    }
    Builder::new()
        .name(name.to_string())
        .spawn_scoped(scope, body)
        .map(drop)
}

#[cfg(test)]
thread_local! {
    /// Whether the current thread's next spawn fails, as it does when the
    /// system is out of threads.
    static REFUSE_NEXT_SPAWN: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// The reader: take each report in turn. An accepted connection is
/// registered to report here; a ready one gives up one frame, which
/// [`serve_frame`] serves; an ended one is closed and forgotten, so a
/// later report of its finds nothing. On the stop, close every connection
/// still open and return.
fn read<'scope>(
    ready: &Arc<ReadyQueue>,
    scope: &'scope Scope<'scope, '_>,
    handlers: &'scope Handlers,
    open: &AtomicUsize,
) {
    let mut served = HashMap::new();
    let mut next_key = 0u64;
    // A deadline that has passed: `recv_until` with it takes a frame that
    // is there and waits for none.
    let passed = Instant::now();
    loop {
        let key = match ready.next() {
            Report::Ready(key) => key,
            Report::Accepted(conn) => {
                let key = next_key;
                next_key += 1;
                let queue = Arc::downgrade(ready);
                let reporting = conn.report_to(Box::new(move || {
                    let _ = report(&queue, Report::Ready(key));
                }));
                if reporting.is_ok() {
                    let conn = Arc::new(Mutex::new(conn));
                    let seen = SeenCalls::new();
                    served.insert(key, Served { conn, seen });
                } else {
                    // A connection that cannot report cannot be served:
                    // refuse it, not the server. Its client fails every
                    // call on it at once and redials.
                    handlers.metrics.errors.fetch_add(1, Ordering::Relaxed);
                    conn.close();
                }
                open.store(served.len(), Ordering::Relaxed);
                continue;
            }
            Report::Stop => break,
        };
        let Some(entry) = served.get_mut(&key) else {
            continue;
        };
        // A report stands for a frame or for the connection's end.
        let frame = entry.conn.lock().recv_until(Some(passed));
        if !frame.is_ok_and(|frame| serve_frame(frame, entry, scope, handlers)) {
            entry.conn.lock().close();
            served.remove(&key);
            open.store(served.len(), Ordering::Relaxed);
        }
    }
    for entry in served.values() {
        entry.conn.lock().close();
    }
    open.store(0, Ordering::Relaxed);
}

/// Serve one frame of `entry`'s connection: decode the request, drop a
/// duplicate, and run the call — here, if it cannot wait on another call,
/// else on one of `handlers`, so that a call blocked on another call never
/// holds up the next request. False if the connection must end.
fn serve_frame<'scope>(
    frame: Frame,
    entry: &mut Served,
    scope: &'scope Scope<'scope, '_>,
    handlers: &'scope Handlers,
) -> bool {
    let metrics = handlers.metrics;
    let request = match frame.msg_type {
        FRAME_REQUEST => Request::from_frame(&frame).ok(),
        _ => None,
    };
    let Some(request) = request else {
        // A frame that is not a decodable request — a wrong type, a
        // failed checksum, a truncation — is a protocol violation. Its
        // caller cannot be told apart from any other (the call id is
        // inside what failed to decode), so the connection ends: the
        // client fails every call on it at once and redials.
        metrics.errors.fetch_add(1, Ordering::Relaxed);
        return false;
    };
    if !entry.seen.first_sighting(request.call_id) {
        // The original execution's response answers the client, and
        // executing again would double a non-idempotent call.
        metrics.duplicates.fetch_add(1, Ordering::Relaxed);
        return true;
    }
    metrics.calls.fetch_add(1, Ordering::Relaxed);
    if handlers.service.may_wait(request.method) {
        handlers.submit(scope, (request, Arc::clone(&entry.conn)));
    } else {
        let response = handlers.answer(request);
        let _ = entry.conn.lock().send(&response);
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{ClientMetrics, PendingCall, RpcClient, RpcError};
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
    /// 2 cannot, so it runs on the reader. Each records the name of the
    /// thread it ran on.
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
        // on the same connection, releases it. Call 2 runs on the reader,
        // so the reader must not be the thread call 1 holds.
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
            [(1, "rpc-handler".into()), (2, "rpc-serve".into())],
            "call 1 on a handler, call 2 on the reader"
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

    /// `client`'s call of `method`, made on a thread of its own and failed
    /// if it takes 10 s: these callers set no deadline, so a server that
    /// never answers would hang them, and the bound turns that into a
    /// failure.
    fn bounded_call(
        client: &Arc<RpcClient>,
        method: MethodId,
        body: &'static [u8],
    ) -> Result<Bytes, RpcError> {
        let (done, outcome) = mpsc::channel();
        let caller = Arc::clone(client);
        std::thread::spawn(move || {
            let _ = done.send(caller.call(method, Bytes::from_static(body)));
        });
        let outcome = outcome.recv_timeout(Duration::from_secs(10));
        outcome.unwrap_or_else(|_| panic!("a call of method {method} must return, not hang"))
    }

    #[test]
    fn garbled_request_fails_its_call_at_once_and_the_client_redials() {
        let hub = InprocHub::new();
        let echo = Arc::new(|_m: MethodId, b: Bytes| -> Result<Bytes, Status> { Ok(b) });
        let srv = serve(Box::new(hub.bind("garble").unwrap()), echo);
        // A healthy client of the same server, served before and after.
        let healthy = Arc::new(RpcClient::new(Box::new(hub.connect("garble").unwrap())));
        assert_eq!(
            &bounded_call(&healthy, 1, b"before").unwrap()[..],
            b"before"
        );
        let policy: Arc<dyn FaultPolicy> = Arc::new(GarbleFirst(AtomicBool::new(true)));
        let dial_hub = hub.clone();
        let mut client = RpcClient::with_connector(
            Box::new(move || {
                let conn = dial_hub.connect("garble")?;
                let conn = FaultConn::wrap(Box::new(conn), "garble", Arc::clone(&policy));
                Ok(Box::new(conn) as Box<dyn Conn>)
            }),
            None,
        );
        let registry = obs::Registry::new();
        client.set_metrics(ClientMetrics::register(&registry, &[]));
        let client = Arc::new(client);
        // Before the fix the answer went to call id 0 and this call
        // waited for ever.
        let err = bounded_call(&client, 1, b"garbled").unwrap_err();
        assert!(matches!(err, RpcError::Transport(_)), "got {err}");
        assert!(err.is_retryable());
        assert_eq!(srv.metrics().errors.load(Ordering::Relaxed), 1);
        assert_eq!(srv.metrics().calls.load(Ordering::Relaxed), 1);

        let out = client.call(1, Bytes::from_static(b"clean")).unwrap();
        assert_eq!(&out[..], b"clean");
        assert_eq!(registry.snapshot().counter("rpc.client.redials"), 2);
        // Closing the garbled connection ended that connection only.
        assert_eq!(&bounded_call(&healthy, 1, b"after").unwrap()[..], b"after");
        assert_eq!(srv.tracked_connections(), 2);
    }

    #[test]
    fn a_call_no_handler_can_be_started_for_is_answered_unavailable() {
        // Method 1 runs on the reader and has it refuse its next spawn;
        // method 2 may wait, so it needs a handler.
        struct RefuseNextHandler;
        impl Service for RefuseNextHandler {
            fn call(&self, method: MethodId, body: Bytes) -> Result<Bytes, Status> {
                if method == 1 {
                    REFUSE_NEXT_SPAWN.with(|refuse| refuse.set(true));
                }
                Ok(body)
            }
            fn may_wait(&self, method: MethodId) -> bool {
                method == 2
            }
        }
        let hub = InprocHub::new();
        let srv = serve(
            Box::new(hub.bind("nohandler").unwrap()),
            Arc::new(RefuseNextHandler),
        );
        let client = Arc::new(RpcClient::new(Box::new(hub.connect("nohandler").unwrap())));
        client.call(1, Bytes::new()).unwrap();
        let err = bounded_call(&client, 2, b"refused").unwrap_err();
        let unavailable = matches!(&err, RpcError::Status(s) if s.code == StatusCode::Unavailable);
        assert!(unavailable, "got {err}");
        assert!(err.is_retryable());
        assert_eq!(srv.metrics().errors.load(Ordering::Relaxed), 1);
        assert_eq!(&bounded_call(&client, 2, b"served").unwrap()[..], b"served");
    }

    /// How long a test waits for an answer before it fails: these calls
    /// set no deadline of their own, and a stranded one would hang.
    const BOUND: Duration = Duration::from_secs(10);

    /// A leaf that logs each body it is called with, in call order.
    #[derive(Default)]
    struct Log(Mutex<Vec<Bytes>>);

    impl Service for Log {
        fn call(&self, _method: MethodId, body: Bytes) -> Result<Bytes, Status> {
            self.0.lock().push(body.clone());
            Ok(body)
        }

        fn may_wait(&self, _method: MethodId) -> bool {
            false
        }
    }

    /// A leaf that panics on method 1 and echoes any other.
    struct PanicsOnOne;

    impl Service for PanicsOnOne {
        fn call(&self, method: MethodId, body: Bytes) -> Result<Bytes, Status> {
            assert_ne!(method, 1, "a leaf that panics");
            Ok(body)
        }

        fn may_wait(&self, _method: MethodId) -> bool {
            false
        }
    }

    #[test]
    fn a_panicking_leaf_ends_the_reader_and_no_call_to_the_server_hangs() {
        let hub = InprocHub::new();
        let _srv = serve(Box::new(hub.bind("panic").unwrap()), Arc::new(PanicsOnOne));
        let dial = || Arc::new(RpcClient::new(Box::new(hub.connect("panic").unwrap())));
        let (doomed, bystander) = (dial(), dial());
        assert_eq!(
            &bounded_call(&bystander, 2, b"before").unwrap()[..],
            b"before"
        );

        // The panic ends the one reader, and with it every connection it
        // served; a new connection finds no reader. Each call fails at
        // once: none waits for an answer that cannot come.
        for (client, method) in [(doomed, 1), (bystander, 2), (dial(), 2)] {
            let err = bounded_call(&client, method, b"lost").unwrap_err();
            assert!(matches!(err, RpcError::Transport(_)), "got {err}");
        }
    }

    #[test]
    fn frames_queued_before_the_server_takes_their_connection_are_all_answered() {
        // The calls are sent before the server exists, so all of them wait
        // in the connection when the reader registers it: only reports of
        // frames that arrive later would strand every one.
        let hub = InprocHub::new();
        let listener = hub.bind("early").unwrap();
        let client = RpcClient::new(Box::new(hub.connect("early").unwrap()));
        let bodies: Vec<[u8; 1]> = (0..16).map(|i| [i]).collect();
        let calls: Vec<_> = bodies
            .iter()
            .map(|body| client.call_async(1, &[body.as_slice()]).unwrap())
            .collect();
        let _srv = serve(Box::new(listener), Arc::new(Log::default()));
        for (body, call) in bodies.iter().zip(calls) {
            assert_eq!(&call.wait_deadline(Some(BOUND)).unwrap()[..], body);
        }
    }

    #[test]
    fn pipelined_calls_on_four_connections_each_get_their_own_answer_in_order() {
        const CALLS: u8 = 200;
        let log = Arc::new(Log::default());
        let hub = InprocHub::new();
        let _srv = serve(Box::new(hub.bind("four").unwrap()), log.clone());
        let clients: Vec<_> = (0..4)
            .map(|_| RpcClient::new(Box::new(hub.connect("four").unwrap())))
            .collect();
        std::thread::scope(|scope| {
            for (c, client) in (0u8..).zip(&clients) {
                scope.spawn(move || {
                    let check = |(body, call): ([u8; 2], PendingCall)| {
                        assert_eq!(&call.wait_deadline(Some(BOUND)).unwrap()[..], body);
                    };
                    // Up to 32 calls in flight, each checked as it leaves.
                    let mut in_flight = std::collections::VecDeque::new();
                    for i in 0..CALLS {
                        if in_flight.len() == 32 {
                            check(in_flight.pop_front().unwrap());
                        }
                        let body = [c, i];
                        in_flight.push_back((body, client.call_async(1, &[&body]).unwrap()));
                    }
                    in_flight.into_iter().for_each(check);
                });
            }
        });
        let log = log.0.lock();
        for c in 0..4 {
            let order: Vec<u8> = log.iter().filter(|b| b[0] == c).map(|b| b[1]).collect();
            assert_eq!(order, (0..CALLS).collect::<Vec<_>>(), "connection {c}");
        }
    }
}
