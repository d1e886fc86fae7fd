//! RPC server: one reader thread serves any number of servers, and no
//! server has a thread of its own.
//!
//! A [`Reader`] is a thread and its ready queue. Each server on it
//! ([`Reader::serve`]) is a listener and a service: the listener hands
//! each connection, on the thread that makes it, to the ready queue with
//! the server it belongs to ([`ipc::Listener::hand_to`]), and the
//! connection reports there each request that arrives on it and its own
//! end ([`ipc::Conn::report_to`]). The reader takes one report at a time,
//! receives the one frame it stands for without waiting, decodes it, runs
//! its server's call and writes the response before it takes the next.
//! Every call is a leaf: a service answers from its own state and never
//! waits on another call (DESIGN §8, "Serving a request"), so one reader
//! serves every connection of every server, each connection's calls in
//! the order they were sent. A cluster of any size runs the one reader it
//! made, and no thread waits in `accept`. [`serve`] starts a reader for
//! one server.
//!
//! Nothing here polls. The reader parks on its ready queue until a
//! connection reports or a stop comes. [`ServerHandle::shutdown`] drops
//! the listener, which unbinds its name, queues a stop for its server and
//! waits until the reader has closed that server's connections: after it
//! returns no call of that server runs, and the reader serves the others
//! on. Failure-injection tests rely on this to stop a peer node and know
//! it is really gone. The last drop of a [`Reader`] or of a handle of its
//! servers ends the reader and joins it.

use crate::envelope::{Request, Response, FRAME_REQUEST};
use crate::service::Service;
use ipc::{Conn, Frame, Listener};
use parking_lot::{Condvar, Mutex};
use std::cell::Cell;
use std::collections::{HashMap, HashSet, VecDeque};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Weak};
use std::thread::{Builder, JoinHandle};
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
#[derive(Default)]
struct SeenCalls {
    set: HashSet<u64>,
    order: VecDeque<u64>,
}

impl SeenCalls {
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
    /// Calls that returned an error status or panicked, plus connections
    /// closed for a frame that was not a decodable request, and
    /// connections refused because they cannot report their frames, the
    /// reader has gone or their server has stopped.
    pub errors: AtomicU64,
    /// Connections handed to the server over its lifetime.
    pub connections: AtomicU64,
    /// Duplicated request frames dropped without execution (a faulty
    /// network can replay a frame; calls are at-most-once per call id).
    pub duplicates: AtomicU64,
}

/// One server of a reader: whom its connections call, and what they
/// count.
struct Server {
    service: Arc<dyn Service>,
    metrics: ServerMetrics,
    /// How many connections the reader holds open for this server.
    open: AtomicUsize,
    /// Set at this server's stop, after which a connection handed over
    /// is refused. Only the reader reads or writes it.
    stopped: AtomicBool,
}

/// What the reader waits for, in the order it happened.
enum Report {
    /// A connection a server's listener handed over, under the key its
    /// reports name. It is queued before the connection reports anything.
    Accepted(u64, Box<dyn Conn>, Arc<Server>),
    /// Connection `key` has a frame, or has ended.
    Ready(u64),
    /// The server is shutting down: close its connections, then drop the
    /// sender, which its [`ServerHandle::shutdown`] waits for.
    Stop(Arc<Server>, mpsc::Sender<()>),
    /// Someone waits until every report before this one is served
    /// ([`CatchUp::wait`]): drop the sender.
    CatchUp(mpsc::Sender<()>),
    /// The last handle has gone: close every connection and return.
    Exit,
}

/// The reader's ready queue. The reader owns it; its handles, every
/// listener's handler and every connection's report hold it weakly, so
/// once the reader has returned a report is handed back instead of
/// queued for no one. (A panicking call stops its own server, not the
/// reader: see [`stop`].)
///
/// A reporter wakes the reader after it has unlocked, and only if the
/// reader sleeps (the vendored condvar counts its sleepers). `std`'s
/// `mpsc` wakes its receiver under a lock of its own: on one CPU the
/// woken reader preempted the reporter and then found that lock held.
/// As the ready queue, it made 3.3–6.5 % of the futex wakes of `e2e`'s
/// `remote_read`, `write_churn` and `mixed_zipf` wake nobody, against
/// 0.4–0.5 % with this one (`scripts/work_census.sh`, DESIGN §8).
#[derive(Default)]
struct ReadyQueue {
    reports: Mutex<VecDeque<Report>>,
    readable: Condvar,
    /// The key of the next connection handed over.
    next_key: AtomicU64,
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

/// The reader's state for one open connection, which it alone owns.
struct Served {
    conn: Box<dyn Conn>,
    seen: SeenCalls,
    server: Arc<Server>,
}

thread_local! {
    /// Whether this thread is running [`Service::call`] for a server.
    static SERVING: Cell<bool> = const { Cell::new(false) };
}

/// Whether the current thread is running a server's [`Service::call`].
/// A service that must never call out while it serves can assert that
/// the code which calls out is not reached from here: such a call would
/// wait on a reader, in a cluster the one it runs on, that reads nothing
/// meanwhile.
pub fn serving() -> bool {
    SERVING.with(Cell::get)
}

/// Run one call on this thread, marked as serving while it runs; `None`
/// if it panicked. The panic is caught here and the mark reset: the
/// reader serves on. What the call held is left as the panic left it
/// (a `parking_lot` lock does not poison), so its server is stopped.
fn answer(service: &dyn Service, request: Request) -> Option<Response> {
    SERVING.with(|serving| serving.set(true));
    let call = || service.call(request.method, request.body);
    let result = panic::catch_unwind(AssertUnwindSafe(call));
    SERVING.with(|serving| serving.set(false));
    Some(Response {
        call_id: request.call_id,
        result: result.ok()?,
    })
}

/// A reader thread (`rpc-serve`), which serves every server started on
/// it ([`Reader::serve`]). Clones share the thread. It returns when the
/// last clone and the last of its servers' handles are dropped, and that
/// drop joins it.
#[derive(Clone)]
pub struct Reader(Arc<ReaderThread>);

struct ReaderThread {
    queue: Weak<ReadyQueue>,
    thread: Option<JoinHandle<()>>,
}

impl Drop for ReaderThread {
    fn drop(&mut self) {
        let _ = report(&self.queue, Report::Exit);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Reader {
    /// Start a reader thread. One that could not start has dropped its
    /// queue: every connection handed to it is then refused. A call that
    /// panics stops its own server (`stop`); the reader serves the
    /// others on.
    pub fn start() -> Reader {
        let ready = Arc::new(ReadyQueue::default());
        let queue = Arc::downgrade(&ready);
        let thread = Builder::new()
            .name("rpc-serve".to_string())
            .spawn(move || read(&ready))
            .ok();
        Reader(Arc::new(ReaderThread { queue, thread }))
    }

    /// A handle that waits for this reader to catch up, without keeping
    /// it alive ([`CatchUp::wait`]).
    pub fn catch_up(&self) -> CatchUp {
        CatchUp(self.0.queue.clone())
    }

    /// Serve `service` on `listener` from this reader: the listener hands
    /// it each connection. Only connections that report their frames
    /// ([`Conn::report_to`]) are served; any other is closed and counted
    /// in [`ServerMetrics::errors`].
    pub fn serve(
        &self,
        mut listener: Box<dyn Listener>,
        service: Arc<dyn Service>,
    ) -> ServerHandle {
        let server = Arc::new(Server {
            service,
            metrics: ServerMetrics::default(),
            open: AtomicUsize::new(0),
            stopped: AtomicBool::new(false),
        });
        listener.hand_to(Box::new({
            let (queue, server) = (self.0.queue.clone(), Arc::clone(&server));
            move |conn| {
                server.metrics.connections.fetch_add(1, Ordering::Relaxed);
                if let Err(conn) = hand_over(&queue, conn, &server) {
                    server.metrics.errors.fetch_add(1, Ordering::Relaxed);
                    conn.close();
                }
            }
        }));
        ServerHandle {
            listener: Some(listener),
            server,
            reader: Some(self.clone()),
        }
    }
}

/// Hand `conn` to the reader, on the thread that made it: queue it
/// under a new key, then let it report each frame and its end under that
/// key. Every report of a connection thus follows its registration, and
/// the reports of all connections reach the queue in the order their
/// frames arrived — a catch-up queued after a frame follows its report.
/// Hands back a connection the reader cannot serve: the reader has gone,
/// or the connection cannot report (then the reader, which registered it,
/// is told that it ended).
fn hand_over(
    queue: &Weak<ReadyQueue>,
    conn: Box<dyn Conn>,
    server: &Arc<Server>,
) -> Result<(), Box<dyn Conn>> {
    let Some(ready) = queue.upgrade() else {
        return Err(conn);
    };
    let key = ready.next_key.fetch_add(1, Ordering::Relaxed);
    drop(ready);
    let Ok(reporter) = conn.try_clone() else {
        return Err(conn);
    };
    if let Err(Report::Accepted(_, conn, _)) =
        report(queue, Report::Accepted(key, conn, Arc::clone(server)))
    {
        return Err(conn);
    }
    let reports = queue.clone();
    let reporting = reporter.report_to(Box::new(move || {
        let _ = report(&reports, Report::Ready(key));
    }));
    if reporting.is_err() {
        reporter.close();
        let _ = report(queue, Report::Ready(key));
        return Err(reporter);
    }
    Ok(())
}

/// Waits for a reader to serve what has reached it ([`Reader::catch_up`]).
/// It holds the reader's queue weakly, so a holder the reader's own
/// services reach does not keep it alive.
pub struct CatchUp(Weak<ReadyQueue>);

impl CatchUp {
    /// Wait until the reader has served every frame that reached one of
    /// its connections before this call: a caller that was answered
    /// before a call it never waited for was served can read the state
    /// that call changed. Returns at once if the reader has gone, or on
    /// a thread running one of its calls (it would wait for itself).
    pub fn wait(&self) {
        if serving() {
            return;
        }
        let (done, served) = mpsc::channel();
        if report(&self.0, Report::CatchUp(done)).is_ok() {
            // The sender drops once the reader has taken it, or with the
            // queue if the reader has gone.
            let _ = served.recv();
        }
    }
}

/// Handle to a running server; shuts it down on drop.
pub struct ServerHandle {
    /// `None` once shut down: dropping it unbinds the server's name.
    listener: Option<Box<dyn Listener>>,
    server: Arc<Server>,
    /// `None` once shut down: the server's hold on its reader.
    reader: Option<Reader>,
}

impl ServerHandle {
    /// Counters for this server (calls, errors, connections).
    pub fn metrics(&self) -> &ServerMetrics {
        &self.server.metrics
    }

    /// Connections currently open. A connection whose client hung up
    /// leaves nothing behind, so under churn this follows the number of
    /// *live* connections, not the number ever accepted.
    pub fn tracked_connections(&self) -> usize {
        self.server.open.load(Ordering::Relaxed)
    }

    /// Stop the server and wait until it is quiescent: its name is
    /// unbound and the reader has closed every connection it took. A call
    /// in flight either delivered its response before the close or fails
    /// at the client with a transport error; clients see dead
    /// connections from then on. The reader serves its other servers on,
    /// and returns here if this was its last handle.
    pub fn shutdown(&mut self) {
        self.listener = None;
        if let Some(reader) = self.reader.take() {
            let (done, closed) = mpsc::channel();
            let stop = Report::Stop(Arc::clone(&self.server), done);
            let _ = report(&reader.0.queue, stop);
            // The sender drops once the reader has closed this server's
            // connections, or with the queue if the reader has gone.
            let _ = closed.recv();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Start a server on `listener`, dispatching to `service`, on a reader
/// of its own ([`Reader::serve`]).
pub fn serve(listener: Box<dyn Listener>, service: Arc<dyn Service>) -> ServerHandle {
    Reader::start().serve(listener, service)
}

/// The reader: take each report in turn. An accepted connection is
/// registered under its key; a ready one gives up one frame, which
/// [`serve_frame`] serves for its server; an ended one is closed and
/// forgotten, so a later report of its finds nothing. A server's stop
/// closes its connections; the exit closes every connection still open
/// and returns.
fn read(ready: &Arc<ReadyQueue>) {
    let mut served: HashMap<u64, Served> = HashMap::new();
    // A deadline that has passed: `recv_until` with it takes a frame that
    // is there and waits for none.
    let passed = Instant::now();
    loop {
        let key = match ready.next() {
            Report::Ready(key) => key,
            Report::Accepted(key, conn, server) => {
                // A connection whose server has stopped is refused, not
                // the reader: its client fails every call on it at once
                // and redials.
                if server.stopped.load(Ordering::Relaxed) {
                    server.metrics.errors.fetch_add(1, Ordering::Relaxed);
                    conn.close();
                } else {
                    server.open.fetch_add(1, Ordering::Relaxed);
                    let seen = SeenCalls::default();
                    served.insert(key, Served { conn, seen, server });
                }
                continue;
            }
            Report::Stop(server, _done) => {
                stop(&mut served, &server);
                continue;
            }
            Report::CatchUp(_done) => continue,
            Report::Exit => break,
        };
        let Some(entry) = served.get_mut(&key) else {
            continue;
        };
        // A report stands for a frame or for the connection's end.
        let frame = entry.conn.recv_until(Some(passed));
        match frame.map(|frame| serve_frame(frame, entry)) {
            Ok(Some(true)) => {}
            Ok(None) => {
                let server = Arc::clone(&entry.server);
                stop(&mut served, &server);
            }
            Ok(Some(false)) | Err(_) => {
                entry.conn.close();
                entry.server.open.fetch_sub(1, Ordering::Relaxed);
                served.remove(&key);
            }
        }
    }
    for entry in served.values() {
        entry.conn.close();
    }
}

/// Stop `server`, at its [`ServerHandle::shutdown`] or when one of its
/// calls panicked: refuse any connection handed to it later, and close
/// and forget every one it has open. Its callers fail at once with a
/// transport error; the reader serves the other servers on.
fn stop(served: &mut HashMap<u64, Served>, server: &Arc<Server>) {
    server.stopped.store(true, Ordering::Relaxed);
    let ours = |entry: &Served| Arc::ptr_eq(&entry.server, server);
    served
        .values()
        .filter(|e| ours(e))
        .for_each(|e| e.conn.close());
    served.retain(|_, entry| !ours(entry));
    server.open.store(0, Ordering::Relaxed);
}

/// Serve one frame of `entry`'s connection: decode the request, drop a
/// duplicate, run its server's call and write the response. `false` if
/// the connection must end, `None` if the call panicked and its server
/// must stop.
fn serve_frame(frame: Frame, entry: &mut Served) -> Option<bool> {
    let metrics = &entry.server.metrics;
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
        return Some(false);
    };
    if !entry.seen.first_sighting(request.call_id) {
        // The original execution's response answers the client, and
        // executing again would double a non-idempotent call.
        metrics.duplicates.fetch_add(1, Ordering::Relaxed);
        return Some(true);
    }
    metrics.calls.fetch_add(1, Ordering::Relaxed);
    let response = answer(&*entry.server.service, request);
    if response.as_ref().is_none_or(|r| r.result.is_err()) {
        metrics.errors.fetch_add(1, Ordering::Relaxed);
    }
    let _ = entry.conn.send(&response?.to_frame());
    Some(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{ClientMetrics, PendingCall, RpcClient, RpcError};
    use crate::service::{MethodId, Status};
    use bytes::Bytes;
    use ipc::{Direction, FaultAction, FaultConn, FaultPolicy, Frame, InprocHub};
    use std::sync::atomic::AtomicBool;
    use std::sync::mpsc;
    use std::time::Duration;

    /// Whether each call ran marked as serving, and on which thread.
    #[derive(Default)]
    struct Marks(Mutex<Vec<(bool, String)>>);

    impl Service for Marks {
        fn call(&self, _method: MethodId, body: Bytes) -> Result<Bytes, Status> {
            let thread = std::thread::current().name().unwrap_or("").to_string();
            self.0.lock().push((serving(), thread));
            Ok(body)
        }
    }

    #[test]
    fn every_call_runs_on_the_reader_marked_as_serving() {
        let marks = Arc::new(Marks::default());
        let hub = InprocHub::new();
        let _srv = serve(Box::new(hub.bind("marks").unwrap()), marks.clone());
        let client = RpcClient::new(Box::new(hub.connect("marks").unwrap()));
        for body in [b"a", b"b"] {
            assert_eq!(&client.call(1, Bytes::from_static(body)).unwrap()[..], body);
        }
        let ran = marks.0.lock().clone();
        assert_eq!(
            ran,
            [(true, "rpc-serve".into()), (true, "rpc-serve".into())]
        );
        assert!(!serving(), "a caller's thread is not marked");
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
    }

    /// A leaf that panics on method 1 and echoes any other.
    struct PanicsOnOne;

    impl Service for PanicsOnOne {
        fn call(&self, method: MethodId, body: Bytes) -> Result<Bytes, Status> {
            assert_ne!(method, 1, "a leaf that panics");
            Ok(body)
        }
    }

    /// A panic stops the server it ran in: every connection of it is
    /// closed and a new one refused, so each call fails at once and none
    /// waits for an answer that cannot come. The reader lives on.
    #[test]
    fn a_panicking_leaf_stops_its_server_and_no_call_to_it_hangs() {
        let hub = InprocHub::new();
        let reader = Reader::start();
        let srv = reader.serve(Box::new(hub.bind("panic").unwrap()), Arc::new(PanicsOnOne));
        let dial = || Arc::new(RpcClient::new(Box::new(hub.connect("panic").unwrap())));
        let (doomed, bystander) = (dial(), dial());
        assert_eq!(
            &bounded_call(&bystander, 2, b"before").unwrap()[..],
            b"before"
        );

        for (client, method) in [(doomed, 1), (bystander, 2)] {
            let err = bounded_call(&client, method, b"lost").unwrap_err();
            assert!(matches!(err, RpcError::Transport(_)), "got {err}");
        }
        let err = bounded_call(&dial(), 2, b"refused").unwrap_err();
        assert!(matches!(err, RpcError::Transport(_)), "got {err}");
        assert_eq!(srv.tracked_connections(), 0);
        assert_eq!(srv.metrics().errors.load(Ordering::Relaxed), 2);
        // The reader caught the panic: it still takes reports.
        reader.catch_up().wait();
    }

    #[test]
    fn two_servers_share_a_reader_and_stop_apart_and_a_panic_stops_its_own() {
        let hub = InprocHub::new();
        let reader = Reader::start();
        let mut first = reader.serve(Box::new(hub.bind("first").unwrap()), Arc::new(PanicsOnOne));
        let _second = reader.serve(Box::new(hub.bind("second").unwrap()), Arc::new(PanicsOnOne));
        let dial = |name| Arc::new(RpcClient::new(Box::new(hub.connect(name).unwrap())));
        let (stopped, answering) = (dial("first"), dial("second"));
        for client in [&stopped, &answering] {
            assert_eq!(&bounded_call(client, 2, b"both").unwrap()[..], b"both");
        }

        // Stopping one server closes its connections and frees its name;
        // the reader serves the other on.
        first.shutdown();
        assert_eq!(first.tracked_connections(), 0);
        let err = bounded_call(&stopped, 2, b"gone").unwrap_err();
        assert!(matches!(err, RpcError::Transport(_)), "got {err}");
        let _first_again =
            reader.serve(Box::new(hub.bind("first").unwrap()), Arc::new(PanicsOnOne));
        let restarted = dial("first");
        for client in [&answering, &restarted] {
            assert_eq!(&bounded_call(client, 2, b"still").unwrap()[..], b"still");
        }

        // A panicking leaf stops the server it ran in: a call to it fails
        // at once, and the other server answers on, new connections too.
        let err = bounded_call(&restarted, 1, b"lost").unwrap_err();
        assert!(matches!(err, RpcError::Transport(_)), "got {err}");
        let err = bounded_call(&dial("first"), 2, b"lost").unwrap_err();
        assert!(matches!(err, RpcError::Transport(_)), "got {err}");
        for client in [&answering, &dial("second")] {
            assert_eq!(&bounded_call(client, 2, b"on").unwrap()[..], b"on");
        }
    }

    /// A catch-up returns once the reader has served every frame sent
    /// before it, calls nobody waits on included, on any of its
    /// connections; and at once when the reader has gone.
    #[test]
    fn a_catch_up_waits_for_every_frame_sent_before_it() {
        let hub = InprocHub::new();
        let reader = Reader::start();
        let log = Arc::new(Log::default());
        let mut srv = reader.serve(Box::new(hub.bind("log").unwrap()), log.clone());
        let clients: Vec<_> = (0..2)
            .map(|_| RpcClient::new(Box::new(hub.connect("log").unwrap())))
            .collect();
        let catch_up = reader.catch_up();
        for round in 0..50u8 {
            for client in &clients {
                client.send(1, &[&[round][..]]).unwrap();
            }
            catch_up.wait();
            assert_eq!(log.0.lock().len(), 2 * (usize::from(round) + 1));
        }
        srv.shutdown();
        drop(reader);
        catch_up.wait();
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
                        in_flight.push_back((body, client.call_async(1, &body[..]).unwrap()));
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
