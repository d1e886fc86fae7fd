//! In-process transport.
//!
//! A [`InprocHub`] is a namespace of endpoints; binding a name yields a
//! listener, and connecting to the name yields one end of a fresh
//! connection and gives the other end to the listener: queued for
//! `accept`, or handed on the connecting thread to the handler the
//! listener was given ([`Listener::hand_to`]), so that no thread waits in
//! `accept`. A connection is two frame queues under one lock, so a
//! simulated multi-node cluster runs in one process with no sockets,
//! files, or nondeterministic OS buffering — and nothing in it waits on a
//! timer of its own: a parked `recv` wakes for a frame, for the peer's
//! last handle going away, for [`Conn::close`], or for the deadline its
//! caller passed to [`Conn::recv_until`].
//!
//! A waker releases the pipe lock before it notifies. Notified under the
//! lock, the woken reader preempts the sender only to block on that lock
//! and switch back: three context switches a side per round trip instead
//! of one (`tests/wake_census.rs`), which made this pipe twice as slow as
//! a Unix socket. No wakeup is lost by notifying late: a reader re-checks
//! its inbox and the closed flag under the lock before every wait. The
//! pipe's and the listener's locks and condvars are the vendored
//! `parking_lot`'s, whose condvar counts its sleepers: a notify while the
//! reader is busy, not parked, costs no system call.
//!
//! An end that reports ([`Conn::report_to`]) has its report called after
//! each frame is queued for it and when the connection ends, also after
//! the lock is released. Which frames and which end a report stands for
//! is decided under the lock, so each is reported exactly once, whether it
//! came before the report was set or after. A listener's hand-over is
//! decided the same way.

use crate::frame::Frame;
use crate::transport::{deadline_passed, Conn, Handler, Listener};
use parking_lot::{Condvar, Mutex};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::io;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

type Report = Box<dyn Fn() + Send + Sync>;

/// What the two ends of one connection, and every clone of either, share.
#[derive(Default)]
struct Pipe {
    state: Mutex<PipeState>,
    /// `readable[e]` is signalled when a `recv` on end `e` has something
    /// to wake for: a frame, a `close`, or the other end hanging up.
    readable: [Condvar; 2],
    /// `report[e]` is end `e`'s [`Conn::report_to`], called for the same
    /// events. It is set under the state lock, and read under it by
    /// whoever calls it.
    report: [OnceLock<Report>; 2],
}

impl fmt::Debug for Pipe {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Pipe")
            .field("state", &self.state)
            .finish_non_exhaustive()
    }
}

#[derive(Debug, Default)]
struct PipeState {
    /// `inbox[e]`: frames sent to end `e` and not yet received.
    inbox: [VecDeque<Frame>; 2],
    /// Live handles per end (the original and its clones); 0 = hung up.
    handles: [usize; 2],
    /// Set once by [`Conn::close`] on any handle of either end.
    closed: bool,
}

/// One end of an in-process connection.
#[derive(Debug)]
pub struct InprocConn {
    pipe: Arc<Pipe>,
    /// Which end this is (0 or 1); the peer is `1 - end`.
    end: usize,
    label: String,
}

impl InprocConn {
    fn pair(a: &str, b: &str) -> (InprocConn, InprocConn) {
        let pipe = Arc::new(Pipe::default());
        pipe.state.lock().handles = [1, 1];
        let half = |end, label: &str| InprocConn {
            pipe: Arc::clone(&pipe),
            end,
            label: label.to_string(),
        };
        (half(0, b), half(1, a))
    }
}

fn peer_closed(kind: io::ErrorKind) -> io::Error {
    io::Error::new(kind, "inproc peer closed")
}

impl Conn for InprocConn {
    fn send(&mut self, frame: &Frame) -> io::Result<()> {
        let peer = 1 - self.end;
        let mut st = self.pipe.state.lock();
        if st.closed || st.handles[peer] == 0 {
            return Err(peer_closed(io::ErrorKind::BrokenPipe));
        }
        st.inbox[peer].push_back(frame.clone());
        let report = self.pipe.report[peer].get();
        drop(st);
        self.pipe.readable[peer].notify_one();
        if let Some(report) = report {
            report();
        }
        Ok(())
    }

    fn recv_until(&mut self, deadline: Option<Instant>) -> io::Result<Frame> {
        let readable = &self.pipe.readable[self.end];
        let mut st = self.pipe.state.lock();
        loop {
            if let Some(frame) = st.inbox[self.end].pop_front() {
                return Ok(frame);
            }
            if st.closed || st.handles[1 - self.end] == 0 {
                return Err(peer_closed(io::ErrorKind::UnexpectedEof));
            }
            match deadline {
                None => readable.wait(&mut st),
                Some(deadline) => {
                    let left = deadline.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        return Err(deadline_passed());
                    }
                    readable.wait_for(&mut st, left);
                }
            }
        }
    }

    fn close(&self) {
        let mut st = self.pipe.state.lock();
        let was_closed = std::mem::replace(&mut st.closed, true);
        // Each end that had not ended yet: closed, or hung up on.
        let reports = [0, 1].map(|end| {
            let ends_now = !was_closed && st.handles[1 - end] > 0;
            ends_now.then(|| self.pipe.report[end].get()).flatten()
        });
        drop(st);
        for end in &self.pipe.readable {
            end.notify_all();
        }
        reports.into_iter().flatten().for_each(|report| report());
    }

    fn peer(&self) -> String {
        self.label.clone()
    }

    fn try_clone(&self) -> io::Result<Box<dyn Conn>> {
        // Frames go to whichever clone happens to be parked in `recv`, so
        // callers must follow the one-receiver discipline documented on
        // `Conn::try_clone`.
        self.pipe.state.lock().handles[self.end] += 1;
        Ok(Box::new(InprocConn {
            pipe: Arc::clone(&self.pipe),
            end: self.end,
            label: self.label.clone(),
        }))
    }

    fn report_to(&self, report: Report) -> io::Result<()> {
        let st = self.pipe.state.lock();
        if self.pipe.report[self.end].set(report).is_err() {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                "this end already reports",
            ));
        }
        // What came before the report was set is reported now, once.
        let ended = st.closed || st.handles[1 - self.end] == 0;
        let backlog = st.inbox[self.end].len() + usize::from(ended);
        drop(st);
        let report = self.pipe.report[self.end].get().expect("set above");
        (0..backlog).for_each(|_| report());
        Ok(())
    }
}

impl Drop for InprocConn {
    fn drop(&mut self) {
        let peer = 1 - self.end;
        let mut st = self.pipe.state.lock();
        st.handles[self.end] -= 1;
        // A hang-up after a close ends nothing new: the close was reported.
        let hung_up = st.handles[self.end] == 0;
        let report = (hung_up && !st.closed)
            .then(|| self.pipe.report[peer].get())
            .flatten();
        drop(st);
        if hung_up {
            self.pipe.readable[peer].notify_all();
        }
        if let Some(report) = report {
            report();
        }
    }
}

/// What a bound name's listener and its connectors share.
#[derive(Default)]
struct Endpoint {
    backlog: Mutex<Backlog>,
    /// Signalled when a connection is queued for `accept`.
    acceptable: Condvar,
}

#[derive(Default)]
struct Backlog {
    /// Server ends not yet accepted, oldest first.
    queued: VecDeque<InprocConn>,
    /// Where every connection goes instead, once [`Listener::hand_to`]
    /// has set it.
    handler: Option<SharedHandler>,
    /// Set when the listener drops: every later connect is refused.
    unbound: bool,
}

type Registry = Arc<Mutex<HashMap<String, Arc<Endpoint>>>>;

/// A [`Handler`] each connector can call without the listener's lock.
type SharedHandler = Arc<dyn Fn(Box<dyn Conn>) + Send + Sync>;

/// A namespace of in-process endpoints. Clones share the namespace.
#[derive(Clone, Default)]
pub struct InprocHub {
    registry: Registry,
}

impl InprocHub {
    pub fn new() -> Self {
        Self::default()
    }

    /// Bind `name`, yielding a listener. Fails if already bound.
    pub fn bind(&self, name: &str) -> io::Result<InprocListener> {
        let mut reg = self.registry.lock();
        if reg.contains_key(name) {
            return Err(io::Error::new(
                io::ErrorKind::AddrInUse,
                format!("inproc endpoint '{name}' already bound"),
            ));
        }
        let endpoint = Arc::new(Endpoint::default());
        reg.insert(name.to_string(), Arc::clone(&endpoint));
        Ok(InprocListener {
            name: name.to_string(),
            endpoint,
            registry: Arc::clone(&self.registry),
        })
    }

    /// Connect to a bound endpoint. The server end is queued for `accept`
    /// or, if the listener hands its connections over, handed to its
    /// handler on this thread before this returns.
    pub fn connect(&self, name: &str) -> io::Result<InprocConn> {
        let refused = |why: &str| {
            io::Error::new(
                io::ErrorKind::ConnectionRefused,
                format!("inproc endpoint '{name}' {why}"),
            )
        };
        let endpoint = self.registry.lock().get(name).cloned();
        let endpoint = endpoint.ok_or_else(|| refused("not bound"))?;
        let (client, server) = InprocConn::pair("client", name);
        let mut backlog = endpoint.backlog.lock();
        if backlog.unbound {
            return Err(refused("no longer bound"));
        }
        match backlog.handler.clone() {
            Some(handler) => {
                drop(backlog);
                handler(Box::new(server));
            }
            None => {
                backlog.queued.push_back(server);
                drop(backlog);
                endpoint.acceptable.notify_one();
            }
        }
        Ok(client)
    }
}

/// Listener half of an in-process endpoint. Unbinds its name when
/// dropped.
pub struct InprocListener {
    name: String,
    endpoint: Arc<Endpoint>,
    registry: Registry,
}

impl fmt::Debug for InprocListener {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("InprocListener")
            .field("name", &self.name)
            .finish_non_exhaustive()
    }
}

impl Listener for InprocListener {
    fn accept(&mut self) -> io::Result<Box<dyn Conn>> {
        let mut backlog = self.endpoint.backlog.lock();
        if backlog.handler.is_some() {
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "this listener hands its connections to a handler",
            ));
        }
        loop {
            if let Some(conn) = backlog.queued.pop_front() {
                return Ok(Box::new(conn));
            }
            self.endpoint.acceptable.wait(&mut backlog);
        }
    }

    fn hand_to(&mut self, handler: Handler) {
        let handler: SharedHandler = Arc::from(handler);
        let mut backlog = self.endpoint.backlog.lock();
        backlog.handler = Some(Arc::clone(&handler));
        let queued = std::mem::take(&mut backlog.queued);
        drop(backlog);
        for conn in queued {
            handler(Box::new(conn));
        }
    }
}

impl Drop for InprocListener {
    fn drop(&mut self) {
        self.registry.lock().remove(&self.name);
        // A connector that found the name before it went is refused here.
        let mut backlog = self.endpoint.backlog.lock();
        backlog.unbound = true;
        let never_accepted = std::mem::take(&mut backlog.queued);
        let handler = backlog.handler.take();
        drop(backlog);
        // Outside the lock, like every hand-over: the clients of the
        // connections never accepted see the hang-up.
        drop((never_accepted, handler));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn connect_and_exchange() {
        let hub = InprocHub::new();
        let mut listener = hub.bind("store").unwrap();
        let t = std::thread::spawn({
            let hub = hub.clone();
            move || {
                let mut c = hub.connect("store").unwrap();
                c.send(&Frame::new(1, &b"ping"[..])).unwrap();
                let pong = c.recv().unwrap();
                assert_eq!(&pong.payload[..], b"pong");
            }
        });
        let mut server = listener.accept().unwrap();
        let ping = server.recv().unwrap();
        assert_eq!(&ping.payload[..], b"ping");
        server.send(&Frame::new(2, &b"pong"[..])).unwrap();
        t.join().unwrap();
    }

    #[test]
    fn connect_unbound_refused() {
        let hub = InprocHub::new();
        let err = hub.connect("nobody").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionRefused);
    }

    #[test]
    fn double_bind_rejected() {
        let hub = InprocHub::new();
        let _l = hub.bind("x").unwrap();
        assert_eq!(hub.bind("x").unwrap_err().kind(), io::ErrorKind::AddrInUse);
    }

    #[test]
    fn name_freed_on_listener_drop() {
        let hub = InprocHub::new();
        drop(hub.bind("x").unwrap());
        let _l2 = hub.bind("x").unwrap();
    }

    #[test]
    fn dropping_the_listener_refuses_connect_and_frees_its_name() {
        let hub = InprocHub::new();
        let listener = hub.bind("s").unwrap();
        let mut never_accepted = hub.connect("s").unwrap();
        drop(listener);
        let hung_up = never_accepted.recv().unwrap_err();
        assert_eq!(hung_up.kind(), io::ErrorKind::UnexpectedEof);
        let refused = hub.connect("s").unwrap_err();
        assert_eq!(refused.kind(), io::ErrorKind::ConnectionRefused);
        let mut again = hub.bind("s").unwrap();
        let _client = hub.connect("s").unwrap();
        again.accept().unwrap();
    }

    #[test]
    fn each_connection_is_handed_over_exactly_once_whenever_it_is_made() {
        let hub = InprocHub::new();
        let mut listener = hub.bind("s").unwrap();
        // Each client sends its number, so a server end says whose it is.
        let dial = |n: u32| {
            let mut client = hub.connect("s").unwrap();
            client
                .send(&Frame::new(1, n.to_le_bytes().to_vec()))
                .unwrap();
        };
        (0..3).for_each(dial);
        let handed = Arc::new(Mutex::new(Vec::new()));
        let start = std::sync::Barrier::new(5);
        std::thread::scope(|scope| {
            for t in 1..=4 {
                let (start, dial) = (&start, &dial);
                scope.spawn(move || {
                    start.wait();
                    (0..50).for_each(|k| dial(t * 100 + k));
                });
            }
            start.wait();
            let to = Arc::clone(&handed);
            listener.hand_to(Box::new(move |conn| to.lock().push(conn)));
        });
        (1000..1003).for_each(dial);

        let passed = Instant::now();
        let mut numbers: Vec<u32> = handed
            .lock()
            .iter_mut()
            .map(|conn| {
                let frame = conn.recv_until(Some(passed)).unwrap();
                u32::from_le_bytes(frame.payload[..].try_into().unwrap())
            })
            .collect();
        numbers.sort_unstable();
        let mut made: Vec<u32> = (0..3).chain(1000..1003).collect();
        made.extend((1..=4).flat_map(|t| (0..50).map(move |k| t * 100 + k)));
        made.sort_unstable();
        assert_eq!(numbers, made, "each connection handed over once");
        let left = listener.accept().map(|_| ()).unwrap_err();
        assert_eq!(left.kind(), io::ErrorKind::Unsupported);
    }

    #[test]
    fn recv_after_peer_drop_is_eof() {
        let hub = InprocHub::new();
        let mut listener = hub.bind("s").unwrap();
        let client = hub.connect("s").unwrap();
        let mut server = listener.accept().unwrap();
        drop(client);
        assert_eq!(
            server.recv().unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
    }

    #[test]
    fn close_wakes_a_parked_recv_on_both_ends() {
        let hub = InprocHub::new();
        let mut listener = hub.bind("s").unwrap();
        let client = hub.connect("s").unwrap();
        let server = listener.accept().unwrap();
        crate::transport::tests::close_wakes_both_ends(Box::new(client), server);
    }

    #[test]
    fn frames_sent_before_close_are_still_delivered() {
        let hub = InprocHub::new();
        let mut listener = hub.bind("s").unwrap();
        let mut client = hub.connect("s").unwrap();
        let mut server = listener.accept().unwrap();
        client.send(&Frame::new(1, &b"last"[..])).unwrap();
        client.close();
        client.close(); // idempotent
        assert_eq!(&server.recv().unwrap().payload[..], b"last");
        assert_eq!(
            server.recv().unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
    }

    #[test]
    fn cloned_halves_split_send_and_recv() {
        let hub = InprocHub::new();
        let mut listener = hub.bind("s").unwrap();
        let mut client = hub.connect("s").unwrap();
        let mut server = listener.accept().unwrap();
        // Send via the clone, receive the echo via the original.
        let mut sender = client.try_clone().unwrap();
        sender.send(&Frame::new(1, &b"via-clone"[..])).unwrap();
        let f = server.recv().unwrap();
        server.send(&Frame::new(2, f.payload)).unwrap();
        assert_eq!(&client.recv().unwrap().payload[..], b"via-clone");
    }

    #[test]
    fn a_passed_deadline_consumes_no_frame() {
        let hub = InprocHub::new();
        let mut listener = hub.bind("s").unwrap();
        let mut client = hub.connect("s").unwrap();
        let mut server = listener.accept().unwrap();
        let soon = std::time::Instant::now() + Duration::from_millis(20);
        let err = client.recv_until(Some(soon)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        assert!(std::time::Instant::now() >= soon);
        // A frame that is already there has arrived first, however late
        // the deadline.
        server.send(&Frame::new(1, &b"after"[..])).unwrap();
        let late = client.recv_until(Some(soon)).unwrap();
        assert_eq!(&late.payload[..], b"after");
    }

    #[test]
    fn report_to_reports_each_frame_and_the_end_once() {
        let hub = InprocHub::new();
        let mut listener = hub.bind("s").unwrap();
        let mut client = hub.connect("s").unwrap();
        let mut server = listener.accept().unwrap();
        client.send(&Frame::new(1, &b"before"[..])).unwrap();
        let (report, reports) = std::sync::mpsc::channel();
        server
            .report_to(Box::new(move || {
                let _ = report.send(());
            }))
            .unwrap();
        client.send(&Frame::new(2, &b"after"[..])).unwrap();
        client.close();
        drop(client);
        // Each report is taken at once, with a deadline already passed.
        let passed = Instant::now();
        let taken: Vec<_> = reports
            .try_iter()
            .map(|()| server.recv_until(Some(passed)).map(|f| f.msg_type))
            .map(|r| r.map_err(|e| e.kind()))
            .collect();
        assert_eq!(taken, [Ok(1), Ok(2), Err(io::ErrorKind::UnexpectedEof)]);
        let again = server.report_to(Box::new(|| ())).unwrap_err();
        assert_eq!(again.kind(), io::ErrorKind::AlreadyExists);
    }

    #[test]
    fn a_connection_that_ended_before_it_reports_is_reported_once() {
        let hub = InprocHub::new();
        let mut listener = hub.bind("s").unwrap();
        drop(hub.connect("s").unwrap());
        let server = listener.accept().unwrap();
        let (report, reports) = std::sync::mpsc::channel();
        server
            .report_to(Box::new(move || {
                let _ = report.send(());
            }))
            .unwrap();
        server.close();
        assert_eq!(reports.try_iter().count(), 1);
    }

    #[test]
    fn hubs_are_isolated() {
        let a = InprocHub::new();
        let b = InprocHub::new();
        let _l = a.bind("s").unwrap();
        assert!(b.connect("s").is_err());
    }
}
