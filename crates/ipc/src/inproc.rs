//! In-process transport.
//!
//! A [`InprocHub`] is a namespace of endpoints; binding a name yields a
//! listener, connecting to the name yields one end of a fresh connection
//! and queues the other end for `accept`. A connection is two frame
//! queues under one lock, so a simulated multi-node cluster runs in one
//! process with no sockets, files, or nondeterministic OS buffering — and
//! nothing in it waits on a timer: a parked `recv` wakes for a frame, for
//! the peer's last handle going away, or for [`Conn::close`].

use crate::frame::Frame;
use crate::transport::{Conn, Listener, StopHandle};
use crossbeam::channel::{bounded, Receiver, Sender};
use std::collections::{HashMap, VecDeque};
use std::io;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// What the two ends of one connection, and every clone of either, share.
#[derive(Debug, Default)]
struct Pipe {
    state: Mutex<PipeState>,
    /// `readable[e]` is signalled when a `recv` on end `e` has something
    /// to wake for: a frame, a `close`, or the other end hanging up.
    readable: [Condvar; 2],
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

impl Pipe {
    fn lock(&self) -> MutexGuard<'_, PipeState> {
        // Every update leaves the state valid, so a panicked holder's
        // guard is safe to recover.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
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
        pipe.lock().handles = [1, 1];
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
        let mut st = self.pipe.lock();
        if st.closed || st.handles[peer] == 0 {
            return Err(peer_closed(io::ErrorKind::BrokenPipe));
        }
        st.inbox[peer].push_back(frame.clone());
        self.pipe.readable[peer].notify_one();
        Ok(())
    }

    fn recv(&mut self) -> io::Result<Frame> {
        let mut st = self.pipe.lock();
        loop {
            if let Some(frame) = st.inbox[self.end].pop_front() {
                return Ok(frame);
            }
            if st.closed || st.handles[1 - self.end] == 0 {
                return Err(peer_closed(io::ErrorKind::UnexpectedEof));
            }
            st = self.pipe.readable[self.end]
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn close(&self) {
        self.pipe.lock().closed = true;
        for end in &self.pipe.readable {
            end.notify_all();
        }
    }

    fn peer(&self) -> String {
        self.label.clone()
    }

    fn try_clone(&self) -> io::Result<Box<dyn Conn>> {
        // Frames go to whichever clone happens to be parked in `recv`, so
        // callers must follow the one-receiver discipline documented on
        // `Conn::try_clone`.
        self.pipe.lock().handles[self.end] += 1;
        Ok(Box::new(InprocConn {
            pipe: Arc::clone(&self.pipe),
            end: self.end,
            label: self.label.clone(),
        }))
    }
}

impl Drop for InprocConn {
    fn drop(&mut self) {
        let mut st = self.pipe.lock();
        st.handles[self.end] -= 1;
        if st.handles[self.end] == 0 {
            self.pipe.readable[1 - self.end].notify_all();
        }
    }
}

type Registry = Arc<Mutex<HashMap<String, Sender<InprocConn>>>>;

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
        let (tx, rx) = bounded(64);
        let mut reg = self.registry.lock().unwrap();
        if reg.contains_key(name) {
            return Err(io::Error::new(
                io::ErrorKind::AddrInUse,
                format!("inproc endpoint '{name}' already bound"),
            ));
        }
        reg.insert(name.to_string(), tx);
        // Stopping unbinds the name: dropping the registry's `Sender`
        // disconnects the channel, which wakes a parked `accept`.
        let registry = Arc::clone(&self.registry);
        let bound = name.to_string();
        Ok(InprocListener {
            name: name.to_string(),
            rx,
            stop: StopHandle::with_wake(move || {
                registry.lock().unwrap().remove(&bound);
            }),
        })
    }

    /// Connect to a bound endpoint.
    pub fn connect(&self, name: &str) -> io::Result<InprocConn> {
        let tx = {
            let reg = self.registry.lock().unwrap();
            reg.get(name).cloned().ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::ConnectionRefused,
                    format!("inproc endpoint '{name}' not bound"),
                )
            })?
        };
        let (client, server) = InprocConn::pair("client", name);
        tx.send(server).map_err(|_| {
            io::Error::new(
                io::ErrorKind::ConnectionRefused,
                format!("inproc endpoint '{name}' no longer accepting"),
            )
        })?;
        Ok(client)
    }
}

/// Listener half of an in-process endpoint. Unbinds its name when
/// stopped or dropped, whichever comes first.
#[derive(Debug)]
pub struct InprocListener {
    name: String,
    rx: Receiver<InprocConn>,
    stop: StopHandle,
}

impl Listener for InprocListener {
    fn accept(&mut self) -> io::Result<Box<dyn Conn>> {
        // Only a stop drops the registry's `Sender`, so a disconnected
        // channel and a set flag are the same event.
        if !self.stop.is_stopped() {
            if let Ok(conn) = self.rx.recv() {
                return Ok(Box::new(conn));
            }
        }
        Err(io::Error::new(
            io::ErrorKind::Interrupted,
            "listener stopped",
        ))
    }

    fn stop_handle(&self) -> StopHandle {
        self.stop.clone()
    }

    fn addr(&self) -> String {
        self.name.clone()
    }
}

impl Drop for InprocListener {
    fn drop(&mut self) {
        self.stop.stop();
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
    fn stop_unblocks_accept() {
        let hub = InprocHub::new();
        let mut listener = hub.bind("s").unwrap();
        let stop = listener.stop_handle();
        let t = std::thread::spawn(move || listener.accept().map(|_| ()));
        std::thread::sleep(Duration::from_millis(30));
        stop.stop();
        let res = t.join().unwrap();
        assert_eq!(res.unwrap_err().kind(), io::ErrorKind::Interrupted);
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
    fn hubs_are_isolated() {
        let a = InprocHub::new();
        let b = InprocHub::new();
        let _l = a.bind("s").unwrap();
        assert!(b.connect("s").is_err());
    }
}
