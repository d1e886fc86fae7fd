//! Transport abstraction.
//!
//! Plasma's client↔store IPC runs over Unix domain sockets on the real
//! system. The simulation keeps that option ([`crate::uds`]) and adds an
//! in-process transport ([`crate::inproc`]) so a whole multi-node cluster
//! can run deterministically inside one test. Both speak [`Frame`]s, and
//! neither waits on a timer: a parked [`Conn::recv`] is woken by a frame,
//! by the peer going away or by [`Conn::close`]; a parked
//! [`Listener::accept`] by a connection or by [`StopHandle::stop`].

use crate::frame::Frame;
use std::fmt;
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A bidirectional, blocking, framed connection.
pub trait Conn: Send {
    /// Send one frame. `BrokenPipe` once the peer is gone.
    fn send(&mut self, frame: &Frame) -> io::Result<()>;

    /// Receive one frame, blocking. `UnexpectedEof` once the peer is gone.
    fn recv(&mut self) -> io::Result<Frame>;

    /// End the connection, for every clone and for the peer: a
    /// [`Conn::recv`] parked on any clone, on either end, wakes with
    /// `UnexpectedEof` (frames that had already arrived are delivered
    /// first) and every later `send` fails with `BrokenPipe`. Idempotent.
    /// This is how a thread blocked in `recv` is told to stop: by an
    /// event, from a thread holding a clone — never by a timer.
    fn close(&self);

    /// A short label describing the peer (diagnostics only).
    fn peer(&self) -> String;

    /// Clone the connection so one half can send while the other receives
    /// (e.g. a pipelined RPC client's dedicated reader thread).
    ///
    /// The clone shares the underlying stream. Discipline: take the clone
    /// while the connection is quiescent (right after it is established,
    /// before any `recv`), and from then on let exactly **one** half call
    /// [`Conn::recv`] — concurrent receivers would race for frames (the
    /// in-process transport hands each frame to whichever clone asks
    /// first, and the socket transports each buffer reads privately, so a
    /// late clone could strand bytes already buffered by the original).
    /// Both halves may send: frames are written atomically.
    fn try_clone(&self) -> io::Result<Box<dyn Conn>>;
}

/// A connection acceptor with cooperative shutdown.
pub trait Listener: Send {
    /// Accept the next connection. Blocks; returns `Interrupted` promptly
    /// after [`StopHandle::stop`] has been requested (possibly from
    /// another thread via the handle).
    fn accept(&mut self) -> io::Result<Box<dyn Conn>>;

    /// A cloneable handle that unblocks and permanently stops `accept`.
    fn stop_handle(&self) -> StopHandle;

    /// The address clients use to connect.
    fn addr(&self) -> String;
}

/// Requests a listener to stop accepting: a flag `accept` checks, plus
/// the listener's way of waking an `accept` already parked.
#[derive(Clone)]
pub struct StopHandle {
    flag: Arc<AtomicBool>,
    wake: Arc<dyn Fn() + Send + Sync>,
}

impl StopHandle {
    /// A handle whose first [`StopHandle::stop`] sets the flag, then runs
    /// `wake`. Every listener blocks in `accept`; none polls the flag.
    pub(crate) fn with_wake(wake: impl Fn() + Send + Sync + 'static) -> Self {
        StopHandle {
            flag: Arc::default(),
            wake: Arc::new(wake),
        }
    }

    pub fn stop(&self) {
        // The flag is set before the wake runs, so a woken `accept` sees it.
        if !self.flag.swap(true, Ordering::AcqRel) {
            (self.wake)();
        }
    }

    pub fn is_stopped(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

impl fmt::Debug for StopHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StopHandle")
            .field("stopped", &self.is_stopped())
            .finish()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The `close` contract, shared by every transport's own test: a
    /// `recv` parked on a clone in another thread and one parked on the
    /// peer both wake with EOF, and the peer's next `send` is refused.
    /// Ends by `join`: whether a `recv` was already parked when `close`
    /// ran or arrives after it, the outcome is the same.
    pub(crate) fn close_wakes_both_ends(client: Box<dyn Conn>, mut server: Box<dyn Conn>) {
        let mut reader = client.try_clone().unwrap();
        let parked = std::thread::spawn(move || reader.recv().map(|_| ()));
        let peer = std::thread::spawn(move || {
            let eof = server.recv().map(|_| ());
            (eof, server.send(&Frame::new(1, &b"late"[..])))
        });
        client.close();
        let eof = |r: io::Result<()>| r.unwrap_err().kind();
        assert_eq!(eof(parked.join().unwrap()), io::ErrorKind::UnexpectedEof);
        let (peer_recv, peer_send) = peer.join().unwrap();
        assert_eq!(eof(peer_recv), io::ErrorKind::UnexpectedEof);
        assert_eq!(eof(peer_send), io::ErrorKind::BrokenPipe);
    }
}
