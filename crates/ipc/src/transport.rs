//! Transport abstraction.
//!
//! Plasma's client↔store IPC runs over Unix domain sockets on the real
//! system; the simulation runs it, and the interconnect, over an
//! in-process transport ([`crate::inproc`]) so a whole multi-node cluster
//! can run deterministically inside one test. It speaks [`Frame`]s and
//! waits on no timer of its own: a parked [`Conn::recv_until`] is woken by
//! a frame, by the peer going away, by [`Conn::close`] or by the deadline
//! its caller passed in. A connection can report its frames instead
//! ([`Conn::report_to`]), and a listener can hand its connections over as
//! they are made ([`Listener::hand_to`]), so that one thread serves many
//! connections with none parked in `recv` or in `accept`.

use crate::frame::Frame;
use std::io;
use std::time::Instant;

/// A bidirectional, blocking, framed connection.
pub trait Conn: Send {
    /// Send one frame. `BrokenPipe` once the peer is gone.
    fn send(&mut self, frame: &Frame) -> io::Result<()>;

    /// Receive one frame, blocking. `UnexpectedEof` once the peer is gone.
    fn recv(&mut self) -> io::Result<Frame> {
        self.recv_until(None)
    }

    /// [`Conn::recv`], waiting until `deadline` at the latest: if it
    /// passes before a frame is there, the call fails with `TimedOut` and
    /// no frame is consumed — the next call receives the frame this one
    /// would have. `None` waits as long as it takes.
    fn recv_until(&mut self, deadline: Option<Instant>) -> io::Result<Frame>;

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
    /// (e.g. a pipelined RPC client's receive half, which its waiting
    /// callers take turns to read).
    ///
    /// The clone shares the underlying stream. Discipline: take the clone
    /// while the connection is quiescent (right after it is established,
    /// before any `recv`), and from then on let exactly **one** half call
    /// [`Conn::recv`] — concurrent receivers would race for frames (the
    /// in-process transport hands each frame to whichever clone asks
    /// first). Both halves may send: frames are written atomically.
    fn try_clone(&self) -> io::Result<Box<dyn Conn>>;

    /// Call `report` once for every frame that arrives on this end —
    /// once for each already waiting, then once for each as it arrives —
    /// and once when the connection ends (the peer hangs up, or a
    /// [`Conn::close`] on either end). Each call comes after what it
    /// reports can be received, so a thread that serves many connections
    /// waits for reports instead of in `recv`: for each report, a
    /// [`Conn::recv_until`] with a deadline that has passed takes the
    /// frame, or fails with `UnexpectedEof` once the connection has
    /// ended, and never waits. At most one `report` per end; it is
    /// called from the threads that send, close or drop, after they have
    /// released any lock of the connection's, so it must not block.
    ///
    /// `Unsupported` by default: a transport that cannot report keeps a
    /// thread parked in `recv` per connection instead.
    fn report_to(&self, _report: Box<dyn Fn() + Send + Sync>) -> io::Result<()> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "this connection cannot report its frames",
        ))
    }
}

/// The error of a [`Conn::recv_until`] whose deadline passed first.
pub(crate) fn deadline_passed() -> io::Error {
    io::Error::new(io::ErrorKind::TimedOut, "deadline passed before a frame")
}

/// Where a listener hands each connection ([`Listener::hand_to`]).
pub type Handler = Box<dyn Fn(Box<dyn Conn>) + Send + Sync>;

/// A bound address that takes connections. Dropping it unbinds the
/// address: a later connect is refused, and a connection still queued for
/// `accept` is hung up on.
pub trait Listener: Send + Sync {
    /// Accept the next connection, waiting for one. Fails with
    /// `Unsupported` once the listener hands its connections to a handler.
    fn accept(&mut self) -> io::Result<Box<dyn Conn>>;

    /// From now on, hand every connection to `handler` instead of
    /// queueing it for `accept`: those already queued first, then each on
    /// the thread that makes it, as it is made. Whether a connection is
    /// queued or handed is decided under the listener's lock, so each goes
    /// exactly once, to one or the other. `handler` is called after that
    /// lock is released, and a connect returns once it has run. A later
    /// call replaces the handler.
    fn hand_to(&mut self, handler: Handler);
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
