//! Transport abstraction.
//!
//! Plasma's client↔store IPC runs over Unix domain sockets on the real
//! system. The simulation keeps that option ([`crate::uds`]) and adds an
//! in-process transport ([`crate::inproc`]) so a whole multi-node cluster
//! can run deterministically inside one test. Both speak [`Frame`]s.

use crate::frame::Frame;
use std::fmt;
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A bidirectional, blocking, framed connection.
pub trait Conn: Send {
    /// Send one frame. `BrokenPipe` once the peer is gone.
    fn send(&mut self, frame: &Frame) -> io::Result<()>;

    /// Receive one frame, blocking. `UnexpectedEof` once the peer is gone.
    fn recv(&mut self) -> io::Result<Frame>;

    /// Bound how long subsequent [`Conn::recv`] calls wait for the next
    /// frame to *begin* arriving; `None` restores indefinite blocking.
    ///
    /// A `recv` that sees no frame within the window fails with
    /// [`io::ErrorKind::TimedOut`] and consumes nothing, so the
    /// connection stays usable. Once a frame has started arriving its
    /// remainder is read without the bound (senders write frames
    /// atomically, so arrival of the first byte implies the rest is in
    /// flight) — the bound is a liveness check on the peer, not a
    /// transfer-rate limit.
    fn set_recv_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()>;

    /// A short label describing the peer (diagnostics only).
    fn peer(&self) -> String;

    /// Clone the connection so one half can send while the other receives
    /// (e.g. a pipelined RPC client's dedicated reader thread).
    ///
    /// The clone shares the underlying stream. Discipline: take the clone
    /// while the connection is quiescent (right after it is established,
    /// before any `recv`), and from then on let exactly **one** half call
    /// [`Conn::recv`] — concurrent receivers would race for frames (the
    /// in-process transport hands each frame to whichever clone polls
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
/// whatever it takes to wake an `accept` already parked.
#[derive(Clone, Default)]
pub struct StopHandle {
    flag: Arc<AtomicBool>,
    wake: Option<Arc<dyn Fn() + Send + Sync>>,
}

impl StopHandle {
    pub fn new() -> Self {
        Self::default()
    }

    /// A handle whose first [`StopHandle::stop`] also runs `wake`, for a
    /// listener that blocks in `accept` instead of polling the flag.
    pub(crate) fn with_wake(wake: impl Fn() + Send + Sync + 'static) -> Self {
        StopHandle {
            flag: Arc::default(),
            wake: Some(Arc::new(wake)),
        }
    }

    pub fn stop(&self) {
        // The flag is set before the wake runs, so a woken `accept` sees it.
        if !self.flag.swap(true, Ordering::AcqRel) {
            if let Some(wake) = &self.wake {
                wake();
            }
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
