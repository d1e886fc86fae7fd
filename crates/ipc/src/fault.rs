//! Fault-injecting transport wrapper.
//!
//! [`FaultConn`] decorates any [`Conn`] and consults a [`FaultPolicy`]
//! before moving each frame, so a chaos harness can drop, delay,
//! duplicate, corrupt or truncate traffic at the wire — on either
//! transport (inproc, UDS) and underneath a pipelined RPC
//! client, which only ever sees the [`Conn`] trait. The wrapper itself is
//! mechanism only: *which* frame suffers *what* is entirely the policy's
//! decision, so a deterministic policy yields a deterministic fault
//! schedule regardless of thread interleaving.
//!
//! Faults are applied on the wrapped side's **send** path (outbound
//! frames, [`Direction::Outbound`]) and **recv** path (inbound frames,
//! [`Direction::Inbound`]). A dropped inbound frame is read off the
//! underlying connection and discarded, exactly as if the network had
//! eaten it; a duplicated inbound frame is queued and handed to the next
//! `recv`; a delayed one is held until it is due — a receiver whose
//! deadline comes first times out and leaves it held for the next.

use crate::frame::Frame;
use crate::transport::{deadline_passed, Conn};
use bytes::Bytes;
use std::collections::VecDeque;
use std::io;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which way a frame is travelling, relative to the wrapped endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// The wrapped endpoint is sending (e.g. an RPC request).
    Outbound,
    /// The wrapped endpoint is receiving (e.g. an RPC response).
    Inbound,
}

impl Direction {
    /// Stable small integer for hashing/serialization.
    pub fn index(self) -> u64 {
        match self {
            Direction::Outbound => 0,
            Direction::Inbound => 1,
        }
    }
}

/// What to do with one frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Pass the frame through untouched.
    Deliver,
    /// Silently discard the frame (lost packet / partition blackhole).
    Drop,
    /// Hold the frame for the given duration, then deliver it. Because
    /// frames on one connection are delivered in order, a delay also
    /// holds back everything queued behind it — matching a congested or
    /// frozen link.
    Delay(Duration),
    /// Deliver the frame twice (retransmission duplicate).
    Duplicate,
    /// Flip the bits selected by `mask` in the payload byte at
    /// `offset % payload_len` before delivering. Empty payloads pass
    /// through untouched.
    Corrupt {
        /// Byte index to corrupt (reduced modulo the payload length).
        offset: usize,
        /// Bit mask XOR-ed into the selected byte (0 means no change).
        mask: u8,
    },
    /// Deliver only the first `keep` payload bytes (clamped to the
    /// payload length) — a coherent-but-short frame, as produced by a
    /// connection cut mid-message plus an optimistic reader.
    Truncate {
        /// Number of leading payload bytes to keep.
        keep: usize,
    },
}

/// Decides the fate of each frame crossing a [`FaultConn`].
///
/// Implementations must be thread-safe: a pipelined client sends from
/// its callers' threads while another of its callers receives.
/// Determinism is the implementation's responsibility — the wrapper
/// reports only the link label, the direction and the frame.
pub trait FaultPolicy: Send + Sync {
    /// Decide what happens to `frame` crossing `link` in `dir`.
    fn on_frame(&self, link: &str, dir: Direction, frame: &Frame) -> FaultAction;
}

/// A [`FaultPolicy`] that delivers everything (useful as a default and
/// for tests that toggle faults off).
#[derive(Debug, Default, Clone, Copy)]
pub struct NoFaults;

impl FaultPolicy for NoFaults {
    fn on_frame(&self, _link: &str, _dir: Direction, _frame: &Frame) -> FaultAction {
        FaultAction::Deliver
    }
}

/// Fault-injecting wrapper around any [`Conn`] (see module docs).
pub struct FaultConn {
    inner: Box<dyn Conn>,
    link: String,
    policy: Arc<dyn FaultPolicy>,
    /// Inbound frames read off `inner` but not yet handed on, in order,
    /// each with the instant it is due: a delayed frame once its delay
    /// has passed, a duplicate at once.
    pending: VecDeque<(Instant, Frame)>,
}

impl FaultConn {
    /// Wrap `inner`; every frame is reported to `policy` under `link`.
    pub fn wrap(
        inner: Box<dyn Conn>,
        link: impl Into<String>,
        policy: Arc<dyn FaultPolicy>,
    ) -> Self {
        FaultConn {
            inner,
            link: link.into(),
            policy,
            pending: VecDeque::new(),
        }
    }

    fn mutate(frame: &Frame, action: FaultAction) -> Frame {
        match action {
            FaultAction::Corrupt { offset, mask } => {
                if frame.payload.is_empty() || mask == 0 {
                    return frame.clone();
                }
                let mut bytes = frame.payload.to_vec();
                let i = offset % bytes.len();
                bytes[i] ^= mask;
                Frame::new(frame.msg_type, Bytes::from(bytes))
            }
            FaultAction::Truncate { keep } => {
                let keep = keep.min(frame.payload.len());
                Frame::new(
                    frame.msg_type,
                    Bytes::copy_from_slice(&frame.payload[..keep]),
                )
            }
            _ => frame.clone(),
        }
    }
}

impl Conn for FaultConn {
    fn send(&mut self, frame: &Frame) -> io::Result<()> {
        match self.policy.on_frame(&self.link, Direction::Outbound, frame) {
            FaultAction::Deliver => self.inner.send(frame),
            FaultAction::Drop => Ok(()),
            FaultAction::Delay(d) => {
                std::thread::sleep(d);
                self.inner.send(frame)
            }
            FaultAction::Duplicate => {
                self.inner.send(frame)?;
                self.inner.send(frame)
            }
            action @ (FaultAction::Corrupt { .. } | FaultAction::Truncate { .. }) => {
                self.inner.send(&Self::mutate(frame, action))
            }
        }
    }

    fn recv_until(&mut self, deadline: Option<Instant>) -> io::Result<Frame> {
        loop {
            if let Some(&(due, _)) = self.pending.front() {
                // Wait for the frame, or for the caller's deadline if it
                // comes first; the frame stays held for the next `recv`.
                let wake = deadline.map_or(due, |deadline| deadline.min(due));
                std::thread::sleep(wake.saturating_duration_since(Instant::now()));
                if wake < due {
                    return Err(deadline_passed());
                }
                return Ok(self.pending.pop_front().expect("front checked").1);
            }
            let frame = self.inner.recv_until(deadline)?;
            match self.policy.on_frame(&self.link, Direction::Inbound, &frame) {
                FaultAction::Deliver => return Ok(frame),
                FaultAction::Drop => continue,
                FaultAction::Delay(d) => self.pending.push_back((Instant::now() + d, frame)),
                FaultAction::Duplicate => {
                    self.pending.push_back((Instant::now(), frame.clone()));
                    return Ok(frame);
                }
                action @ (FaultAction::Corrupt { .. } | FaultAction::Truncate { .. }) => {
                    return Ok(Self::mutate(&frame, action));
                }
            }
        }
    }

    fn close(&self) {
        self.inner.close();
    }

    fn peer(&self) -> String {
        format!("fault({})", self.inner.peer())
    }

    fn try_clone(&self) -> io::Result<Box<dyn Conn>> {
        // The redelivery queue stays with the original: per the `Conn`
        // contract exactly one half receives, and clones are taken
        // before the first `recv`, so the queue is empty at clone time.
        Ok(Box::new(FaultConn {
            inner: self.inner.try_clone()?,
            link: self.link.clone(),
            policy: Arc::clone(&self.policy),
            pending: VecDeque::new(),
        }))
    }
}

impl std::fmt::Debug for FaultConn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultConn")
            .field("link", &self.link)
            .field("pending", &self.pending.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inproc::InprocHub;
    use crate::transport::Listener;
    use std::sync::Mutex;

    /// Scripted policy: pops the next action per (direction) call.
    struct Script {
        outbound: Mutex<VecDeque<FaultAction>>,
        inbound: Mutex<VecDeque<FaultAction>>,
    }

    impl Script {
        fn new(outbound: Vec<FaultAction>, inbound: Vec<FaultAction>) -> Arc<Self> {
            Arc::new(Script {
                outbound: Mutex::new(outbound.into()),
                inbound: Mutex::new(inbound.into()),
            })
        }
    }

    impl FaultPolicy for Script {
        fn on_frame(&self, _link: &str, dir: Direction, _frame: &Frame) -> FaultAction {
            let q = match dir {
                Direction::Outbound => &self.outbound,
                Direction::Inbound => &self.inbound,
            };
            q.lock()
                .unwrap()
                .pop_front()
                .unwrap_or(FaultAction::Deliver)
        }
    }

    fn pair(policy: Arc<dyn FaultPolicy>) -> (FaultConn, Box<dyn Conn>) {
        let hub = InprocHub::new();
        let mut listener = hub.bind("t").unwrap();
        let client = hub.connect("t").unwrap();
        let server = listener.accept().unwrap();
        (FaultConn::wrap(Box::new(client), "a->b", policy), server)
    }

    #[test]
    fn deliver_and_drop_outbound() {
        let policy = Script::new(vec![FaultAction::Drop, FaultAction::Deliver], vec![]);
        let (mut client, mut server) = pair(policy);
        client.send(&Frame::new(1, &b"lost"[..])).unwrap();
        client.send(&Frame::new(2, &b"kept"[..])).unwrap();
        let got = server.recv().unwrap();
        assert_eq!(got.msg_type, 2);
        assert_eq!(&got.payload[..], b"kept");
    }

    #[test]
    fn duplicate_outbound_delivers_twice() {
        let policy = Script::new(vec![FaultAction::Duplicate], vec![]);
        let (mut client, mut server) = pair(policy);
        client.send(&Frame::new(7, &b"x"[..])).unwrap();
        assert_eq!(server.recv().unwrap().msg_type, 7);
        assert_eq!(server.recv().unwrap().msg_type, 7);
    }

    #[test]
    fn corrupt_flips_exactly_one_masked_byte() {
        let policy = Script::new(
            vec![FaultAction::Corrupt {
                offset: 12, // 12 % 4 == 0
                mask: 0xFF,
            }],
            vec![],
        );
        let (mut client, mut server) = pair(policy);
        client.send(&Frame::new(1, &b"abcd"[..])).unwrap();
        let got = server.recv().unwrap();
        assert_eq!(&got.payload[..], [b'a' ^ 0xFF, b'b', b'c', b'd']);
    }

    #[test]
    fn truncate_keeps_prefix() {
        let policy = Script::new(vec![FaultAction::Truncate { keep: 2 }], vec![]);
        let (mut client, mut server) = pair(policy);
        client.send(&Frame::new(1, &b"abcd"[..])).unwrap();
        assert_eq!(&server.recv().unwrap().payload[..], b"ab");
    }

    #[test]
    fn truncate_keep_clamped_to_len() {
        let policy = Script::new(vec![FaultAction::Truncate { keep: 99 }], vec![]);
        let (mut client, mut server) = pair(policy);
        client.send(&Frame::new(1, &b"ab"[..])).unwrap();
        assert_eq!(&server.recv().unwrap().payload[..], b"ab");
    }

    #[test]
    fn corrupt_empty_payload_is_a_noop() {
        let policy = Script::new(
            vec![FaultAction::Corrupt {
                offset: 0,
                mask: 0xFF,
            }],
            vec![],
        );
        let (mut client, mut server) = pair(policy);
        client.send(&Frame::new(3, Bytes::new())).unwrap();
        let got = server.recv().unwrap();
        assert_eq!(got.msg_type, 3);
        assert!(got.payload.is_empty());
    }

    #[test]
    fn inbound_drop_discards_and_keeps_reading() {
        let policy = Script::new(vec![], vec![FaultAction::Drop, FaultAction::Deliver]);
        let (mut client, mut server) = pair(policy);
        server.send(&Frame::new(1, &b"eaten"[..])).unwrap();
        server.send(&Frame::new(2, &b"seen"[..])).unwrap();
        assert_eq!(client.recv().unwrap().msg_type, 2);
    }

    #[test]
    fn inbound_duplicate_redelivers_on_next_recv() {
        let policy = Script::new(vec![], vec![FaultAction::Duplicate]);
        let (mut client, mut server) = pair(policy);
        server.send(&Frame::new(9, &b"x"[..])).unwrap();
        assert_eq!(client.recv().unwrap().msg_type, 9);
        assert_eq!(client.recv().unwrap().msg_type, 9);
    }

    #[test]
    fn delay_holds_then_delivers() {
        let policy = Script::new(vec![FaultAction::Delay(Duration::from_millis(25))], vec![]);
        let (mut client, mut server) = pair(policy);
        let start = std::time::Instant::now();
        client.send(&Frame::new(1, &b"slow"[..])).unwrap();
        assert!(start.elapsed() >= Duration::from_millis(25));
        assert_eq!(server.recv().unwrap().msg_type, 1);
    }

    #[test]
    fn inbound_delay_is_held_past_a_deadline_that_comes_first() {
        let delay = Duration::from_millis(80);
        let policy = Script::new(vec![], vec![FaultAction::Delay(delay)]);
        let (mut client, mut server) = pair(policy);
        server.send(&Frame::new(1, &b"slow"[..])).unwrap();
        let start = Instant::now();
        let err = client
            .recv_until(Some(start + Duration::from_millis(10)))
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        assert!(start.elapsed() < delay, "slept past the deadline");
        // The frame was held, not lost, and is not early.
        assert_eq!(&client.recv().unwrap().payload[..], b"slow");
        assert!(start.elapsed() >= delay);
    }

    #[test]
    fn close_passes_through_to_both_ends() {
        let (client, server) = pair(Arc::new(NoFaults));
        crate::transport::tests::close_wakes_both_ends(Box::new(client), server);
    }

    #[test]
    fn clone_shares_policy_and_link() {
        let policy = Script::new(vec![FaultAction::Drop], vec![]);
        let (client, mut server) = pair(policy);
        let mut writer = client.try_clone().unwrap();
        // The clone consults the same scripted policy: first send dropped.
        writer.send(&Frame::new(1, &b"lost"[..])).unwrap();
        writer.send(&Frame::new(2, &b"kept"[..])).unwrap();
        assert_eq!(server.recv().unwrap().msg_type, 2);
        assert!(client.peer().starts_with("fault("));
    }
}
