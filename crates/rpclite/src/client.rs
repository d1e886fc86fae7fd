//! RPC client: pipelined unary calls multiplexed on one connection.
//!
//! Requests carry a correlation id (the envelope's `call_id`), responses
//! complete out of order by matching ids against a pending-call map, and
//! up to an in-flight window of requests share the connection
//! concurrently — K concurrent calls cost `≈ RTT + K·t_serve`, not
//! `K·RTT`.
//!
//! No thread of the client's own reads the connection: a caller waiting
//! for its answer does. The first waiter to find the receive half free
//! takes it and reads, filing every other call's answer into that call's
//! slot and waking its waiter, until its own answer arrives; then it puts
//! the half back and wakes the others, one of whom reads next. Everyone
//! else waits on a condvar. So a call is one thread hand-off each way —
//! to the server and back — as on the plasma IPC path.
//!
//! [`RpcClient::call_async`] sends a request and returns a
//! [`PendingCall`] ticket; [`RpcClient::call`] is send + wait-for-my-id.
//! [`RpcClient::send`] sends a call nobody waits on: its answer is filed
//! by whichever caller next reads the connection, and
//! [`RpcClient::take`] picks it up later without blocking.
//! A client can carry a [`SharedLink`] + [`Clock`]: each call then charges
//! one modeled network round-trip, overlapping with other in-flight calls
//! on the virtual clock — this is where the milliseconds and the jitter
//! of the paper's Fig. 6 remote path come from, since the in-process
//! exchange itself is nearly free. A call's delay is the link's draw at
//! (its verb, its number among that verb's sends on this client), so it
//! depends on no call of another verb.
//!
//! ## Deadlines, poisoning, and reconnection
//!
//! [`PendingCall::wait_deadline`] bounds how long a call waits for its
//! response; an expired deadline surfaces as [`RpcError::Deadline`]. With
//! correlation ids a deadline expiry no longer poisons the connection:
//! the expired call abandons its pending slot and whoever reads next
//! discards the late response by its unmatched id, while neighboring
//! in-flight calls proceed undisturbed. A caller reading the connection
//! reads it only until its own deadline ([`ipc::Conn::recv_until`]), then
//! hands the receive half on. Only *transport or protocol* failures
//! poison the connection — the caller that meets one fails every
//! in-flight call with the same error and drops the stream. If the client
//! was built with a connector ([`RpcClient::with_connector`]) the next
//! call transparently redials; otherwise subsequent calls fail with
//! `Transport(NotConnected)` until the client is replaced. This mirrors
//! gRPC channel behavior: a channel outlives any one TCP connection.
//!
//! Nothing is polled awake: whoever retires a connection — a poison, or
//! the client's `Drop` — supersedes its generation and closes it
//! ([`ipc::Conn::close`]); a caller reading it reads EOF, sees the
//! generation moved on and drops its half.

use crate::envelope::{Request, Response, FRAME_RESPONSE};
use crate::service::{Status, StatusCode};
use bytes::Bytes;
use ipc::{Conn, Encode};
use netsim::SharedLink;
use obs::{Counter, Histogram, Registry};
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::collections::HashMap;
use std::fmt;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tfsim::Clock;

/// Default cap on requests in flight per connection (gRPC's HTTP/2
/// default stream window is 100; we default slightly under).
const DEFAULT_WINDOW: usize = 64;

/// Errors surfaced by RPC calls.
#[derive(Debug)]
pub enum RpcError {
    /// The service returned an error status.
    Status(Status),
    /// The transport failed (peer gone, protocol violation, ...).
    Transport(std::io::Error),
    /// No response arrived within the caller's deadline.
    Deadline(Duration),
    /// The response could not be decoded.
    Protocol(String),
}

impl fmt::Display for RpcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RpcError::Status(s) => write!(f, "rpc status {s}"),
            RpcError::Transport(e) => write!(f, "rpc transport error: {e}"),
            RpcError::Deadline(d) => write!(f, "rpc deadline exceeded ({d:?})"),
            RpcError::Protocol(m) => write!(f, "rpc protocol error: {m}"),
        }
    }
}

impl std::error::Error for RpcError {}

impl RpcError {
    /// The status, if this error is a service status.
    pub fn status(&self) -> Option<&Status> {
        match self {
            RpcError::Status(s) => Some(s),
            _ => None,
        }
    }

    /// Whether retrying the call against the same peer could plausibly
    /// succeed: transient transport faults, expired deadlines, and
    /// explicit `Unavailable` statuses. Definite answers (`NotFound`,
    /// `AlreadyExists`, ...) and protocol violations are not retryable.
    pub fn is_retryable(&self) -> bool {
        match self {
            RpcError::Transport(_) | RpcError::Deadline(_) => true,
            RpcError::Status(s) => s.code == StatusCode::Unavailable,
            RpcError::Protocol(_) => false,
        }
    }
}

/// Optional network cost injection: a delay model plus the clock to charge.
#[derive(Clone)]
pub struct NetCost {
    /// Delay model for one round trip, parameterized by payload size.
    pub link: SharedLink,
    /// The simulation clock the modeled delay is charged to.
    pub clock: Clock,
}

/// Dials a fresh connection when the current one is poisoned.
pub type Connector = Box<dyn Fn() -> io::Result<Box<dyn Conn>> + Send + Sync>;

/// Where every client metric is named: one set per registry.
const PREFIX: &str = "rpc.client";

/// Pre-registered metric handles, shared by every client of one node
/// (one set per registry, whatever the number of peers).
///
/// Per-verb wall-clock call latency plus failure-mode counters and an
/// in-flight pipeline-depth histogram. Handles are resolved once at
/// registration, so the record path touches atomics only — no registry
/// lookup, no lock.
pub struct ClientMetrics {
    /// Latency histograms indexed by method id (`None` for gaps).
    by_method: Vec<Option<Arc<Histogram>>>,
    /// Latency of calls whose method id was not pre-registered.
    other: Arc<Histogram>,
    /// Calls that failed with [`RpcError::Deadline`].
    deadline_expired: Arc<Counter>,
    /// Times a poisoned or absent connection was redialed.
    redials: Arc<Counter>,
    /// Times a transport/protocol failure poisoned (dropped) the connection.
    poisoned: Arc<Counter>,
    /// Pipeline depth of the sending client's connection (requests in
    /// flight, this one included) sampled at each send.
    in_flight: Arc<Histogram>,
}

impl ClientMetrics {
    /// Register the client metrics of `registry` under `rpc.client`
    /// (e.g. `rpc.client.get_many.latency_ns`, `rpc.client.redials`).
    /// `verbs` maps method ids to verb names for per-verb latency
    /// histograms; unlisted methods land in `rpc.client.other.latency_ns`.
    pub fn register(registry: &Registry, verbs: &[(u32, &str)]) -> Arc<ClientMetrics> {
        let max_id = verbs.iter().map(|(id, _)| *id).max().unwrap_or(0) as usize;
        let mut by_method = vec![None; max_id + 1];
        for (id, name) in verbs {
            by_method[*id as usize] =
                Some(registry.histogram(&format!("{PREFIX}.{name}.latency_ns")));
        }
        Arc::new(ClientMetrics {
            by_method,
            other: registry.histogram(&format!("{PREFIX}.other.latency_ns")),
            deadline_expired: registry.counter(&format!("{PREFIX}.deadline_expired")),
            redials: registry.counter(&format!("{PREFIX}.redials")),
            poisoned: registry.counter(&format!("{PREFIX}.poisoned")),
            in_flight: registry.histogram(&format!("{PREFIX}.in_flight")),
        })
    }

    fn latency(&self, method: u32) -> &Arc<Histogram> {
        self.by_method
            .get(method as usize)
            .and_then(|h| h.as_ref())
            .unwrap_or(&self.other)
    }
}

/// Why a connection was poisoned; replayed to every in-flight call.
enum PoisonCause {
    Transport(io::ErrorKind, String),
    Protocol(String),
}

impl PoisonCause {
    fn to_error(&self) -> RpcError {
        match self {
            PoisonCause::Transport(kind, msg) => {
                RpcError::Transport(io::Error::new(*kind, msg.clone()))
            }
            PoisonCause::Protocol(msg) => RpcError::Protocol(msg.clone()),
        }
    }
}

/// One in-flight call's slot in the pending map.
enum PendingState {
    /// Sent, no response yet.
    Waiting,
    /// Completed by whichever caller read its response (or failed by a
    /// poison event); awaiting pickup by the caller's `wait`.
    Done(Result<Response, RpcError>),
}

/// Connection state shared by a client's callers.
#[derive(Default)]
struct ChannelState {
    /// Send half of the live connection; `None` when poisoned or not yet
    /// dialed.
    writer: Option<Box<dyn Conn>>,
    /// Receive half of the live connection while no caller is reading
    /// it. A waiting caller takes it, and puts it back once its own
    /// response is in or its deadline has passed.
    reader: Option<Box<dyn Conn>>,
    /// Bumped on every (re)dial and poison, so a caller still reading a
    /// replaced connection can tell, and must not touch state.
    generation: u64,
    /// Calls sent and not yet picked up by their caller, keyed by call
    /// id. Their number is the in-flight depth the window caps.
    pending: HashMap<u64, PendingState>,
    /// Calls nobody waits on ([`RpcClient::send`]), keyed by call id:
    /// `None` until a caller reading the connection files the answer.
    /// They take no share of the window: nobody would free it.
    unawaited: HashMap<u64, Option<Result<Response, RpcError>>>,
    /// Waited calls sent per method, over every connection: the next
    /// one's number, at which the link draws its delay.
    sent: HashMap<u32, u64>,
}

impl ChannelState {
    /// Make `conn` the live connection. The caller holds no live
    /// connection (`writer` is `None`).
    fn install(&mut self, conn: Box<dyn Conn>) -> io::Result<()> {
        self.reader = Some(conn.try_clone()?);
        self.writer = Some(conn);
        self.generation += 1;
        Ok(())
    }

    /// Retire the live connection, if any: supersede its generation and
    /// close it. That is the whole stand-down — a caller reading it wakes
    /// from `recv` with EOF, finds the generation moved on, and drops its
    /// half.
    fn retire(&mut self) {
        self.generation += 1;
        self.reader = None;
        if let Some(writer) = self.writer.take() {
            writer.close();
        }
    }
}

#[derive(Default)]
struct Shared {
    state: Mutex<ChannelState>,
    /// Signalled when a response is filed, when the receive half is put
    /// back, when a full window frees a share and on poison.
    cond: Condvar,
}

/// A pipelined unary RPC client.
///
/// Cheap to share across threads (`&self` methods); concurrent callers'
/// requests interleave on one connection up to the in-flight window. A
/// `None` writer means the previous connection was poisoned by a
/// transport/protocol failure (or never established); the next call
/// redials via the connector if one was provided.
pub struct RpcClient {
    shared: Arc<Shared>,
    connector: Option<Connector>,
    net: Option<NetCost>,
    metrics: Option<Arc<ClientMetrics>>,
    window: usize,
    next_id: AtomicU64,
}

impl RpcClient {
    /// Wrap an established connection, with no modeled network cost.
    pub fn new(conn: Box<dyn Conn>) -> Self {
        Self::with_net(conn, None)
    }

    /// Wrap a connection, charging `net` per call if given. A connection
    /// that cannot be cloned into a receive half counts as already
    /// poisoned.
    pub fn with_net(conn: Box<dyn Conn>, net: Option<NetCost>) -> Self {
        let client = Self::build(None, net);
        let _ = client.shared.state.lock().install(conn);
        client
    }

    /// Build a client that dials lazily via `connector` and redials after
    /// a poisoned connection. The first call performs the first dial.
    pub fn with_connector(connector: Connector, net: Option<NetCost>) -> Self {
        Self::build(Some(connector), net)
    }

    fn build(connector: Option<Connector>, net: Option<NetCost>) -> Self {
        RpcClient {
            shared: Arc::default(),
            connector,
            net,
            metrics: None,
            window: DEFAULT_WINDOW,
            next_id: AtomicU64::new(1),
        }
    }

    /// Attach pre-registered metric handles (see [`ClientMetrics`]).
    /// Called once while building the client, before it is shared.
    pub fn set_metrics(&mut self, metrics: Arc<ClientMetrics>) {
        self.metrics = Some(metrics);
    }

    /// Shrink the cap on requests in flight per connection (minimum 1;
    /// every client runs with the default, 64). A send that would exceed
    /// the window blocks until an in-flight call completes. Test-only:
    /// the window tests below are the one caller a smaller cap ever had.
    #[cfg(test)]
    pub(crate) fn set_window(&mut self, window: usize) {
        self.window = window.max(1);
    }

    /// Issue one unary call and block (unboundedly) for its response.
    pub fn call(&self, method: u32, body: Bytes) -> Result<Bytes, RpcError> {
        self.call_async(method, &body)?.wait()
    }

    /// Send one request whose body is `body`'s encoding, and return a
    /// [`PendingCall`] ticket without waiting for the response; other
    /// calls may be issued and completed while this one is in flight.
    /// Blocks only if the in-flight window is full or the connection must
    /// be (re)dialed.
    ///
    /// The body — bytes, parts back to back, or a message's fields — is
    /// written straight into the request frame ([`Request::frame`]), so a
    /// caller never encodes it into a buffer of its own first. The frame,
    /// and the request length the modeled network charges, are those of
    /// the encoded body.
    pub fn call_async<B: Encode + ?Sized>(
        &self,
        method: u32,
        body: &B,
    ) -> Result<PendingCall<'_>, RpcError> {
        let call_id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let req_len = body.encoded_len();
        let mut st = self.shared.state.lock();
        loop {
            if st.writer.is_none() {
                self.dial_locked(&mut st)?;
            }
            if st.pending.len() < self.window {
                break;
            }
            self.shared.cond.wait(&mut st);
        }
        // The virtual send time is read once the window admits the send:
        // a call that waited for a share leaves when the call it waited
        // for has come back, not when it asked to leave.
        let t0 = self.net.as_ref().map(|n| n.clock.now());
        st.pending.insert(call_id, PendingState::Waiting);
        if let Some(m) = &self.metrics {
            m.in_flight.record(st.pending.len() as u64);
        }
        let started = Instant::now();
        let frame = Request::frame(call_id, method, body);
        if let Err(e) = st.writer.as_mut().expect("writer present").send(&frame) {
            st.pending.remove(&call_id);
            let cause = PoisonCause::Transport(e.kind(), e.to_string());
            self.poison(&mut st, cause);
            return Err(RpcError::Transport(e));
        }
        // Numbered at the send, under the lock: pipelined answers may
        // come back in any order.
        let sent = st.sent.entry(method).or_default();
        let seq = *sent;
        *sent += 1;
        Ok(PendingCall {
            client: self,
            call_id,
            method,
            seq,
            req_len,
            started,
            t0,
            claimed: false,
        })
    }

    /// Send one request nobody waits on, and return the claim on its
    /// answer ([`Unawaited`]). Never blocks on the window. The answer is
    /// filed by whichever caller next reads the connection, and picked
    /// up with [`RpcClient::take`] (or waited for, at quiesce, with
    /// [`RpcClient::settle`]). It is charged no modeled delay, so it
    /// draws none and takes no number.
    pub fn send<B: Encode + ?Sized>(&self, method: u32, body: &B) -> Result<Unawaited, RpcError> {
        let call_id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let mut st = self.shared.state.lock();
        if st.writer.is_none() {
            self.dial_locked(&mut st)?;
        }
        let frame = Request::frame(call_id, method, body);
        if let Err(e) = st.writer.as_mut().expect("writer present").send(&frame) {
            let cause = PoisonCause::Transport(e.kind(), e.to_string());
            self.poison(&mut st, cause);
            return Err(RpcError::Transport(e));
        }
        st.unawaited.insert(call_id, None);
        drop(st);
        Ok(Unawaited {
            call_id,
            method,
            started: Instant::now(),
        })
    }

    /// The answer to `call` if a caller reading the connection has filed
    /// it, or `None` if none has, in which case the call is given up:
    /// its answer, should it come, is dropped by its id. Never reads the
    /// connection, never blocks, and charges no virtual time.
    pub fn take(&self, call: Unawaited) -> Option<Result<Bytes, RpcError>> {
        let answer = self.shared.state.lock().unawaited.remove(&call.call_id);
        let answer = answer.flatten()?;
        Some(call.ticket(self).finish(answer))
    }

    /// Wait until `call`'s answer is in or `deadline` (from its send)
    /// passes, reading the connection when no other caller is, as a
    /// waited call does; charges no virtual time. For a caller that must
    /// know every answer before it reads what they change — at quiesce.
    pub fn settle(&self, call: Unawaited, deadline: Option<Duration>) -> Result<Bytes, RpcError> {
        let mut st = self.shared.state.lock();
        let slot = match st.unawaited.remove(&call.call_id) {
            Some(Some(answer)) => PendingState::Done(answer),
            Some(None) => PendingState::Waiting,
            None => {
                return Err(RpcError::Protocol(format!(
                    "call {} vanished",
                    call.call_id
                )))
            }
        };
        st.pending.insert(call.call_id, slot);
        drop(st);
        call.ticket(self).wait_deadline(deadline)
    }

    /// Dial via the connector. Caller holds the state lock.
    fn dial_locked(&self, st: &mut ChannelState) -> Result<(), RpcError> {
        let connector = self.connector.as_ref().ok_or_else(|| {
            RpcError::Transport(io::Error::new(
                io::ErrorKind::NotConnected,
                "connection poisoned and no connector configured",
            ))
        })?;
        let fresh = connector().map_err(RpcError::Transport)?;
        st.install(fresh).map_err(RpcError::Transport)?;
        if let Some(m) = &self.metrics {
            m.redials.inc();
        }
        Ok(())
    }

    /// Poison the live connection: retire it and fail every in-flight
    /// call with `cause`. The caller has checked that the connection it
    /// failed on is still the live one.
    fn poison(&self, st: &mut ChannelState, cause: PoisonCause) {
        st.retire();
        for slot in st.pending.values_mut() {
            if matches!(slot, PendingState::Waiting) {
                *slot = PendingState::Done(Err(cause.to_error()));
            }
        }
        for slot in st.unawaited.values_mut() {
            slot.get_or_insert_with(|| Err(cause.to_error()));
        }
        if let Some(m) = &self.metrics {
            m.poisoned.inc();
        }
        self.shared.cond.notify_all();
    }

    /// Remove `call_id`'s slot, waking the callers a full window holds
    /// back if the slot held the last share.
    fn free_slot(&self, st: &mut ChannelState, call_id: u64) -> Option<PendingState> {
        let slot = st.pending.remove(&call_id)?;
        if st.pending.len() + 1 == self.window {
            self.shared.cond.notify_all();
        }
        Some(slot)
    }

    /// Read the connection through `reader`, the one caller doing so,
    /// until `call_id`'s own response is in or `until` passes: file each
    /// response into its call's slot and wake that call's waiter. Then
    /// put the receive half back and wake the other waiters, one of whom
    /// reads next — unless the connection failed (this poisons it) or was
    /// replaced meanwhile (the half is stale and is dropped). The state
    /// lock is released while the caller reads.
    fn read_responses<'s>(
        &'s self,
        mut st: MutexGuard<'s, ChannelState>,
        mut reader: Box<dyn Conn>,
        call_id: u64,
        until: Option<Instant>,
    ) -> MutexGuard<'s, ChannelState> {
        let generation = st.generation;
        loop {
            drop(st);
            let frame = reader.recv_until(until);
            st = self.shared.state.lock();
            if st.generation != generation {
                return st;
            }
            let response = match frame {
                Err(e) if e.kind() == io::ErrorKind::TimedOut => break,
                Err(e) => Err(PoisonCause::Transport(e.kind(), e.to_string())),
                Ok(frame) if frame.msg_type != FRAME_RESPONSE => Err(PoisonCause::Protocol(
                    format!("unexpected frame type {:#x}", frame.msg_type),
                )),
                Ok(frame) => Response::from_frame(&frame)
                    .map_err(|e| PoisonCause::Protocol(format!("bad response: {e}"))),
            };
            let response = match response {
                Ok(response) => response,
                Err(cause) => {
                    self.poison(&mut st, cause);
                    return st;
                }
            };
            let mine = response.call_id == call_id;
            // No slot: the call abandoned its deadline and this response
            // is late. Dropping it by unmatched id is exactly why
            // correlation ids let deadlines expire without poisoning the
            // connection.
            if let Some(slot) = st.pending.get_mut(&response.call_id) {
                *slot = PendingState::Done(Ok(response));
                if !mine {
                    self.shared.cond.notify_all();
                }
            } else if let Some(slot) = st.unawaited.get_mut(&response.call_id) {
                *slot = Some(Ok(response));
            }
            if mine {
                break;
            }
        }
        st.reader = Some(reader);
        self.shared.cond.notify_all();
        st
    }
}

impl Drop for RpcClient {
    fn drop(&mut self) {
        // A ticket borrows its client, so no caller is reading now:
        // closing the connection is the whole stand-down.
        self.shared.state.lock().retire();
    }
}

/// A claim on the answer of one call nobody waits on, issued by
/// [`RpcClient::send`]. It borrows nothing, so its holder can keep it
/// past the sending frame; its client takes the answer
/// ([`RpcClient::take`], [`RpcClient::settle`]).
#[derive(Debug)]
pub struct Unawaited {
    call_id: u64,
    method: u32,
    started: Instant,
}

impl Unawaited {
    /// Its ticket on `client`, with no send time: a call nobody waited
    /// on is recorded as a waited one is, and charged nothing.
    fn ticket(self, client: &RpcClient) -> PendingCall<'_> {
        PendingCall {
            client,
            call_id: self.call_id,
            method: self.method,
            seq: 0,
            req_len: 0,
            started: self.started,
            t0: None,
            claimed: true,
        }
    }
}

/// A ticket for one in-flight call issued by [`RpcClient::call_async`].
///
/// Consume it with [`PendingCall::wait`] or [`PendingCall::wait_deadline`]
/// to obtain the response. Dropping the ticket abandons the call: its
/// response, when it arrives, is discarded by whichever caller reads it.
pub struct PendingCall<'a> {
    client: &'a RpcClient,
    call_id: u64,
    method: u32,
    /// Its number among its method's sends: where it draws its delay.
    seq: u64,
    req_len: usize,
    started: Instant,
    /// Virtual send timestamp, for overlapping net-cost charging; `None`
    /// without a modeled network, and for a call nobody waited on.
    t0: Option<Duration>,
    claimed: bool,
}

impl PendingCall<'_> {
    /// Block (unboundedly) until the response arrives.
    pub fn wait(self) -> Result<Bytes, RpcError> {
        self.wait_deadline(None)
    }

    /// Block until the response arrives or `deadline` elapses (measured
    /// from the send). On expiry the call abandons its pending slot and
    /// fails with [`RpcError::Deadline`]; the connection and its other
    /// in-flight calls are unaffected.
    ///
    /// While it waits, the caller reads the connection itself whenever no
    /// other caller is reading it (see the module docs).
    pub fn wait_deadline(mut self, deadline: Option<Duration>) -> Result<Bytes, RpcError> {
        self.claimed = true;
        let client = self.client;
        let wait_until = deadline.map(|d| self.started + d);
        let mut st = client.shared.state.lock();
        loop {
            match st.pending.get(&self.call_id) {
                Some(PendingState::Done(_)) => break,
                Some(PendingState::Waiting) => {}
                None => {
                    return Err(RpcError::Protocol(format!(
                        "pending call {} vanished",
                        self.call_id
                    )))
                }
            }
            if let Some(reader) = st.reader.take() {
                // Even past the deadline: a response that is already
                // there has arrived in time.
                st = client.read_responses(st, reader, self.call_id, wait_until);
                if !matches!(st.pending.get(&self.call_id), Some(PendingState::Waiting)) {
                    continue;
                }
            }
            match wait_until.map(|t| t.saturating_duration_since(Instant::now())) {
                None => client.shared.cond.wait(&mut st),
                Some(left) if !left.is_zero() => {
                    client.shared.cond.wait_for(&mut st, left);
                }
                Some(_) => {
                    client.free_slot(&mut st, self.call_id);
                    drop(st);
                    if let Some(m) = &client.metrics {
                        m.deadline_expired.inc();
                    }
                    return Err(RpcError::Deadline(deadline.unwrap_or_default()));
                }
            }
        }
        let Some(PendingState::Done(result)) = client.free_slot(&mut st, self.call_id) else {
            unreachable!("checked above");
        };
        // Finished under the lock: a call the freed share admits reads the
        // virtual clock for its send only after this call's charge.
        self.finish(result)
    }

    /// Account for a completed exchange and unwrap its payload.
    fn finish(&self, result: Result<Response, RpcError>) -> Result<Bytes, RpcError> {
        let response = result?;
        // Charge the modeled round-trip for this exchange (request +
        // response payloads on the wire), anchored at the virtual send
        // time so concurrent in-flight calls overlap instead of
        // accumulating serially.
        // A call nobody waited on ([`RpcClient::settle`]) has no send
        // time here: it is charged nothing.
        if let (Some(net), Some(t0)) = (&self.client.net, self.t0) {
            let resp_len = match &response.result {
                Ok(b) => b.len(),
                Err(_) => 0,
            };
            let bytes = self.req_len + resp_len;
            let delay = net.link.delay_at(u64::from(self.method), self.seq, bytes);
            net.clock.advance_to(t0 + delay);
        }
        // A completed exchange (even one carrying an error status) is a
        // measured call; transport/deadline failures are counted via
        // their own counters instead of polluting the latency
        // distribution.
        if let Some(m) = &self.client.metrics {
            m.latency(self.method)
                .record_duration(self.started.elapsed());
        }
        response.result.map_err(RpcError::Status)
    }
}

impl Drop for PendingCall<'_> {
    fn drop(&mut self) {
        if self.claimed {
            return;
        }
        // Abandon the call: free its slot (and window share), so its
        // response is discarded when it arrives.
        let mut st = self.client.shared.state.lock();
        self.client.free_slot(&mut st, self.call_id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::serve;
    use crate::service::{MethodId, Status, StatusCode};
    use ipc::InprocHub;
    use netsim::{Latency, LinkModel};
    use std::sync::Arc;
    use std::time::Duration;

    fn echo_service() -> Arc<dyn crate::Service> {
        Arc::new(|method: MethodId, req: Bytes| -> Result<Bytes, Status> {
            match method {
                1 => Ok(req), // echo
                2 => Err(Status::not_found("nope")),
                3 => {
                    // Simulated hang: longer than any test deadline.
                    std::thread::sleep(Duration::from_millis(200));
                    Ok(req)
                }
                4 => {
                    // Moderate per-request service delay for overlap tests.
                    std::thread::sleep(Duration::from_millis(100));
                    Ok(req)
                }
                m => Err(Status::unimplemented(m)),
            }
        })
    }

    /// A client of a stand-in server that answers out of order: it
    /// echoes each request on the one connection it accepts from a
    /// thread of its own, after the delay `echo_service` gives its
    /// method. (An rpclite server answers a connection's calls in order,
    /// so it cannot show that the client matches answers by call id.)
    fn concurrent_echo() -> RpcClient {
        let hub = InprocHub::new();
        let mut listener = hub.bind("concurrent").unwrap();
        let client = RpcClient::new(Box::new(hub.connect("concurrent").unwrap()));
        let mut conn = ipc::Listener::accept(&mut listener).unwrap();
        let writer = Arc::new(Mutex::new(conn.try_clone().unwrap()));
        std::thread::spawn(move || {
            while let Ok(frame) = conn.recv() {
                let request = Request::from_frame(&frame).unwrap();
                let writer = Arc::clone(&writer);
                std::thread::spawn(move || {
                    let delay = match request.method {
                        3 => 200,
                        4 => 100,
                        _ => 0,
                    };
                    std::thread::sleep(Duration::from_millis(delay));
                    let response = Response {
                        call_id: request.call_id,
                        result: Ok(request.body),
                    };
                    let _ = writer.lock().send(&response.to_frame());
                });
            }
        });
        client
    }

    fn setup() -> (crate::server::ServerHandle, RpcClient) {
        let hub = InprocHub::new();
        let listener = hub.bind("svc").unwrap();
        let handle = serve(Box::new(listener), echo_service());
        let client = RpcClient::new(Box::new(hub.connect("svc").unwrap()));
        (handle, client)
    }

    /// Attach fresh metrics to `client`, every verb in `other`; the
    /// returned registry reads them.
    fn metered(client: &mut RpcClient) -> Arc<obs::Registry> {
        let registry = obs::Registry::new();
        client.set_metrics(ClientMetrics::register(&registry, &[]));
        registry
    }

    /// Completed exchanges `registry`'s client has recorded.
    fn calls(registry: &obs::Registry) -> u64 {
        let snap = registry.snapshot();
        snap.histogram("rpc.client.other.latency_ns")
            .map_or(0, |h| h.count)
    }

    /// Times `registry`'s client has (re)dialed.
    fn redials(registry: &obs::Registry) -> u64 {
        registry.snapshot().counter("rpc.client.redials")
    }

    /// A client that dials `hub`'s `svc` lazily, with fresh metrics.
    fn redialing(hub: &InprocHub) -> (RpcClient, Arc<obs::Registry>) {
        let dial_hub = hub.clone();
        let mut client = RpcClient::with_connector(
            Box::new(move || {
                dial_hub
                    .connect("svc")
                    .map(|c| Box::new(c) as Box<dyn Conn>)
            }),
            None,
        );
        let registry = metered(&mut client);
        (client, registry)
    }

    #[test]
    fn echo_roundtrip() {
        let (_srv, mut client) = setup();
        let registry = metered(&mut client);
        let out = client.call(1, Bytes::from_static(b"hello rpc")).unwrap();
        assert_eq!(&out[..], b"hello rpc");
        assert_eq!(calls(&registry), 1);
    }

    #[test]
    fn status_errors_propagate() {
        let (_srv, client) = setup();
        let err = client.call(2, Bytes::new()).unwrap_err();
        assert_eq!(err.status().unwrap().code, StatusCode::NotFound);
        let err = client.call(99, Bytes::new()).unwrap_err();
        assert_eq!(err.status().unwrap().code, StatusCode::Unimplemented);
    }

    #[test]
    fn many_sequential_calls() {
        let (srv, client) = setup();
        for i in 0..200u32 {
            let body = Bytes::from(i.to_le_bytes().to_vec());
            assert_eq!(client.call(1, body.clone()).unwrap(), body);
        }
        assert_eq!(srv.metrics().calls.load(Ordering::Relaxed), 200);
    }

    #[test]
    fn concurrent_callers_share_a_client() {
        let (_srv, mut client) = setup();
        let registry = metered(&mut client);
        let client = Arc::new(client);
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let c = Arc::clone(&client);
                std::thread::spawn(move || {
                    for i in 0..50u32 {
                        let body = Bytes::from(vec![t as u8; (i % 7 + 1) as usize]);
                        assert_eq!(c.call(1, body.clone()).unwrap(), body);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(calls(&registry), 400);
    }

    #[test]
    fn multiple_clients_one_server() {
        let hub = InprocHub::new();
        let listener = hub.bind("svc").unwrap();
        let srv = serve(Box::new(listener), echo_service());
        let clients: Vec<RpcClient> = (0..4)
            .map(|_| RpcClient::new(Box::new(hub.connect("svc").unwrap())))
            .collect();
        for (i, c) in clients.iter().enumerate() {
            let body = Bytes::from(vec![i as u8; 4]);
            assert_eq!(c.call(1, body.clone()).unwrap(), body);
        }
        assert_eq!(srv.metrics().connections.load(Ordering::Relaxed), 4);
    }

    /// A 2 ms round trip whatever the payload, charged to `clock`.
    fn two_ms_link(clock: &Clock) -> Option<NetCost> {
        let model = LinkModel {
            base: Latency::Constant(Duration::from_millis(2)),
            secs_per_byte: 0.0,
        };
        Some(NetCost {
            link: SharedLink::new(model, 1),
            clock: clock.clone(),
        })
    }

    #[test]
    fn net_cost_charged_to_virtual_clock() {
        let hub = InprocHub::new();
        let listener = hub.bind("svc").unwrap();
        let _srv = serve(Box::new(listener), echo_service());
        let clock = Clock::virtual_time();
        let conn = Box::new(hub.connect("svc").unwrap());
        let client = RpcClient::with_net(conn, two_ms_link(&clock));
        client.call(1, Bytes::from_static(b"x")).unwrap();
        client.call(1, Bytes::from_static(b"x")).unwrap();
        // Sequential calls accumulate serially on the virtual clock.
        assert_eq!(clock.now(), Duration::from_millis(4));
    }

    #[test]
    fn pipelined_net_cost_overlaps_on_virtual_clock() {
        let hub = InprocHub::new();
        let listener = hub.bind("svc").unwrap();
        let _srv = serve(Box::new(listener), echo_service());
        let clock = Clock::virtual_time();
        let conn = Box::new(hub.connect("svc").unwrap());
        let client = Arc::new(RpcClient::with_net(conn, two_ms_link(&clock)));
        // 8 concurrent calls all depart at t=0 (the barrier plus the
        // 100ms service delay guarantee every send happens before any
        // completion); their modeled round trips overlap to ~1 RTT
        // instead of 8 RTTs.
        let barrier = Arc::new(std::sync::Barrier::new(8));
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let c = Arc::clone(&client);
                let b = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    b.wait();
                    c.call(4, Bytes::from_static(b"x")).map(|_| ())
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap().unwrap();
        }
        assert_eq!(clock.now(), Duration::from_millis(2));
    }

    #[test]
    fn a_call_held_back_by_the_window_is_charged_from_its_own_send() {
        let hub = InprocHub::new();
        let _srv = serve(Box::new(hub.bind("svc").unwrap()), echo_service());
        let clock = Clock::virtual_time();
        let conn = Box::new(hub.connect("svc").unwrap());
        let mut client = RpcClient::with_net(conn, two_ms_link(&clock));
        client.set_window(1);
        let client = Arc::new(client);
        let barrier = Arc::new(std::sync::Barrier::new(2));
        let threads: Vec<_> = (0..2)
            .map(|_| {
                let (c, b) = (Arc::clone(&client), Arc::clone(&barrier));
                std::thread::spawn(move || {
                    b.wait();
                    c.call(4, Bytes::from_static(b"x")).map(|_| ())
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap().unwrap();
        }
        // One share: the second call leaves once the first is back, so
        // their round trips follow each other instead of overlapping.
        assert_eq!(clock.now(), Duration::from_millis(4));
    }

    /// A link whose draws differ call to call (1–9 ms) and charge 1 ns
    /// a byte, charged to `clock`.
    fn jittery_link(clock: &Clock) -> NetCost {
        let model = LinkModel {
            base: Latency::Uniform {
                lo: Duration::from_millis(1),
                hi: Duration::from_millis(9),
            },
            secs_per_byte: 1e-9,
        };
        NetCost {
            link: SharedLink::new(model, 7),
            clock: clock.clone(),
        }
    }

    /// The virtual time `client.call(method, body)` is charged.
    fn charged(client: &RpcClient, clock: &Clock, method: u32, body: &'static [u8]) -> Duration {
        let t = clock.now();
        let _ = client.call(method, Bytes::from_static(body));
        clock.now() - t
    }

    /// A call nobody waits on: the next caller to read the connection
    /// files its answer, taking it never blocks (nor reads), it charges
    /// no virtual time, and a send draws nothing: a waited call of the
    /// same verb after it is charged that verb's first draw.
    #[test]
    fn a_call_nobody_waits_on_is_filed_by_the_next_reader_and_charges_nothing() {
        let hub = InprocHub::new();
        let _srv = serve(Box::new(hub.bind("svc").unwrap()), echo_service());
        let clock = Clock::virtual_time();
        let net = jittery_link(&clock);
        let link = net.link.clone();
        let mut client = RpcClient::with_net(Box::new(hub.connect("svc").unwrap()), Some(net));
        let registry = metered(&mut client);

        // Taking an answer nobody has read yet never blocks: the call
        // hangs for 200 ms at the server, and the take comes back at once,
        // empty (and gives the call up).
        let hung = client.send(3, &[b"hung".as_slice()]).unwrap();
        let t0 = Instant::now();
        assert!(client.take(hung).is_none());
        assert!(t0.elapsed() < Duration::from_millis(100));
        assert_eq!(clock.now(), Duration::ZERO, "a send charges nothing");
        let one_way = client.send(1, &[b"one-way".as_slice()]).unwrap();

        // The next waited call reads the connection, skips the hung
        // call's late answer and files the one-way answer on its way to
        // its own; only its own delay is charged, the first of its verb.
        let t = clock.now();
        let out = client.call(1, Bytes::from_static(b"waited")).unwrap();
        assert_eq!(&out[..], b"waited");
        let charged = clock.now() - t;
        assert_eq!(charged, link.delay_at(1, 0, 12), "a send draws nothing");
        let unkeyed = jittery_link(&clock).link.delay(0);
        assert_eq!(link.delay(0), unkeyed, "nor from the unkeyed count");
        let filed = client.take(one_way).expect("filed by the waited call");
        assert_eq!(&filed.unwrap()[..], b"one-way");
        assert_eq!(clock.now() - t, charged, "taking charges nothing");
        // Both completed exchanges are counted; the given-up one is not.
        assert_eq!(calls(&registry), 2);
        assert!(client.shared.state.lock().unawaited.is_empty());
    }

    /// Over one modeled link, each call of one verb is charged the same
    /// delay, call for call, whether or not calls of another verb went
    /// between them.
    #[test]
    fn removing_every_call_of_one_verb_leaves_anothers_delays_as_they_were() {
        let run = |with_other: bool| -> Vec<Duration> {
            let hub = InprocHub::new();
            let _srv = serve(Box::new(hub.bind("svc").unwrap()), echo_service());
            let clock = Clock::virtual_time();
            let conn = Box::new(hub.connect("svc").unwrap());
            let client = RpcClient::with_net(conn, Some(jittery_link(&clock)));
            let mut echoes = Vec::new();
            for i in 0..24 {
                if with_other && i % 3 != 1 {
                    // Answered `NotFound`: a completed exchange, charged.
                    charged(&client, &clock, 2, b"other verb");
                }
                let body: &'static [u8] = [&b"short"[..], &[7; 300][..]][i % 2];
                echoes.push(charged(&client, &clock, 1, body));
            }
            echoes
        };
        let alone = run(false);
        assert_eq!(run(true), alone);
        assert!(alone.iter().any(|d| *d != alone[0]), "the draws differ");
    }

    /// A verb's numbering belongs to the client, not to its connection:
    /// the first call after a redial is charged the draw after the last
    /// one before it.
    #[test]
    fn a_redial_does_not_restart_a_verbs_numbering() {
        let hub = InprocHub::new();
        let mut srv = serve(Box::new(hub.bind("svc").unwrap()), echo_service());
        let clock = Clock::virtual_time();
        let net = jittery_link(&clock);
        let link = net.link.clone();
        let dial_hub = hub.clone();
        let client = RpcClient::with_connector(
            Box::new(move || {
                dial_hub
                    .connect("svc")
                    .map(|c| Box::new(c) as Box<dyn Conn>)
            }),
            Some(net),
        );
        assert_eq!(charged(&client, &clock, 1, b"a"), link.delay_at(1, 0, 2));
        // A call of another verb meets the stopped server and poisons
        // the connection; the next call of verb 1 redials.
        srv.shutdown();
        client.call(5, Bytes::new()).unwrap_err();
        let _srv = serve(Box::new(hub.bind("svc").unwrap()), echo_service());
        assert_eq!(charged(&client, &clock, 1, b"b"), link.delay_at(1, 1, 2));
    }

    /// Calls nobody waits on take no share of the window, so any number
    /// of them can be in flight with no reader, and a waited call still
    /// goes out beside them.
    #[test]
    fn calls_nobody_waits_on_take_no_share_of_the_window() {
        let (_srv, mut client) = setup();
        client.set_window(1);
        let sent: Vec<_> = (0..8u8)
            .map(|i| client.send(1, &[&[i][..]]).unwrap())
            .collect();
        assert_eq!(&client.call(1, Bytes::from_static(b"x")).unwrap()[..], b"x");
        for (i, call) in sent.into_iter().enumerate() {
            let answer = client.take(call).expect("filed before the waited answer");
            assert_eq!(&answer.unwrap()[..], &[i as u8]);
        }
    }

    /// A poisoned connection fails the calls nobody waits on with the
    /// rest, and `settle` waits out one whose answer nobody has read.
    #[test]
    fn a_call_nobody_waits_on_fails_with_its_connection_and_can_be_settled() {
        let (mut srv, client) = setup();
        let slow = client.send(4, &[b"slow".as_slice()]).unwrap();
        let out = client.settle(slow, Some(Duration::from_secs(5))).unwrap();
        assert_eq!(&out[..], b"slow");
        let doomed = client.send(3, &[b"hung".as_slice()]).unwrap();
        srv.shutdown();
        // Whoever reads next meets the closed connection: the poison
        // fails the call nobody waits on too.
        client.call(1, Bytes::new()).unwrap_err();
        let answer = client.take(doomed).expect("failed by the poison");
        assert!(matches!(answer, Err(RpcError::Transport(_))), "{answer:?}");
    }

    #[test]
    fn call_after_server_shutdown_fails() {
        let (mut srv, client) = setup();
        // Establish the connection first.
        client.call(1, Bytes::new()).unwrap();
        srv.shutdown();
        // Shutdown closes the connections and joins the reader, so the
        // next call sees a dead peer (either at send, or when its caller reads EOF).
        let err = client.call(1, Bytes::new()).unwrap_err();
        assert!(matches!(err, RpcError::Transport(_)), "got {err}");
        // And new connections are refused.
        let hub = InprocHub::new();
        assert!(hub.connect("svc").is_err());
    }

    #[test]
    fn dropped_client_leaves_its_shared_state_unreferenced() {
        let (srv, client) = setup();
        client.call(1, Bytes::new()).unwrap();
        let shared = Arc::downgrade(&client.shared);
        drop(client);
        // No thread of the client's own outlives it holding the state,
        // and its close ends the connection at the server, which is
        // still up.
        assert_eq!(shared.strong_count(), 0);
        assert_eq!(srv.metrics().connections.load(Ordering::Relaxed), 1);
        let give_up = Instant::now() + Duration::from_secs(10);
        while srv.tracked_connections() > 0 {
            assert!(Instant::now() < give_up, "the server kept the connection");
            std::thread::yield_now();
        }
    }

    #[test]
    fn deadline_expires_on_hung_handler() {
        let (_srv, client) = setup();
        let t0 = std::time::Instant::now();
        let err = client
            .call_async(3, &Bytes::new())
            .and_then(|t| t.wait_deadline(Some(Duration::from_millis(30))))
            .unwrap_err();
        assert!(matches!(err, RpcError::Deadline(_)), "got {err}");
        assert!(err.is_retryable());
        // The call returned well before the 200ms handler finished.
        assert!(t0.elapsed() < Duration::from_millis(150));
    }

    #[test]
    fn deadline_does_not_poison_connection() {
        let (_srv, client) = setup();
        client
            .call_async(3, &Bytes::new())
            .and_then(|t| t.wait_deadline(Some(Duration::from_millis(20))))
            .unwrap_err();
        // With correlation ids the late response is dropped by id; the
        // connection survives, so follow-up calls need no connector.
        let out = client.call(1, Bytes::from_static(b"x")).unwrap();
        assert_eq!(&out[..], b"x");
        // Even after the hung handler's late response finally arrives,
        // the stream stays synchronized.
        std::thread::sleep(Duration::from_millis(250));
        let out = client.call(1, Bytes::from_static(b"y")).unwrap();
        assert_eq!(&out[..], b"y");
    }

    #[test]
    fn deadline_does_not_redial() {
        let hub = InprocHub::new();
        let listener = hub.bind("svc").unwrap();
        let _srv = serve(Box::new(listener), echo_service());
        let (client, registry) = redialing(&hub);
        // First call dials lazily.
        assert_eq!(&client.call(1, Bytes::from_static(b"a")).unwrap()[..], b"a");
        assert_eq!(redials(&registry), 1);
        // A deadline expiry abandons its slot but keeps the connection;
        // the next call reuses it without redialing.
        client
            .call_async(3, &Bytes::new())
            .and_then(|t| t.wait_deadline(Some(Duration::from_millis(20))))
            .unwrap_err();
        assert_eq!(&client.call(1, Bytes::from_static(b"b")).unwrap()[..], b"b");
        assert_eq!(redials(&registry), 1);
    }

    #[test]
    fn connector_redials_after_transport_failure() {
        let hub = InprocHub::new();
        let listener = hub.bind("svc").unwrap();
        let mut srv = serve(Box::new(listener), echo_service());
        let (client, registry) = redialing(&hub);
        assert_eq!(&client.call(1, Bytes::from_static(b"a")).unwrap()[..], b"a");
        assert_eq!(redials(&registry), 1);
        // Kill the server: the next call fails and poisons the connection.
        srv.shutdown();
        client.call(1, Bytes::new()).unwrap_err();
        // Restart and observe a transparent redial.
        let listener = hub.bind("svc").unwrap();
        let _srv2 = serve(Box::new(listener), echo_service());
        assert_eq!(&client.call(1, Bytes::from_static(b"b")).unwrap()[..], b"b");
        assert_eq!(redials(&registry), 2);
    }

    #[test]
    fn generous_deadline_does_not_interfere() {
        let (_srv, client) = setup();
        for i in 0..20u32 {
            let body = Bytes::from(i.to_le_bytes().to_vec());
            let out = client
                .call_async(1, &body.clone())
                .and_then(|t| t.wait_deadline(Some(Duration::from_secs(5))))
                .unwrap();
            assert_eq!(out, body);
        }
    }

    /// Holds back the first response it is shown by 200 ms.
    struct DelayFirstResponse(std::sync::atomic::AtomicBool);

    impl ipc::FaultPolicy for DelayFirstResponse {
        fn on_frame(
            &self,
            _link: &str,
            dir: ipc::Direction,
            _frame: &ipc::Frame,
        ) -> ipc::FaultAction {
            if dir == ipc::Direction::Inbound && self.0.swap(false, Ordering::Relaxed) {
                ipc::FaultAction::Delay(Duration::from_millis(200))
            } else {
                ipc::FaultAction::Deliver
            }
        }
    }

    #[test]
    fn a_held_back_response_fails_its_deadline_and_keeps_the_connection() {
        let hub = InprocHub::new();
        let _srv = serve(Box::new(hub.bind("svc").unwrap()), echo_service());
        let policy: Arc<dyn ipc::FaultPolicy> = Arc::new(DelayFirstResponse(true.into()));
        let mut client = RpcClient::with_connector(
            Box::new(move || {
                let conn = Box::new(hub.connect("svc")?);
                let conn = ipc::FaultConn::wrap(conn, "svc", Arc::clone(&policy));
                Ok(Box::new(conn) as Box<dyn Conn>)
            }),
            None,
        );
        let registry = metered(&mut client);
        // The caller reading the connection gives up at its own deadline,
        // not when the held-back response is finally due.
        let t0 = Instant::now();
        let err = client
            .call_async(1, &Bytes::from_static(b"late"))
            .and_then(|t| t.wait_deadline(Some(Duration::from_millis(30))))
            .unwrap_err();
        assert!(matches!(err, RpcError::Deadline(_)), "got {err}");
        assert!(t0.elapsed() < Duration::from_millis(150));
        // The next call reads the late response, drops it by its id, and
        // gets its own on the same connection.
        let out = client.call(1, Bytes::from_static(b"next")).unwrap();
        assert_eq!(&out[..], b"next");
        assert_eq!(redials(&registry), 1);
    }

    #[test]
    fn a_waiter_reads_on_when_the_caller_reading_gives_up() {
        let (_srv, mut client) = setup();
        let registry = metered(&mut client);
        let doomed = client.call_async(3, &[b"hung".as_slice()]).unwrap();
        let patient = client.call_async(4, &[b"slow".as_slice()]).unwrap();
        std::thread::scope(|s| {
            // The doomed call is the one reading when its 50 ms deadline
            // passes, with the 100 ms response of the patient call still
            // to come: the patient call waits only once the receive half
            // is taken.
            let reading = s.spawn(|| {
                let t0 = Instant::now();
                let err = doomed
                    .wait_deadline(Some(Duration::from_millis(50)))
                    .unwrap_err();
                assert!(matches!(err, RpcError::Deadline(_)), "got {err}");
                t0.elapsed()
            });
            while client.shared.state.lock().reader.is_some() && !reading.is_finished() {
                std::thread::yield_now();
            }
            let t0 = Instant::now();
            let out = patient.wait_deadline(Some(Duration::from_secs(5)));
            assert_eq!(&out.unwrap()[..], b"slow");
            assert!(t0.elapsed() < Duration::from_secs(1));
            assert!(reading.join().unwrap() < Duration::from_millis(150));
        });
        assert_eq!(redials(&registry), 0);
    }

    #[test]
    fn concurrent_calls_overlap_on_one_connection() {
        // Regression for the lock-step client, which serialized callers on
        // a connection mutex: two concurrent calls with a 100ms service
        // delay must overlap (total well under 2× a single call).
        let client = concurrent_echo();
        let client = Arc::new(client);
        let t0 = Instant::now();
        let threads: Vec<_> = (0..2)
            .map(|_| {
                let c = Arc::clone(&client);
                std::thread::spawn(move || c.call(4, Bytes::from_static(b"x")).map(|_| ()))
            })
            .collect();
        for t in threads {
            t.join().unwrap().unwrap();
        }
        let elapsed = t0.elapsed();
        assert!(
            elapsed < Duration::from_millis(180),
            "calls serialized: {elapsed:?} (lock-step would be ≥ 200ms)"
        );
    }

    #[test]
    fn out_of_order_completion() {
        // Slow call issued first; fast call returns first.
        let client = concurrent_echo();
        let slow = client.call_async(3, &[b"slow".as_slice()]).unwrap();
        let t0 = Instant::now();
        let fast = client.call(1, Bytes::from_static(b"fast")).unwrap();
        assert_eq!(&fast[..], b"fast");
        assert!(
            t0.elapsed() < Duration::from_millis(150),
            "fast call queued behind the slow one"
        );
        assert_eq!(&slow.wait().unwrap()[..], b"slow");
    }

    #[test]
    fn deadline_expiry_does_not_poison_neighbors() {
        let (_srv, mut client) = setup();
        let registry = metered(&mut client);
        let client = Arc::new(client);
        // One call that will expire, surrounded by healthy in-flight calls.
        let doomed = client.call_async(3, &[0u8; 0][..]).unwrap();
        let neighbors: Vec<_> = (0..4)
            .map(|i| {
                let c = Arc::clone(&client);
                std::thread::spawn(move || {
                    let body = Bytes::from(vec![i as u8; 8]);
                    let out = c.call(4, body.clone())?;
                    assert_eq!(out, body);
                    Ok::<_, RpcError>(())
                })
            })
            .collect();
        let err = doomed
            .wait_deadline(Some(Duration::from_millis(30)))
            .unwrap_err();
        assert!(matches!(err, RpcError::Deadline(_)), "got {err}");
        for t in neighbors {
            t.join().unwrap().unwrap();
        }
        // The connection was never poisoned or redialed.
        assert_eq!(redials(&registry), 0);
        let out = client.call(1, Bytes::from_static(b"after")).unwrap();
        assert_eq!(&out[..], b"after");
    }

    #[test]
    fn redial_with_calls_in_flight() {
        let hub = InprocHub::new();
        let listener = hub.bind("svc").unwrap();
        let mut srv = serve(Box::new(listener), echo_service());
        let (client, registry) = redialing(&hub);
        assert_eq!(&client.call(1, Bytes::from_static(b"a")).unwrap()[..], b"a");
        // Leave a slow call in flight, then tear the server down under it.
        let in_flight = client.call_async(3, &[b"slow".as_slice()]).unwrap();
        srv.shutdown();
        // The in-flight call must resolve (its handler raced shutdown: it
        // either delivered a response before teardown or the poison failed
        // it) — the key property is that it cannot hang.
        let _ = in_flight.wait_deadline(Some(Duration::from_secs(2)));
        // A fresh server and one more call: the client redials and works.
        let listener = hub.bind("svc").unwrap();
        let _srv2 = serve(Box::new(listener), echo_service());
        let mut out = client.call(1, Bytes::from_static(b"b"));
        if out.is_err() {
            // The teardown may have been observed only by this call
            // (poison at send); one retry lands on the fresh connection.
            out = client.call(1, Bytes::from_static(b"b"));
        }
        assert_eq!(&out.unwrap()[..], b"b");
        assert!(redials(&registry) >= 2);
    }

    #[test]
    fn in_flight_window_caps_pipeline_depth() {
        let hub = InprocHub::new();
        let listener = hub.bind("svc").unwrap();
        let _srv = serve(Box::new(listener), echo_service());
        let mut client = RpcClient::new(Box::new(hub.connect("svc").unwrap()));
        client.set_window(2);
        let registry = metered(&mut client);
        let client = Arc::new(client);
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let c = Arc::clone(&client);
                std::thread::spawn(move || c.call(4, Bytes::from_static(b"x")).map(|_| ()))
            })
            .collect();
        for t in threads {
            t.join().unwrap().unwrap();
        }
        let snap = registry.snapshot();
        let depth = snap.histogram("rpc.client.in_flight").unwrap();
        assert_eq!(depth.count, 4);
        assert!(depth.max <= 2, "window exceeded: depth {}", depth.max);
    }

    #[test]
    fn client_metrics_record_latency_and_failure_modes() {
        let hub = InprocHub::new();
        let listener = hub.bind("svc").unwrap();
        let _srv = serve(Box::new(listener), echo_service());
        let registry = obs::Registry::new();
        let dial_hub = hub.clone();
        let mut client = RpcClient::with_connector(
            Box::new(move || {
                dial_hub
                    .connect("svc")
                    .map(|c| Box::new(c) as Box<dyn Conn>)
            }),
            None,
        );
        client.set_metrics(ClientMetrics::register(
            &registry,
            &[(1, "echo"), (3, "hang")],
        ));

        client.call(1, Bytes::from_static(b"x")).unwrap();
        client.call(1, Bytes::from_static(b"y")).unwrap();
        let snap = registry.snapshot();
        assert_eq!(snap.counter("rpc.client.redials"), 1);
        let echo = snap.histogram("rpc.client.echo.latency_ns").unwrap();
        assert_eq!(echo.count, 2);
        assert!(echo.p50() > 0, "in-process call still takes wall time");
        // Pipeline depth was sampled at each send.
        assert_eq!(snap.histogram("rpc.client.in_flight").unwrap().count, 2);

        // Deadline expiry: counted, does NOT poison the connection, and
        // does NOT pollute the verb's latency histogram.
        client
            .call_async(3, &Bytes::new())
            .and_then(|t| t.wait_deadline(Some(Duration::from_millis(20))))
            .unwrap_err();
        let snap = registry.snapshot();
        assert_eq!(snap.counter("rpc.client.deadline_expired"), 1);
        assert_eq!(snap.counter("rpc.client.poisoned"), 0);
        assert_eq!(
            snap.histogram("rpc.client.hang.latency_ns").unwrap().count,
            0
        );

        // A completed exchange carrying an error status is still measured;
        // unregistered verbs land in the `other` bucket. No redial
        // happened: the deadline left the connection alive.
        client.call(99, Bytes::new()).unwrap_err();
        let snap = registry.snapshot();
        assert_eq!(snap.counter("rpc.client.redials"), 1);
        assert_eq!(
            snap.histogram("rpc.client.other.latency_ns").unwrap().count,
            1
        );
    }

    #[test]
    fn retryability_classification() {
        assert!(RpcError::Transport(io::Error::new(io::ErrorKind::BrokenPipe, "x")).is_retryable());
        assert!(RpcError::Deadline(Duration::from_millis(5)).is_retryable());
        assert!(RpcError::Status(Status::new(StatusCode::Unavailable, "down")).is_retryable());
        assert!(!RpcError::Status(Status::not_found("gone")).is_retryable());
        assert!(!RpcError::Protocol("junk".into()).is_retryable());
    }
}
