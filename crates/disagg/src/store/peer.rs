//! Talking to one peer, and to several at once: each peer's record,
//! built at the first call to it; the guarded exchange (`scatter`:
//! health admission, deadline, retry rounds — a call to one peer is a
//! scatter of one), which closes what a peer answered; the translation
//! of a failed call into the caller's error, the `RELEASE`s nobody waits
//! on, the copies an unanswered `CREATE_AT` names, and the cluster-wide
//! reads built on it (metrics, inventory).

use super::DisaggStore;
use crate::health::{Admission, PeerHealth, PeerState, PeerStats};
use crate::proto::{
    method, CallHeader, IdList, ListEntry, ListResp, Message, MetricsResp, ReleaseResp, ReplyHeader,
};
use bytes::Bytes;
use ipc::Encode;
use obs::MetricsSnapshot;
use parking_lot::Mutex;
use plasma::{ObjectId, PlasmaError, StoreCore};
use rpclite::{RpcClient, RpcError, StatusCode, Unawaited};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;
use tfsim::NodeId;

/// Everything this store knows about one peer, built at its first call
/// to it: the client, the failure detector's entry, and the calls the
/// peer has not answered yet.
pub(super) struct Peer {
    node: NodeId,
    client: RpcClient,
    health: Mutex<PeerHealth>,
    open: Mutex<OpenCalls>,
}

/// What this store sent one peer and cannot close yet, filed in send
/// order and numbered per peer. A peer serves the requests that reach
/// it in the order they arrive, on one ordered connection, so a peer
/// that answers a call has served everything filed with it before that
/// call was sent: the answer closes them. Most peers have one call open
/// or none, so the list grows and shrinks to fit.
#[derive(Default)]
struct OpenCalls {
    /// The number the next one is given.
    next: u64,
    filed: Vec<(u64, OpenCall)>,
}

enum OpenCall {
    /// A `RELEASE` nobody waits on: which pins it returns, whether they
    /// were owed, and the claim on its answer. Owed rather than first: a
    /// parked release or a duplicate pin a lookup handed back, whose
    /// `false` flag means it landed already; a first release's `false`
    /// means the entry it was sent for was a phantom, and the pin is
    /// returned at its next candidate.
    Release {
        ids: Vec<ObjectId>,
        owed: bool,
        call: Unawaited,
    },
    /// The unsealed copy of an id this node offered the peer with a
    /// `CREATE_AT` that got no answer: the request may still be served,
    /// and read the copy, so the copy stays until it is closed.
    Copy(ObjectId),
}

impl Peer {
    fn file(&self, call: OpenCall) {
        let mut open = self.open.lock();
        let seq = open.next;
        open.next += 1;
        open.filed.reserve_exact(1);
        open.filed.push((seq, call));
    }

    /// Close the open calls numbered below `before`, in send order, up
    /// to the next release, whose answer is taken; a kept copy is aborted
    /// in `core` on the way.
    fn close_next(&self, before: u64, core: &StoreCore) -> Option<ReleaseAnswer> {
        loop {
            let call = {
                let mut open = self.open.lock();
                open.filed.first().filter(|(seq, _)| *seq < before)?;
                let (_, call) = open.filed.remove(0);
                open.filed.shrink_to_fit();
                call
            };
            match call {
                OpenCall::Release { ids, owed, call } => {
                    return Some((self.node, ids, owed, self.client.take(call)));
                }
                OpenCall::Copy(id) => {
                    let _ = core.abort(id);
                }
            }
        }
    }

    /// Wait for the answer of every release still open, in send order;
    /// kept copies stay.
    fn settle(&self, deadline: Option<Duration>) -> Vec<ReleaseAnswer> {
        let mut open = self.open.lock();
        let sent = open
            .filed
            .extract_if(.., |(_, c)| matches!(c, OpenCall::Release { .. }));
        let sent: Vec<_> = sent.collect();
        drop(open);
        let settle = |(_, call)| match call {
            OpenCall::Release { ids, owed, call } => {
                let answer = self.client.settle(call, deadline);
                Some((self.node, ids, owed, Some(answer)))
            }
            OpenCall::Copy(_) => None,
        };
        sent.into_iter().filter_map(settle).collect()
    }
}

/// A sent release's owner, ids, whether they were owed, and its answer
/// (`None`: none came).
type ReleaseAnswer = (NodeId, Vec<ObjectId>, bool, Option<Result<Bytes, RpcError>>);

/// One member of an exchange ([`DisaggStore::scatter`]): its peer's
/// record, and where its call stands.
pub(super) struct Member {
    peer: Option<Arc<Peer>>,
    call: MemberCall,
}

struct MemberCall {
    node: NodeId,
    method: u32,
    /// Attempts the member may still make.
    attempts_left: u32,
    /// Whether any attempt's request left.
    sent: bool,
    /// Its peer's next number when the member was first sent: an answer
    /// closes the peer's open calls numbered below it.
    before: Option<u64>,
    /// The epoch its answer's reply header carried.
    reply_epoch: Option<u64>,
    /// `None` while the member still has a call to make or to wait for.
    answer: Option<Answer>,
}

impl Member {
    /// Whether the peer answered — a body, or a definite error status.
    fn answered(&self) -> bool {
        match &self.call.answer {
            Some(Ok(_)) => true,
            Some(Err(fail)) => fail.status().is_some(),
            None => false,
        }
    }
}

/// The answers of an exchange, one per member, in the order the members
/// were listed.
pub(super) type Answers = std::iter::Map<std::vec::IntoIter<Member>, fn(Member) -> Answer>;
type Answer = Result<Bytes, PeerFail>;

/// A deliberately broken release path, for the fault table's mutation
/// check (`release_faults`): each case must fail against one of them.
#[cfg(test)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Mutant {
    /// A first release's `false` flag is ignored, not re-routed.
    DropFalse,
    /// A parked release is never flushed, nor settled by a reconcile.
    NeverFlush,
}

#[cfg(test)]
thread_local! {
    /// The mutant this thread runs, if any.
    pub(super) static MUTANT: std::cell::Cell<Option<Mutant>> = const { std::cell::Cell::new(None) };
}

#[cfg(test)]
fn mutant(m: Mutant) -> bool {
    MUTANT.with(|c| c.get()) == Some(m)
}

/// Why a guarded call to one peer produced no usable response.
#[derive(Debug)]
pub(super) enum PeerFail {
    /// Peer is `Down`: skipped without touching the wire.
    Skipped,
    /// The node is not one of this store's peers: nothing was sent.
    NoPeer,
    /// Every attempt failed before its request left — the peer refused
    /// the connection, say — so the peer saw nothing of the call.
    Unsent(String),
    /// The call (and its retries) failed at the transport level — the
    /// peer is unreachable right now, and may have served an attempt.
    Unreachable(String),
    /// The peer answered with a definite error — or with `Unavailable`,
    /// every attempt it was asked — or broke the protocol.
    Rpc(RpcError),
}

impl PeerFail {
    /// The status code of a definite error answer, if that is what this
    /// failure is.
    pub(super) fn status(&self) -> Option<StatusCode> {
        match self {
            PeerFail::Rpc(RpcError::Status(s)) => Some(s.code),
            _ => None,
        }
    }

    /// Whether the peer saw nothing of the call.
    pub(super) fn unsent(&self) -> bool {
        !matches!(self, PeerFail::Unreachable(_) | PeerFail::Rpc(_))
    }
}

impl DisaggStore {
    /// The nodes this store's peers run on, in node order.
    pub(super) fn peer_nodes(&self) -> Arc<[NodeId]> {
        let peers = self.inner.peers.get();
        peers.map_or_else(|| Arc::from([]), |peers| Arc::clone(&peers.nodes))
    }

    /// The record of the peer on `node`, built at the first call to it
    /// and kept; `None` when no peer runs there. Callers racing to build
    /// one get the one the first of them built.
    fn peer(&self, node: NodeId) -> Option<Arc<Peer>> {
        let peers = self.inner.peers.get()?;
        peers.nodes.binary_search(&node).ok()?;
        if let Some(peer) = peers.records.read().get(&node) {
            return Some(Arc::clone(peer));
        }
        let mut records = peers.records.write();
        let peer = records.entry(node).or_insert_with(|| {
            let (client, health, open) = ((peers.dial)(node), Mutex::default(), Mutex::default());
            Arc::new(Peer {
                node,
                client,
                health,
                open,
            })
        });
        Some(Arc::clone(peer))
    }

    /// A copy of the failure detector's entry for the peer on `node`, a
    /// fresh one if it was never called.
    fn health_of(&self, node: NodeId) -> PeerHealth {
        let peers = self.inner.peers.get();
        let peer = peers.and_then(|p| p.records.read().get(&node).cloned());
        peer.map(|p| *p.health.lock()).unwrap_or_default()
    }

    /// The records built so far, in node order.
    fn built_peers(&self) -> Vec<Arc<Peer>> {
        let peers = self.inner.peers.get();
        peers.map_or_else(Vec::new, |peers| {
            peers.records.read().values().cloned().collect()
        })
    }

    /// The one translation of a failed call to the peer on `node` into
    /// the error the caller sees.
    pub(super) fn peer_err(&self, node: NodeId, fail: PeerFail) -> PlasmaError {
        match fail {
            PeerFail::Skipped => PlasmaError::PeerUnavailable(format!("peer {node} is down")),
            PeerFail::NoPeer => {
                PlasmaError::PeerUnavailable(format!("no interconnect peer for {node}"))
            }
            PeerFail::Unsent(m) | PeerFail::Unreachable(m) => PlasmaError::PeerUnavailable(m),
            PeerFail::Rpc(RpcError::Status(s)) if s.code == StatusCode::Unavailable => {
                PlasmaError::PeerUnavailable(format!("peer {node} unavailable: {s}"))
            }
            PeerFail::Rpc(RpcError::Status(s)) => {
                PlasmaError::Protocol(format!("peer status: {s}"))
            }
            PeerFail::Rpc(RpcError::Transport(io)) => PlasmaError::Transport(io.to_string()),
            PeerFail::Rpc(RpcError::Deadline(d)) => {
                PlasmaError::PeerUnavailable(format!("no response within {d:?}"))
            }
            PeerFail::Rpc(RpcError::Protocol(m)) => PlasmaError::Protocol(m),
        }
    }

    /// [`DisaggStore::peer_err`] for a call about one object: the typed
    /// statuses come back as the error the same operation raises
    /// locally, whichever verb carried it — so a forwarded operation
    /// answers what it would have answered at the owner.
    pub(super) fn object_err(&self, node: NodeId, id: ObjectId, fail: PeerFail) -> PlasmaError {
        let PeerFail::Rpc(RpcError::Status(status)) = &fail else {
            return self.peer_err(node, fail);
        };
        match status.code {
            StatusCode::NotFound => PlasmaError::ObjectNotFound(id),
            StatusCode::FailedPrecondition => PlasmaError::ObjectInUse(id),
            _ => self.peer_err(node, fail),
        }
    }

    /// Liveness state of one peer, as seen by this node's failure
    /// detector (`Up` if never called).
    pub fn peer_state(&self, node: NodeId) -> PeerState {
        self.health_of(node).state()
    }

    /// Failure-detector counters for one peer (zeros if never called).
    pub fn peer_health_stats(&self, node: NodeId) -> PeerStats {
        self.health_of(node).stats()
    }

    /// One guarded exchange with several peers at once, each named by its
    /// node: every member is admitted by the failure detector (a node
    /// that is no peer is answered [`PeerFail::NoPeer`] and asked
    /// nothing), every admitted call is sent from this thread in slice
    /// order, and only then are the answers gathered, in the same order.
    /// All sends leave at one virtual instant and each call charges
    /// `advance_to(its send + its delay)`, so the exchange costs its
    /// slowest round trip, not their sum — and a fixed send and gather
    /// order keeps that cost the same on every run of one seed. Each
    /// deadline runs from its own send, so N hung members cost one
    /// deadline between them.
    ///
    /// This is where a request is framed and a reply unframed, but for
    /// a `RELEASE` nobody waits on ([`DisaggStore::send_releases`]):
    /// every call goes out under one [`CallHeader`] — this node — and
    /// every `Ok` answer comes back stripped of its [`ReplyHeader`],
    /// the responder's membership epoch; a responder whose epoch is ahead has its
    /// table pulled, and one that is behind is pushed this node's, before
    /// the answers are returned. A member's body is a message, not its
    /// bytes: the header and the message are written once, straight
    /// into the frame's one buffer, in every round that sends them. The
    /// exchange keeps one record per member, in one vector of exactly
    /// their number, and its answers are read off that vector.
    ///
    /// Definite answers — including error statuses — prove the peer is
    /// alive and reset its failure count; only transport-level failures
    /// (connection loss, expired deadline, `Unavailable`) indict it. A
    /// retry is another round: the members still worth retrying are
    /// re-sent together after one shared backoff charged to the cluster
    /// clock.
    ///
    /// No interconnect handler gets here: a call made while serving one
    /// would wait on the cluster's one reader, which runs that handler
    /// and so reads nothing meanwhile.
    pub(super) fn scatter<B: Encode>(&self, calls: &[(NodeId, u32, B)]) -> Answers {
        debug_assert!(
            !rpclite::serving(),
            "an interconnect handler called out: every verb must answer from its own state"
        );
        let inner = &self.inner;
        let header = CallHeader { from: inner.node };
        let admit = |&(node, method, _): &(NodeId, u32, B)| {
            let peer = self.peer(node);
            let admission = peer.as_ref().map(|p| p.health.lock().admit(&inner.pace));
            let attempts_left = match admission {
                None | Some(Admission::Skip) => 0,
                Some(Admission::Probe) => 1, // one shot; failure re-arms the backoff window
                Some(Admission::Attempt) => inner.retry.max_attempts.max(1),
            };
            let answer = match peer {
                None => Some(Err(PeerFail::NoPeer)),
                Some(_) => (attempts_left == 0).then_some(Err(PeerFail::Skipped)),
            };
            let call = MemberCall {
                node,
                method,
                attempts_left,
                sent: false,
                before: None,
                reply_epoch: None,
                answer,
            };
            Member { peer, call }
        };
        let mut members: Vec<Member> = calls.iter().map(admit).collect();
        let mut retry_no = 0u32;
        loop {
            // Every send of the round goes out before any answer is
            // waited for.
            let round: Vec<_> = members
                .iter_mut()
                .zip(calls)
                .filter_map(|(Member { peer, call }, (.., body))| {
                    let peer = peer.as_ref().filter(|_| call.answer.is_none())?;
                    call.before.get_or_insert_with(|| peer.open.lock().next);
                    let parts: [&dyn Encode; 2] = [&header, body];
                    let ticket = peer.client.call_async(call.method, &parts);
                    Some((&peer.health, call, ticket))
                })
                .collect();
            let mut retrying = 0u64;
            for (health, call, ticket) in round {
                call.sent |= ticket.is_ok();
                let peer = call.node;
                let answer = ticket
                    .and_then(|t| t.wait_deadline(inner.call_deadline))
                    .and_then(|resp| {
                        ReplyHeader::unframe(resp)
                            .map_err(|e| RpcError::Protocol(format!("reply header: {e}")))
                    });
                call.answer = match answer {
                    Ok((reply, body)) => {
                        health.lock().record_success(&inner.pace);
                        call.reply_epoch = Some(reply.epoch);
                        Some(Ok(body))
                    }
                    Err(RpcError::Status(s)) if s.code != StatusCode::Unavailable => {
                        health.lock().record_success(&inner.pace);
                        Some(Err(PeerFail::Rpc(RpcError::Status(s))))
                    }
                    Err(e) if e.is_retryable() => {
                        let state = health.lock().record_failure(&inner.pace);
                        call.attempts_left -= 1;
                        if call.attempts_left == 0 || state == PeerState::Down {
                            let why = format!("peer {peer} unreachable: {e}");
                            // An `Unavailable` status is an answer: the
                            // peer served the call and said so.
                            Some(Err(match (e, call.sent) {
                                (e @ RpcError::Status(_), _) => PeerFail::Rpc(e),
                                (_, true) => PeerFail::Unreachable(why),
                                (_, false) => PeerFail::Unsent(why),
                            }))
                        } else {
                            retrying += 1;
                            None
                        }
                    }
                    Err(e) => {
                        // Protocol violation: a response arrived, but the
                        // connection is now suspect.
                        health.lock().record_failure(&inner.pace);
                        Some(Err(PeerFail::Rpc(e)))
                    }
                };
            }
            if retrying == 0 {
                break;
            }
            retry_no += 1;
            inner.metrics.peer_retries.add(retrying);
            let backoff = inner.retry.backoff(retry_no);
            inner.clock.advance_to(inner.clock.now() + backoff);
        }
        // Only now, with nothing of the exchange left in flight: a peer
        // that answered has served every call filed with it before the
        // member was sent, on the same ordered connection, so those close
        // — a release's answer is taken (one still missing was lost), a
        // kept copy goes — and the releases parked for it go again. Then
        // a membership pull or push, an exchange of its own (whose own
        // reply is the table, not a reason to send another).
        if members.iter().any(Member::answered) {
            let closing = members.iter().filter(|m| m.answered());
            let closing = closing.filter_map(|m| Some((m.peer.as_ref()?, m.call.before?)));
            let closed = closing.flat_map(|(peer, before)| {
                std::iter::from_fn(move || peer.close_next(before, &inner.core))
            });
            self.act_on_releases(closed);
        }
        #[cfg(test)]
        let flush = !mutant(Mutant::NeverFlush);
        #[cfg(not(test))]
        let flush = true;
        let parked = members
            .iter()
            .filter(|m| flush && m.answered())
            .filter_map(|m| {
                let ids = inner.ledger.take_parked(m.call.node);
                (!ids.is_empty()).then_some((m.call.node, ids))
            });
        self.send_releases(parked.collect::<Vec<_>>(), true);
        for Member { call, .. } in &members {
            if let Some(epoch) = call
                .reply_epoch
                .filter(|_| call.method != method::MEMBERSHIP)
            {
                self.sync_epoch(call.node, epoch);
            }
        }
        members.into_iter().map(|m| {
            let answer = m.call.answer;
            answer.expect("the rounds end only once no member is retrying")
        })
    }

    /// [`DisaggStore::scatter`] of one: the guarded call to the peer on
    /// `node`.
    pub(super) fn peer_call(
        &self,
        node: NodeId,
        method_id: u32,
        body: &dyn Encode,
    ) -> Result<Bytes, PeerFail> {
        let mut answers = self.scatter(&[(node, method_id, body)]);
        answers.next().expect("one answer per member")
    }

    /// Send each owner in `asks` one `RELEASE` listing its ids, and wait
    /// for none of them: each answer is taken after the next exchange
    /// with its owner ([`DisaggStore::scatter`]) or when the store
    /// settles ([`DisaggStore::settle_releases`]). `owed`: the ids are
    /// parked releases or duplicate pins, whose `false` flag means they
    /// landed already (see [`OpenCall::Release`]). An owner that is no
    /// peer, is `Down`, or that the request cannot reach, has its ids
    /// parked, to go again after the next exchange with it. A release
    /// is charged no modeled delay. Each request is written from the ids
    /// the release keeps, straight into its frame.
    pub(super) fn send_releases(
        &self,
        asks: impl IntoIterator<Item = (NodeId, Vec<ObjectId>)>,
        owed: bool,
    ) {
        let inner = &self.inner;
        let header = CallHeader { from: inner.node };
        let mut sent_any = false;
        for (owner, ids) in asks {
            sent_any = true;
            let parts: [&dyn Encode; 2] = [&header, &IdList::of(&ids)];
            let up = self
                .peer(owner)
                .filter(|p| p.health.lock().state() != PeerState::Down);
            let sent = up.and_then(|p| Some((p.client.send(method::RELEASE, &parts).ok()?, p)));
            let Some((call, peer)) = sent else {
                for id in ids {
                    inner.ledger.park(id, owner);
                }
                continue;
            };
            if !owed {
                let forwarded = &inner.counters.releases_forwarded;
                forwarded.fetch_add(ids.len() as u64, Ordering::Relaxed);
            }
            peer.file(OpenCall::Release { ids, owed, call });
        }
        if sent_any {
            self.sync_parked_gauge();
        }
    }

    /// Keep the copy of `id` a `CREATE_AT` to `owner` named and got no
    /// answer to: it goes once `owner` answers a call sent after now
    /// ([`DisaggStore::scatter`]), and an abort of it meanwhile is
    /// ignored ([`DisaggStore::keeps_copy`]).
    pub(super) fn keep_copy(&self, owner: NodeId, id: ObjectId) {
        if let Some(peer) = self.peer(owner) {
            peer.file(OpenCall::Copy(id));
        }
    }

    /// Whether this store keeps the copy of `id` for a `CREATE_AT` that
    /// may still be served.
    pub(super) fn keeps_copy(&self, id: ObjectId) -> bool {
        let kept = |(_, call): &(u64, OpenCall)| matches!(call, OpenCall::Copy(c) if *c == id);
        let peers = self.built_peers();
        peers
            .iter()
            .any(|peer| peer.open.lock().filed.iter().any(kept))
    }

    /// Wait for the answer of every release this store has in flight,
    /// and act on each as the next exchange would: a `true` flag is done,
    /// a first release's `false` goes to its next candidate (which may
    /// send another, waited for in turn), and anything else — an error,
    /// no answer within the call deadline — parks the release. No
    /// virtual time is charged. The built peers are walked in node
    /// order, each one's releases in send order.
    ///
    /// For a reader of the ledgers at rest: [`DisaggStore::reconcile`]
    /// and [`crate::Cluster::audit`] settle first, and so must anything
    /// else that reads an owner's pins right after a release (an owner
    /// handles a release when its reader reaches it, not when it is
    /// sent).
    pub fn settle_releases(&self) {
        let deadline = self.inner.call_deadline;
        loop {
            let peers = self.built_peers();
            let answers: Vec<_> = peers.iter().flat_map(|p| p.settle(deadline)).collect();
            if answers.is_empty() {
                return;
            }
            self.act_on_releases(answers.into_iter());
        }
    }

    /// Act on the answers of sent releases: `None` is an answer that
    /// never came. A reply carries its owner's epoch, synced as any
    /// other's. Each owner's flags, one per id asked, say whether it
    /// held the pin; a reply that does not decode or flags another number
    /// of ids is as ambiguous as a lost one, and parks its ids with the
    /// failed and the lost.
    fn act_on_releases(&self, answers: impl Iterator<Item = ReleaseAnswer>) {
        let mut phantoms = Vec::new();
        for (owner, ids, owed, answer) in answers {
            let reply = answer.and_then(|a| a.ok());
            let reply = reply.and_then(|body| ReplyHeader::unframe(body).ok());
            let flags = reply.and_then(|(header, body)| {
                self.sync_epoch(owner, header.epoch);
                let flags = ReleaseResp::flags(body).ok()?;
                (flags.len() == ids.len()).then_some(flags)
            });
            let Some(pinned) = flags else {
                for id in ids {
                    self.inner.ledger.park(id, owner);
                }
                continue;
            };
            #[cfg(test)]
            if mutant(Mutant::DropFalse) {
                continue;
            }
            let unpinned = ids.into_iter().zip(pinned).filter(|(_, pinned)| !pinned);
            phantoms.extend(unpinned.filter(|_| !owed).map(|(id, _)| id));
        }
        self.sync_parked_gauge();
        if !phantoms.is_empty() {
            self.return_pins(&phantoms, true, |_| {});
        }
    }

    /// Take every release parked for `owner`, for a reconcile with it to
    /// settle (the never-flushing mutant leaves them parked).
    pub(super) fn clear_parked(&self, owner: NodeId) -> Vec<ObjectId> {
        #[cfg(test)]
        if mutant(Mutant::NeverFlush) {
            return Vec::new();
        }
        self.inner.ledger.clear_parked(owner)
    }

    pub(super) fn sync_parked_gauge(&self) {
        let parked = self.inner.ledger.parked();
        self.inner.metrics.pending_releases.set(parked as i64);
    }

    /// Releases that failed — unsent, refused, or their answer lost —
    /// and await the next exchange with their owner. A release still in
    /// flight is not one of them. Zero in steady state; tests assert no
    /// release is silently dropped.
    pub fn pending_release_count(&self) -> usize {
        self.inner.ledger.parked() as usize
    }

    /// Fetch one peer's metrics snapshot over the interconnect
    /// (`METRICS` RPC): any node can introspect any peer live.
    pub fn peer_metrics(&self, node: NodeId) -> Result<MetricsSnapshot, PlasmaError> {
        match self.peer_call(node, method::METRICS, &()) {
            Ok(body) => Self::decode_metrics(body).map(|(_, snap)| snap),
            Err(fail) => Err(self.peer_err(node, fail)),
        }
    }

    /// Cluster-wide metrics: this node's snapshot plus every reachable
    /// peer's, queried in one exchange. Like [`DisaggStore::global_list`],
    /// unreachable peers are omitted — the snapshot degrades to a
    /// partial cluster view instead of failing.
    pub fn cluster_metrics(&self) -> Result<Vec<(NodeId, MetricsSnapshot)>, PlasmaError> {
        let mut out = Vec::with_capacity(self.peer_count() + 1);
        out.push((self.inner.node, self.metrics_snapshot()));
        let peers = self.peer_nodes();
        let calls: Vec<_> = peers
            .iter()
            .map(|&peer| (peer, method::METRICS, ()))
            .collect();
        for response in self.scatter(&calls) {
            let Ok(body) = response else { continue };
            out.push(Self::decode_metrics(body)?);
        }
        Ok(out)
    }

    /// Merged cluster snapshot: the fold of
    /// [`DisaggStore::cluster_metrics`] (merging is associative and
    /// commutative, so the order of nodes does not matter).
    pub fn merged_cluster_metrics(&self) -> Result<MetricsSnapshot, PlasmaError> {
        Ok(MetricsSnapshot::merged(
            self.cluster_metrics()?.iter().map(|(_, snap)| snap),
        ))
    }

    fn decode_metrics(body: Bytes) -> Result<(NodeId, MetricsSnapshot), PlasmaError> {
        let resp = MetricsResp::decode(body)
            .map_err(|e| PlasmaError::Protocol(format!("metrics response: {e}")))?;
        let snap = MetricsSnapshot::decode(&resp.snapshot)
            .map_err(|e| PlasmaError::Protocol(format!("metrics snapshot: {e}")))?;
        Ok((resp.node, snap))
    }

    /// This store's sealed objects, as a `LIST` answers them.
    pub(super) fn sealed_entries(&self) -> Vec<ListEntry> {
        let sealed = self.inner.core.list().into_iter();
        sealed
            .filter(|i| i.state == plasma::ObjectState::Sealed)
            .map(|i| ListEntry {
                id: i.id,
                data_size: i.data_size,
                metadata_size: i.metadata_size,
                ref_count: i.ref_count,
            })
            .collect()
    }

    /// Cluster-wide object inventory: this store's sealed objects plus
    /// every reachable peer's, grouped by node, queried in one exchange.
    /// Extends Plasma's `List` across the interconnect. Unreachable peers
    /// are omitted — the inventory is partial, not an error.
    pub fn global_list(&self) -> Result<Vec<(NodeId, Vec<ListEntry>)>, PlasmaError> {
        let mut out = Vec::with_capacity(self.peer_count() + 1);
        out.push((self.inner.node, self.sealed_entries()));
        let peers = self.peer_nodes();
        let calls: Vec<_> = peers.iter().map(|&peer| (peer, method::LIST, ())).collect();
        for response in self.scatter(&calls) {
            let Ok(body) = response else { continue };
            let resp = ListResp::decode(body)
                .map_err(|e| PlasmaError::Protocol(format!("list response: {e}")))?;
            out.push((resp.node, resp.entries));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{Cluster, ClusterConfig};
    use plasma::ObjectStore;

    /// What `store` keeps open with the peer on `node`: its releases, and
    /// its kept copies.
    fn open_with(store: &DisaggStore, node: NodeId) -> (usize, usize) {
        let peer = store.peer(node).expect("a peer");
        let open = peer.open.lock();
        let copies = open.filed.iter();
        let copies = copies.filter(|(_, call)| matches!(call, OpenCall::Copy(_)));
        let copies = copies.count();
        (open.filed.len() - copies, copies)
    }

    /// Releases in flight to two owners and a copy kept for a third: an
    /// exchange one owner answers closes that owner's release alone, and
    /// one the third answers frees the copy and nothing else.
    #[test]
    fn an_answer_closes_only_what_was_filed_with_the_peer_that_gave_it() {
        let cluster = Cluster::launch(ClusterConfig::functional(4, 1 << 20)).unwrap();
        let reader = cluster.store(3).clone();
        let [first, second, third] = [0, 1, 2].map(|k| cluster.node_id(k));
        for k in 0..2 {
            let id = ObjectId::from_name(&cluster.owned_id(k, "open/held"));
            cluster.store(k).put(id, b"held", &[]).unwrap();
            assert!(reader.get(&[id], Duration::ZERO).unwrap()[0].is_some());
            reader.release(id).unwrap();
        }
        // The copy a `CREATE_AT` to the third owner named, which got no
        // answer: an abort of it leaves it.
        let kept = ObjectId::from_name(&cluster.owned_id(2, "open/kept"));
        reader.core().create(kept, 4, 0).unwrap();
        reader.keep_copy(third, kept);
        assert_eq!(ObjectStore::abort(&reader, kept), Ok(()));
        let open = || [first, second, third].map(|node| open_with(&reader, node));
        assert_eq!(open(), [(1, 0), (1, 0), (0, 1)]);

        reader.peer_metrics(first).unwrap();
        assert_eq!(open(), [(0, 0), (1, 0), (0, 1)]);
        assert!(reader.core().exists_any_state(kept));

        reader.peer_metrics(third).unwrap();
        assert_eq!(open(), [(0, 0), (1, 0), (0, 0)]);
        assert!(!reader.core().exists_any_state(kept));

        reader.settle_releases();
        assert_eq!(open(), [(0, 0); 3]);
        assert_eq!(reader.pending_release_count(), 0);
        assert!(cluster.audit().is_empty());
    }
}
