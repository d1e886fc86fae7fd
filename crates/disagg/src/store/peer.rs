//! Talking to one peer, and to several at once: the guarded exchange
//! (`scatter`: health admission, deadline, retry rounds — a call to one
//! peer is a scatter of one), the translation of a failed call into the
//! caller's error, the `RELEASE`s nobody waits on and the answers they
//! get, the copies an unanswered `CREATE_AT` names, and the cluster-wide
//! reads built on it (metrics, inventory).

use super::{DisaggStore, Peer};
use crate::health::{Admission, PeerState, PeerStats};
use crate::proto::{
    method, CallHeader, IdsReq, ListEntry, ListResp, Message, MetricsResp, ReleaseResp, ReplyHeader,
};
use bytes::Bytes;
use obs::MetricsSnapshot;
use plasma::{ObjectId, PlasmaError};
use rpclite::{RpcClient, RpcError, StatusCode, Unawaited};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use tfsim::NodeId;

/// What this store sent and cannot close yet, numbered in the order it
/// was sent: `RELEASE`s not yet answered, and the copies `CREATE_AT`s
/// that went unanswered name.
#[derive(Default)]
pub(super) struct Releases {
    /// The number the next one is given.
    next: u64,
    sent: Vec<SentRelease>,
    kept: Vec<KeptCopy>,
}

/// The unsealed copy of `id` this node offered `owner` with a
/// `CREATE_AT` that got no answer: the request may still be served, and
/// read the copy, so the copy stays until `owner` answers a later call.
struct KeptCopy {
    seq: u64,
    owner: NodeId,
    id: ObjectId,
}

/// One `RELEASE` nobody waits on: which pins it returns, and the claim on
/// its answer.
struct SentRelease {
    /// Its place in the send order of this store's releases.
    seq: u64,
    owner: NodeId,
    ids: Vec<ObjectId>,
    /// Owed rather than first: a parked release or a duplicate pin a
    /// lookup handed back. Its `false` flag means it landed already; a
    /// first release's `false` means the entry it was sent for was a
    /// phantom, and the pin is returned at its next candidate.
    owed: bool,
    client: Arc<RpcClient>,
    call: Unawaited,
}

/// A sent release's owner, ids, whether they were owed, and its answer
/// (`None`: none came).
type ReleaseAnswer = (NodeId, Vec<ObjectId>, bool, Option<Result<Bytes, RpcError>>);

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
        matches!(self, PeerFail::Skipped | PeerFail::Unsent(_))
    }
}

impl DisaggStore {
    pub(super) fn peers_snapshot(&self) -> Vec<Peer> {
        self.inner.peers.read().clone()
    }

    /// The connected peer running on `node`.
    pub(super) fn peer(&self, node: NodeId) -> Result<Peer, PlasmaError> {
        let peers = self.inner.peers.read();
        let found = peers.iter().find(|p| p.node == node).cloned();
        found
            .ok_or_else(|| PlasmaError::PeerUnavailable(format!("no interconnect peer for {node}")))
    }

    /// The one translation of a failed peer call into the error the
    /// caller sees.
    pub(super) fn peer_err(&self, peer: &Peer, fail: PeerFail) -> PlasmaError {
        match fail {
            PeerFail::Skipped => {
                PlasmaError::PeerUnavailable(format!("peer {} is down", peer.name))
            }
            PeerFail::Unsent(m) | PeerFail::Unreachable(m) => PlasmaError::PeerUnavailable(m),
            PeerFail::Rpc(RpcError::Status(s)) if s.code == StatusCode::Unavailable => {
                PlasmaError::PeerUnavailable(format!("peer {} unavailable: {s}", peer.name))
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
    pub(super) fn object_err(&self, peer: &Peer, id: ObjectId, fail: PeerFail) -> PlasmaError {
        let PeerFail::Rpc(RpcError::Status(status)) = &fail else {
            return self.peer_err(peer, fail);
        };
        match status.code {
            StatusCode::NotFound => PlasmaError::ObjectNotFound(id),
            StatusCode::FailedPrecondition => PlasmaError::ObjectInUse(id),
            _ => self.peer_err(peer, fail),
        }
    }

    /// Liveness state of one peer, as seen by this node's failure detector.
    pub fn peer_state(&self, node: NodeId) -> PeerState {
        self.inner.health.state(node)
    }

    /// Failure-detector counters for one peer.
    pub fn peer_health_stats(&self, node: NodeId) -> PeerStats {
        self.inner.health.stats(node)
    }

    /// One guarded exchange with several peers at once: every member is
    /// admitted by the failure detector, every admitted call is sent
    /// from this thread in slice order, and only then are the answers
    /// gathered, in the same order. All sends leave at one virtual
    /// instant and each call charges `advance_to(its send + its delay)`,
    /// so the exchange costs its slowest round trip, not their sum —
    /// and a fixed send and gather order keeps that cost the same on
    /// every run of one seed. Each deadline runs from its own send, so
    /// N hung members cost one deadline between them.
    ///
    /// This is where a request is framed and a reply unframed, but for
    /// a `RELEASE` nobody waits on ([`DisaggStore::send_releases`]):
    /// every call goes out under one [`CallHeader`] — this node — and
    /// every `Ok` answer comes back stripped of its [`ReplyHeader`],
    /// the responder's membership epoch; a responder whose epoch is ahead has its
    /// table pulled, and one that is behind is pushed this node's, before
    /// the answers are returned. A member's body is
    /// borrowed as parts, and the header's bytes join them as the first:
    /// the rpclite envelope writes them all into the frame's one buffer,
    /// so a payload a body carries (a forwarded put's) is copied once,
    /// in every round that sends it.
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
    pub(super) fn scatter(&self, calls: &[(&Peer, u32, &[&[u8]])]) -> Vec<Result<Bytes, PeerFail>> {
        debug_assert!(
            !rpclite::serving(),
            "an interconnect handler called out: every verb must answer from its own state"
        );
        let inner = &self.inner;
        // Releases sent before this exchange: a peer that answers it has
        // answered them first, on the same ordered connection.
        let released_before = inner.releases.lock().next;
        let header = CallHeader { from: inner.node };
        let head = header.encode();
        let framed: Vec<Vec<&[u8]>> = calls
            .iter()
            .map(|(.., body)| {
                let mut parts = vec![&head[..]];
                parts.extend_from_slice(body);
                parts
            })
            .collect();
        let mut reply_epochs = vec![None; calls.len()];
        let mut attempts_left: Vec<u32> = calls
            .iter()
            .map(|(peer, ..)| match inner.health.admit(peer.node) {
                Admission::Skip => 0,
                Admission::Probe => 1, // one shot; failure re-arms the backoff window
                Admission::Attempt => inner.retry.max_attempts.max(1),
            })
            .collect();
        // `None` while a member still has a call to make or to wait for.
        let mut answers: Vec<Option<Result<Bytes, PeerFail>>> = attempts_left
            .iter()
            .map(|&attempts| (attempts == 0).then_some(Err(PeerFail::Skipped)))
            .collect();
        // Whether any attempt's request left, per member.
        let mut sent = vec![false; calls.len()];
        let mut retry_no = 0u32;
        loop {
            // Every send of the round goes out before any answer is
            // waited for.
            let tickets: Vec<_> = calls
                .iter()
                .zip(&framed)
                .zip(&answers)
                .map(|(((peer, method_id, _), parts), answer)| {
                    answer
                        .is_none()
                        .then(|| peer.client.call_async(*method_id, parts))
                })
                .collect();
            let mut retrying = 0u64;
            for (i, ticket) in tickets.into_iter().enumerate() {
                let Some(ticket) = ticket else { continue };
                sent[i] |= ticket.is_ok();
                let peer = calls[i].0;
                let answer = ticket
                    .and_then(|t| t.wait_deadline(inner.call_deadline))
                    .and_then(|resp| {
                        ReplyHeader::unframe(resp)
                            .map_err(|e| RpcError::Protocol(format!("reply header: {e}")))
                    });
                answers[i] = match answer {
                    Ok((reply, body)) => {
                        inner.health.record_success(peer.node);
                        reply_epochs[i] = Some(reply.epoch);
                        Some(Ok(body))
                    }
                    Err(RpcError::Status(s)) if s.code != StatusCode::Unavailable => {
                        inner.health.record_success(peer.node);
                        Some(Err(PeerFail::Rpc(RpcError::Status(s))))
                    }
                    Err(e) if e.is_retryable() => {
                        let state = inner.health.record_failure(peer.node);
                        attempts_left[i] -= 1;
                        if attempts_left[i] == 0 || state == PeerState::Down {
                            let why = format!("peer {} unreachable: {e}", peer.name);
                            // An `Unavailable` status is an answer: the
                            // peer served the call and said so.
                            Some(Err(match (e, sent[i]) {
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
                        inner.health.record_failure(peer.node);
                        Some(Err(PeerFail::Rpc(e)))
                    }
                };
            }
            if retrying == 0 {
                break;
            }
            retry_no += 1;
            inner.metrics.peer_retries.add(retrying);
            let backoff = inner.retry.backoff(retry_no, &mut inner.retry_rng.lock());
            inner.clock.advance_to(inner.clock.now() + backoff);
        }
        // Only now, with nothing of the exchange left in flight: a peer
        // that answered has answered every release sent to it before, on
        // the same ordered connection, so their answers are taken (one
        // still missing was lost), and the releases parked for it go
        // again. Then a membership pull or push, an exchange of its own
        // (whose own reply is the table, not a reason to send another).
        let answered: Vec<NodeId> = calls
            .iter()
            .zip(&answers)
            .filter(|(_, answer)| match answer {
                Some(Ok(_)) => true,
                Some(Err(fail)) => fail.status().is_some(),
                None => false,
            })
            .map(|((peer, ..), _)| peer.node)
            .collect();
        self.take_releases(&answered, released_before);
        self.free_kept(&answered, released_before);
        #[cfg(test)]
        let answered = match mutant(Mutant::NeverFlush) {
            true => Vec::new(),
            false => answered,
        };
        let parked = answered.iter().filter_map(|&node| {
            let ids = inner.ledger.take_parked(node);
            (!ids.is_empty()).then_some((node, ids))
        });
        self.send_releases(parked.collect(), true);
        for ((peer, method_id, _), epoch) in calls.iter().zip(reply_epochs) {
            if let Some(epoch) = epoch.filter(|_| *method_id != method::MEMBERSHIP) {
                self.sync_epoch(peer.node, epoch);
            }
        }
        let settled = answers.into_iter();
        settled
            .map(|answer| answer.expect("the rounds end only once no member is retrying"))
            .collect()
    }

    /// [`DisaggStore::scatter`] of one: the guarded call to a single
    /// peer.
    pub(super) fn peer_call(
        &self,
        peer: &Peer,
        method_id: u32,
        body: &[&[u8]],
    ) -> Result<Bytes, PeerFail> {
        let mut answers = self.scatter(&[(peer, method_id, body)]);
        answers.pop().expect("one answer per member")
    }

    /// Send each owner in `asks` one `RELEASE` listing its ids, and wait
    /// for none of them: each answer is taken after the next exchange
    /// with its owner ([`DisaggStore::scatter`]) or when the store
    /// settles ([`DisaggStore::settle_releases`]). `owed`: the ids are
    /// parked releases or duplicate pins, whose `false` flag means they
    /// landed already (see [`SentRelease::owed`]). An owner that is
    /// `Down`, or that the request cannot reach, has its ids parked, to
    /// go again after the next exchange with it. A release draws its
    /// modeled delay at its send and charges none of it.
    pub(super) fn send_releases(&self, asks: Vec<(NodeId, Vec<ObjectId>)>, owed: bool) {
        if asks.is_empty() {
            return;
        }
        let inner = &self.inner;
        let head = CallHeader { from: inner.node }.encode();
        for (owner, ids) in asks {
            let peer = self.peer(owner).ok();
            let peer = peer.filter(|_| inner.health.state(owner) != PeerState::Down);
            let body = IdsReq { ids: ids.clone() }.encode();
            let call = peer.and_then(|peer| {
                let call = peer.client.send(method::RELEASE, &[&head, &body]).ok()?;
                Some((peer.client, call))
            });
            let Some((client, call)) = call else {
                for id in ids {
                    inner.ledger.park(id, owner);
                }
                continue;
            };
            if !owed {
                let forwarded = &inner.counters.releases_forwarded;
                forwarded.fetch_add(ids.len() as u64, Ordering::Relaxed);
            }
            let mut releases = inner.releases.lock();
            let seq = releases.next;
            releases.next += 1;
            releases.sent.push(SentRelease {
                seq,
                owner,
                ids,
                owed,
                client,
                call,
            });
        }
        self.sync_parked_gauge();
    }

    /// Keep the copy of `id` a `CREATE_AT` to `owner` named and got no
    /// answer to: it is freed once `owner` answers a call sent after now
    /// ([`DisaggStore::free_kept`]), and an abort of it meanwhile is
    /// ignored ([`DisaggStore::keeps_copy`]).
    pub(super) fn keep_copy(&self, owner: NodeId, id: ObjectId) {
        let mut releases = self.inner.releases.lock();
        let seq = releases.next;
        releases.next += 1;
        releases.kept.push(KeptCopy { seq, owner, id });
    }

    /// Whether this store keeps the copy of `id` for a `CREATE_AT` that
    /// may still be served.
    pub(super) fn keeps_copy(&self, id: ObjectId) -> bool {
        let releases = self.inner.releases.lock();
        releases.kept.iter().any(|copy| copy.id == id)
    }

    /// Free the copies kept for `owners` before the exchange numbered
    /// `before`. Each of those owners answered a call of that exchange,
    /// and a node serves the requests that reach it in the order they
    /// arrive, so no request naming one of the copies is left to serve.
    fn free_kept(&self, owners: &[NodeId], before: u64) {
        if owners.is_empty() {
            return;
        }
        let mut releases = self.inner.releases.lock();
        releases.kept.retain(|copy| {
            let due = copy.seq < before && owners.contains(&copy.owner);
            if due {
                let _ = self.inner.core.abort(copy.id);
            }
            !due
        });
    }

    /// Take the answers of the releases sent to `owners` before the one
    /// numbered `before`: those owners have answered a later call, so an
    /// answer still missing was lost.
    fn take_releases(&self, owners: &[NodeId], before: u64) {
        if owners.is_empty() {
            return;
        }
        let due = {
            let mut releases = self.inner.releases.lock();
            let (due, kept) = std::mem::take(&mut releases.sent)
                .into_iter()
                .partition(|r| r.seq < before && owners.contains(&r.owner));
            releases.sent = kept;
            due
        };
        let answers = due.into_iter().map(|r| {
            let answer = r.client.take(r.call);
            (r.owner, r.ids, r.owed, answer)
        });
        self.act_on_releases(answers.collect());
    }

    /// Wait for the answer of every release this store has in flight,
    /// and act on each as the next exchange would: a `true` flag is done,
    /// a first release's `false` goes to its next candidate (which may
    /// send another, waited for in turn), and anything else — an error,
    /// no answer within the call deadline — parks the release. No
    /// virtual time is charged.
    ///
    /// For a reader of the ledgers at rest: [`DisaggStore::reconcile`]
    /// and [`crate::Cluster::audit`] settle first, and so must anything
    /// else that reads an owner's pins right after a release (an owner
    /// handles a release when its reader reaches it, not when it is
    /// sent).
    pub fn settle_releases(&self) {
        loop {
            let sent = std::mem::take(&mut self.inner.releases.lock().sent);
            if sent.is_empty() {
                return;
            }
            let answers = sent.into_iter().map(|r| {
                let answer = r.client.settle(r.call, self.inner.call_deadline);
                (r.owner, r.ids, r.owed, Some(answer))
            });
            self.act_on_releases(answers.collect());
        }
    }

    /// Act on the answers of sent releases: `None` is an answer that
    /// never came. A reply carries its owner's epoch, synced as any
    /// other's. Each owner's flags, one per id asked, say whether it
    /// held the pin; a reply that does not decode or flags another number
    /// of ids is as ambiguous as a lost one, and parks its ids with the
    /// failed and the lost.
    fn act_on_releases(&self, answers: Vec<ReleaseAnswer>) {
        let mut phantoms = Vec::new();
        for (owner, ids, owed, answer) in answers {
            let reply = answer.and_then(|a| a.ok());
            let reply = reply.and_then(|body| ReplyHeader::unframe(body).ok());
            let flags = reply.and_then(|(header, body)| {
                self.sync_epoch(owner, header.epoch);
                let resp = ReleaseResp::decode(body).ok()?;
                (resp.pinned.len() == ids.len()).then_some(resp.pinned)
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
            self.return_pins(&phantoms, true);
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
        let peer = self.peer(node)?;
        match self.peer_call(&peer, method::METRICS, &[]) {
            Ok(body) => Self::decode_metrics(body).map(|(_, snap)| snap),
            Err(fail) => Err(self.peer_err(&peer, fail)),
        }
    }

    /// Cluster-wide metrics: this node's snapshot plus every reachable
    /// peer's, queried in one exchange. Like [`DisaggStore::global_list`],
    /// unreachable peers are omitted — the snapshot degrades to a
    /// partial cluster view instead of failing.
    pub fn cluster_metrics(&self) -> Result<Vec<(NodeId, MetricsSnapshot)>, PlasmaError> {
        let mut out = Vec::with_capacity(self.peer_count() + 1);
        out.push((self.inner.node, self.metrics_snapshot()));
        let peers = self.peers_snapshot();
        let calls: Vec<_> = peers
            .iter()
            .map(|peer| (peer, method::METRICS, &[][..]))
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
        let peers = self.peers_snapshot();
        let calls: Vec<_> = peers
            .iter()
            .map(|peer| (peer, method::LIST, &[][..]))
            .collect();
        for response in self.scatter(&calls) {
            let Ok(body) = response else { continue };
            let resp = ListResp::decode(body)
                .map_err(|e| PlasmaError::Protocol(format!("list response: {e}")))?;
            out.push((resp.node, resp.entries));
        }
        Ok(out)
    }
}
