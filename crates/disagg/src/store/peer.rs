//! Talking to one peer, and to several at once: the guarded exchange
//! (`scatter`: health admission, deadline, retry rounds — a call to one
//! peer is a scatter of one), the translation of a failed call into the
//! caller's error, list releases and parked ones, and the cluster-wide
//! reads built on it (metrics, inventory).

use super::{DisaggStore, Peer};
use crate::elastic::RETRY_AFTER_MS;
use crate::health::{Admission, PeerState, PeerStats};
use crate::proto::{
    method, CallHeader, IdsReq, ListEntry, ListResp, Message, MetricsResp, ReleaseResp, ReplyHeader,
};
use bytes::Bytes;
use obs::MetricsSnapshot;
use plasma::{ObjectId, PlasmaError};
use rpclite::{RpcError, StatusCode};
use tfsim::NodeId;

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
    /// The peer answered with a definite, non-retryable error.
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
            // The owner's admission gate shed the request: the same
            // typed rejection, with the same backoff hint, a local
            // create would have raised.
            StatusCode::ResourceExhausted => PlasmaError::Overloaded {
                retry_after_ms: RETRY_AFTER_MS,
            },
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
    /// This is the one place a request is framed and a reply unframed:
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
                            Some(Err(match sent[i] {
                                true => PeerFail::Unreachable(why),
                                false => PeerFail::Unsent(why),
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
        // Only now, with nothing of the exchange left in flight: the
        // releases parked for the peers that answered are an exchange of
        // their own, and so is a membership pull or push (whose own reply
        // is the table, not a reason to send another).
        let answered = calls.iter().zip(&answers);
        let parked = answered.filter_map(|((peer, ..), answer)| {
            let ids = match answer {
                Some(Ok(_)) => inner.ledger.take_parked(peer.node),
                _ => Vec::new(),
            };
            (!ids.is_empty()).then_some((peer.node, ids))
        });
        self.release_owed(parked.collect());
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

    /// One `RELEASE` to each owner in `asks`, listing its ids, all in
    /// one [`DisaggStore::scatter`] round. Per owner: whether each id
    /// was pinned there, in the order asked, or why no usable answer
    /// came — the owner is unreachable, answered an error (named after
    /// the last id, the one a caller waits on), or sent a reply that
    /// does not decode or does not flag every id: a `Protocol` error,
    /// as ambiguous as a lost one.
    pub(super) fn release_at(
        &self,
        asks: &[(NodeId, Vec<ObjectId>)],
    ) -> Vec<Result<Vec<bool>, PlasmaError>> {
        if asks.is_empty() {
            return Vec::new();
        }
        let peers: Vec<_> = asks.iter().map(|(owner, _)| self.peer(*owner)).collect();
        let reqs: Vec<Bytes> = asks
            .iter()
            .map(|(_, ids)| IdsReq { ids: ids.clone() }.encode())
            .collect();
        let bodies: Vec<[&[u8]; 1]> = reqs.iter().map(|req| [&req[..]]).collect();
        let calls: Vec<_> = peers
            .iter()
            .zip(&bodies)
            .filter_map(|(peer, body)| Some((peer.as_ref().ok()?, method::RELEASE, &body[..])))
            .collect();
        let mut answers = self.scatter(&calls).into_iter();
        let outcomes = peers.iter().zip(asks).map(|(peer, (_, ids))| {
            let peer = peer.as_ref().map_err(Clone::clone)?;
            let answer = answers.next().expect("one answer per call");
            let last = *ids.last().expect("a release names an id");
            let body = answer.map_err(|fail| self.object_err(peer, last, fail))?;
            let resp = ReleaseResp::decode(body)
                .map_err(|e| PlasmaError::Protocol(format!("release response: {e}")))?;
            if resp.pinned.len() != ids.len() {
                return Err(PlasmaError::Protocol(format!(
                    "release response: {} flags for {} ids",
                    resp.pinned.len(),
                    ids.len()
                )));
            }
            Ok(resp.pinned)
        });
        outcomes.collect()
    }

    /// Send releases owed to named owners — parked ones, and the
    /// duplicate pins a lookup hands back — one `RELEASE` per owner, all
    /// in one [`DisaggStore::release_at`] round. An owner without a
    /// usable answer has its ids parked, to go again after the next call
    /// to it that succeeds; a `false` flag means the release landed
    /// already and is dropped. A flush of parked ids recurses through
    /// `scatter` at most once: `take_parked` emptied the backlog it
    /// would flush.
    pub(super) fn release_owed(&self, asks: Vec<(NodeId, Vec<ObjectId>)>) {
        if asks.is_empty() {
            return;
        }
        let answers = self.release_at(&asks);
        for ((owner, ids), answer) in asks.into_iter().zip(answers) {
            if answer.is_err() {
                for id in ids {
                    self.inner.ledger.park(id, owner);
                }
            }
        }
        self.sync_parked_gauge();
    }

    pub(super) fn sync_parked_gauge(&self) {
        let parked = self.inner.ledger.parked();
        self.inner.metrics.pending_releases.set(parked as i64);
    }

    /// Releases that failed against an unreachable peer and await retry.
    /// Zero in steady state; tests assert no release is silently dropped.
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
