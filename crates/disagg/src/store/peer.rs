//! Talking to one peer, and to several at once: the guarded exchange
//! (`scatter`: health admission, deadline, retry rounds — a call to one
//! peer is a scatter of one), the translation of a failed call into the
//! caller's error, parked releases, and the cluster-wide reads built on
//! it (metrics, inventory).

use super::{DisaggStore, Peer};
use crate::elastic::RETRY_AFTER_MS;
use crate::health::{Admission, PeerState, PeerStats};
use crate::proto::{method, CallHeader, IdReq, ListEntry, ListResp, MetricsResp, ReplyHeader};
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
    /// The call (and its retries) failed at the transport level — the
    /// peer is unreachable right now.
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
            PeerFail::Unreachable(m) => PlasmaError::PeerUnavailable(m),
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
    /// every call goes out under one [`CallHeader`] — this node and its
    /// membership epoch — and every `Ok` answer comes back stripped of
    /// its [`ReplyHeader`]; a responder whose epoch is ahead has its
    /// table pulled before the answers are returned. A member's body is
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
    pub(super) fn scatter(&self, calls: &[(&Peer, u32, &[&[u8]])]) -> Vec<Result<Bytes, PeerFail>> {
        let inner = &self.inner;
        let header = CallHeader {
            from: inner.node,
            epoch: self.ring_epoch(),
        };
        let head = header.encode();
        let framed: Vec<Vec<&[u8]>> = calls
            .iter()
            .map(|(.., body)| {
                let mut parts = vec![&head[..]];
                parts.extend_from_slice(body);
                parts
            })
            .collect();
        let mut reply_epochs = vec![0u64; calls.len()];
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
                let peer = calls[i].0;
                let answer = ticket
                    .and_then(|t| t.wait_deadline(inner.call_deadline))
                    .and_then(|resp| {
                        ReplyHeader::split(resp)
                            .map_err(|e| RpcError::Protocol(format!("reply header: {e}")))
                    });
                answers[i] = match answer {
                    Ok((reply, body)) => {
                        inner.health.record_success(peer.node);
                        reply_epochs[i] = reply.epoch;
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
                            Some(Err(PeerFail::Unreachable(format!(
                                "peer {} unreachable: {e}",
                                peer.name
                            ))))
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
        // Only now, with nothing of the exchange left in flight: a flush
        // is serial calls of its own, and so is a membership pull (whose
        // own reply is the table, not a reason to pull again).
        for ((peer, ..), answer) in calls.iter().zip(&answers) {
            if matches!(answer, Some(Ok(_))) {
                self.flush_parked_releases(peer, header);
            }
        }
        for ((peer, method_id, _), epoch) in calls.iter().zip(reply_epochs) {
            if *method_id != method::MEMBERSHIP {
                self.maybe_adopt_epoch(peer.node, epoch);
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

    /// Retry the RELEASEs parked for `peer` (closing pins in the
    /// ledger). Invoked after a successful call proved the peer
    /// reachable; entries that fail again are re-parked. Uses the raw
    /// client rather than [`DisaggStore::scatter`] so a flush never
    /// recurses into another flush, under the `header` of the exchange
    /// that triggered it.
    fn flush_parked_releases(&self, peer: &Peer, header: CallHeader) {
        let parked = self.inner.ledger.take_parked(peer.node);
        if parked.is_empty() {
            return;
        }
        let head = header.encode();
        for id in parked {
            let sent = peer
                .client
                .call_async(method::RELEASE, &[&head, &IdReq { id }.encode()])
                .and_then(|call| call.wait_deadline(self.inner.call_deadline));
            if sent.is_err() {
                self.inner.ledger.park(id, peer.node);
            }
        }
        self.sync_parked_gauge();
    }

    /// Park a RELEASE against an unreachable peer for later retry: the
    /// owner-side pin must not leak for the peer's lifetime.
    pub(super) fn park_release(&self, owner: NodeId, id: ObjectId) {
        self.inner.ledger.park(id, owner);
        self.sync_parked_gauge();
    }

    fn sync_parked_gauge(&self) {
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
