//! The interconnect dispatch: strip the call header, let the verb decode
//! its request, make one call on the store and encode the answer, then
//! stamp the reply header. Every verb is a leaf: it answers from this
//! store's state and calls no peer, so the cluster's one reader, which
//! runs every node's verbs, never waits on itself (DESIGN §8, "Serving a
//! request").

use super::DisaggStore;
use crate::delegation::Kind;
use crate::proto::{
    method, BoolResp, CallHeader, DelegateReq, DeleteReq, DeleteResp, GetManyReq, IdReq, IdsReq,
    ListResp, MembershipTable, Message, MetricsResp, ReconcileReq, ReleaseResp, ReplyHeader,
    RetireReq,
};
use crate::ring::Membership;
use bytes::Bytes;
use ipc::{CodecError, Encode};
use plasma::PlasmaError;
use rpclite::{Service, Status, StatusCode};
use tfsim::NodeId;

/// RPC service answering peer interconnect calls against a [`DisaggStore`].
pub(super) struct Interconnect {
    pub(super) store: DisaggStore,
}

/// A request that does not decode is the caller's error, whatever the
/// verb: `InvalidArgument`, before the store is asked anything.
fn decoded<T>(request: Result<T, CodecError>) -> Result<T, Status> {
    request.map_err(|e| Status::invalid_argument(e.to_string()))
}

/// The one translation of a handler's error into a wire status — the
/// inverse of `DisaggStore::object_err`, so a typed outcome survives the
/// hop whichever verb carried it. `Unavailable` makes the caller treat
/// this node as the unreachable one, which for a delete is the truth
/// that matters: the delete did not happen and may be retried.
fn status_of(e: PlasmaError) -> Status {
    let code = match &e {
        PlasmaError::ObjectNotFound(_) => StatusCode::NotFound,
        PlasmaError::ObjectInUse(_) => StatusCode::FailedPrecondition,
        PlasmaError::PeerUnavailable(_) => StatusCode::Unavailable,
        _ => StatusCode::Internal,
    };
    Status::new(code, e.to_string())
}

impl Service for Interconnect {
    fn call(&self, method_id: u32, request: Bytes) -> Result<Bytes, Status> {
        // Unknown and retired ids are refused before the frame is read.
        if !method::VERBS.iter().any(|(id, _)| *id == method_id) {
            return Err(Status::unimplemented(method_id));
        }
        #[cfg(test)]
        assert_ne!(
            method_id,
            self.store
                .inner
                .panics_on
                .load(std::sync::atomic::Ordering::Relaxed),
            "a leaf made to panic"
        );
        let (header, body) = decoded(CallHeader::unframe(request))?;
        self.serve(method_id, header.from, body)
    }
}

impl Interconnect {
    /// The reply to a verb that ran: this store's epoch — the caller's
    /// to reconcile: a caller that is ahead pushes its table — then the
    /// verb's answer, written once, into the reply's one buffer.
    fn reply(&self, answer: &dyn Encode) -> Result<Bytes, Status> {
        let epoch = self.store.ring_epoch();
        Ok(ReplyHeader { epoch }.frame(answer))
    }

    /// One verb, on behalf of the node `from`: its reply.
    fn serve(&self, method_id: u32, from: NodeId, request: Bytes) -> Result<Bytes, Status> {
        let store = &self.store;
        match method_id {
            method::RELEASE => {
                let ids = decoded(IdsReq::ids(request))?;
                let pinned = store.release_for(from, ids).map_err(status_of)?;
                self.reply(&ReleaseResp { pinned })
            }
            method::CONTAINS => {
                let req = decoded(IdReq::decode(request))?;
                let value = store.answers_for(req.id);
                self.reply(&BoolResp { value })
            }
            method::DELETE => {
                let req = decoded(DeleteReq::decode(request))?;
                if !req.kept.is_empty() {
                    store.reopen_leases(req.id, &req.kept);
                    return self.reply(&DeleteResp::Done(false));
                }
                let answer = store.delete_here(req.id, req.deferred, &req.cleared);
                self.reply(&answer.map_err(status_of)?)
            }
            method::LIST => self.reply(&ListResp {
                node: store.node(),
                entries: store.sealed_entries(),
            }),
            method::GET_MANY => {
                let ids = decoded(GetManyReq::ids(request))?;
                self.reply(&store.serve_get_many(from, ids))
            }
            method::RECONCILE => {
                let req = decoded(ReconcileReq::decode(request))?;
                self.reply(&store.settle_for(from, req))
            }
            method::CREATE_AT => {
                let req = decoded(DelegateReq::decode(request))?;
                self.reply(&store.create_at(&req.location)?)
            }
            method::SPILL_AT => {
                let req = decoded(DelegateReq::decode(request))?;
                self.reply(&store.delegate_at(Kind::Lease, from, req))
            }
            method::REPLICATE_AT => {
                let req = decoded(DelegateReq::decode(request))?;
                self.reply(&store.delegate_at(Kind::Replica, from, req))
            }
            method::INVALIDATE => {
                let req = decoded(RetireReq::decode(request))?;
                let dropped = store.invalidate_here(req.owner, req.id);
                self.reply(&BoolResp {
                    value: dropped.map_err(status_of)?,
                })
            }
            method::MEMBERSHIP => {
                if !request.is_empty() {
                    let pushed = decoded(MembershipTable::decode(request))?;
                    store.set_membership(Membership::new(pushed.epoch, pushed.nodes));
                }
                self.reply(&store.membership_table())
            }
            method::METRICS => self.reply(&MetricsResp {
                node: store.node(),
                snapshot: Bytes::from(store.metrics_snapshot().encode()),
            }),
            other => Err(Status::unimplemented(other)),
        }
    }
}
