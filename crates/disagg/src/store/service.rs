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
use ipc::CodecError;
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

fn truth(value: bool) -> Bytes {
    BoolResp { value }.encode()
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
        let store = &self.store;
        // The epoch is the caller's to reconcile: the reply header tells
        // it ours, and a caller that is ahead pushes its table.
        let (header, body) = decoded(CallHeader::unframe(request))?;
        let reply = self.serve(method_id, header.from, body)?;
        let epoch = store.ring_epoch();
        Ok(ReplyHeader { epoch }.frame(&reply))
    }
}

impl Interconnect {
    /// One verb's body, on behalf of the node `from`.
    fn serve(&self, method_id: u32, from: NodeId, request: Bytes) -> Result<Bytes, Status> {
        let store = &self.store;
        match method_id {
            method::RELEASE => {
                let req = decoded(IdsReq::decode(request))?;
                let released = store.release_for(from, &req.ids);
                let resp = released.map(|pinned| ReleaseResp { pinned }.encode());
                resp.map_err(status_of)
            }
            method::CONTAINS => {
                let req = decoded(IdReq::decode(request))?;
                Ok(truth(store.answers_for(req.id)))
            }
            method::DELETE => {
                let req = decoded(DeleteReq::decode(request))?;
                if !req.kept.is_empty() {
                    store.reopen_leases(req.id, &req.kept);
                    return Ok(DeleteResp::Done(false).encode());
                }
                let answer = store.delete_here(req.id, req.deferred, &req.cleared);
                answer.map(|answer| answer.encode()).map_err(status_of)
            }
            method::LIST => Ok(ListResp {
                node: store.node(),
                entries: store.sealed_entries(),
            }
            .encode()),
            method::GET_MANY => {
                let req = decoded(GetManyReq::decode(request))?;
                Ok(store.serve_get_many(from, req).encode())
            }
            method::RECONCILE => {
                let req = decoded(ReconcileReq::decode(request))?;
                Ok(store.settle_for(from, req).encode())
            }
            method::CREATE_AT => {
                let req = decoded(DelegateReq::decode(request))?;
                store.create_at(&req.location).map(|resp| resp.encode())
            }
            method::SPILL_AT => {
                let req = decoded(DelegateReq::decode(request))?;
                Ok(store.delegate_at(Kind::Lease, from, req).encode())
            }
            method::REPLICATE_AT => {
                let req = decoded(DelegateReq::decode(request))?;
                Ok(store.delegate_at(Kind::Replica, from, req).encode())
            }
            method::INVALIDATE => {
                let req = decoded(RetireReq::decode(request))?;
                let dropped = store.invalidate_here(req.owner, req.id);
                dropped.map(truth).map_err(status_of)
            }
            method::MEMBERSHIP => {
                if !request.is_empty() {
                    let pushed = decoded(MembershipTable::decode(request))?;
                    store.set_membership(Membership::new(pushed.epoch, pushed.nodes));
                }
                Ok(store.membership_table().encode())
            }
            method::METRICS => Ok(MetricsResp {
                node: store.node(),
                snapshot: Bytes::from(store.metrics_snapshot().encode()),
            }
            .encode()),
            other => Err(Status::unimplemented(other)),
        }
    }
}
