//! The interconnect dispatch: each verb decodes its request, makes one
//! call on the store, and encodes the answer.

use super::DisaggStore;
use crate::delegation::Kind;
use crate::proto::{
    method, BoolResp, CreateAtReq, ForwardReq, GetManyReq, IdReq, InvalidateReq, ListResp,
    MetricsResp, ReconcileReq, ReleaseReq, SpillAtReq,
};
use bytes::Bytes;
use plasma::PlasmaError;
use rpclite::wire::WireError;
use rpclite::{Service, Status, StatusCode};

/// RPC service answering peer interconnect calls against a [`DisaggStore`].
pub(super) struct Interconnect {
    pub(super) store: DisaggStore,
}

fn decoded<T>(request: Result<T, WireError>) -> Result<T, Status> {
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
        let store = &self.store;
        match method_id {
            method::RELEASE => {
                let req = decoded(ReleaseReq::decode(request))?;
                store.release_for(req).map(truth).map_err(status_of)
            }
            method::CONTAINS => {
                let req = decoded(IdReq::decode(request))?;
                Ok(truth(store.answers_for(req.id)))
            }
            method::DELETE => {
                let req = decoded(IdReq::decode(request))?;
                let done = store.delete_here(req.id, false);
                done.map(|_| Bytes::new()).map_err(status_of)
            }
            method::DELETE_DEFERRED => {
                let req = decoded(IdReq::decode(request))?;
                store
                    .delete_here(req.id, true)
                    .map(truth)
                    .map_err(status_of)
            }
            method::DELETE_HELD => {
                let req = decoded(IdReq::decode(request))?;
                let done = store.delete_held(req.id);
                done.map(|()| Bytes::new()).map_err(status_of)
            }
            method::LIST => Ok(ListResp {
                node: store.node(),
                entries: store.sealed_entries(),
            }
            .encode()),
            method::GET_MANY => {
                let req = decoded(GetManyReq::decode(request))?;
                Ok(store.serve_get_many(req).encode())
            }
            method::RECONCILE => {
                let req = decoded(ReconcileReq::decode(request))?;
                Ok(store.settle_for(req).encode())
            }
            method::CREATE_AT => {
                let req = decoded(CreateAtReq::decode(request))?;
                store.create_at(req).map(|resp| resp.encode())
            }
            method::SEAL_AT => {
                let req = decoded(ForwardReq::decode(request))?;
                store.seal_at(req).map(|resp| resp.encode())
            }
            method::ABORT_AT => {
                let req = decoded(ForwardReq::decode(request))?;
                store.abort_at(req).map(truth)
            }
            method::SPILL_AT => {
                let req = decoded(SpillAtReq::decode(request))?;
                Ok(store.delegate_at(Kind::Lease, req).encode())
            }
            method::REPLICATE_AT => {
                let req = decoded(SpillAtReq::decode(request))?;
                Ok(store.delegate_at(Kind::Replica, req).encode())
            }
            method::INVALIDATE => {
                let req = decoded(InvalidateReq::decode(request))?;
                Ok(truth(store.invalidate_here(req)))
            }
            method::MEMBERSHIP => Ok(store.membership_resp().encode()),
            method::METRICS => Ok(MetricsResp {
                node: store.node(),
                snapshot: Bytes::from(store.metrics_snapshot().encode()),
            }
            .encode()),
            other => Err(Status::unimplemented(other)),
        }
    }
}
