//! Service abstraction and status codes.
//!
//! Mirrors the slice of gRPC semantics the paper's system uses: unary
//! synchronous calls dispatched by method id, returning either a response
//! body or a [`Status`] with a gRPC-style code.

use bytes::Bytes;
use std::fmt;

/// Identifies a method on a service (the equivalent of a gRPC full method
/// name, pre-resolved to an integer).
pub type MethodId = u32;

/// gRPC-style status codes (subset used by the framework).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u32)]
pub enum StatusCode {
    /// Success.
    Ok = 0,
    /// The request was malformed or undecodable.
    InvalidArgument = 3,
    /// The call's deadline expired before a response arrived.
    DeadlineExceeded = 4,
    /// The referenced entity does not exist.
    NotFound = 5,
    /// The entity already exists.
    AlreadyExists = 6,
    /// The service is shedding load (quota / admission control); the
    /// caller should back off and retry.
    ResourceExhausted = 8,
    /// The operation is not valid in the entity's current state.
    FailedPrecondition = 9,
    /// The service failed internally.
    Internal = 13,
    /// The service is temporarily unable to answer (retryable).
    Unavailable = 14,
    /// The method id is not implemented by the service.
    Unimplemented = 12,
}

impl StatusCode {
    /// Decode a wire value; unknown codes map to [`StatusCode::Internal`].
    pub fn from_u32(v: u32) -> StatusCode {
        match v {
            0 => StatusCode::Ok,
            3 => StatusCode::InvalidArgument,
            4 => StatusCode::DeadlineExceeded,
            5 => StatusCode::NotFound,
            6 => StatusCode::AlreadyExists,
            8 => StatusCode::ResourceExhausted,
            9 => StatusCode::FailedPrecondition,
            12 => StatusCode::Unimplemented,
            14 => StatusCode::Unavailable,
            _ => StatusCode::Internal,
        }
    }
}

/// An error status returned by a service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Status {
    /// Machine-readable error class.
    pub code: StatusCode,
    /// Human-readable detail.
    pub message: String,
}

impl Status {
    /// Build a status from a code and message.
    pub fn new(code: StatusCode, message: impl Into<String>) -> Self {
        Status {
            code,
            message: message.into(),
        }
    }

    /// Shorthand for [`StatusCode::NotFound`].
    pub fn not_found(message: impl Into<String>) -> Self {
        Self::new(StatusCode::NotFound, message)
    }

    /// Shorthand for [`StatusCode::InvalidArgument`].
    pub fn invalid_argument(message: impl Into<String>) -> Self {
        Self::new(StatusCode::InvalidArgument, message)
    }

    /// Shorthand for [`StatusCode::Internal`].
    pub fn internal(message: impl Into<String>) -> Self {
        Self::new(StatusCode::Internal, message)
    }

    /// Shorthand for [`StatusCode::Unimplemented`], naming the method.
    pub fn unimplemented(method: MethodId) -> Self {
        Self::new(
            StatusCode::Unimplemented,
            format!("method {method} not implemented"),
        )
    }
}

impl fmt::Display for Status {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}: {}", self.code, self.message)
    }
}

impl std::error::Error for Status {}

/// A unary-call service: decode the request, do the work, encode the reply.
/// Every call runs on its server's reader, which may serve other servers
/// too and reads nothing else meanwhile: a call answers from the
/// service's own state and never waits on another call — to any server,
/// this one included — or neither would finish ([`crate::server::serving`] tells
/// a service's code whether it is serving one).
pub trait Service: Send + Sync {
    /// Handle one unary call.
    fn call(&self, method: MethodId, request: Bytes) -> Result<Bytes, Status>;
}

/// Blanket impl so closures can serve as services in tests.
impl<F> Service for F
where
    F: Fn(MethodId, Bytes) -> Result<Bytes, Status> + Send + Sync,
{
    fn call(&self, method: MethodId, request: Bytes) -> Result<Bytes, Status> {
        self(method, request)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_code_roundtrip() {
        for code in [
            StatusCode::Ok,
            StatusCode::InvalidArgument,
            StatusCode::DeadlineExceeded,
            StatusCode::NotFound,
            StatusCode::AlreadyExists,
            StatusCode::ResourceExhausted,
            StatusCode::FailedPrecondition,
            StatusCode::Internal,
            StatusCode::Unavailable,
            StatusCode::Unimplemented,
        ] {
            assert_eq!(StatusCode::from_u32(code as u32), code);
        }
    }

    #[test]
    fn unknown_code_maps_to_internal() {
        assert_eq!(StatusCode::from_u32(999), StatusCode::Internal);
    }

    #[test]
    fn closure_service() {
        let svc = |method: MethodId, _req: Bytes| -> Result<Bytes, Status> {
            if method == 1 {
                Ok(Bytes::from_static(b"ok"))
            } else {
                Err(Status::unimplemented(method))
            }
        };
        assert_eq!(&Service::call(&svc, 1, Bytes::new()).unwrap()[..], b"ok");
        assert_eq!(
            Service::call(&svc, 2, Bytes::new()).unwrap_err().code,
            StatusCode::Unimplemented
        );
    }
}
