//! Message framing.
//!
//! Every message exchanged between Plasma clients, stores and peer stores
//! is one [`Frame`]: a message-type tag and a payload. The in-process
//! transport moves frames whole, so a frame has no byte encoding of its
//! own.

use bytes::Bytes;

/// One framed message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Protocol-defined message type tag.
    pub msg_type: u32,
    /// Opaque payload (decoded by the protocol layer).
    pub payload: Bytes,
}

impl Frame {
    pub fn new(msg_type: u32, payload: impl Into<Bytes>) -> Self {
        Frame {
            msg_type,
            payload: payload.into(),
        }
    }
}
