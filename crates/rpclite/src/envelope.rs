//! RPC envelope: how requests and responses ride inside [`ipc::Frame`]s.
//!
//! Encoded with the protobuf-style wire format from [`crate::wire`],
//! mirroring a gRPC unary exchange stripped to its essentials.
//!
//! ## Integrity
//!
//! The frame payload is `crc32(E)` — CRC-32C, 4 bytes, little-endian —
//! followed by the encoded envelope `E`. The checksum is verified before
//! decoding, so bytes corrupted in transit surface as
//! [`WireError::Checksum`] — a protocol error that poisons the
//! connection — rather than decoding into a plausible envelope and,
//! worst of all, completing the wrong pending `call_id` on a pipelined
//! client. CRC-32C detects all single- and double-bit errors at every
//! envelope size (an inlined put's included), which is exactly the
//! corruption class a flaky wire (or a chaos harness) injects. It is
//! computed on the CPU's `crc32` instruction where there is one
//! ([`crate::wire::crc32`]), since each side checksums every byte.
//!
//! A frame is built once: the encoder reserves the checksum's four bytes
//! at the front of its buffer, and the checksum is written there once the
//! envelope is complete, so a body carried in the envelope (an inlined
//! put's payload) is copied into exactly one buffer. A request body may
//! come in parts ([`Request::frame`]) — a call header, a message's
//! fields, the payload they describe — which are written back to back
//! into that buffer and never joined beforehand.

use crate::service::{Status, StatusCode};
use crate::wire::{crc32, MsgDec, MsgEnc, WireError};
use bytes::{Buf, Bytes};
use ipc::Frame;

/// Width of the checksum that starts every frame payload.
const CRC_LEN: usize = 4;

/// The most an envelope's own fields take beside its body or message:
/// three one-byte tags and three varints of at most ten bytes.
const ENVELOPE_FIELDS_MAX: usize = 3 + 3 * 10;

/// An envelope encoder for a body or message of `body_len` bytes. Its
/// buffer starts with room for the checksum and has room for the whole
/// frame payload, so the frame is built in this one buffer.
fn envelope_enc(body_len: usize) -> MsgEnc {
    MsgEnc::after_reserved(CRC_LEN, ENVELOPE_FIELDS_MAX + body_len)
}

/// Write the checksum of the encoded envelope into the prefix
/// [`envelope_enc`] reserved, and frame the buffer as it stands.
fn seal_frame(msg_type: u32, e: MsgEnc) -> Frame {
    let mut payload = e.into_buf();
    let crc = crc32(&payload[CRC_LEN..]);
    payload[..CRC_LEN].copy_from_slice(&crc.to_le_bytes());
    Frame::new(msg_type, payload.freeze())
}

/// Verify and strip the checksum prefix, returning the envelope bytes.
fn open_frame(frame: &Frame) -> Result<Bytes, WireError> {
    if frame.payload.len() < 4 {
        return Err(WireError::Truncated);
    }
    let mut payload = frame.payload.clone();
    let stated = payload.get_u32_le();
    if crc32(&payload) != stated {
        return Err(WireError::Checksum);
    }
    Ok(payload)
}

/// Frame type tag marking a request envelope ("RQ").
pub const FRAME_REQUEST: u32 = 0x5251;
/// Frame type tag marking a response envelope ("RP").
pub const FRAME_RESPONSE: u32 = 0x5250;

/// A unary request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Correlation id: echoed back verbatim in the matching [`Response`],
    /// letting a pipelined client demultiplex out-of-order completions.
    pub call_id: u64,
    /// Method id dispatched by the service.
    pub method: u32,
    /// Opaque request payload.
    pub body: Bytes,
}

impl Request {
    /// Encode into a [`FRAME_REQUEST`] frame.
    pub fn to_frame(&self) -> Frame {
        Self::frame(self.call_id, self.method, &[&self.body])
    }

    /// The [`FRAME_REQUEST`] frame of a request whose body is `parts`
    /// back to back: byte for byte the frame of the request carrying
    /// their concatenation, written without joining them first, so each
    /// part is copied once, into the frame's one buffer.
    pub fn frame(call_id: u64, method: u32, parts: &[&[u8]]) -> Frame {
        let mut e = envelope_enc(parts.iter().map(|p| p.len()).sum());
        e.uint(1, call_id)
            .uint(2, u64::from(method))
            .bytes_concat(3, parts);
        seal_frame(FRAME_REQUEST, e)
    }

    /// Decode from a frame's payload, verifying its integrity checksum.
    pub fn from_frame(frame: &Frame) -> Result<Request, WireError> {
        let fields = MsgDec::new(open_frame(frame)?).collect()?;
        Ok(Request {
            call_id: fields.uint(1)?,
            method: u32::try_from(fields.uint(2)?).map_err(|_| WireError::MissingField(2))?,
            body: fields.bytes(3).unwrap_or_default(),
        })
    }
}

/// A unary response: either a body (Ok) or a status.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Correlation id of the [`Request`] this response answers.
    pub call_id: u64,
    /// Response body on success, error status otherwise.
    pub result: Result<Bytes, Status>,
}

impl Response {
    /// Encode into a [`FRAME_RESPONSE`] frame.
    pub fn to_frame(&self) -> Frame {
        let mut e = envelope_enc(match &self.result {
            Ok(body) => body.len(),
            Err(status) => status.message.len(),
        });
        e.uint(1, self.call_id);
        match &self.result {
            Ok(body) => {
                e.uint(2, StatusCode::Ok as u64);
                e.bytes(4, body);
            }
            Err(status) => {
                e.uint(2, status.code as u64);
                e.string(3, &status.message);
            }
        }
        seal_frame(FRAME_RESPONSE, e)
    }

    /// Decode from a frame's payload, verifying its integrity checksum.
    pub fn from_frame(frame: &Frame) -> Result<Response, WireError> {
        let fields = MsgDec::new(open_frame(frame)?).collect()?;
        let call_id = fields.uint(1)?;
        let code = StatusCode::from_u32(
            u32::try_from(fields.uint(2)?).map_err(|_| WireError::MissingField(2))?,
        );
        let result = if code == StatusCode::Ok {
            Ok(fields.bytes(4).unwrap_or_default())
        } else {
            Err(Status::new(code, fields.string(3).unwrap_or_default()))
        };
        Ok(Response { call_id, result })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip() {
        let r = Request {
            call_id: 77,
            method: 3,
            body: Bytes::from_static(b"payload"),
        };
        let back = Request::from_frame(&r.to_frame()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn ok_response_roundtrip() {
        let r = Response {
            call_id: 9,
            result: Ok(Bytes::from_static(b"result")),
        };
        assert_eq!(Response::from_frame(&r.to_frame()).unwrap(), r);
    }

    #[test]
    fn error_response_roundtrip() {
        let r = Response {
            call_id: 9,
            result: Err(Status::not_found("no such object")),
        };
        assert_eq!(Response::from_frame(&r.to_frame()).unwrap(), r);
    }

    #[test]
    fn empty_body_roundtrip() {
        let r = Request {
            call_id: 0,
            method: 0,
            body: Bytes::new(),
        };
        assert_eq!(Request::from_frame(&r.to_frame()).unwrap(), r);
    }

    #[test]
    fn garbage_payload_is_rejected() {
        let f = Frame::new(FRAME_REQUEST, Bytes::from_static(&[0xFF; 3]));
        assert!(Request::from_frame(&f).is_err());
    }

    #[test]
    fn every_single_bit_flip_is_rejected() {
        let frame = Response {
            call_id: 0xDEAD_BEEF,
            result: Ok(Bytes::from_static(b"payload under test")),
        }
        .to_frame();
        for byte in 0..frame.payload.len() {
            for bit in 0..8 {
                let mut corrupted = frame.payload.to_vec();
                corrupted[byte] ^= 1 << bit;
                let f = Frame::new(frame.msg_type, corrupted);
                assert!(
                    Response::from_frame(&f).is_err(),
                    "flip at {byte}:{bit} decoded"
                );
            }
        }
    }

    /// A frame carrying a 256 KiB body — the largest inlined put — with
    /// one or two flipped bits, at sampled positions anywhere in the
    /// payload (checksum prefix included), fails its checksum.
    #[test]
    fn sampled_bit_flips_in_a_256_kib_frame_are_rejected() {
        let frame = Request {
            call_id: 11,
            method: 11,
            body: Bytes::from((0..256 << 10).map(|i| (i * 7) as u8).collect::<Vec<_>>()),
        }
        .to_frame();
        let bits = frame.payload.len() * 8;
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut sample = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x as usize % bits
        };
        let rejected = |flips: &[usize]| {
            let mut corrupted = frame.payload.to_vec();
            for &bit in flips {
                corrupted[bit / 8] ^= 1 << (bit % 8);
            }
            let f = Frame::new(frame.msg_type, corrupted);
            Request::from_frame(&f) == Err(WireError::Checksum)
        };
        for _ in 0..200 {
            let bit = sample();
            assert!(rejected(&[bit]), "flip at bit {bit}");
            // A second flip far away, and one inside the same 32-bit burst.
            let (far, near) = (sample(), (bit + 1 + sample() % 31) % bits);
            for other in [far, near] {
                if other != bit {
                    assert!(rejected(&[bit, other]), "flips at bits {bit}, {other}");
                }
            }
        }
        for ends in [[0, 1], [0, bits - 1], [bits - 2, bits - 1]] {
            assert!(rejected(&ends), "flips at bits {ends:?}");
        }
    }

    /// The reference a frame payload must equal byte for byte: the
    /// envelope encoded in a buffer of its own, then copied behind its
    /// checksum into a second one.
    fn two_buffer_payload(envelope: MsgEnc) -> Vec<u8> {
        let envelope = envelope.finish();
        let mut payload = crc32(&envelope).to_le_bytes().to_vec();
        payload.extend_from_slice(&envelope);
        payload
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// Building a frame in one buffer changes no byte of it: a
        /// request, an answer and an error status each equal the
        /// 4-byte little-endian `crc32(E)` followed by `E`, at every body
        /// size up to past the largest inlined put.
        #[test]
        fn frames_equal_their_two_buffer_encoding(
            call_id in proptest::prelude::any::<u64>(),
            method in proptest::prelude::any::<u32>(),
            len in 0usize..300 << 10,
            fill in proptest::prelude::any::<u8>(),
        ) {
            let body = Bytes::from(vec![fill; len]);
            let request = Request { call_id, method, body: body.clone() }.to_frame();
            let mut e = MsgEnc::new();
            e.uint(1, call_id).uint(2, u64::from(method)).bytes(3, &body);
            proptest::prop_assert_eq!(request.msg_type, FRAME_REQUEST);
            proptest::prop_assert!(request.payload == two_buffer_payload(e));

            let ok = Response { call_id, result: Ok(body.clone()) }.to_frame();
            let mut e = MsgEnc::new();
            e.uint(1, call_id).uint(2, StatusCode::Ok as u64).bytes(4, &body);
            proptest::prop_assert_eq!(ok.msg_type, FRAME_RESPONSE);
            proptest::prop_assert!(ok.payload == two_buffer_payload(e));

            let message = "m".repeat(len % 512);
            let status = Status::new(StatusCode::from_u32(1 + method % 15), message.clone());
            let err = Response { call_id, result: Err(status.clone()) }.to_frame();
            let mut e = MsgEnc::new();
            e.uint(1, call_id).uint(2, status.code as u64).string(3, &message);
            proptest::prop_assert!(err.payload == two_buffer_payload(e));
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// A body in parts frames exactly as the request carrying their
        /// concatenation does, wherever it is cut, empty parts included.
        #[test]
        fn a_body_in_parts_frames_as_its_concatenation(
            call_id in proptest::prelude::any::<u64>(),
            method in proptest::prelude::any::<u32>(),
            body in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..4096),
            cuts in (proptest::prelude::any::<usize>(), proptest::prelude::any::<usize>()),
        ) {
            let (a, b) = (cuts.0 % (body.len() + 1), cuts.1 % (body.len() + 1));
            let (a, b) = (a.min(b), a.max(b));
            let parts = [&body[..a], &body[a..b], &[][..], &body[b..]];
            let whole = Request { call_id, method, body: Bytes::from(body.clone()) }.to_frame();
            proptest::prop_assert!(Request::frame(call_id, method, &parts) == whole);
        }
    }

    #[test]
    fn every_truncation_is_rejected() {
        let frame = Request {
            call_id: 42,
            method: 9,
            body: Bytes::from_static(b"truncate me"),
        }
        .to_frame();
        for keep in 0..frame.payload.len() {
            let f = Frame::new(
                frame.msg_type,
                Bytes::copy_from_slice(&frame.payload[..keep]),
            );
            assert!(Request::from_frame(&f).is_err(), "kept {keep} decoded");
        }
    }

    #[test]
    fn corruption_reports_checksum_error() {
        let frame = Request {
            call_id: 7,
            method: 1,
            body: Bytes::from_static(b"x"),
        }
        .to_frame();
        let mut corrupted = frame.payload.to_vec();
        let last = corrupted.len() - 1;
        corrupted[last] ^= 0x10;
        let f = Frame::new(frame.msg_type, corrupted);
        assert_eq!(Request::from_frame(&f).unwrap_err(), WireError::Checksum);
    }
}
