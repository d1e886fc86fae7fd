//! Property-based tests of the RPC envelope: every request and response
//! round-trips, arbitrary bytes never panic the decoder, and a flipped,
//! cut or rewritten byte never decodes into a different envelope.

use bytes::Bytes;
use proptest::prelude::*;
use rpclite::envelope::{FRAME_REQUEST, FRAME_RESPONSE};
use rpclite::{Request, Response, Status, StatusCode};

proptest! {
    /// Arbitrary bytes in a frame of either type decode or fail, and
    /// never panic.
    #[test]
    fn decoder_never_panics_on_garbage(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = Request::from_frame(&ipc::Frame::new(FRAME_REQUEST, data.clone()));
        let _ = Response::from_frame(&ipc::Frame::new(FRAME_RESPONSE, data));
    }

    #[test]
    fn rpc_request_roundtrip(
        call_id in any::<u64>(),
        method in any::<u32>(),
        body in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let req = Request { call_id, method, body: body.into() };
        let back = Request::from_frame(&req.to_frame()).unwrap();
        prop_assert_eq!(back, req);
    }

    #[test]
    fn rpc_response_roundtrip(
        call_id in any::<u64>(),
        ok in any::<bool>(),
        payload in proptest::collection::vec(any::<u8>(), 0..512),
        code in 1u32..16, // code 0 (Ok) cannot be an error status, as in gRPC
        msg in "\\PC{0,48}",
    ) {
        let result = if ok {
            Ok(Bytes::from(payload))
        } else {
            Err(Status::new(StatusCode::from_u32(code), msg))
        };
        let resp = Response { call_id, result };
        let back = Response::from_frame(&resp.to_frame()).unwrap();
        prop_assert_eq!(back, resp);
    }

    /// Wire-level corruption must surface as a protocol error: a frame
    /// with up to two flipped bits never decodes (CRC-32 guarantees
    /// detection at these sizes), so it can never complete a different
    /// pending `call_id` than the one it was sent for.
    #[test]
    fn bit_flipped_response_frames_never_decode(
        call_id in any::<u64>(),
        payload in proptest::collection::vec(any::<u8>(), 0..256),
        flip_a in any::<usize>(),
        flip_b in any::<usize>(),
        double_flip in any::<bool>(),
    ) {
        let frame = Response { call_id, result: Ok(Bytes::from(payload)) }.to_frame();
        let bits = frame.payload.len() * 8;
        let mut corrupted = frame.payload.to_vec();
        let a = flip_a % bits;
        corrupted[a / 8] ^= 1 << (a % 8);
        let b = flip_b % bits;
        if double_flip && b != a {
            corrupted[b / 8] ^= 1 << (b % 8);
        }
        let f = ipc::Frame::new(frame.msg_type, corrupted);
        prop_assert!(Response::from_frame(&f).is_err());
    }

    /// Truncated frames are always a protocol error, at every cut point.
    #[test]
    fn truncated_request_frames_never_decode(
        call_id in any::<u64>(),
        method in any::<u32>(),
        body in proptest::collection::vec(any::<u8>(), 0..256),
        cut in any::<usize>(),
    ) {
        let frame = Request { call_id, method, body: body.into() }.to_frame();
        let keep = cut % frame.payload.len(); // strictly shorter
        let f = ipc::Frame::new(
            frame.msg_type,
            Bytes::copy_from_slice(&frame.payload[..keep]),
        );
        prop_assert!(Request::from_frame(&f).is_err());
    }

    /// Both envelope types decode strictly: no proper prefix of a frame
    /// and no frame with a byte appended decodes, and an error status
    /// whose message is not UTF-8 is an error, not a message.
    #[test]
    fn cut_or_padded_envelopes_never_decode(
        call_id in any::<u64>(),
        word in any::<u32>(),
        body in proptest::collection::vec(any::<u8>(), 0..64),
        extra in any::<u8>(),
    ) {
        let request = Request { call_id, method: word, body: Bytes::from(body.clone()) }.to_frame();
        let status = Status::new(StatusCode::from_u32(1 + word % 15), "m");
        let responses = [
            Response { call_id, result: Ok(Bytes::from(body)) }.to_frame(),
            Response { call_id, result: Err(status) }.to_frame(),
        ];
        let decodes = |f: &ipc::Frame| match f.msg_type {
            FRAME_REQUEST => Request::from_frame(f).is_ok(),
            _ => Response::from_frame(f).is_ok(),
        };
        for frame in responses.iter().chain([&request]) {
            prop_assert!(decodes(frame));
            for keep in 0..frame.payload.len() {
                let cut = ipc::Frame::new(frame.msg_type, frame.payload.slice(..keep));
                prop_assert!(!decodes(&cut), "cut to {keep}");
            }
            let padded = [&frame.payload[..], &[extra]].concat();
            prop_assert!(!decodes(&ipc::Frame::new(frame.msg_type, padded)));
        }
        // A checksummed error frame whose message is not UTF-8.
        let mut envelope = call_id.to_le_bytes().to_vec();
        envelope.extend_from_slice(&(StatusCode::NotFound as u32).to_le_bytes());
        envelope.extend_from_slice(&[0xFF, 0xFE]);
        let mut payload = rpclite::wire::crc32(&envelope).to_le_bytes().to_vec();
        payload.extend_from_slice(&envelope);
        prop_assert!(!decodes(&ipc::Frame::new(FRAME_RESPONSE, payload)));
    }

    /// Arbitrary corruption (any byte rewritten) either errors or decodes
    /// to exactly the original message — never panics, and never yields a
    /// *different* envelope that could be mis-delivered.
    #[test]
    fn corrupted_frames_never_misdeliver(
        call_id in any::<u64>(),
        body in proptest::collection::vec(any::<u8>(), 0..128),
        index in any::<usize>(),
        value in any::<u8>(),
    ) {
        let original = Response { call_id, result: Ok(Bytes::from(body)) };
        let frame = original.to_frame();
        let mut corrupted = frame.payload.to_vec();
        let i = index % corrupted.len();
        corrupted[i] = value;
        let f = ipc::Frame::new(frame.msg_type, corrupted);
        match Response::from_frame(&f) {
            Err(_) => {}
            Ok(decoded) => prop_assert_eq!(decoded, original),
        }
    }
}
