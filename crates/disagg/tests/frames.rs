//! A store sends each request as parts — its call header, then the
//! body's parts, for a forwarded put the `CREATE_AT` head (id, sizes
//! and the carries-payload byte), the data and the metadata — and the rpclite
//! envelope writes them into one buffer. The frame that leaves must be
//! byte for byte the one the joined composition makes:
//! `Request { body: CallHeader::frame(body) }.to_frame()`. These tests
//! read the frames node 0 sends node 1 off the wire of a running
//! cluster and rebuild each from that composition.

use bytes::Bytes;
use disagg::proto::{method, CallHeader, CreateAtReq, IdReq, Message};
use disagg::{Cluster, ClusterConfig};
use ipc::fault::{Direction, FaultAction, FaultPolicy};
use ipc::Frame;
use plasma::{ObjectId, INLINE_PUT_MAX};
use rpclite::Request;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Keeps every request frame node 0 sends node 1.
#[derive(Default)]
struct Sent(Mutex<Vec<Frame>>);

impl FaultPolicy for Sent {
    fn on_frame(&self, link: &str, dir: Direction, frame: &Frame) -> FaultAction {
        if link == "0->1" && dir == Direction::Outbound {
            self.0.lock().unwrap().push(frame.clone());
        }
        FaultAction::Deliver
    }
}

/// One two-node cluster for every case, with its wire tapped.
fn cluster() -> &'static (Cluster, Arc<Sent>) {
    static CLUSTER: OnceLock<(Cluster, Arc<Sent>)> = OnceLock::new();
    CLUSTER.get_or_init(|| {
        let sent = Arc::new(Sent::default());
        let mut config = ClusterConfig::functional(2, 32 << 20);
        config.fault_policy = Some(sent.clone());
        (Cluster::launch(config).unwrap(), sent)
    })
}

/// A fresh name for an id node 1 owns.
fn fresh_id(cluster: &Cluster, what: &str) -> ObjectId {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    ObjectId::from_name(&cluster.owned_id(1, &format!("frames/{what}/{n}")))
}

/// The requests node 0 sends node 1 while `act` runs, in order, as
/// (method, frame). One test at a time taps the shared wire.
fn sent_during(act: impl FnOnce()) -> Vec<(u32, Frame)> {
    static TAP: Mutex<()> = Mutex::new(());
    let _turn = TAP.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let (_, sent) = cluster();
    let mut wire = sent.0.lock().unwrap();
    wire.clear();
    drop(wire);
    act();
    let wire = std::mem::take(&mut *sent.0.lock().unwrap());
    let sent = wire.into_iter();
    sent.map(|frame| (Request::from_frame(&frame).unwrap().method, frame))
        .collect()
}

/// The frame the joined composition makes for `frame`'s call: the
/// header framed in front of `body`, then the envelope around that.
fn composed(frame: &Frame, method: u32, body: Bytes) -> Frame {
    let (cluster, _) = cluster();
    let header = CallHeader {
        from: cluster.node_id(0),
    };
    let call_id = Request::from_frame(frame).unwrap().call_id;
    let body = header.frame(&body);
    Request {
        call_id,
        method,
        body,
    }
    .to_frame()
}

/// Put `data` and `metadata` from node 0 under an id node 1 owns, and
/// check the one `CREATE_AT` it sends against the composition.
fn put_frame_is_composed(data: &[u8], metadata: &[u8]) -> Result<(), String> {
    let (cluster, _) = cluster();
    let id = fresh_id(cluster, "put");
    let client = cluster.client(0).unwrap();
    let sent = sent_during(|| {
        client.put(id, data, metadata).unwrap();
    });
    let [(method::CREATE_AT, frame)] = &sent[..] else {
        let methods: Vec<u32> = sent.iter().map(|(m, _)| *m).collect();
        return Err(format!("a put sent {methods:?}, not one CREATE_AT"));
    };
    let req = CreateAtReq {
        id,
        data_size: data.len() as u64,
        metadata_size: metadata.len() as u64,
        payload: Some(Bytes::from([data, metadata].concat())),
    };
    if *frame != composed(frame, method::CREATE_AT, req.encode()) {
        return Err(format!(
            "the CREATE_AT of {} + {} bytes differs from its composition",
            data.len(),
            metadata.len()
        ));
    }
    Ok(())
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

    /// Every split of a payload of up to `INLINE_PUT_MAX` bytes between
    /// data and metadata frames as the composition does.
    #[test]
    fn a_forwarded_put_frames_as_its_joined_composition(
        len in 0usize..INLINE_PUT_MAX + 1,
        split in proptest::prelude::any::<usize>(),
        fill in proptest::prelude::any::<u8>(),
    ) {
        let payload: Vec<u8> = (0..len).map(|i| fill.wrapping_add(i as u8)).collect();
        let (data, metadata) = payload.split_at(split % (len + 1));
        put_frame_is_composed(data, metadata).map_err(proptest::TestCaseError::fail)?;
    }
}

/// The edges the random splits rarely reach: an empty put, empty data,
/// empty metadata, and the largest put that is inlined.
#[test]
fn empty_parts_and_the_largest_inlined_put_frame_as_their_composition() {
    let bytes: Vec<u8> = (0..INLINE_PUT_MAX).map(|i| (i * 13) as u8).collect();
    for (data, metadata) in [
        (&bytes[..0], &bytes[..0]),
        (&bytes[..0], &bytes[..300]),
        (&bytes[..300], &bytes[..0]),
        (&bytes[..], &bytes[..0]),
        (&bytes[..INLINE_PUT_MAX - 17], &bytes[..17]),
    ] {
        put_frame_is_composed(data, metadata).unwrap();
    }
}

/// A staged create and its abort: a `CREATE_AT` with no payload, and an
/// id-only verb.
#[test]
fn a_staged_create_and_an_id_only_verb_frame_as_their_composition() {
    let (cluster, _) = cluster();
    let id = fresh_id(cluster, "staged");
    let client = cluster.client(0).unwrap();
    let sent = sent_during(|| client.create(id, 7, 3).unwrap().abort().unwrap());
    let [(method::CREATE_AT, create), (method::ABORT_AT, abort)] = &sent[..] else {
        let methods: Vec<u32> = sent.iter().map(|(m, _)| *m).collect();
        panic!("a create and its abort sent {methods:?}");
    };
    let staged = CreateAtReq {
        id,
        data_size: 7,
        metadata_size: 3,
        payload: None,
    };
    assert!(*create == composed(create, method::CREATE_AT, staged.encode()));
    assert!(*abort == composed(abort, method::ABORT_AT, IdReq { id }.encode()));
}
