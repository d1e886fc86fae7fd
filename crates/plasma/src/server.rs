//! Plasma store IPC server.
//!
//! Serves the [`crate::protocol`] to the connections an [`ipc::Listener`]
//! hands it, against an [`ObjectStore`] — either a local
//! [`crate::StoreCore`] or a distributed store. The server has no thread
//! of its own: each connection is served by a thread of its own, started
//! on the thread that made the connection, because a `get` may wait for
//! a seal and a connection that sends `Subscribe` switches to streaming
//! seal notifications.
//!
//! A `Get` and a `Release`, the requests every read makes, are served in
//! place: their id lists are read off the frame into a list the
//! connection keeps, a get's locations are filled into a slot list it
//! keeps too, and the answer is written from those slots into one
//! right-sized frame, each slot's tag byte saying whether the store
//! pinned it in its own table, where the client may post its release
//! instead of requesting it ([`crate::ReleaseRing`]). Once a connection
//! has served its largest batch, its store-side work allocates nothing
//! but the answer's frame. Every other request is decoded into a
//! [`Request`] and answered with a [`Response`].

use crate::api::ObjectStore;
use crate::error::PlasmaError;
use crate::protocol::{
    locations_frame, read_get, read_release, tag, unit_frame, Request, Response,
};
use ipc::{Conn, Dec, Frame, Listener};
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Cap on the server-side blocking `get` wait, so a client requesting an
/// enormous timeout cannot pin a connection thread forever.
const MAX_GET_WAIT: Duration = Duration::from_secs(600);

/// Ids a connection's scratch lists keep room for between requests: the
/// room a larger batch took goes back once it is answered.
const KEEP_IDS: usize = 1024;

/// Counters for a running store server.
#[derive(Debug, Default)]
pub struct PlasmaServerMetrics {
    pub requests: AtomicU64,
    pub errors: AtomicU64,
    pub connections: AtomicU64,
    pub notifications: AtomicU64,
}

/// Handle to a running Plasma store server. Dropping it unbinds the
/// store's name, so no new client connects; each connection already
/// made is served until its client disconnects.
pub struct PlasmaServer {
    _listener: Box<dyn Listener>,
    metrics: Arc<PlasmaServerMetrics>,
}

impl PlasmaServer {
    pub fn metrics(&self) -> &PlasmaServerMetrics {
        &self.metrics
    }
}

/// Serve the store `store` on `listener`: each connection it hands over
/// gets a `plasma-conn` thread.
pub fn serve_store(mut listener: Box<dyn Listener>, store: Arc<dyn ObjectStore>) -> PlasmaServer {
    let metrics = Arc::new(PlasmaServerMetrics::default());
    listener.hand_to(Box::new({
        let metrics = Arc::clone(&metrics);
        move |conn| {
            metrics.connections.fetch_add(1, Ordering::Relaxed);
            let (s, m) = (Arc::clone(&store), Arc::clone(&metrics));
            if spawn_conn(move || serve_conn(conn, s, m)).is_err() {
                // Refuse the connection, not the server: the dropped
                // closure held its only handle, so the client's call
                // fails at once, and the next connection is served.
                metrics.errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }));
    PlasmaServer {
        _listener: listener,
        metrics,
    }
}

/// Start a connection thread. A spawn the system refuses (out of threads
/// or memory mappings) is an error the caller answers: a panic here
/// would unwind into the thread that connected.
fn spawn_conn(body: impl FnOnce() + Send + 'static) -> io::Result<()> {
    #[cfg(test)]
    if REFUSE_NEXT_SPAWN.with(|refuse| refuse.replace(false)) {
        return Err(io::ErrorKind::WouldBlock.into());
    }
    std::thread::Builder::new()
        .name("plasma-conn".to_string())
        .spawn(body)
        .map(drop)
}

#[cfg(test)]
thread_local! {
    /// Whether the current thread's next spawn fails, as it does when the
    /// system is out of threads.
    static REFUSE_NEXT_SPAWN: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// The answer to a request that is neither a `Get` nor a `Release` (served
/// in place by [`serve_conn`]) nor a `Subscribe` (which turns the
/// connection into a notification stream).
fn dispatch(store: &dyn ObjectStore, req: Request) -> Result<Response, PlasmaError> {
    match req {
        Request::Create {
            id,
            data_size,
            metadata_size,
        } => store
            .create(id, data_size, metadata_size)
            .map(Response::Location),
        Request::Seal(id) => store.seal(id).map(Response::Location),
        Request::Put { id, data, metadata } => {
            store.put(id, &data, &metadata).map(Response::Location)
        }
        Request::Delete(id) => store.delete(id).map(|()| Response::Unit),
        Request::DeleteDeferred(id) => store.delete_deferred(id).map(Response::Bool),
        Request::Abort(id) => store.abort(id).map(|()| Response::Unit),
        Request::Contains(id) => store.contains(id).map(Response::Bool),
        Request::List => store.list().map(Response::List),
        Request::Stats => store.stats().map(Response::Stats),
        Request::Evict(bytes) => store.evict(bytes).map(Response::U64),
        Request::Get { .. } | Request::Release(_) | Request::Subscribe => {
            unreachable!("served by serve_conn")
        }
    }
}

fn serve_conn(
    mut conn: Box<dyn Conn>,
    store: Arc<dyn ObjectStore>,
    metrics: Arc<PlasmaServerMetrics>,
) {
    // The id list and the slot list every `Get` and `Release` on this
    // connection reuses.
    let mut ids = Vec::new();
    let mut slots = Vec::new();
    loop {
        let frame = match conn.recv() {
            Ok(f) => f,
            Err(_) => return,
        };
        // The outer error is a request that could not be read: it is
        // answered, and the connection closed.
        let answer: Result<Result<Frame, PlasmaError>, PlasmaError> = match frame.msg_type {
            tag::GET => read_get(Dec::new(frame.payload.clone()), &mut ids).map(|timeout_ms| {
                let timeout = Duration::from_millis(timeout_ms).min(MAX_GET_WAIT);
                let got = store.get_into(&ids, timeout, &mut slots);
                got.map(|()| locations_frame(&slots))
            }),
            tag::RELEASE => read_release(Dec::new(frame.payload.clone()), &mut ids)
                .map(|()| store.release_many(&ids).map(|()| unit_frame())),
            _ => match Request::from_frame(&frame) {
                Ok(Request::Subscribe) => {
                    metrics.requests.fetch_add(1, Ordering::Relaxed);
                    return stream_seals(conn, &*store, &metrics);
                }
                req => req.map(|req| dispatch(&*store, req).map(|resp| resp.to_frame())),
            },
        };
        let answer = match answer {
            Ok(answer) => answer,
            Err(e) => {
                metrics.errors.fetch_add(1, Ordering::Relaxed);
                let _ = conn.send(&Response::Error(e).to_frame());
                return;
            }
        };
        metrics.requests.fetch_add(1, Ordering::Relaxed);
        let reply = answer.unwrap_or_else(|e| {
            metrics.errors.fetch_add(1, Ordering::Relaxed);
            Response::Error(e).to_frame()
        });
        if conn.send(&reply).is_err() {
            return;
        }
        ids.clear();
        ids.shrink_to(KEEP_IDS);
        slots.clear();
        slots.shrink_to(KEEP_IDS);
    }
}

/// Subscribe, then acknowledge, so no seal after the ack is missed;
/// stream notifications until the client goes away (detected when a
/// send fails).
fn stream_seals(mut conn: Box<dyn Conn>, store: &dyn ObjectStore, metrics: &PlasmaServerMetrics) {
    let rx = store.subscribe();
    if conn.send(&unit_frame()).is_err() {
        return;
    }
    while let Ok(loc) = rx.recv() {
        if conn.send(&Response::Notify(loc).to_frame()).is_err() {
            return;
        }
        metrics.notifications.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::MAX_IDS;
    use crate::{ObjectId, PlasmaClient, StoreConfig, StoreCore, OBJECT_ID_LEN};
    use bytes::Bytes;
    use ipc::{Enc, InprocHub};
    use std::sync::mpsc;
    use tfsim::Fabric;

    /// A `Get` or a `Release` the server reads in place is refused as
    /// `Request::from_frame` refuses it: every proper prefix, one byte
    /// more, a count above the limit or past the frame, and a release of
    /// no id are each answered with a protocol error, and the connection
    /// is closed. The next connection is served.
    #[test]
    fn an_unreadable_get_or_release_is_refused_and_its_connection_closed() {
        let fabric = Fabric::virtual_thymesisflow();
        let node = fabric.register_node();
        let store = StoreCore::new(&fabric, node, StoreConfig::new("s0", 1 << 20)).unwrap();
        let ring = store.release_ring();
        let hub = InprocHub::new();
        let server = serve_store(Box::new(hub.bind("s0").unwrap()), Arc::new(store));

        let ids: Vec<ObjectId> = (0..3).map(|n| ObjectId::from_bytes([n; 20])).collect();
        let get = Request::Get {
            ids: ids.clone(),
            timeout_ms: 0,
        };
        let mut refused = Vec::new();
        for whole in [get.to_frame(), Request::Release(ids).to_frame()] {
            for cut in 0..whole.payload.len() {
                refused.push(Frame::new(whole.msg_type, whole.payload.slice(..cut)));
            }
            let mut longer = whole.payload.to_vec();
            longer.push(0);
            refused.push(Frame::new(whole.msg_type, Bytes::from(longer)));
        }
        // A request listing `count` ids, of which `listed` follow.
        let listing = |msg_type: u32, count: u64, listed: usize| {
            let mut e = Enc::new();
            if msg_type == tag::GET {
                e.u64(0);
            }
            e.u64(count).fixed(&vec![7; listed * OBJECT_ID_LEN]);
            Frame::new(msg_type, e.finish())
        };
        for msg_type in [tag::GET, tag::RELEASE] {
            refused.push(listing(msg_type, MAX_IDS as u64 + 1, 1));
            refused.push(listing(msg_type, MAX_IDS as u64, 2));
            refused.push(listing(msg_type, u64::MAX, 0));
        }
        refused.push(listing(tag::RELEASE, 0, 0));

        for frame in &refused {
            assert!(Request::from_frame(frame).is_err(), "{frame:?}");
            let mut conn = hub.connect("s0").unwrap();
            conn.send(frame).unwrap();
            let answer = Response::from_frame(&conn.recv().unwrap()).unwrap();
            assert!(
                matches!(answer, Response::Error(PlasmaError::Protocol(_))),
                "{frame:?} answered {answer:?}"
            );
            assert!(conn.recv().is_err(), "{frame:?} left its connection open");
        }
        let m = server.metrics();
        assert_eq!(m.errors.load(Ordering::Relaxed), refused.len() as u64);
        assert_eq!(m.requests.load(Ordering::Relaxed), 0);

        let conn = Box::new(hub.connect("s0").unwrap());
        let client = PlasmaClient::new(conn, ring, fabric, node);
        let id = ObjectId::from_name("served");
        client.put(id, b"after the refusals", &[]).unwrap();
        let got = client.get_one(id, Duration::ZERO).unwrap();
        assert_eq!(got.read_all().unwrap(), b"after the refusals");
        client.release(id).unwrap();
    }

    #[test]
    fn a_connection_the_server_cannot_serve_is_refused_and_the_next_is_served() {
        let fabric = Fabric::virtual_thymesisflow();
        let node = fabric.register_node();
        let store = StoreCore::new(&fabric, node, StoreConfig::new("s0", 1 << 20)).unwrap();
        let ring = store.release_ring();
        let hub = InprocHub::new();
        let server = serve_store(Box::new(hub.bind("s0").unwrap()), Arc::new(store));
        let dial = || {
            let conn = Box::new(hub.connect("s0").unwrap());
            PlasmaClient::new(conn, ring.clone(), fabric.clone(), node)
        };
        let id = ObjectId::from_name("refused");

        // The server's connection thread is started on the dialling
        // thread, so this one's next spawn is the one refused.
        REFUSE_NEXT_SPAWN.with(|refuse| refuse.set(true));
        let refused = dial();
        let (done, outcome) = mpsc::channel();
        std::thread::spawn(move || {
            let _ = done.send(refused.contains(id));
        });
        let err = outcome
            .recv_timeout(Duration::from_secs(10))
            .expect("a request on a refused connection must fail, not hang")
            .unwrap_err();
        assert!(matches!(err, PlasmaError::Transport(_)), "got {err}");
        assert_eq!(server.metrics().errors.load(Ordering::Relaxed), 1);

        assert!(!dial().contains(id).unwrap());
        assert_eq!(server.metrics().connections.load(Ordering::Relaxed), 2);
        assert_eq!(server.metrics().requests.load(Ordering::Relaxed), 1);
    }
}
