//! Plasma store IPC server.
//!
//! Serves the [`crate::protocol`] to the connections an [`ipc::Listener`]
//! hands it, against an [`ObjectStore`] — either a local
//! [`crate::StoreCore`] or a distributed store. The server has no thread
//! of its own: each connection is served by a thread of its own, started
//! on the thread that made the connection, because a `get` may wait for
//! a seal and a connection that sends `Subscribe` switches to streaming
//! seal notifications.

use crate::api::ObjectStore;
use crate::error::PlasmaError;
use crate::protocol::{Request, Response};
use ipc::{Conn, Listener};
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Cap on the server-side blocking `get` wait, so a client requesting an
/// enormous timeout cannot pin a connection thread forever.
const MAX_GET_WAIT: Duration = Duration::from_secs(600);

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

fn dispatch(store: &Arc<dyn ObjectStore>, req: Request) -> Response {
    let result: Result<Response, PlasmaError> = match req {
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
        Request::Get { ids, timeout_ms } => {
            let timeout = Duration::from_millis(timeout_ms).min(MAX_GET_WAIT);
            store.get(&ids, timeout).map(Response::Locations)
        }
        Request::Release(ids) => store.release_many(&ids).map(|()| Response::Unit),
        Request::Delete(id) => store.delete(id).map(|()| Response::Unit),
        Request::DeleteDeferred(id) => store.delete_deferred(id).map(Response::Bool),
        Request::Abort(id) => store.abort(id).map(|()| Response::Unit),
        Request::Contains(id) => store.contains(id).map(Response::Bool),
        Request::List => store.list().map(Response::List),
        Request::Stats => store.stats().map(Response::Stats),
        Request::Evict(bytes) => store.evict(bytes).map(Response::U64),
        Request::Subscribe => unreachable!("handled by serve_conn"),
    };
    match result {
        Ok(resp) => resp,
        Err(e) => Response::Error(e),
    }
}

fn serve_conn(
    mut conn: Box<dyn Conn>,
    store: Arc<dyn ObjectStore>,
    metrics: Arc<PlasmaServerMetrics>,
) {
    loop {
        let frame = match conn.recv() {
            Ok(f) => f,
            Err(_) => return,
        };
        let req = match Request::from_frame(&frame) {
            Ok(r) => r,
            Err(e) => {
                metrics.errors.fetch_add(1, Ordering::Relaxed);
                let _ = conn.send(&Response::Error(e).to_frame());
                return;
            }
        };
        metrics.requests.fetch_add(1, Ordering::Relaxed);
        if matches!(req, Request::Subscribe) {
            // Subscribe, then acknowledge, so no seal after the ack is
            // missed; stream notifications until the client goes away
            // (detected when a send fails).
            let rx = store.subscribe();
            if conn.send(&Response::Unit.to_frame()).is_err() {
                return;
            }
            while let Ok(loc) = rx.recv() {
                if conn.send(&Response::Notify(loc).to_frame()).is_err() {
                    return;
                }
                metrics.notifications.fetch_add(1, Ordering::Relaxed);
            }
            return;
        }
        let resp = dispatch(&store, req);
        if matches!(resp, Response::Error(_)) {
            metrics.errors.fetch_add(1, Ordering::Relaxed);
        }
        if conn.send(&resp.to_frame()).is_err() {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ObjectId, PlasmaClient, StoreConfig, StoreCore};
    use ipc::InprocHub;
    use std::sync::mpsc;
    use tfsim::Fabric;

    #[test]
    fn a_connection_the_server_cannot_serve_is_refused_and_the_next_is_served() {
        let fabric = Fabric::virtual_thymesisflow();
        let node = fabric.register_node();
        let store = StoreCore::new(&fabric, node, StoreConfig::new("s0", 1 << 20)).unwrap();
        let hub = InprocHub::new();
        let server = serve_store(Box::new(hub.bind("s0").unwrap()), Arc::new(store));
        let dial = || PlasmaClient::new(Box::new(hub.connect("s0").unwrap()), fabric.clone(), node);
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
