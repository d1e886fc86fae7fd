//! Plasma store IPC server.
//!
//! Accepts client connections on any [`ipc::Listener`] and services the
//! [`crate::protocol`] against an [`ObjectStore`] — either a local
//! [`crate::StoreCore`] or a distributed store. One thread per connection;
//! a connection that sends `Subscribe` switches to streaming seal
//! notifications.

use crate::api::ObjectStore;
use crate::error::PlasmaError;
use crate::protocol::{Request, Response};
use ipc::{Conn, Listener, StopHandle};
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
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

/// Handle to a running Plasma store server; stops accepting on drop.
pub struct PlasmaServer {
    stop: StopHandle,
    accept_thread: Option<JoinHandle<()>>,
    metrics: Arc<PlasmaServerMetrics>,
    addr: String,
}

impl PlasmaServer {
    pub fn addr(&self) -> &str {
        &self.addr
    }

    pub fn metrics(&self) -> &PlasmaServerMetrics {
        &self.metrics
    }

    /// Stop accepting new connections; existing connections drain when
    /// their clients disconnect.
    pub fn shutdown(&mut self) {
        self.stop.stop();
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for PlasmaServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Spawn a store server on `listener`, backed by `store`.
pub fn serve_store(mut listener: Box<dyn Listener>, store: Arc<dyn ObjectStore>) -> PlasmaServer {
    let stop = listener.stop_handle();
    let metrics = Arc::new(PlasmaServerMetrics::default());
    let addr = listener.addr();
    let accept_metrics = Arc::clone(&metrics);
    let accept_thread = std::thread::Builder::new()
        .name(format!("plasma-accept:{addr}"))
        .spawn(move || loop {
            match listener.accept() {
                Ok(conn) => {
                    accept_metrics.connections.fetch_add(1, Ordering::Relaxed);
                    let s = Arc::clone(&store);
                    let m = Arc::clone(&accept_metrics);
                    std::thread::Builder::new()
                        .name("plasma-conn".to_string())
                        .spawn(move || serve_conn(conn, s, m))
                        .expect("spawn plasma connection thread");
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => return,
                Err(_) => return,
            }
        })
        .expect("spawn plasma accept thread");
    PlasmaServer {
        stop,
        accept_thread: Some(accept_thread),
        metrics,
        addr,
    }
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
