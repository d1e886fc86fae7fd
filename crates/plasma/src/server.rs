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
                    if spawn_conn(move || serve_conn(conn, s, m)).is_err() {
                        // Refuse the connection, not the server: the
                        // dropped closure held its only handle, so the
                        // client's call fails at once, and the loop keeps
                        // accepting.
                        accept_metrics.errors.fetch_add(1, Ordering::Relaxed);
                    }
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

/// Start a connection thread. A spawn the system refuses (out of threads
/// or memory mappings) is an error the accept loop answers: a panic here
/// would end it, and no later client would ever be served.
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

    /// Accepts from `.0`, and has the accepting thread refuse the spawn
    /// that follows its first accept.
    struct RefuseFirstServe(Box<dyn Listener>, bool);

    impl Listener for RefuseFirstServe {
        fn accept(&mut self) -> io::Result<Box<dyn Conn>> {
            let conn = self.0.accept()?;
            if std::mem::take(&mut self.1) {
                REFUSE_NEXT_SPAWN.with(|refuse| refuse.set(true));
            }
            Ok(conn)
        }

        fn stop_handle(&self) -> StopHandle {
            self.0.stop_handle()
        }

        fn addr(&self) -> String {
            self.0.addr()
        }
    }

    #[test]
    fn a_connection_the_server_cannot_serve_is_refused_and_the_next_is_served() {
        let fabric = Fabric::virtual_thymesisflow();
        let node = fabric.register_node();
        let store = StoreCore::new(&fabric, node, StoreConfig::new("s0", 1 << 20)).unwrap();
        let hub = InprocHub::new();
        let listener = RefuseFirstServe(Box::new(hub.bind("s0").unwrap()), true);
        let server = serve_store(Box::new(listener), Arc::new(store));
        let dial = || PlasmaClient::new(Box::new(hub.connect("s0").unwrap()), fabric.clone(), node);
        let id = ObjectId::from_name("refused");

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
