//! In-process transport.
//!
//! A [`InprocHub`] is a namespace of endpoints; binding a name yields a
//! listener, connecting to the name yields the other half of a fresh
//! channel pair. Everything is plain crossbeam channels, so a simulated
//! multi-node cluster runs in one process with no sockets, files, or
//! nondeterministic OS buffering.

use crate::frame::Frame;
use crate::transport::{Conn, Listener, StopHandle};
use crossbeam::channel::{bounded, unbounded, Receiver, RecvTimeoutError, Sender};
use std::collections::HashMap;
use std::io;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// One half of an in-process connection.
#[derive(Debug)]
pub struct InprocConn {
    tx: Sender<Frame>,
    rx: Receiver<Frame>,
    label: String,
    recv_timeout: Option<Duration>,
}

impl InprocConn {
    fn pair(a: &str, b: &str) -> (InprocConn, InprocConn) {
        let (atx, brx) = unbounded();
        let (btx, arx) = unbounded();
        (
            InprocConn {
                tx: atx,
                rx: arx,
                label: b.to_string(),
                recv_timeout: None,
            },
            InprocConn {
                tx: btx,
                rx: brx,
                label: a.to_string(),
                recv_timeout: None,
            },
        )
    }
}

impl Conn for InprocConn {
    fn send(&mut self, frame: &Frame) -> io::Result<()> {
        self.tx
            .send(frame.clone())
            .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "inproc peer closed"))
    }

    fn recv(&mut self) -> io::Result<Frame> {
        match self.recv_timeout {
            None => self
                .rx
                .recv()
                .map_err(|_| io::Error::new(io::ErrorKind::UnexpectedEof, "inproc peer closed")),
            Some(timeout) => match self.rx.recv_timeout(timeout) {
                Ok(frame) => Ok(frame),
                Err(RecvTimeoutError::Timeout) => Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "inproc recv timed out",
                )),
                Err(RecvTimeoutError::Disconnected) => Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "inproc peer closed",
                )),
            },
        }
    }

    fn set_recv_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.recv_timeout = timeout;
        Ok(())
    }

    fn peer(&self) -> String {
        self.label.clone()
    }

    fn try_clone(&self) -> io::Result<Box<dyn Conn>> {
        // Crossbeam endpoints are cheaply cloneable. Frames go to whichever
        // clone happens to be blocked in `recv`, so callers must follow the
        // one-receiver discipline documented on `Conn::try_clone`.
        Ok(Box::new(InprocConn {
            tx: self.tx.clone(),
            rx: self.rx.clone(),
            label: self.label.clone(),
            recv_timeout: self.recv_timeout,
        }))
    }
}

type Registry = Arc<Mutex<HashMap<String, Sender<InprocConn>>>>;

/// A namespace of in-process endpoints. Clones share the namespace.
#[derive(Clone, Default)]
pub struct InprocHub {
    registry: Registry,
}

impl InprocHub {
    pub fn new() -> Self {
        Self::default()
    }

    /// Bind `name`, yielding a listener. Fails if already bound.
    pub fn bind(&self, name: &str) -> io::Result<InprocListener> {
        let (tx, rx) = bounded(64);
        let mut reg = self.registry.lock().unwrap();
        if reg.contains_key(name) {
            return Err(io::Error::new(
                io::ErrorKind::AddrInUse,
                format!("inproc endpoint '{name}' already bound"),
            ));
        }
        reg.insert(name.to_string(), tx);
        // Stopping unbinds the name: dropping the registry's `Sender`
        // disconnects the channel, which wakes a parked `accept`.
        let registry = Arc::clone(&self.registry);
        let bound = name.to_string();
        Ok(InprocListener {
            name: name.to_string(),
            rx,
            stop: StopHandle::with_wake(move || {
                registry.lock().unwrap().remove(&bound);
            }),
        })
    }

    /// Connect to a bound endpoint.
    pub fn connect(&self, name: &str) -> io::Result<InprocConn> {
        let tx = {
            let reg = self.registry.lock().unwrap();
            reg.get(name).cloned().ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::ConnectionRefused,
                    format!("inproc endpoint '{name}' not bound"),
                )
            })?
        };
        let (client, server) = InprocConn::pair("client", name);
        tx.send(server).map_err(|_| {
            io::Error::new(
                io::ErrorKind::ConnectionRefused,
                format!("inproc endpoint '{name}' no longer accepting"),
            )
        })?;
        Ok(client)
    }
}

/// Listener half of an in-process endpoint. Unbinds its name when
/// stopped or dropped, whichever comes first.
#[derive(Debug)]
pub struct InprocListener {
    name: String,
    rx: Receiver<InprocConn>,
    stop: StopHandle,
}

impl Listener for InprocListener {
    fn accept(&mut self) -> io::Result<Box<dyn Conn>> {
        // Only a stop drops the registry's `Sender`, so a disconnected
        // channel and a set flag are the same event.
        if !self.stop.is_stopped() {
            if let Ok(conn) = self.rx.recv() {
                return Ok(Box::new(conn));
            }
        }
        Err(io::Error::new(
            io::ErrorKind::Interrupted,
            "listener stopped",
        ))
    }

    fn stop_handle(&self) -> StopHandle {
        self.stop.clone()
    }

    fn addr(&self) -> String {
        self.name.clone()
    }
}

impl Drop for InprocListener {
    fn drop(&mut self) {
        self.stop.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn connect_and_exchange() {
        let hub = InprocHub::new();
        let mut listener = hub.bind("store").unwrap();
        let t = std::thread::spawn({
            let hub = hub.clone();
            move || {
                let mut c = hub.connect("store").unwrap();
                c.send(&Frame::new(1, &b"ping"[..])).unwrap();
                let pong = c.recv().unwrap();
                assert_eq!(&pong.payload[..], b"pong");
            }
        });
        let mut server = listener.accept().unwrap();
        let ping = server.recv().unwrap();
        assert_eq!(&ping.payload[..], b"ping");
        server.send(&Frame::new(2, &b"pong"[..])).unwrap();
        t.join().unwrap();
    }

    #[test]
    fn connect_unbound_refused() {
        let hub = InprocHub::new();
        let err = hub.connect("nobody").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionRefused);
    }

    #[test]
    fn double_bind_rejected() {
        let hub = InprocHub::new();
        let _l = hub.bind("x").unwrap();
        assert_eq!(hub.bind("x").unwrap_err().kind(), io::ErrorKind::AddrInUse);
    }

    #[test]
    fn name_freed_on_listener_drop() {
        let hub = InprocHub::new();
        drop(hub.bind("x").unwrap());
        let _l2 = hub.bind("x").unwrap();
    }

    #[test]
    fn stop_unblocks_accept() {
        let hub = InprocHub::new();
        let mut listener = hub.bind("s").unwrap();
        let stop = listener.stop_handle();
        let t = std::thread::spawn(move || listener.accept().map(|_| ()));
        std::thread::sleep(Duration::from_millis(30));
        stop.stop();
        let res = t.join().unwrap();
        assert_eq!(res.unwrap_err().kind(), io::ErrorKind::Interrupted);
    }

    #[test]
    fn recv_after_peer_drop_is_eof() {
        let hub = InprocHub::new();
        let mut listener = hub.bind("s").unwrap();
        let client = hub.connect("s").unwrap();
        let mut server = listener.accept().unwrap();
        drop(client);
        assert_eq!(
            server.recv().unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
    }

    #[test]
    fn recv_timeout_expires_and_conn_survives() {
        let hub = InprocHub::new();
        let mut listener = hub.bind("s").unwrap();
        let mut client = hub.connect("s").unwrap();
        let mut server = listener.accept().unwrap();
        server
            .set_recv_timeout(Some(Duration::from_millis(20)))
            .unwrap();
        assert_eq!(server.recv().unwrap_err().kind(), io::ErrorKind::TimedOut);
        client.send(&Frame::new(3, &b"late"[..])).unwrap();
        assert_eq!(&server.recv().unwrap().payload[..], b"late");
    }

    #[test]
    fn peer_drop_under_timeout_is_eof() {
        let hub = InprocHub::new();
        let mut listener = hub.bind("s").unwrap();
        let client = hub.connect("s").unwrap();
        let mut server = listener.accept().unwrap();
        server
            .set_recv_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        drop(client);
        assert_eq!(
            server.recv().unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
    }

    #[test]
    fn cloned_halves_split_send_and_recv() {
        let hub = InprocHub::new();
        let mut listener = hub.bind("s").unwrap();
        let mut client = hub.connect("s").unwrap();
        let mut server = listener.accept().unwrap();
        // Send via the clone, receive the echo via the original.
        let mut sender = client.try_clone().unwrap();
        sender.send(&Frame::new(1, &b"via-clone"[..])).unwrap();
        let f = server.recv().unwrap();
        server.send(&Frame::new(2, f.payload)).unwrap();
        assert_eq!(&client.recv().unwrap().payload[..], b"via-clone");
    }

    #[test]
    fn hubs_are_isolated() {
        let a = InprocHub::new();
        let b = InprocHub::new();
        let _l = a.bind("s").unwrap();
        assert!(b.connect("s").is_err());
    }
}
