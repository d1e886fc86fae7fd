//! Unix-domain-socket transport — the transport the real Plasma store uses
//! for client↔store IPC ("Plasma conducts IPC between Plasma store and
//! clients through Unix domain sockets").
//!
//! Framing is identical to the in-process transport, so the store code is
//! transport-agnostic. Nothing here waits on a timer: `accept` and `recv`
//! block in the kernel, [`Conn::close`] is `shutdown(Both)` — which wakes
//! every reader of the socket on both ends — and a [`StopHandle`] wakes a
//! parked `accept` by connecting to the listener's own path.

use crate::frame::Frame;
use crate::transport::{Conn, Listener, StopHandle};
use std::io::{self, BufReader, BufWriter};
use std::net::Shutdown;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};

/// A framed connection over a Unix stream socket.
pub struct UdsConn {
    reader: BufReader<UnixStream>,
    writer: BufWriter<UnixStream>,
    label: String,
}

impl UdsConn {
    /// Connect to a listening socket at `path`.
    pub fn connect(path: impl AsRef<Path>) -> io::Result<Self> {
        let stream = UnixStream::connect(&path)?;
        Self::from_stream(stream, path.as_ref().display().to_string())
    }

    fn from_stream(stream: UnixStream, label: String) -> io::Result<Self> {
        let write_half = stream.try_clone()?;
        Ok(UdsConn {
            reader: BufReader::new(stream),
            writer: BufWriter::new(write_half),
            label,
        })
    }
}

impl Conn for UdsConn {
    fn send(&mut self, frame: &Frame) -> io::Result<()> {
        frame.write_to(&mut self.writer)
    }

    fn recv(&mut self) -> io::Result<Frame> {
        Frame::read_from(&mut self.reader)
    }

    fn close(&self) {
        // Every clone is a dup of one socket, so this reaches them all.
        // `NotConnected` (already shut down, or the peer went first) is
        // the idempotent case.
        let _ = self.reader.get_ref().shutdown(Shutdown::Both);
    }

    fn peer(&self) -> String {
        self.label.clone()
    }

    fn try_clone(&self) -> io::Result<Box<dyn Conn>> {
        // Clone the OS-level stream. The clone gets a fresh (empty) read
        // buffer, so it must be taken before any `recv` has buffered bytes
        // — see the discipline documented on `Conn::try_clone`.
        let stream = self.reader.get_ref().try_clone()?;
        Ok(Box::new(Self::from_stream(stream, self.label.clone())?))
    }
}

/// Listener on a Unix socket path. Removes the socket file on drop.
pub struct UdsListener {
    listener: UnixListener,
    path: PathBuf,
    stop: StopHandle,
}

impl UdsListener {
    /// Bind `path`, replacing a stale socket file if present.
    pub fn bind(path: impl AsRef<Path>) -> io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        // A leftover socket file from a crashed store blocks bind; clear it.
        if path.exists() {
            std::fs::remove_file(&path)?;
        }
        let listener = UnixListener::bind(&path)?;
        // A parked `accept` is woken by a connection: stopping dials the
        // listener's own path, and `accept` finds the flag already set.
        let wake_path = path.clone();
        let stop = StopHandle::with_wake(move || {
            let _ = UnixStream::connect(&wake_path);
        });
        Ok(UdsListener {
            listener,
            path,
            stop,
        })
    }
}

impl Listener for UdsListener {
    fn accept(&mut self) -> io::Result<Box<dyn Conn>> {
        if !self.stop.is_stopped() {
            let accepted = self.listener.accept();
            // The flag is set before the wake dials, so the connection
            // that woke us is recognised here and dropped.
            if !self.stop.is_stopped() {
                let (stream, _) = accepted?;
                let conn = UdsConn::from_stream(stream, "uds-client".to_string())?;
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
        self.path.display().to_string()
    }
}

impl Drop for UdsListener {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn tmp_sock(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("memdis-ipc-test-{}-{}", std::process::id(), name));
        p
    }

    #[test]
    fn connect_and_exchange() {
        let path = tmp_sock("exchange");
        let mut listener = UdsListener::bind(&path).unwrap();
        let t = std::thread::spawn({
            let path = path.clone();
            move || {
                let mut c = UdsConn::connect(&path).unwrap();
                c.send(&Frame::new(1, &b"ping"[..])).unwrap();
                let pong = c.recv().unwrap();
                assert_eq!(&pong.payload[..], b"pong");
            }
        });
        let mut server = listener.accept().unwrap();
        assert_eq!(&server.recv().unwrap().payload[..], b"ping");
        server.send(&Frame::new(2, &b"pong"[..])).unwrap();
        t.join().unwrap();
    }

    #[test]
    fn large_frame_roundtrip() {
        let path = tmp_sock("large");
        let mut listener = UdsListener::bind(&path).unwrap();
        let payload = vec![0xA5u8; 1 << 20];
        let t = std::thread::spawn({
            let path = path.clone();
            let payload = payload.clone();
            move || {
                let mut c = UdsConn::connect(&path).unwrap();
                c.send(&Frame::new(9, payload)).unwrap();
            }
        });
        let mut server = listener.accept().unwrap();
        let f = server.recv().unwrap();
        assert_eq!(f.payload.len(), 1 << 20);
        assert!(f.payload.iter().all(|&b| b == 0xA5));
        t.join().unwrap();
    }

    #[test]
    fn recv_after_peer_drop_is_eof() {
        let path = tmp_sock("peer-drop");
        let mut listener = UdsListener::bind(&path).unwrap();
        let client = UdsConn::connect(&path).unwrap();
        let mut server = listener.accept().unwrap();
        drop(client);
        assert_eq!(
            server.recv().unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
    }

    #[test]
    fn close_wakes_a_parked_recv_on_both_ends() {
        let path = tmp_sock("close");
        let mut listener = UdsListener::bind(&path).unwrap();
        let client = UdsConn::connect(&path).unwrap();
        let server = listener.accept().unwrap();
        crate::transport::tests::close_wakes_both_ends(Box::new(client), server);
    }

    #[test]
    fn stop_unblocks_accept() {
        let path = tmp_sock("stop");
        let mut listener = UdsListener::bind(&path).unwrap();
        let stop = listener.stop_handle();
        let t = std::thread::spawn(move || listener.accept().map(|_| ()));
        std::thread::sleep(Duration::from_millis(30));
        stop.stop();
        assert_eq!(
            t.join().unwrap().unwrap_err().kind(),
            io::ErrorKind::Interrupted
        );
    }

    #[test]
    fn cloned_halves_split_send_and_recv() {
        let path = tmp_sock("clone");
        let mut listener = UdsListener::bind(&path).unwrap();
        let mut client = UdsConn::connect(&path).unwrap();
        let mut server = listener.accept().unwrap();
        // Send via the clone, receive the echo via the original.
        let mut sender = client.try_clone().unwrap();
        sender.send(&Frame::new(1, &b"via-clone"[..])).unwrap();
        let f = server.recv().unwrap();
        server.send(&Frame::new(2, f.payload)).unwrap();
        assert_eq!(&client.recv().unwrap().payload[..], b"via-clone");
    }

    #[test]
    fn stale_socket_file_is_replaced() {
        let path = tmp_sock("stale");
        {
            let _l = UdsListener::bind(&path).unwrap();
            assert!(path.exists());
            // Simulate a crash: leak the file by re-creating it after drop.
        }
        std::fs::write(&path, b"").unwrap();
        let _l2 = UdsListener::bind(&path).unwrap();
    }

    #[test]
    fn socket_file_removed_on_drop() {
        let path = tmp_sock("cleanup");
        {
            let _l = UdsListener::bind(&path).unwrap();
            assert!(path.exists());
        }
        assert!(!path.exists());
    }
}
