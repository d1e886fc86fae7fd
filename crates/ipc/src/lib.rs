//! # ipc — framed message transports
//!
//! The real Plasma store talks to its clients over Unix domain sockets.
//! This crate provides that transport ([`uds`]) and an in-process
//! equivalent ([`inproc`]) used to run whole simulated clusters inside one
//! test — both speaking the same length-prefixed [`Frame`] protocol — plus
//! the checked payload codec ([`codec`]) the higher-level protocols are
//! written in.
//!
//! ## Example
//!
//! ```
//! use ipc::{Frame, InprocHub, Conn, Listener};
//!
//! let hub = InprocHub::new();
//! let mut listener = hub.bind("plasma-store").unwrap();
//! let mut client = hub.connect("plasma-store").unwrap();
//!
//! client.send(&Frame::new(1, &b"hello"[..])).unwrap();
//! let mut server_side = listener.accept().unwrap();
//! assert_eq!(&server_side.recv().unwrap().payload[..], b"hello");
//! ```

pub mod codec;
pub mod fault;
pub mod frame;
pub mod inproc;
pub mod transport;
pub mod uds;

pub use codec::{CodecError, Dec, Enc};
pub use fault::{Direction, FaultAction, FaultConn, FaultPolicy, NoFaults};
pub use frame::{Frame, MAX_FRAME_LEN};
pub use inproc::{InprocConn, InprocHub, InprocListener};
pub use transport::{Conn, Listener, StopHandle};
pub use uds::{UdsConn, UdsListener};
