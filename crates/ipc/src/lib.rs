//! # ipc — framed message transports
//!
//! The real Plasma store talks to its clients over Unix domain sockets.
//! This crate provides an in-process transport in their place
//! ([`inproc`]), which runs whole simulated clusters inside one test and
//! carries whole [`Frame`]s, plus the checked payload codec ([`codec`])
//! the higher-level protocols are written in.
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

pub use codec::{encode, CodecError, Dec, Enc, Encode, Message};
pub use fault::{Direction, FaultAction, FaultConn, FaultPolicy, NoFaults};
pub use frame::Frame;
pub use inproc::{InprocConn, InprocHub, InprocListener};
pub use transport::{Conn, Handler, Listener};
