//! # rpclite — gRPC-style synchronous unary RPC
//!
//! The paper interconnects Plasma stores with gRPC 1.38 configured in
//! synchronous, unary mode. gRPC itself is unavailable here, so this crate
//! reimplements exactly the slice the system needs:
//!
//! * a correlation-id-tagged request/response envelope ([`envelope`]),
//!   written with [`ipc`]'s fixed-width codec and guarded by a CRC-32C
//!   ([`wire`]),
//! * a **pipelined** client ([`RpcClient`]) that keeps many requests in
//!   flight on one connection — [`RpcClient::call`] blocks only its own
//!   caller, and [`RpcClient::call_async`] returns a [`PendingCall`] to
//!   wait on later — and optionally charges a modeled network round trip
//!   ([`NetCost`]) to the simulation clock, with concurrent calls
//!   overlapping their round trips as on a real wire,
//! * a server ([`serve`]) that has no thread of its own: one [`Reader`]
//!   thread serves every connection of any number of servers. Each
//!   listener hands its connections to the reader as they are made
//!   ([`ipc::Listener::hand_to`]), and each connection reports its frames
//!   to it ([`ipc::Conn::report_to`]); the reader runs every call itself,
//!   and no call waits on another ([`Service`]).
//!
//! Transports come from the [`ipc`] crate. A client runs over any
//! [`ipc::Conn`]; the server serves connections that report their frames,
//! which the in-process ones do.
//!
//! ## Example
//!
//! ```
//! use bytes::Bytes;
//! use ipc::InprocHub;
//! use rpclite::{serve, RpcClient, Service, Status};
//! use std::sync::Arc;
//!
//! let hub = InprocHub::new();
//! let listener = hub.bind("greeter").unwrap();
//! let service = Arc::new(|_method: u32, name: Bytes| -> Result<Bytes, Status> {
//!     let mut reply = b"hello ".to_vec();
//!     reply.extend_from_slice(&name);
//!     Ok(reply.into())
//! });
//! let _server = serve(Box::new(listener), service);
//!
//! let client = RpcClient::new(Box::new(hub.connect("greeter").unwrap()));
//! let reply = client.call(1, Bytes::from_static(b"plasma")).unwrap();
//! assert_eq!(&reply[..], b"hello plasma");
//! ```

#![deny(missing_docs)]

pub mod client;
pub mod envelope;
pub mod server;
pub mod service;
pub mod wire;

pub use client::{ClientMetrics, Connector, NetCost, PendingCall, RpcClient, RpcError};
pub use envelope::{Request, Response};
pub use server::{serve, serving, Reader, ServerHandle, ServerMetrics};
pub use service::{MethodId, Service, Status, StatusCode};
pub use wire::WireError;
