//! Client ↔ store IPC protocol.
//!
//! Request/response messages carried in [`ipc::Frame`]s. The response to a
//! `Get` carries [`ObjectLocation`]s — segment key + offset — rather than
//! data: like real Plasma's file-descriptor handoff, the client maps the
//! (disaggregated) segment itself and reads the buffer directly, so a
//! *read* never moves payload bytes over the IPC channel. The one message
//! with a payload is `Put`: a client that already holds a whole small
//! object (up to [`crate::INLINE_PUT_MAX`] bytes) sends the bytes with the
//! request, and the store that owns the id writes them into its own memory.

use crate::error::PlasmaError;
use crate::id::{ObjectId, OBJECT_ID_LEN};
use crate::object::{ObjectInfo, ObjectLocation, ObjectState};
use crate::store::StoreStats;
use bytes::Bytes;
use ipc::{CodecError, Dec, Enc, Frame};
use tfsim::{NodeId, SegKey};

/// Request frame types.
pub mod tag {
    pub const CREATE: u32 = 1;
    pub const SEAL: u32 = 2;
    pub const GET: u32 = 3;
    pub const RELEASE: u32 = 4;
    pub const DELETE: u32 = 5;
    pub const ABORT: u32 = 6;
    pub const CONTAINS: u32 = 7;
    pub const LIST: u32 = 8;
    pub const STATS: u32 = 9;
    pub const EVICT: u32 = 10;
    pub const SUBSCRIBE: u32 = 11;
    pub const DELETE_DEFERRED: u32 = 12;
    pub const PUT: u32 = 13;

    pub const R_LOCATION: u32 = 101;
    pub const R_LOCATIONS: u32 = 102;
    pub const R_BOOL: u32 = 103;
    pub const R_UNIT: u32 = 104;
    pub const R_LIST: u32 = 105;
    pub const R_STATS: u32 = 106;
    pub const R_U64: u32 = 107;
    pub const R_ERROR: u32 = 108;
    pub const R_NOTIFY: u32 = 109;
}

/// A request from client to store.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    Create {
        id: ObjectId,
        data_size: u64,
        metadata_size: u64,
    },
    Seal(ObjectId),
    /// Create, fill, seal and release in one request: the object's bytes
    /// travel with it.
    Put {
        id: ObjectId,
        data: Bytes,
        metadata: Bytes,
    },
    Get {
        ids: Vec<ObjectId>,
        timeout_ms: u64,
    },
    Release(ObjectId),
    Delete(ObjectId),
    DeleteDeferred(ObjectId),
    Abort(ObjectId),
    Contains(ObjectId),
    List,
    Stats,
    Evict(u64),
    Subscribe,
}

/// A response from store to client.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    Location(ObjectLocation),
    Locations(Vec<Option<ObjectLocation>>),
    Bool(bool),
    Unit,
    List(Vec<ObjectInfo>),
    Stats(StoreStats),
    U64(u64),
    Error(PlasmaError),
    /// Pushed on subscription connections when an object is sealed.
    Notify(ObjectLocation),
}

fn put_id(e: &mut Enc, id: &ObjectId) {
    e.fixed(id.as_bytes());
}

fn get_id(d: &mut Dec) -> Result<ObjectId, CodecError> {
    Ok(ObjectId::from_bytes(d.fixed::<OBJECT_ID_LEN>()?))
}

fn put_location(e: &mut Enc, loc: &ObjectLocation) {
    put_id(e, &loc.id);
    e.u32(u32::from(loc.seg.owner.0))
        .u32(loc.seg.index)
        .u64(loc.offset)
        .u64(loc.data_size)
        .u64(loc.metadata_size);
}

fn get_location(d: &mut Dec) -> Result<ObjectLocation, CodecError> {
    let id = get_id(d)?;
    let owner = d.u32()?;
    let index = d.u32()?;
    Ok(ObjectLocation {
        id,
        seg: SegKey {
            owner: NodeId(u16::try_from(owner).map_err(|_| CodecError::Invalid("node id"))?),
            index,
        },
        offset: d.u64()?,
        data_size: d.u64()?,
        metadata_size: d.u64()?,
    })
}

impl Request {
    pub fn to_frame(&self) -> Frame {
        let mut e = Enc::new();
        let t = match self {
            Request::Create {
                id,
                data_size,
                metadata_size,
            } => {
                put_id(&mut e, id);
                e.u64(*data_size).u64(*metadata_size);
                tag::CREATE
            }
            Request::Seal(id) => {
                put_id(&mut e, id);
                tag::SEAL
            }
            Request::Put { id, data, metadata } => {
                e = Enc::with_capacity(OBJECT_ID_LEN + 16 + data.len() + metadata.len());
                put_id(&mut e, id);
                e.bytes(data).bytes(metadata);
                tag::PUT
            }
            Request::Get { ids, timeout_ms } => {
                e.u64(*timeout_ms).u64(ids.len() as u64);
                for id in ids {
                    put_id(&mut e, id);
                }
                tag::GET
            }
            Request::Release(id) => {
                put_id(&mut e, id);
                tag::RELEASE
            }
            Request::Delete(id) => {
                put_id(&mut e, id);
                tag::DELETE
            }
            Request::DeleteDeferred(id) => {
                put_id(&mut e, id);
                tag::DELETE_DEFERRED
            }
            Request::Abort(id) => {
                put_id(&mut e, id);
                tag::ABORT
            }
            Request::Contains(id) => {
                put_id(&mut e, id);
                tag::CONTAINS
            }
            Request::List => tag::LIST,
            Request::Stats => tag::STATS,
            Request::Evict(bytes) => {
                e.u64(*bytes);
                tag::EVICT
            }
            Request::Subscribe => tag::SUBSCRIBE,
        };
        Frame::new(t, e.finish())
    }

    pub fn from_frame(frame: &Frame) -> Result<Request, PlasmaError> {
        let mut d = Dec::new(frame.payload.clone());
        let req = match frame.msg_type {
            tag::CREATE => Request::Create {
                id: get_id(&mut d)?,
                data_size: d.u64()?,
                metadata_size: d.u64()?,
            },
            tag::SEAL => Request::Seal(get_id(&mut d)?),
            tag::PUT => Request::Put {
                id: get_id(&mut d)?,
                data: d.bytes()?,
                metadata: d.bytes()?,
            },
            tag::GET => {
                let timeout_ms = d.u64()?;
                let n = d.u64()?;
                let n =
                    usize::try_from(n).map_err(|_| PlasmaError::Protocol("get count".into()))?;
                if n > 1_000_000 {
                    return Err(PlasmaError::Protocol("get batch too large".into()));
                }
                let mut ids = Vec::with_capacity(n);
                for _ in 0..n {
                    ids.push(get_id(&mut d)?);
                }
                Request::Get { ids, timeout_ms }
            }
            tag::RELEASE => Request::Release(get_id(&mut d)?),
            tag::DELETE => Request::Delete(get_id(&mut d)?),
            tag::DELETE_DEFERRED => Request::DeleteDeferred(get_id(&mut d)?),
            tag::ABORT => Request::Abort(get_id(&mut d)?),
            tag::CONTAINS => Request::Contains(get_id(&mut d)?),
            tag::LIST => Request::List,
            tag::STATS => Request::Stats,
            tag::EVICT => Request::Evict(d.u64()?),
            tag::SUBSCRIBE => Request::Subscribe,
            other => {
                return Err(PlasmaError::Protocol(format!(
                    "unknown request tag {other}"
                )))
            }
        };
        d.finish()?;
        Ok(req)
    }
}

impl Response {
    pub fn to_frame(&self) -> Frame {
        let mut e = Enc::new();
        let t = match self {
            Response::Location(loc) => {
                put_location(&mut e, loc);
                tag::R_LOCATION
            }
            Response::Locations(locs) => {
                e.u64(locs.len() as u64);
                for loc in locs {
                    match loc {
                        Some(l) => {
                            e.bool(true);
                            put_location(&mut e, l);
                        }
                        None => {
                            e.bool(false);
                        }
                    }
                }
                tag::R_LOCATIONS
            }
            Response::Bool(b) => {
                e.bool(*b);
                tag::R_BOOL
            }
            Response::Unit => tag::R_UNIT,
            Response::List(infos) => {
                e.u64(infos.len() as u64);
                for i in infos {
                    put_id(&mut e, &i.id);
                    e.u64(i.data_size)
                        .u64(i.metadata_size)
                        .bool(i.state == ObjectState::Sealed)
                        .u64(i.ref_count);
                }
                tag::R_LIST
            }
            Response::Stats(s) => {
                e.u64(s.capacity)
                    .u64(s.allocated_bytes)
                    .u64(s.objects)
                    .u64(s.sealed_objects)
                    .u64(s.creates)
                    .u64(s.seals)
                    .u64(s.gets)
                    .u64(s.get_misses)
                    .u64(s.releases)
                    .u64(s.deletes)
                    .u64(s.evictions)
                    .u64(s.evicted_bytes);
                tag::R_STATS
            }
            Response::U64(v) => {
                e.u64(*v);
                tag::R_U64
            }
            Response::Error(err) => {
                e.u32(err.to_code());
                let id = match err {
                    PlasmaError::ObjectExists(id)
                    | PlasmaError::ObjectNotFound(id)
                    | PlasmaError::NotSealed(id)
                    | PlasmaError::AlreadySealed(id)
                    | PlasmaError::ObjectInUse(id)
                    | PlasmaError::NotReferenced(id) => *id,
                    _ => ObjectId::from_bytes([0; OBJECT_ID_LEN]),
                };
                put_id(&mut e, &id);
                let (a, b) = match err {
                    PlasmaError::OutOfMemory {
                        requested,
                        capacity,
                    } => (*requested, *capacity),
                    PlasmaError::Overloaded { retry_after_ms } => (*retry_after_ms, 0),
                    _ => (0, 0),
                };
                e.u64(a).u64(b);
                let detail = match err {
                    PlasmaError::Fabric(m)
                    | PlasmaError::Transport(m)
                    | PlasmaError::Protocol(m)
                    | PlasmaError::PeerUnavailable(m) => m.as_str(),
                    _ => "",
                };
                e.str(detail);
                tag::R_ERROR
            }
            Response::Notify(loc) => {
                put_location(&mut e, loc);
                tag::R_NOTIFY
            }
        };
        Frame::new(t, e.finish())
    }

    pub fn from_frame(frame: &Frame) -> Result<Response, PlasmaError> {
        let mut d = Dec::new(frame.payload.clone());
        let resp = match frame.msg_type {
            tag::R_LOCATION => Response::Location(get_location(&mut d)?),
            tag::R_LOCATIONS => {
                let n = usize::try_from(d.u64()?)
                    .map_err(|_| PlasmaError::Protocol("locations count".into()))?;
                let mut locs = Vec::with_capacity(n.min(1 << 20));
                for _ in 0..n {
                    if d.bool()? {
                        locs.push(Some(get_location(&mut d)?));
                    } else {
                        locs.push(None);
                    }
                }
                Response::Locations(locs)
            }
            tag::R_BOOL => Response::Bool(d.bool()?),
            tag::R_UNIT => Response::Unit,
            tag::R_LIST => {
                let n = usize::try_from(d.u64()?)
                    .map_err(|_| PlasmaError::Protocol("list count".into()))?;
                let mut infos = Vec::with_capacity(n.min(1 << 20));
                for _ in 0..n {
                    let id = get_id(&mut d)?;
                    let data_size = d.u64()?;
                    let metadata_size = d.u64()?;
                    let sealed = d.bool()?;
                    let ref_count = d.u64()?;
                    infos.push(ObjectInfo {
                        id,
                        data_size,
                        metadata_size,
                        state: if sealed {
                            ObjectState::Sealed
                        } else {
                            ObjectState::Created
                        },
                        ref_count,
                    });
                }
                Response::List(infos)
            }
            tag::R_STATS => Response::Stats(StoreStats {
                capacity: d.u64()?,
                allocated_bytes: d.u64()?,
                objects: d.u64()?,
                sealed_objects: d.u64()?,
                creates: d.u64()?,
                seals: d.u64()?,
                gets: d.u64()?,
                get_misses: d.u64()?,
                releases: d.u64()?,
                deletes: d.u64()?,
                evictions: d.u64()?,
                evicted_bytes: d.u64()?,
            }),
            tag::R_U64 => Response::U64(d.u64()?),
            tag::R_ERROR => {
                let code = d.u32()?;
                let id = get_id(&mut d)?;
                let a = d.u64()?;
                let b = d.u64()?;
                let detail = d.str()?;
                Response::Error(PlasmaError::from_code(code, id, &detail, a, b))
            }
            tag::R_NOTIFY => Response::Notify(get_location(&mut d)?),
            other => {
                return Err(PlasmaError::Protocol(format!(
                    "unknown response tag {other}"
                )))
            }
        };
        d.finish()?;
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loc(n: u8) -> ObjectLocation {
        ObjectLocation {
            id: ObjectId::from_bytes([n; 20]),
            seg: SegKey {
                owner: NodeId(3),
                index: 1,
            },
            offset: 4096,
            data_size: 1000,
            metadata_size: 24,
        }
    }

    #[test]
    fn request_roundtrips() {
        let id = ObjectId::from_name("x");
        let cases = vec![
            Request::Create {
                id,
                data_size: 5,
                metadata_size: 2,
            },
            Request::Seal(id),
            Request::Put {
                id,
                data: Bytes::from_static(b"payload"),
                metadata: Bytes::from_static(b"md"),
            },
            Request::Put {
                id,
                data: Bytes::new(),
                metadata: Bytes::new(),
            },
            Request::Get {
                ids: vec![id, ObjectId::from_name("y")],
                timeout_ms: 1500,
            },
            Request::Get {
                ids: vec![],
                timeout_ms: 0,
            },
            Request::Release(id),
            Request::Delete(id),
            Request::DeleteDeferred(id),
            Request::Abort(id),
            Request::Contains(id),
            Request::List,
            Request::Stats,
            Request::Evict(1 << 20),
            Request::Subscribe,
        ];
        for req in cases {
            let back = Request::from_frame(&req.to_frame()).unwrap();
            assert_eq!(back, req);
        }
    }

    #[test]
    fn response_roundtrips() {
        let cases = vec![
            Response::Location(loc(1)),
            Response::Locations(vec![Some(loc(1)), None, Some(loc(2))]),
            Response::Locations(vec![]),
            Response::Bool(true),
            Response::Unit,
            Response::List(vec![ObjectInfo {
                id: ObjectId::from_name("z"),
                data_size: 9,
                metadata_size: 1,
                state: ObjectState::Sealed,
                ref_count: 2,
            }]),
            Response::Stats(StoreStats {
                capacity: 100,
                allocated_bytes: 50,
                objects: 2,
                sealed_objects: 1,
                creates: 2,
                seals: 1,
                gets: 3,
                get_misses: 1,
                releases: 1,
                deletes: 0,
                evictions: 4,
                evicted_bytes: 99,
            }),
            Response::U64(77),
            Response::Error(PlasmaError::ObjectNotFound(ObjectId::from_name("q"))),
            Response::Error(PlasmaError::OutOfMemory {
                requested: 10,
                capacity: 5,
            }),
            Response::Error(PlasmaError::Protocol("oops".into())),
            Response::Error(PlasmaError::PeerUnavailable("peer store-2 is down".into())),
            Response::Notify(loc(7)),
        ];
        for resp in cases {
            let back = Response::from_frame(&resp.to_frame()).unwrap();
            assert_eq!(back, resp);
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let id = ObjectId::from_name("x");
        let put = Request::Put {
            id,
            data: Bytes::from_static(b"payload"),
            metadata: Bytes::new(),
        };
        for req in [Request::Seal(id), put] {
            let mut f = req.to_frame();
            let mut payload = f.payload.to_vec();
            payload.push(0xFF);
            f.payload = payload.into();
            assert!(Request::from_frame(&f).is_err(), "{req:?}");
        }
    }

    #[test]
    fn put_with_a_length_past_the_frame_is_rejected() {
        let put = Request::Put {
            id: ObjectId::from_name("x"),
            data: Bytes::from_static(b"payload"),
            metadata: Bytes::from_static(b"md"),
        };
        let mut f = put.to_frame();
        f.payload = f.payload.slice(..f.payload.len() - 1);
        assert!(Request::from_frame(&f).is_err());
    }

    #[test]
    fn unknown_tags_rejected() {
        let f = Frame::new(9999, bytes::Bytes::new());
        assert!(Request::from_frame(&f).is_err());
        assert!(Response::from_frame(&f).is_err());
    }
}
