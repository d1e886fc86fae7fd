//! How many times a put allocates where the bytes are written, on every
//! thread together. A store maps its own segment once, when it is made,
//! and another node's segment at the first copy out of it, so neither a
//! local put nor an owner's adoption of a forwarded put attaches a
//! mapping of its own: each allocates what its bookkeeping and its
//! answer need, and one mapping per call more would show here as one
//! allocation per put.
//!
//! A test binary of its own: the counting allocator in `allocs` sees
//! every thread of the process, so nothing else may run beside the one
//! test.

mod allocs;

use allocs::{nothing, Most, Row, CALLS, WARM};
use disagg::proto::{method, CallHeader, DelegateReq, Message};
use disagg::{DisaggConfig, DisaggStore};
use plasma::{ObjectId, ObjectStore, StoreConfig, StoreCore};
use std::cell::RefCell;
use tfsim::Fabric;

/// The most allocations a local put may make, and an owner's adoption of
/// a forwarded put (whose answer is one more). Before the store kept its
/// mappings, an attach made its mapping on the stack, and they read
/// 0.145–0.148 and 1.146–1.148 (the spread is the hash tables' random
/// layout); an attach per put allocates now, and reads one more.
const MOST_LOCAL: f64 = 0.25;
const MOST_ADOPTED: f64 = 1.25;

/// How many puts back the object a round deletes was put: the store
/// holds this many objects throughout.
const LIVE: usize = 32;

#[test]
fn a_put_attaches_no_mapping_where_it_writes() {
    let fabric = Fabric::virtual_thymesisflow();
    let (creator, owner) = (fabric.register_node(), fabric.register_node());
    let config = |name| StoreConfig::new(name, 8 << 20);
    let local = StoreCore::new(&fabric, owner, config("local")).unwrap();
    // The owner's half of a forwarded put: the creator writes the object
    // into its own segment, and the owner copies it out of there. The
    // request a creator sends is framed before it is counted.
    let creator = StoreCore::new(&fabric, creator, config("creator")).unwrap();
    let owner = DisaggStore::new(
        StoreCore::new(&fabric, owner, config("owner")).unwrap(),
        DisaggConfig::default(),
    );
    let service = owner.interconnect_service();
    let header = CallHeader {
        from: creator.node(),
    };
    let request = RefCell::new(None);
    let payload = [0x5A; 1000];
    // Named before the count: a name is formatted into a string.
    let ids: Vec<ObjectId> = (0..WARM + CALLS)
        .map(|n| ObjectId::from_name(&format!("put-allocs/{n}")))
        .collect();

    allocs::on_client_thread();
    let (ids, payload, request) = (&ids, &payload, &request);
    let (local, creator, owner, service) = (&local, &creator, &owner, &service);
    let aged = |n: usize| n.checked_sub(LIVE).map(|old| ids[old]);
    allocs::within_budget(vec![
        Row {
            name: "local put",
            most: Most::Together(MOST_LOCAL),
            before: nothing(),
            call: Box::new(move |n| {
                local.put(ids[n], payload, b"m").unwrap();
            }),
            after: Box::new(move |n| {
                if let Some(old) = aged(n) {
                    local.delete(old).unwrap();
                }
            }),
        },
        Row {
            name: "adoption of a put",
            most: Most::Together(MOST_ADOPTED),
            before: Box::new(move |n| {
                let location = creator.create_filled(ids[n], payload, b"m").unwrap();
                let framed = header.frame(&DelegateReq { location }.encode());
                *request.borrow_mut() = Some(framed);
            }),
            call: Box::new(move |_| {
                let framed = request.borrow_mut().take().unwrap();
                drop(service.call(method::CREATE_AT, framed).unwrap());
            }),
            after: Box::new(move |n| {
                creator.abort(ids[n]).unwrap();
                if let Some(old) = aged(n) {
                    ObjectStore::delete(owner, old).unwrap();
                }
            }),
        },
    ]);
}
