//! Property-based lifecycle tests of the store engine against a reference
//! model: reference counting, eviction safety, deferred deletion, and
//! allocator bookkeeping must stay consistent under arbitrary operation
//! sequences.

use plasma::{ObjectId, PlasmaError, StoreConfig, StoreCore};
use proptest::prelude::*;
use std::collections::HashMap;
use tfsim::Fabric;

const CAPACITY: usize = 1 << 20;

#[derive(Debug, Clone, Copy)]
enum Op {
    Create { name: u8, size: u16 },
    Seal { name: u8 },
    Get { name: u8 },
    Release { name: u8 },
    Delete { name: u8 },
    DeleteDeferred { name: u8 },
    Abort { name: u8 },
    Evict { bytes: u16 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let name = any::<u8>().prop_map(|n| n % 12);
    prop_oneof![
        (name.clone(), 1..8192u16).prop_map(|(name, size)| Op::Create { name, size }),
        name.clone().prop_map(|name| Op::Seal { name }),
        name.clone().prop_map(|name| Op::Get { name }),
        name.clone().prop_map(|name| Op::Release { name }),
        name.clone().prop_map(|name| Op::Delete { name }),
        name.clone().prop_map(|name| Op::DeleteDeferred { name }),
        name.prop_map(|name| Op::Abort { name }),
        (1..8192u16).prop_map(|bytes| Op::Evict { bytes }),
    ]
}

fn oid(name: u8) -> ObjectId {
    ObjectId::from_bytes([name; 20])
}

/// Reference model of one object.
#[derive(Debug, Clone, Copy)]
struct ModelObj {
    size: u16,
    sealed: bool,
    refs: u64,
    doomed: bool,
}

fn run(ops: Vec<Op>) -> Result<(), TestCaseError> {
    let fabric = Fabric::virtual_thymesisflow();
    let node = fabric.register_node();
    let store = StoreCore::new(&fabric, node, StoreConfig::new("prop", CAPACITY)).unwrap();
    let mut model: HashMap<u8, ModelObj> = HashMap::new();

    for op in ops {
        match op {
            Op::Create { name, size } => {
                let r = store.create(oid(name), u64::from(size), 0);
                if let std::collections::hash_map::Entry::Vacant(slot) = model.entry(name) {
                    match r {
                        Ok(_) => {
                            slot.insert(ModelObj {
                                size,
                                sealed: false,
                                refs: 1,
                                doomed: false,
                            });
                        }
                        Err(PlasmaError::OutOfMemory { .. }) => {} // store full; model unchanged
                        Err(e) => prop_assert!(false, "unexpected create error {e:?}"),
                    }
                } else {
                    prop_assert_eq!(r.unwrap_err(), PlasmaError::ObjectExists(oid(name)));
                }
            }
            Op::Seal { name } => {
                let r = store.seal(oid(name));
                match model.get_mut(&name) {
                    Some(m) if !m.sealed => {
                        r.unwrap();
                        m.sealed = true;
                    }
                    Some(_) => {
                        prop_assert_eq!(r.unwrap_err(), PlasmaError::AlreadySealed(oid(name)))
                    }
                    None => prop_assert_eq!(r.unwrap_err(), PlasmaError::ObjectNotFound(oid(name))),
                }
            }
            Op::Get { name } => {
                let r = store.get_local(oid(name));
                match model.get_mut(&name) {
                    Some(m) if m.sealed && !m.doomed => {
                        let loc = r.expect("model says gettable");
                        prop_assert_eq!(loc.data_size, u64::from(m.size));
                        m.refs += 1;
                    }
                    _ => prop_assert!(r.is_none(), "unsealed/doomed/missing must miss"),
                }
            }
            Op::Release { name } => {
                let r = store.release(oid(name));
                match model.get_mut(&name) {
                    Some(m) if m.refs > 0 => {
                        r.unwrap();
                        m.refs -= 1;
                        if m.refs == 0 && m.doomed && m.sealed {
                            model.remove(&name);
                        }
                    }
                    Some(_) => {
                        prop_assert_eq!(r.unwrap_err(), PlasmaError::NotReferenced(oid(name)))
                    }
                    None => prop_assert_eq!(r.unwrap_err(), PlasmaError::ObjectNotFound(oid(name))),
                }
            }
            Op::Delete { name } => {
                let r = store.delete(oid(name));
                match model.get(&name) {
                    Some(m) if m.refs > 0 => {
                        prop_assert_eq!(r.unwrap_err(), PlasmaError::ObjectInUse(oid(name)))
                    }
                    Some(m) if !m.sealed => {
                        prop_assert_eq!(r.unwrap_err(), PlasmaError::NotSealed(oid(name)))
                    }
                    Some(_) => {
                        r.unwrap();
                        model.remove(&name);
                    }
                    None => prop_assert_eq!(r.unwrap_err(), PlasmaError::ObjectNotFound(oid(name))),
                }
            }
            Op::DeleteDeferred { name } => {
                let r = store.delete_deferred(oid(name));
                match model.get_mut(&name) {
                    Some(m) if !m.sealed => {
                        prop_assert_eq!(r.unwrap_err(), PlasmaError::NotSealed(oid(name)))
                    }
                    Some(m) if m.refs == 0 => {
                        prop_assert!(r.unwrap(), "unreferenced deletes immediately");
                        model.remove(&name);
                    }
                    Some(m) => {
                        prop_assert!(!r.unwrap(), "referenced deletes defer");
                        m.doomed = true;
                    }
                    None => prop_assert_eq!(r.unwrap_err(), PlasmaError::ObjectNotFound(oid(name))),
                }
            }
            Op::Abort { name } => {
                let r = store.abort(oid(name));
                match model.get(&name) {
                    Some(m) if !m.sealed => {
                        r.unwrap();
                        model.remove(&name);
                    }
                    Some(_) => {
                        prop_assert_eq!(r.unwrap_err(), PlasmaError::AlreadySealed(oid(name)))
                    }
                    None => prop_assert_eq!(r.unwrap_err(), PlasmaError::ObjectNotFound(oid(name))),
                }
            }
            Op::Evict { bytes } => {
                // Eviction may only reclaim sealed, unreferenced,
                // non-doomed objects — but which ones is LRU-policy
                // internal; reconcile the model from the store.
                let _ = store.evict(u64::from(bytes));
                model.retain(|&name, m| {
                    let still = store.exists_any_state(oid(name));
                    if !still {
                        // Only evictable objects may disappear.
                        assert_eq!(m.refs, 0, "evicted a referenced object");
                        assert!(m.sealed, "evicted an unsealed object");
                    }
                    still
                });
            }
        }

        // Global invariants after every step.
        let stats = store.stats();
        prop_assert_eq!(stats.objects as usize, model.len());
        let model_bytes: u64 = model.values().map(|m| u64::from(m.size)).sum();
        prop_assert!(
            stats.allocated_bytes >= model_bytes,
            "allocator lost bytes: {} < {}",
            stats.allocated_bytes,
            model_bytes
        );
    }

    // Drain: release all refs, then everything is deletable and the
    // allocator returns to zero.
    let names: Vec<u8> = model.keys().copied().collect();
    for name in names {
        let m = model[&name];
        for _ in 0..m.refs {
            store.release(oid(name)).unwrap();
        }
        if m.doomed && m.refs > 0 {
            // Deferred deletion completed on last release.
        } else if !m.sealed {
            store.abort(oid(name)).unwrap();
        } else if !m.doomed {
            store.delete(oid(name)).unwrap();
        }
    }
    prop_assert_eq!(store.stats().allocated_bytes, 0);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn lifecycle_model(ops in proptest::collection::vec(op_strategy(), 1..120)) {
        run(ops)?;
    }
}
