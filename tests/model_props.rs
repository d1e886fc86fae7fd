//! Property-based end-to-end test: a random sequence of store operations
//! driven against a 3-node cluster must agree with a simple in-memory
//! model (a map of sealed objects), and never corrupt data — including
//! while the ledgered movers (spill, replicate) relocate and copy the
//! bytes underneath the clients.

use disagg::{Cluster, ClusterConfig, ReconcileReport};
use plasma::{ObjectId, PlasmaError};
use proptest::prelude::*;
use std::collections::HashMap;
use std::time::Duration;

/// Operations the fuzzer may issue. Object "names" are small integers so
/// operations collide often; `node` picks which client acts.
#[derive(Debug, Clone)]
enum Op {
    Put { node: usize, name: u8, len: u16 },
    Get { node: usize, name: u8 },
    BatchGet { node: usize, names: Vec<u8> },
    Spill { name: u8, holder: usize },
    Replicate { name: u8, holder: usize },
    Delete { node: usize, name: u8 },
    Contains { node: usize, name: u8 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..3usize, any::<u8>(), 1..2048u16).prop_map(|(node, name, len)| Op::Put {
            node,
            name: name % 16,
            len
        }),
        (0..3usize, any::<u8>()).prop_map(|(node, name)| Op::Get {
            node,
            name: name % 16
        }),
        // Batches may carry the same name twice: every filled slot takes
        // (and must release) its own reference, duplicates included.
        (0..3usize, proptest::collection::vec(any::<u8>(), 2..5)).prop_map(|(node, names)| {
            Op::BatchGet {
                node,
                names: names.into_iter().map(|n| n % 16).collect(),
            }
        }),
        (any::<u8>(), 0..3usize).prop_map(|(name, holder)| Op::Spill {
            name: name % 16,
            holder
        }),
        (any::<u8>(), 0..3usize).prop_map(|(name, holder)| Op::Replicate {
            name: name % 16,
            holder
        }),
        (0..3usize, any::<u8>()).prop_map(|(node, name)| Op::Delete {
            node,
            name: name % 16
        }),
        (0..3usize, any::<u8>()).prop_map(|(node, name)| Op::Contains {
            node,
            name: name % 16
        }),
    ]
}

fn oid(name: u8) -> ObjectId {
    ObjectId::from_name(&format!("prop/{name}"))
}

fn fill(name: u8, len: u16) -> Vec<u8> {
    (0..len).map(|i| (i as u8) ^ name).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn cluster_agrees_with_model(ops in proptest::collection::vec(op_strategy(), 1..60)) {
        let cluster = Cluster::launch(ClusterConfig::functional(3, 16 << 20)).unwrap();
        let clients: Vec<_> = (0..3).map(|i| cluster.client(i).unwrap()).collect();
        // Model: name -> (len, owner-node) for every sealed live object.
        let mut model: HashMap<u8, u16> = HashMap::new();

        for op in ops {
            match op {
                Op::Put { node, name, len } => {
                    let result = clients[node].put(oid(name), &fill(name, len), &[]);
                    if let std::collections::hash_map::Entry::Vacant(e) = model.entry(name) {
                        result.unwrap();
                        e.insert(len);
                    } else {
                        prop_assert_eq!(
                            result.unwrap_err(),
                            PlasmaError::ObjectExists(oid(name))
                        );
                    }
                }
                Op::Get { node, name } => {
                    let got = clients[node]
                        .get(&[oid(name)], Duration::from_millis(30))
                        .unwrap();
                    match model.get(&name) {
                        Some(&len) => {
                            let buf = got[0].as_ref().expect("model says object exists");
                            prop_assert_eq!(buf.len(), u64::from(len));
                            prop_assert_eq!(buf.read_all().unwrap(), fill(name, len));
                            clients[node].release(oid(name)).unwrap();
                        }
                        None => prop_assert!(got[0].is_none(), "model says object absent"),
                    }
                }
                Op::BatchGet { node, names } => {
                    let ids: Vec<ObjectId> = names.iter().map(|&n| oid(n)).collect();
                    let got = clients[node].get(&ids, Duration::from_millis(30)).unwrap();
                    prop_assert_eq!(got.len(), ids.len());
                    for (&name, slot) in names.iter().zip(got) {
                        match model.get(&name) {
                            Some(&len) => {
                                let buf = slot.as_ref().expect("model says object exists");
                                prop_assert_eq!(buf.len(), u64::from(len));
                                prop_assert_eq!(buf.read_all().unwrap(), fill(name, len));
                                clients[node].release(oid(name)).unwrap();
                            }
                            None => prop_assert!(slot.is_none(), "model says object absent"),
                        }
                    }
                }
                Op::Spill { name, holder } | Op::Replicate { name, holder } => {
                    // Moving or copying the bytes is the ring owner's call
                    // and changes nothing any client observes. The holder
                    // may refuse (`Ok(false)`: it is the owner itself, or
                    // lent ⊕ replicated forbids it) and an object already
                    // lent away has no local copy to hand over (`NotFound`).
                    let owner = cluster.store(0).ring_owner(oid(name)).unwrap();
                    let at = (0..3).find(|&i| cluster.node_id(i) == owner).unwrap();
                    let to = cluster.node_id(holder);
                    let moved = match op {
                        Op::Spill { .. } => cluster.store(at).spill_to(oid(name), to),
                        _ => cluster.store(at).replicate_to(oid(name), to),
                    };
                    prop_assert!(
                        matches!(moved, Ok(_) | Err(PlasmaError::ObjectNotFound(_))),
                        "moving {name} to node {holder}: {moved:?}"
                    );
                    if !model.contains_key(&name) {
                        prop_assert!(!matches!(moved, Ok(true)), "moved an absent object");
                    }
                }
                Op::Delete { node, name } => {
                    let result = clients[node].delete(oid(name));
                    if model.remove(&name).is_some() {
                        result.unwrap();
                    } else {
                        prop_assert_eq!(
                            result.unwrap_err(),
                            PlasmaError::ObjectNotFound(oid(name))
                        );
                    }
                }
                Op::Contains { node, name } => {
                    let present = clients[node].contains(oid(name)).unwrap();
                    prop_assert_eq!(present, model.contains_key(&name));
                }
            }
        }

        // End state: every modeled object still reads back intact from
        // every node.
        for (&name, &len) in &model {
            for (n, client) in clients.iter().enumerate() {
                let buf = client
                    .get_one(oid(name), Duration::from_secs(5))
                    .unwrap_or_else(|e| panic!("node {n} lost object {name}: {e}"));
                prop_assert_eq!(buf.read_all().unwrap(), fill(name, len));
                client.release(oid(name)).unwrap();
            }
        }
        // ...and the movers left the cluster consistent and settled: it
        // keeps every promise `Cluster::audit` checks, and a reconcile
        // sweep finds nothing to drop or trim.
        let violations = cluster.audit();
        prop_assert!(violations.is_empty(), "{:#?}", violations);
        for i in 0..3 {
            prop_assert_eq!(cluster.store(i).reconcile(), ReconcileReport::default());
        }
    }
}
