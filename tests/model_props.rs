//! Property-based end-to-end tests: a random sequence of store operations
//! driven against a cluster must agree with a simple in-memory model,
//! and never corrupt data. Against a 3-node cluster the model is a map
//! of sealed objects, while the ledgered movers (spill, replicate)
//! relocate and copy the bytes underneath the clients. Against clients
//! on one node that hold references across each other's deletes and
//! across puts that force eviction, it is one store's table: what is
//! present, who pins it and its eviction order, and a release applies
//! there at once, whether the client posted it or requested it — but for
//! a batch member's, which waits for its group's last release.

use disagg::{Cluster, ClusterConfig, ReconcileReport};
use plasma::{ObjectId, PlasmaError};
use proptest::prelude::*;
use std::collections::{HashMap, VecDeque};
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

/// Operations of clients on one node that keep references.
#[derive(Debug, Clone)]
enum HeldOp {
    Put {
        client: usize,
        name: u8,
    },
    /// A single get whose reference is kept: its release is posted.
    Hold {
        client: usize,
        name: u8,
    },
    /// Release one kept reference, the `k`-th modulo how many.
    Release {
        client: usize,
        k: usize,
    },
    /// A batch get released at once: two filled slots or more go back
    /// together at the last release.
    Batch {
        client: usize,
        names: Vec<u8>,
    },
    /// A batch get whose references are kept, each released by a later
    /// `Release`: two filled slots or more open a release group.
    Open {
        client: usize,
        names: Vec<u8>,
    },
    /// A delete; by the client that deferred a release of it, that
    /// release goes back first.
    Delete {
        client: usize,
        name: u8,
    },
    /// The client is dropped, mid-batch if it has a group open: its
    /// deferred releases go back, and a new client in its place takes
    /// over the references it never released.
    Drop {
        client: usize,
    },
}

fn held_op_strategy() -> impl Strategy<Value = HeldOp> {
    let name = || any::<u8>().prop_map(|n| n % 16);
    let batch = proptest::collection::vec(name(), 2..5);
    // Puts and releases weigh three each, holds two, the rest one each:
    // enough puts to fill the store and evict.
    (0..12u8, 0..3usize, name(), any::<usize>(), batch).prop_map(
        |(pick, client, name, k, names)| match pick {
            0..=2 => HeldOp::Put { client, name },
            3 | 4 => HeldOp::Hold { client, name },
            5..=7 => HeldOp::Release { client, k },
            8 => HeldOp::Batch { client, names },
            9 => HeldOp::Open { client, names },
            10 => HeldOp::Delete { client, name },
            _ => HeldOp::Drop { client },
        },
    )
}

/// What one client holds, as it keeps track itself.
#[derive(Default)]
struct Holder {
    /// Every reference it has not released, open groups' members too.
    kept: Vec<u8>,
    /// Per open group, oldest first: the members not released yet, and
    /// those released, whose references still count.
    groups: Vec<(Vec<u8>, Vec<u8>)>,
}

impl Holder {
    /// The references that go back with a release of `name`: a member
    /// of a group joins the most recently opened one that waits for it,
    /// and its last release returns them all.
    fn release(&mut self, name: u8) -> Vec<u8> {
        let at = self
            .groups
            .iter()
            .rposition(|(waiting, _)| waiting.contains(&name));
        let Some(at) = at else {
            return vec![name];
        };
        let (waiting, released) = &mut self.groups[at];
        let member = waiting.iter().position(|n| *n == name).unwrap();
        waiting.remove(member);
        released.push(name);
        if waiting.is_empty() {
            return self.groups.remove(at).1;
        }
        Vec::new()
    }

    /// The deferred releases of `name`, taken out of their groups.
    fn take_deferred(&mut self, name: u8) -> usize {
        let released = self.groups.iter_mut().map(|(_, released)| released);
        released
            .map(|r| {
                let before = r.len();
                r.retain(|n| *n != name);
                before - r.len()
            })
            .sum()
    }
}

/// Bytes of every object the one-node property puts, and of the memory
/// it runs in: room for a few of them, so puts evict.
const HELD_LEN: usize = 3000;
const HELD_MEMORY: usize = 24 << 10;

/// How many objects of [`HELD_LEN`] bytes a store of [`HELD_MEMORY`]
/// holds: what it holds when a put first evicts.
fn held_capacity() -> usize {
    let cluster = Cluster::launch(ClusterConfig::functional(1, HELD_MEMORY)).unwrap();
    let client = cluster.client(0).unwrap();
    let core = cluster.store(0).core();
    for n in 0u32.. {
        let id = ObjectId::from_name(&format!("capacity/{n}"));
        client.put(id, &[0; HELD_LEN], &[]).unwrap();
        if core.stats().evictions > 0 {
            return n as usize;
        }
    }
    unreachable!()
}

/// One store's table as its clients see it: a release applies at once.
struct Table {
    capacity: usize,
    /// Per present object, its references.
    pins: HashMap<u8, u32>,
    /// The present objects nobody references, coldest first.
    lru: VecDeque<u8>,
    evictions: u64,
}

impl Table {
    fn put(&mut self, name: u8) -> Result<(), &'static str> {
        if self.pins.contains_key(&name) {
            return Err("exists");
        }
        if self.pins.len() == self.capacity {
            let victim = self.lru.pop_front().ok_or("out of memory")?;
            self.pins.remove(&victim);
            self.evictions += 1;
        }
        self.pins.insert(name, 0);
        self.lru.push_back(name);
        Ok(())
    }

    fn pin(&mut self, name: u8) -> bool {
        let Some(pins) = self.pins.get_mut(&name) else {
            return false;
        };
        *pins += 1;
        self.lru.retain(|n| *n != name);
        true
    }

    fn unpin(&mut self, name: u8) {
        let pins = self.pins.get_mut(&name).expect("a held object is present");
        *pins -= 1;
        if *pins == 0 {
            self.lru.push_back(name);
        }
    }

    fn delete(&mut self, name: u8) -> Result<(), &'static str> {
        match self.pins.get(&name) {
            None => Err("not found"),
            Some(0) => {
                self.pins.remove(&name);
                self.lru.retain(|n| *n != name);
                Ok(())
            }
            Some(_) => Err("in use"),
        }
    }
}

/// Per object present in the one node's table, the references it counts.
fn counted(cluster: &Cluster) -> HashMap<u8, u32> {
    let names: HashMap<ObjectId, u8> = (0..16).map(|n| (oid(n), n)).collect();
    let listed = cluster.store(0).core().list().into_iter();
    listed.map(|o| (names[&o.id], o.ref_count as u32)).collect()
}

/// What the model's verdict reads as a client's answer.
fn verdict(got: Result<(), PlasmaError>) -> Result<(), &'static str> {
    got.map_err(|e| match e {
        PlasmaError::ObjectExists(_) => "exists",
        PlasmaError::OutOfMemory { .. } => "out of memory",
        PlasmaError::ObjectNotFound(_) => "not found",
        PlasmaError::ObjectInUse(_) => "in use",
        other => panic!("no model answer is {other}"),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn clients_on_one_node_agree_with_its_table(
        ops in proptest::collection::vec(held_op_strategy(), 1..80),
    ) {
        let cluster = Cluster::launch(ClusterConfig::functional(1, HELD_MEMORY)).unwrap();
        let mut clients: Vec<_> = (0..3).map(|_| cluster.client(0).unwrap()).collect();
        let mut table = Table {
            capacity: held_capacity(),
            pins: HashMap::new(),
            lru: VecDeque::new(),
            evictions: 0,
        };
        let mut held: Vec<Holder> = (0..3).map(|_| Holder::default()).collect();
        let object = |name: u8| vec![name; HELD_LEN];
        let read = |slot: &Option<plasma::ObjectBuffer>, name: u8| -> Result<(), TestCaseError> {
            let buf = slot.as_ref().expect("the model says it is present");
            prop_assert_eq!(buf.read_all().unwrap(), object(name));
            Ok(())
        };

        for op in ops {
            match op.clone() {
                HeldOp::Put { client, name } => {
                    let put = clients[client].put(oid(name), &object(name), &[]);
                    prop_assert_eq!(verdict(put.map(drop)), table.put(name), "put {}", name);
                }
                HeldOp::Hold { client, name } => {
                    let got = clients[client].get(&[oid(name)], Duration::ZERO).unwrap();
                    if table.pin(name) {
                        read(&got[0], name)?;
                        held[client].kept.push(name);
                    } else {
                        prop_assert!(got[0].is_none(), "the model says {} is absent", name);
                    }
                }
                HeldOp::Release { client, k } => {
                    let kept = &mut held[client].kept;
                    if kept.is_empty() {
                        continue;
                    }
                    let name = kept.remove(k % kept.len());
                    clients[client].release(oid(name)).unwrap();
                    for name in held[client].release(name) {
                        table.unpin(name);
                    }
                }
                HeldOp::Batch { client, names } | HeldOp::Open { client, names } => {
                    let ids: Vec<ObjectId> = names.iter().map(|&n| oid(n)).collect();
                    let got = clients[client].get(&ids, Duration::ZERO).unwrap();
                    let mut filled = Vec::new();
                    for (&name, slot) in names.iter().zip(&got) {
                        if table.pin(name) {
                            read(slot, name)?;
                            filled.push(name);
                        } else {
                            prop_assert!(slot.is_none(), "the model says {} is absent", name);
                        }
                    }
                    let holder = &mut held[client];
                    if filled.len() > 1 {
                        holder.groups.push((filled.clone(), Vec::new()));
                    }
                    if matches!(op, HeldOp::Open { .. }) {
                        holder.kept.extend(filled);
                    } else {
                        for name in filled {
                            clients[client].release(oid(name)).unwrap();
                            for name in holder.release(name) {
                                table.unpin(name);
                            }
                        }
                    }
                }
                HeldOp::Delete { client, name } => {
                    for _ in 0..held[client].take_deferred(name) {
                        table.unpin(name);
                    }
                    let deleted = clients[client].delete(oid(name));
                    prop_assert_eq!(verdict(deleted), table.delete(name), "delete {}", name);
                }
                HeldOp::Drop { client } => {
                    clients[client] = cluster.client(0).unwrap();
                    let dropped = std::mem::take(&mut held[client].groups);
                    for name in dropped.into_iter().flat_map(|(_, released)| released) {
                        table.unpin(name);
                    }
                }
            }
            prop_assert_eq!(&counted(&cluster), &table.pins, "after {:?}", op);
        }
        for (client, holder) in clients.iter().zip(&mut held) {
            for name in std::mem::take(&mut holder.kept) {
                client.release(oid(name)).unwrap();
                for name in holder.release(name) {
                    table.unpin(name);
                }
            }
            prop_assert!(holder.groups.is_empty());
        }
        prop_assert_eq!(&counted(&cluster), &table.pins);
        prop_assert_eq!(cluster.store(0).core().stats().evictions, table.evictions);
        let violations = cluster.audit();
        prop_assert!(violations.is_empty(), "{:#?}", violations);
    }
}
