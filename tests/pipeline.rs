//! The batched multi-get hot path (`GET_MANY`) and the pipelined
//! interconnect, end to end on a live cluster: one RPC per owner per
//! batch, partial success without ledger leaks, concurrent remote
//! gets overlapping on the virtual clock instead of paying one
//! round trip each in lock-step, and one get overlapping the owners it
//! asks — reproducibly, and with one pin per resolved id.

use disagg::{Cluster, ClusterConfig, DisaggStore};
use ipc::fault::{Direction, FaultAction, FaultPolicy};
use plasma::{ObjectId, ObjectStore};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

fn ids(prefix: &str, n: usize) -> Vec<ObjectId> {
    (0..n)
        .map(|i| ObjectId::from_name(&format!("{prefix}/{i}")))
        .collect()
}

/// `n` ids the rendezvous ring places on `node`, so the one-RPC-per-owner
/// arithmetic below is deterministic.
fn owned_ids(cluster: &Cluster, node: usize, prefix: &str, n: usize) -> Vec<ObjectId> {
    cluster
        .owned_ids(node, prefix, n)
        .iter()
        .map(|name| ObjectId::from_name(name))
        .collect()
}

/// The headline batching guarantee: a `get` of 100 small objects
/// all held by one owner costs exactly **one** `GET_MANY` RPC, visible
/// both in the interconnect counters and the per-verb client histogram.
/// The same 100 asked one `get` at a time cost one `GET_MANY` each.
#[test]
fn batched_get_of_100_objects_is_one_rpc() {
    let cluster = Cluster::launch(ClusterConfig::functional(2, 16 << 20)).unwrap();
    let producer = cluster.client(0).unwrap();
    // All 100 on node 0: one owner, hence exactly one batched RPC.
    let ids = owned_ids(&cluster, 0, "batch", 100);
    for (i, id) in ids.iter().enumerate() {
        producer.put(*id, &[i as u8; 64], &[]).unwrap();
    }

    let store_b = cluster.store(1);
    let got = store_b.get(&ids, Duration::from_secs(5)).unwrap();
    assert!(got.iter().all(Option::is_some), "all 100 resolve remotely");

    assert_eq!(
        store_b.disagg_stats().lookup_rpcs,
        1,
        "one owner, one batch, one round trip"
    );
    let snap = store_b.metrics_snapshot();
    let per_verb = snap
        .histogram("rpc.client.get_many.latency_ns")
        .expect("per-verb client histogram");
    assert_eq!(per_verb.count, 1);
    let batch = snap
        .histogram("disagg.get_many.batch_size")
        .expect("batch-size histogram");
    assert_eq!((batch.count, batch.max), (1, 100));

    // Every returned descriptor came back pinned on the owner; releasing
    // them all drains the ledger completely.
    assert_eq!(cluster.store(0).remote_pin_count(), 100);
    for id in &ids {
        store_b.release(*id).unwrap();
    }
    store_b.settle_releases();
    assert_eq!(cluster.store(0).remote_pin_count(), 0);

    for id in &ids {
        let got = store_b.get(&[*id], Duration::from_secs(5)).unwrap();
        assert!(got[0].is_some());
        store_b.release(*id).unwrap();
    }
    assert_eq!(
        store_b.disagg_stats().lookup_rpcs,
        1 + 100,
        "one round trip per remote id asked alone"
    );
}

/// `GET_MANY` answers per id: found ids come back pinned with their
/// descriptors, missing ids report `NotFound` — and the misses must not
/// leave a stray pin in the owner's ledger or a parked release behind.
#[test]
fn get_many_partial_success_pins_only_found_ids() {
    let cluster = Cluster::launch(ClusterConfig::functional(2, 4 << 20)).unwrap();
    let producer = cluster.client(0).unwrap();
    // Present ids pinned to node 0 so every pin lands in *its* ledger.
    let present = owned_ids(&cluster, 0, "part/yes", 3);
    let absent = ids("part/no", 2);
    for id in &present {
        producer.put(*id, &[9; 128], &[]).unwrap();
    }

    let mut all = present.clone();
    all.extend(&absent);
    let store_b = cluster.store(1);
    let got = store_b.get(&all, Duration::from_millis(200)).unwrap();
    assert!(got[..3].iter().all(Option::is_some), "present ids resolve");
    assert!(got[3..].iter().all(Option::is_none), "absent ids miss");

    // Pins exist for exactly the returned ids, nothing else.
    assert_eq!(cluster.store(0).remote_pin_count(), 3);
    for id in &present {
        store_b.release(*id).unwrap();
    }
    store_b.settle_releases();
    assert_eq!(cluster.store(0).remote_pin_count(), 0, "ledger drained");
    assert_eq!(store_b.pending_release_count(), 0);
    assert_eq!(cluster.store(0).pending_release_count(), 0);
    // An id that was never pinned has nothing to release.
    assert!(store_b.release(absent[0]).is_err());
}

/// Holds every answer node 1 reads from node 0 until the requests it was
/// armed for have all left on that link. Calls made at once then all
/// leave at one virtual instant, however their threads are scheduled:
/// without it an early answer could advance the clock before a late
/// call had left.
#[derive(Default)]
struct HoldAnswers {
    unsent: Mutex<usize>,
    all_sent: Condvar,
}

impl HoldAnswers {
    fn arm(&self, requests: usize) {
        *self.unsent.lock().unwrap() = requests;
    }
}

impl FaultPolicy for HoldAnswers {
    fn on_frame(&self, link: &str, dir: Direction, _: &ipc::Frame) -> FaultAction {
        if link == "1->0" {
            let mut unsent = self.unsent.lock().unwrap();
            match dir {
                Direction::Outbound if *unsent > 0 => {
                    *unsent -= 1;
                    let all_sent = *unsent == 0;
                    drop(unsent);
                    if all_sent {
                        self.all_sent.notify_all();
                    }
                }
                Direction::Outbound => {}
                Direction::Inbound => {
                    // Bounded, so a call that never leaves fails the
                    // overlap assert below instead of hanging the test.
                    let wait = Duration::from_secs(5);
                    drop(self.all_sent.wait_timeout_while(unsent, wait, |n| *n > 0));
                }
            }
        }
        FaultAction::Deliver
    }
}

/// With the pipelined interconnect, K concurrent remote gets share the
/// connection and their modeled round trips overlap on the virtual
/// clock; the old lock-step client paid K full round trips.
#[test]
fn pipelined_remote_gets_overlap_on_virtual_clock() {
    let hold = Arc::new(HoldAnswers::default());
    let mut config = ClusterConfig::paper_testbed(16 << 20);
    config.fault_policy = Some(hold.clone());
    let cluster = Cluster::launch(config).unwrap();
    let producer = cluster.client(0).unwrap();
    const K: usize = 8;
    // Owned by node 0, so every get from node 1 is one call to it.
    let seq_ids = owned_ids(&cluster, 0, "pipe/seq", K);
    let pipe_ids = owned_ids(&cluster, 0, "pipe/par", K);
    for id in seq_ids.iter().chain(&pipe_ids) {
        producer.put(*id, &[7; 1024], &[]).unwrap();
    }
    let store_b = cluster.store(1).clone();
    let clock = cluster.clock().clone();

    // Lock-step: K dependent gets, each paying its own round trip.
    let t0 = clock.now();
    for id in &seq_ids {
        let got = store_b.get(&[*id], Duration::from_secs(5)).unwrap();
        assert!(got[0].is_some());
    }
    let lock_step = clock.now() - t0;

    // Pipelined: K gets in flight at once on the same shared client.
    let barrier = std::sync::Barrier::new(K);
    hold.arm(K);
    let t1 = clock.now();
    std::thread::scope(|s| {
        for id in &pipe_ids {
            let store = &store_b;
            let barrier = &barrier;
            s.spawn(move || {
                barrier.wait();
                let got = store.get(&[*id], Duration::from_secs(5)).unwrap();
                assert!(got[0].is_some());
            });
        }
    });
    let pipelined = clock.now() - t1;

    assert!(
        pipelined * 2 <= lock_step,
        "pipelined {pipelined:?} should be well under lock-step {lock_step:?}"
    );

    for id in seq_ids.iter().chain(&pipe_ids) {
        store_b.release(*id).unwrap();
    }
}

/// A 3-node `paper_testbed` cluster with 16 sealed 1 KiB objects owned
/// by node 0 and 16 by node 2, to be read from node 1. With
/// `cross_spill`, each owner has lent half of its objects to the other,
/// so a read of all 32 maps two owners' segments and two holders'.
fn two_owner_bed(seed: u64, cross_spill: bool) -> (Cluster, Vec<ObjectId>, Vec<ObjectId>) {
    let mut config = ClusterConfig::paper_testbed(16 << 20);
    config.nodes = 3;
    config.seed = seed;
    let cluster = Cluster::launch(config).unwrap();
    let on_0 = owned_ids(&cluster, 0, "scatter/a", 16);
    let on_2 = owned_ids(&cluster, 2, "scatter/b", 16);
    for (node, ids) in [(0, &on_0), (2, &on_2)] {
        let producer = cluster.client(node).unwrap();
        for id in ids {
            producer.put(*id, &[node as u8; 1024], &[]).unwrap();
        }
    }
    if cross_spill {
        for (owner, holder, ids) in [(0, 2, &on_0), (2, 0, &on_2)] {
            for id in &ids[..8] {
                let adopted = cluster.store(owner).spill_to(*id, cluster.node_id(holder));
                assert!(adopted.unwrap(), "node {holder} adopts {id:?}");
            }
        }
    }
    (cluster, on_0, on_2)
}

/// The model time of one `get` of `ids` from `store`; every pin it took
/// is released (outside the timed span) before returning.
fn timed_get(cluster: &Cluster, store: &DisaggStore, ids: &[ObjectId]) -> Duration {
    let t0 = cluster.clock().now();
    let got = store.get(ids, Duration::from_secs(5)).unwrap();
    let took = cluster.clock().now() - t0;
    assert!(got.iter().all(Option::is_some), "every id resolves");
    for id in ids {
        store.release(*id).unwrap();
    }
    took
}

/// A get whose ids resolve at two peers asks both at once: on the
/// virtual clock it costs the slower of the two round trips, not their
/// sum — and it is still two round trips on the bill. With the owners
/// having lent half their objects to each other, it is the same two:
/// each owner answers for what it lent.
#[test]
fn multi_owner_get_overlaps_its_owners_on_the_virtual_clock() {
    const REPS: u32 = 50;
    for cross_spill in [false, true] {
        let (cluster, on_0, on_2) = two_owner_bed(0x5CA7, cross_spill);
        let reader = cluster.store(1).clone();
        let all: Vec<ObjectId> = on_0.iter().chain(&on_2).copied().collect();
        // Round trips one get of all 32 ids makes: one per owner, also
        // once half of each owner's ids are `Moved` — an owner answers
        // those with its holder's descriptor, and no holder is asked.
        let (mut together, mut in_turn) = (Duration::ZERO, Duration::ZERO);
        for _ in 0..REPS {
            let before = reader.disagg_stats().lookup_rpcs;
            together += timed_get(&cluster, &reader, &all);
            assert_eq!(reader.disagg_stats().lookup_rpcs - before, 2);
            in_turn += timed_get(&cluster, &reader, &on_0) + timed_get(&cluster, &reader, &on_2);
        }
        assert!(
            together * 4 <= in_turn * 3,
            "cross_spill={cross_spill}: {:?} per get of all 32 against {:?} for the same round \
             trips asked in turn",
            together / REPS,
            in_turn / REPS
        );
        // Eight ids of each owner are redirected, and every get above —
        // the one of 32 and the two of 16 — follows each of them once.
        let followed = reader
            .metrics_snapshot()
            .counter("disagg.elastic.redirects_followed");
        let redirected = if cross_spill { 16 } else { 0 };
        assert_eq!(followed, u64::from(REPS) * 2 * redirected);
        assert_eq!(cluster.audit(), Vec::<String>::new());
    }
}

/// Two runs of one seed cost the same model time to the nanosecond:
/// every call of a phase leaves the calling thread at one virtual
/// instant, in node order, and the answers are gathered in that order,
/// so a pass ends at `max(send + delayᵢ)` by construction — not at
/// whatever the scheduling of per-peer threads, a hasher's iteration
/// order or the order of completion happened to produce.
#[test]
fn same_seed_same_model_time() {
    let ends: Vec<Duration> = (0..8)
        .map(|_| {
            let (cluster, on_0, on_2) = two_owner_bed(0xD17, true);
            let reader = cluster.store(1).clone();
            let all: Vec<ObjectId> = on_0.iter().chain(&on_2).copied().collect();
            for _ in 0..20 {
                timed_get(&cluster, &reader, &all);
            }
            assert_eq!(cluster.audit(), Vec::<String>::new());
            cluster.clock().now()
        })
        .collect();
    assert!(
        ends.iter().all(|end| *end == ends[0]),
        "one seed, {} launches, different clocks: {ends:?}",
        ends.len()
    );
}

/// When two answers of one pass redirect the same id to different
/// holders, the first absorbed wins and the other lender's pin goes back
/// to it: the id resolves if either lender answers, and it ends with
/// exactly one pin, at whichever did. No holder is asked anything.
#[test]
fn two_answers_redirecting_one_id_to_different_holders_resolve_at_either() {
    let mut config = ClusterConfig::functional(5, 4 << 20);
    config.interconnect.max_attempts = 1;
    let mut cluster = Cluster::launch(config).unwrap();
    // Owned by the reader, so the lookup goes straight to the broadcast;
    // nodes 1 and 2 each hold a copy (what a migration race can leave
    // behind) and have lent it on — to node 3 and to node 4.
    let id = ObjectId::from_name(&cluster.owned_id(0, "two-holders"));
    for (lender, holder) in [(1, 3), (2, 4)] {
        let core = cluster.store(lender).core();
        core.create(id, 256, 0).unwrap();
        core.seal(id).unwrap();
        core.release(id).unwrap();
        let adopted = cluster.store(lender).spill_to(id, cluster.node_id(holder));
        assert!(adopted.unwrap());
    }
    let reader = cluster.store(0).clone();
    let pins_at_lenders = |cluster: &Cluster| {
        cluster.store(1).remote_pin_count() + cluster.store(2).remote_pin_count()
    };
    // The planted copies sit off their ring owner with no lease from it,
    // which `Cluster::audit` rightly reports (three ring violations), so
    // this test checks the pin ledgers alone: owner-side, held, parked.
    let pins = |cluster: &Cluster| -> Vec<(u64, u64, usize)> {
        (0..cluster.len())
            .map(|i| {
                let store = cluster.store(i);
                let parked = store.pending_release_count();
                (store.remote_pin_count(), store.held_remote_pins(), parked)
            })
            .collect()
    };

    // Both lenders answer: one pin stands, the other was handed back.
    let got = reader.get(&[id], Duration::ZERO).unwrap();
    assert!(got[0].is_some());
    reader.settle_releases();
    assert_eq!(reader.held_remote_pins(), 1);
    assert_eq!(pins_at_lenders(&cluster), 1);
    reader.release(id).unwrap();
    reader.settle_releases();
    assert_eq!(pins(&cluster), [(0, 0, 0); 5]);

    // The lender the first answer came from is gone: the other still
    // serves, and its holder's copy is read without a call to it.
    cluster.stop_rpc(1);
    let got = reader.get(&[id], Duration::ZERO).unwrap();
    assert!(got[0].is_some(), "node 4's copy must still resolve");
    assert_eq!(got[0].unwrap().seg.owner, cluster.node_id(4));
    assert_eq!(reader.held_remote_pins(), 1);
    assert_eq!(cluster.store(2).remote_pin_count(), 1);
    reader.release(id).unwrap();
    reader.settle_releases();
    assert_eq!(pins(&cluster), [(0, 0, 0); 5]);
}

/// `RELEASE` calls `store` has made, from its per-verb client histogram.
fn release_calls(store: &DisaggStore) -> u64 {
    let snap = store.metrics_snapshot();
    let releases = snap.histogram("rpc.client.release.latency_ns");
    releases.map_or(0, |h| h.count)
}

/// The pins one get took remotely go back together: a get of 32 ids
/// spread over two owners, then its 32 releases, costs one `RELEASE` per
/// owner, both sent when the last release comes. Until then every pin is
/// still held at its owner. A get of one id is no group, and its release
/// goes out at once. Nobody waits on a release, so none costs model
/// time; its answer is read when the reader settles.
#[test]
fn a_batch_gets_pins_go_back_in_one_release_per_owner() {
    let (cluster, on_0, on_2) = two_owner_bed(0xBA7C, false);
    let reader = cluster.store(1).clone();
    let all: Vec<ObjectId> = on_0.iter().chain(&on_2).copied().collect();
    let owner_pins = || cluster.store(0).remote_pin_count() + cluster.store(2).remote_pin_count();
    let calls = || release_calls(&reader);

    let got = reader.get(&all, Duration::from_secs(5)).unwrap();
    assert!(got.iter().all(Option::is_some), "every id resolves");
    assert_eq!(owner_pins(), 32);
    assert_eq!(reader.open_release_groups(), 1);
    let before = cluster.clock().now();
    for id in &all[..31] {
        reader.release(*id).unwrap();
        assert_eq!(owner_pins(), 32, "a member that is not the last waits");
    }
    reader.settle_releases();
    assert_eq!(calls(), 0);
    reader.release(all[31]).unwrap();
    reader.settle_releases();
    assert_eq!(cluster.clock().now(), before, "no release costs model time");
    assert_eq!(owner_pins(), 0);
    assert_eq!(reader.open_release_groups(), 0);
    // Two calls freed both owners' pins: one RELEASE per owner.
    assert_eq!(calls(), 2);
    assert_eq!(reader.disagg_stats().releases_forwarded, 32);

    // One id: no group, one call, sent by the release itself.
    let got = reader.get(&on_0[..1], Duration::from_secs(5)).unwrap();
    assert!(got[0].is_some());
    assert_eq!(reader.open_release_groups(), 0);
    let before = cluster.clock().now();
    reader.release(on_0[0]).unwrap();
    reader.settle_releases();
    assert_eq!(cluster.clock().now(), before);
    assert_eq!(calls(), 3);
    assert_eq!(cluster.audit(), Vec::<String>::new());
}
