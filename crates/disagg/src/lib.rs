//! # disagg — the memory-disaggregated distributed Plasma store
//!
//! The paper's contribution: Plasma stores on different nodes are
//! interconnected (gRPC-style RPC for control, the ThymesisFlow fabric for
//! data), giving clients transparent access to objects anywhere in the
//! cluster. Objects are sharded — each lives in exactly one store's
//! disaggregated memory — and consumers read them in place through the
//! fabric rather than copying them over the network.
//!
//! * [`DisaggStore`] — the distributed store engine (implements
//!   [`plasma::ObjectStore`], so the stock Plasma client and server work
//!   unchanged on top).
//! * [`Cluster`] — one-call harness that launches an N-node simulated
//!   deployment.
//! * [`delegation`] — the one ledger of what each store holds for or at
//!   another (pins, staged creates, leases, replicas), and the one
//!   exchange that reconciles it. Pins are the paper's deferred
//!   "distributed object-usage sharing": an owner never evicts an object
//!   a remote client is reading.
//!
//! Remote lookups ride the batched `GET_MANY` interconnect verb: all ids
//! one peer must answer for travel in a single round trip.
//!
//! ## Example: two nodes sharing an object
//!
//! ```
//! use disagg::{Cluster, ClusterConfig};
//! use plasma::ObjectId;
//! use std::time::Duration;
//!
//! let cluster = Cluster::launch(ClusterConfig::functional(2, 1 << 20)).unwrap();
//! let producer = cluster.client(0).unwrap();
//! let consumer = cluster.client(1).unwrap();
//!
//! let id = ObjectId::from_name("shared-table");
//! producer.put(id, b"column data", &[]).unwrap();
//!
//! // The consumer's local store RPCs store 0, then the buffer is read
//! // directly from node 0's disaggregated memory over the fabric.
//! let buf = consumer.get_one(id, Duration::from_secs(1)).unwrap();
//! assert_eq!(buf.read_all().unwrap(), b"column data");
//! consumer.release(id).unwrap();
//! ```

#![deny(missing_docs)]

pub mod cluster;
pub mod delegation;
pub mod elastic;
pub mod health;
pub mod proto;
pub mod ring;
pub mod store;

pub use cluster::{Cluster, ClusterConfig, LinkMap};
pub use delegation::{DelegationRecord, Kind, Phase, ReconcileReport, Side};
pub use elastic::HeatMap;
pub use health::{Admission, HealthConfig, PeerHealth, PeerState, PeerStats, RetryPolicy};
pub use ring::{Membership, Ring};
pub use store::{DisaggConfig, DisaggStats, DisaggStore, InterconnectConfig, Peer};
pub use tfsim::NodeId;

#[cfg(test)]
mod tests {
    use super::*;
    use plasma::{ObjectId, ObjectStore, PlasmaError};
    use std::time::Duration;
    use tfsim::Path;

    fn two_nodes() -> Cluster {
        Cluster::launch(ClusterConfig::functional(2, 4 << 20)).unwrap()
    }

    #[test]
    fn remote_get_reads_through_fabric() {
        let c = two_nodes();
        let producer = c.client(0).unwrap();
        let consumer = c.client(1).unwrap();
        let id = ObjectId::from_name(&c.owned_id(0, "obj"));
        producer.put(id, &vec![0xEE; 50_000], b"meta").unwrap();

        let buf = consumer.get_one(id, Duration::from_secs(1)).unwrap();
        assert_eq!(buf.data().path(), Path::Remote);
        assert!(buf.read_all().unwrap().iter().all(|&b| b == 0xEE));
        assert_eq!(buf.metadata().read_all().unwrap(), b"meta");

        let snap = c.fabric().stats().snapshot();
        assert_eq!(snap.remote_read_bytes, 50_004);
        // Control went over RPC; data did not.
        assert_eq!(c.store(1).disagg_stats().lookup_rpcs, 1);
        consumer.release(id).unwrap();
    }

    #[test]
    fn local_get_needs_no_rpc() {
        let c = two_nodes();
        let client = c.client(0).unwrap();
        let id = ObjectId::from_name("local");
        client.put(id, b"here", &[]).unwrap();
        let _ = client.get_one(id, Duration::from_secs(1)).unwrap();
        assert_eq!(c.store(0).disagg_stats().lookup_rpcs, 0);
    }

    #[test]
    fn id_uniqueness_enforced_across_stores() {
        let c = two_nodes();
        let a = c.client(0).unwrap();
        let b = c.client(1).unwrap();
        let id = ObjectId::from_name("unique");
        a.put(id, b"first", &[]).unwrap();
        let err = b.create(id, 5, 0).unwrap_err();
        assert_eq!(err, PlasmaError::ObjectExists(id));
    }

    #[test]
    fn remote_pin_blocks_eviction_until_release() {
        // Store 0 is small; a remote reader pins an object, then store 0
        // comes under memory pressure.
        let c = Cluster::launch(ClusterConfig::functional(2, 1 << 20)).unwrap();
        let producer = c.client(0).unwrap();
        let consumer = c.client(1).unwrap();
        let pinned = ObjectId::from_name(&c.owned_id(0, "pinned"));
        producer.put(pinned, &vec![1; 600 << 10], &[]).unwrap();
        let buf = consumer.get_one(pinned, Duration::from_secs(1)).unwrap();
        assert_eq!(c.store(0).remote_pin_count(), 1);

        // Pressure: this create cannot evict the pinned object. (The id
        // must place on node 0 — the ring would otherwise route it to
        // node 1's uncontended store.)
        let big = ObjectId::from_name(&c.owned_id(0, "big"));
        let err = producer.create(big, 600 << 10, 0).unwrap_err();
        assert!(matches!(err, PlasmaError::OutOfMemory { .. }));
        assert!(buf.read_all().unwrap().iter().all(|&b| b == 1));

        // After release the usage feedback frees it for eviction.
        consumer.release(pinned).unwrap();
        assert_eq!(c.store(0).remote_pin_count(), 0);
        assert_eq!(c.store(1).disagg_stats().releases_forwarded, 1);
        producer.put(big, &vec![2; 600 << 10], &[]).unwrap();
        assert!(!producer.contains(pinned).unwrap());
    }

    #[test]
    fn contains_and_delete_forward_to_owner() {
        let c = two_nodes();
        let a = c.client(0).unwrap();
        let b = c.client(1).unwrap();
        let id = ObjectId::from_name("owned-by-0");
        a.put(id, b"x", &[]).unwrap();
        assert!(b.contains(id).unwrap());
        b.delete(id).unwrap();
        assert!(!a.contains(id).unwrap());
        assert!(!b.contains(id).unwrap());
    }

    #[test]
    fn delete_of_missing_object_errors_everywhere() {
        let c = two_nodes();
        let b = c.client(1).unwrap();
        let id = ObjectId::from_name("ghost");
        assert_eq!(b.delete(id).unwrap_err(), PlasmaError::ObjectNotFound(id));
    }

    #[test]
    fn rack_scale_all_pairs_share() {
        let c = Cluster::launch(ClusterConfig::functional(5, 4 << 20)).unwrap();
        let clients: Vec<_> = (0..5).map(|i| c.client(i).unwrap()).collect();
        let ids: Vec<ObjectId> = (0..5)
            .map(|i| ObjectId::from_name(&c.owned_id(i, &format!("from-{i}"))))
            .collect();
        for (i, client) in clients.iter().enumerate() {
            client
                .put(ids[i], format!("payload-{i}").as_bytes(), &[])
                .unwrap();
        }
        for (j, client) in clients.iter().enumerate() {
            for (i, &id) in ids.iter().enumerate() {
                let buf = client.get_one(id, Duration::from_secs(2)).unwrap();
                assert_eq!(buf.read_all().unwrap(), format!("payload-{i}").as_bytes());
                let expected_path = if i == j { Path::Local } else { Path::Remote };
                assert_eq!(buf.data().path(), expected_path);
                client.release(id).unwrap();
            }
        }
    }

    #[test]
    fn global_list_covers_all_nodes() {
        let c = Cluster::launch(ClusterConfig::functional(3, 4 << 20)).unwrap();
        for i in 0..3 {
            let client = c.client(i).unwrap();
            for j in 0..(i + 1) {
                let id = ObjectId::from_name(&c.owned_id(i, &format!("inv/{i}/{j}")));
                client.put(id, &[0; 100], &[]).unwrap();
            }
        }
        let inventory = c.store(0).global_list().unwrap();
        assert_eq!(inventory.len(), 3);
        let mut counts: Vec<usize> = inventory.iter().map(|(_, e)| e.len()).collect();
        counts.sort_unstable();
        assert_eq!(counts, vec![1, 2, 3]);
        let total_bytes: u64 = inventory
            .iter()
            .flat_map(|(_, e)| e.iter().map(|x| x.data_size))
            .sum();
        assert_eq!(total_bytes, 600);
    }

    #[test]
    fn get_times_out_when_object_is_nowhere() {
        let c = two_nodes();
        let client = c.client(0).unwrap();
        let id = ObjectId::from_name("nowhere");
        let out = client.get(&[id], Duration::from_millis(40)).unwrap();
        assert!(out[0].is_none());
    }

    #[test]
    fn batch_get_mixes_local_and_remote() {
        let c = two_nodes();
        let a = c.client(0).unwrap();
        let b = c.client(1).unwrap();
        let local = ObjectId::from_name(&c.owned_id(1, "on-1"));
        let remote = ObjectId::from_name(&c.owned_id(0, "on-0"));
        b.put(local, b"local-data", &[]).unwrap();
        a.put(remote, b"remote-data", &[]).unwrap();
        let got = b.get(&[local, remote], Duration::from_secs(1)).unwrap();
        let bufs: Vec<_> = got.into_iter().flatten().collect();
        assert_eq!(bufs.len(), 2);
        assert_eq!(bufs[0].read_all().unwrap(), b"local-data");
        assert_eq!(bufs[1].read_all().unwrap(), b"remote-data");
        assert_eq!(bufs[0].data().path(), Path::Local);
        assert_eq!(bufs[1].data().path(), Path::Remote);
    }

    #[test]
    fn unavailable_peer_surfaces_as_peer_unavailable_on_create() {
        use plasma::{StoreConfig, StoreCore};
        use rpclite::{Status, StatusCode};
        use std::sync::Arc;

        let fabric = tfsim::Fabric::virtual_thymesisflow();
        let node = fabric.register_node();
        let core = StoreCore::new(&fabric, node, StoreConfig::new("lonely", 1 << 20)).unwrap();
        let store = DisaggStore::new(core, DisaggConfig::default());

        // A peer whose service always fails (stand-in for an unreachable
        // or crashing store).
        let hub = ipc::InprocHub::new();
        let listener = hub.bind("dead-peer").unwrap();
        let svc = Arc::new(
            |_m: u32, _b: bytes::Bytes| -> Result<bytes::Bytes, Status> {
                Err(Status::new(StatusCode::Unavailable, "peer down"))
            },
        );
        let _srv = rpclite::serve(Box::new(listener), svc);
        let dead = tfsim::NodeId(99);
        store.add_peer(Peer {
            node: dead,
            name: "dead".into(),
            client: Arc::new(rpclite::RpcClient::new(Box::new(
                hub.connect("dead-peer").unwrap(),
            ))),
        });

        // Peers but no membership table: there is no owner to route to,
        // and a local create on a guess could fork the id.
        let orphan = ObjectId::from_name("no-table");
        let err = plasma::ObjectStore::create(&store, orphan, 8, 0).unwrap_err();
        assert!(
            matches!(&err, PlasmaError::PeerUnavailable(m) if m.contains("no membership table")),
            "{err:?}"
        );
        assert!(!store.core().exists_any_state(orphan));

        // Strict uniqueness: the dead peer owns this id on the ring, and
        // if the owner cannot confirm, the create fails with the typed
        // unavailability error rather than risking a duplicate id.
        assert!(store.set_membership(Membership::new(1, vec![node, dead])));
        let id = (0..)
            .map(|k| ObjectId::from_name(&format!("x~{k}")))
            .find(|id| store.ring_owner(*id) == Some(dead))
            .unwrap();
        let err = plasma::ObjectStore::create(&store, id, 8, 0).unwrap_err();
        assert!(matches!(err, PlasmaError::PeerUnavailable(_)), "{err:?}");
        // The failed create left no residue: nothing staged here, nothing
        // awaiting a seal at the owner.
        assert!(!store.core().exists_any_state(id));
        assert_eq!(
            plasma::ObjectStore::seal(&store, id).unwrap_err(),
            PlasmaError::ObjectNotFound(id)
        );
    }

    #[test]
    fn interconnect_thread_and_local_clients_share_the_store_safely() {
        // The paper's §IV thread-safety concern: the store's main servicing
        // path and the RPC server thread access the object table
        // concurrently. Hammer both sides at once.
        let c = two_nodes();
        let local = c.store(0).clone();
        let remote_client = c.client(1).unwrap();

        std::thread::scope(|s| {
            // Local churn on store 0 (the "main thread").
            s.spawn(move || {
                for i in 0..200u32 {
                    let id = ObjectId::from_name(&format!("churn/{i}"));
                    let loc = local.core().create(id, 64, 0).unwrap();
                    let map = local.core().local_mapping().unwrap();
                    map.write_at(loc.offset, &[i as u8; 64]).unwrap();
                    local.core().seal(id).unwrap();
                    local.core().release(id).unwrap();
                }
            });
            // Remote lookups hitting store 0's interconnect service.
            s.spawn(move || {
                for i in 0..200u32 {
                    let id = ObjectId::from_name(&format!("churn/{i}"));
                    let buf = remote_client.get_one(id, Duration::from_secs(30)).unwrap();
                    assert!(buf.read_all().unwrap().iter().all(|&b| b == i as u8));
                    remote_client.release(id).unwrap();
                }
            });
        });
        assert_eq!(c.store(0).remote_pin_count(), 0, "all remote pins released");
    }

    #[test]
    fn concurrent_create_same_id_yields_one_winner() {
        // Drive the create race through the store API on both nodes
        // concurrently, many rounds: the ring owner is the one arbiter.
        let c = two_nodes();
        let s0 = c.store(0).clone();
        let s1 = c.store(1).clone();
        for round in 0..20 {
            let id = ObjectId::from_name(&format!("race-{round}"));
            let (r0, r1) = std::thread::scope(|scope| {
                let t0 = scope.spawn(|| s0.create(id, 8, 0));
                let t1 = scope.spawn(|| s1.create(id, 8, 0));
                (t0.join().unwrap(), t1.join().unwrap())
            });
            let winners = [&r0, &r1].iter().filter(|r| r.is_ok()).count();
            assert_eq!(winners, 1, "round {round}: {r0:?} vs {r1:?}");
            // Clean up for the next round.
            let winner = if r0.is_ok() { &s0 } else { &s1 };
            winner.abort(id).unwrap();
        }
    }
}
