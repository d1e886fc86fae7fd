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
//!   another (pins, leases, replicas), and the one
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

mod audit;
pub mod cluster;
pub mod delegation;
pub mod elastic;
mod health;
pub mod proto;
pub mod ring;
pub mod store;

pub use cluster::{Cluster, ClusterConfig, LinkMap};
pub use delegation::{DelegationRecord, Kind, Phase, ReconcileReport, Side};
pub use elastic::HeatMap;
pub use health::{PeerState, PeerStats};
pub use ring::{Membership, Ring};
pub use store::{DisaggConfig, DisaggStats, DisaggStore, InterconnectConfig};
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
        // A builder's create is local: the owner refuses the id at the
        // seal at the latest, and the first object stands.
        let built = b.create(id, 5, 0).and_then(|builder| {
            builder.write(0, b"again")?;
            builder.seal()
        });
        assert_eq!(built.unwrap_err(), PlasmaError::ObjectExists(id));
        let first = b.get_one(id, Duration::from_secs(1)).unwrap();
        assert_eq!(first.read_all().unwrap(), b"first");
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

        // After release the usage feedback frees it for eviction, once
        // the owner has handled it.
        consumer.release(pinned).unwrap();
        c.settle_releases();
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
        store.connect_peers([dead], move |_| {
            rpclite::RpcClient::new(Box::new(hub.connect("dead-peer").unwrap()))
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

        // Strict uniqueness: the dead peer owns this id on the ring. A
        // builder's create is local, and if the owner cannot confirm the
        // id, the seal fails with the typed unavailability error rather
        // than risking a duplicate id.
        assert!(store.set_membership(Membership::new(1, vec![node, dead])));
        let id = (0..)
            .map(|k| ObjectId::from_name(&format!("x~{k}")))
            .find(|id| store.ring_owner(*id) == Some(dead))
            .unwrap();
        plasma::ObjectStore::create(&store, id, 8, 0).unwrap();
        let err = plasma::ObjectStore::seal(&store, id).unwrap_err();
        assert!(matches!(err, PlasmaError::PeerUnavailable(_)), "{err:?}");
        // The owner answered, so the copy is the creator's to abort, and
        // nothing of the create is left.
        plasma::ObjectStore::abort(&store, id).unwrap();
        assert!(!store.core().exists_any_state(id));
        assert!(store.delegations().is_empty());
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
        c.settle_releases();
        assert_eq!(c.store(0).remote_pin_count(), 0, "all remote pins released");
    }

    #[test]
    fn concurrent_create_same_id_yields_one_winner() {
        // Drive the create race through the store API on both nodes
        // concurrently, many rounds: the ring owner is the one arbiter,
        // at the creates or at the seals. Each node writes bytes of its
        // own: the same bytes would be one object, put twice.
        let c = two_nodes();
        let s0 = c.store(0).clone();
        let s1 = c.store(1).clone();
        let build = |s: &DisaggStore, id| {
            let loc = s.create(id, 8, 0)?;
            let mapping = s.core().mapping_for(&loc)?;
            mapping.write_at(loc.offset, &[s.node().0 as u8 + 1; 8])?;
            s.seal(id)
        };
        for round in 0..20 {
            let id = ObjectId::from_name(&format!("race-{round}"));
            let (r0, r1) = std::thread::scope(|scope| {
                let t0 = scope.spawn(|| build(&s0, id));
                let t1 = scope.spawn(|| build(&s1, id));
                (t0.join().unwrap(), t1.join().unwrap())
            });
            let winners = [&r0, &r1].iter().filter(|r| r.is_ok()).count();
            assert_eq!(winners, 1, "round {round}: {r0:?} vs {r1:?}");
            for (s, r) in [(&s0, &r0), (&s1, &r1)] {
                match r {
                    Ok(_) => s.release(id).unwrap(),
                    Err(e) => assert_eq!(*e, PlasmaError::ObjectExists(id)),
                }
                // The loser's copy, if its create got one.
                let _ = s.abort(id);
            }
            assert_eq!(
                c.store(0).core().list().len() + c.store(1).core().list().len(),
                round + 1
            );
        }
    }

    /// A leaf that panics stops its own node, not the cluster: node 2's
    /// interconnect panics on `GET_MANY`, and the one reader that serves
    /// every node stops node 2's server alone. Nodes 0 and 1 still serve
    /// each other, node 2 still serves its own clients, and node 0's get
    /// of an id node 2 owns returns without it, within the call deadline,
    /// with node 2 `Down` in node 0's detector: unreachable, not hung.
    #[test]
    fn a_panicking_leaf_stops_its_node_and_the_others_serve_on() {
        let c = Cluster::launch(ClusterConfig::functional(3, 4 << 20)).unwrap();
        let clients: Vec<_> = (0..3).map(|i| c.client(i).unwrap()).collect();
        let ids: Vec<_> = (0..3)
            .map(|i| ObjectId::from_name(&c.owned_id(i, "owned")))
            .collect();
        for (client, &id) in clients.iter().zip(&ids) {
            client.put(id, &[id.0[0]; 64], &[]).unwrap();
        }
        let reads = |client: &plasma::PlasmaClient, id: ObjectId| {
            let out = client.get(&[id], Duration::ZERO).unwrap();
            let read = out[0].as_ref().map(|buf| buf.read_all().unwrap());
            if read.is_some() {
                client.release(id).unwrap();
            }
            read
        };

        c.store(2).panic_on(proto::method::GET_MANY);
        let started = std::time::Instant::now();
        assert_eq!(reads(&clients[0], ids[2]), None, "node 2 is unreachable");
        assert!(started.elapsed() < store::DEFAULT_CALL_DEADLINE);
        assert_eq!(c.store(0).peer_state(c.node_id(2)), PeerState::Down);
        assert_eq!(c.store(0).peer_state(c.node_id(1)), PeerState::Up);

        let content = |id: ObjectId| Some(vec![id.0[0]; 64]);
        for i in 0..3 {
            assert_eq!(
                reads(&clients[i], ids[i]),
                content(ids[i]),
                "node {i}'s own id"
            );
        }
        assert_eq!(reads(&clients[0], ids[1]), content(ids[1]));
        assert_eq!(reads(&clients[1], ids[0]), content(ids[0]));
    }

    /// A local get's release is posted to its node's ring and applied at
    /// that store's next table access, whoever makes it: a delete another
    /// node forwards to the owner right after it succeeds, with nothing
    /// settled first.
    #[test]
    fn a_posted_release_is_applied_before_a_peers_delete() {
        let c = two_nodes();
        let (owner, other) = (c.client(0).unwrap(), c.client(1).unwrap());
        let id = ObjectId::from_name(&c.owned_id(0, "posted/deleted"));
        owner.put(id, b"read here", &[]).unwrap();
        let buf = owner.get_one(id, Duration::from_secs(1)).unwrap();
        assert_eq!(buf.data().path(), Path::Local);
        owner.release(id).unwrap();
        other.delete(id).unwrap();
        assert!(!c.store(0).core().contains(id));
    }

    /// A peer's pin still goes back by request, beside a posted release
    /// on the same client: once releases are settled the peer holds no
    /// pin for it, and both objects are deletable from the other node.
    #[test]
    fn a_posted_release_beside_a_peers_pin_leaves_the_peer_no_pin() {
        let c = two_nodes();
        let (zero, one) = (c.client(0).unwrap(), c.client(1).unwrap());
        let remote = ObjectId::from_name(&c.owned_id(0, "posted/remote"));
        let local = ObjectId::from_name(&c.owned_id(1, "posted/local"));
        zero.put(remote, b"at node 0", &[]).unwrap();
        one.put(local, b"at node 1", &[]).unwrap();
        for id in [remote, local] {
            one.get_one(id, Duration::from_secs(1)).unwrap();
        }
        assert_eq!(c.store(1).held_remote_pins(), 1);
        for id in [remote, local] {
            one.release(id).unwrap();
        }
        assert_eq!(c.store(1).held_remote_pins(), 0);
        c.settle_releases();
        assert_eq!(c.store(0).remote_pin_count(), 0, "node 0 holds no pin");
        assert_eq!(c.store(1).disagg_stats().releases_forwarded, 1);
        zero.delete(remote).unwrap();
        zero.delete(local).unwrap();
        assert!(c.audit().is_empty());
    }

    /// A batch that mixes pins here and a peer's pins goes back at its
    /// last release in two ways: the pins here are posted to the node's
    /// ring (no release reaches its table by request), and the peer's go
    /// in the group's one request, one `RELEASE` to their owner. Once
    /// releases are settled neither node counts a pin.
    #[test]
    fn a_mixed_batch_sends_a_peers_pins_in_one_request_beside_its_posted_releases() {
        let c = two_nodes();
        let (zero, one) = (c.client(0).unwrap(), c.client(1).unwrap());
        let ids = |node: usize, base: &str| -> Vec<ObjectId> {
            let names = c.owned_ids(node, base, 3);
            names.iter().map(|n| ObjectId::from_name(n)).collect()
        };
        let (remote, local) = (ids(0, "mixed/remote"), ids(1, "mixed/local"));
        for (client, ids) in [(&zero, &remote), (&one, &local)] {
            for &id in ids {
                client.put(id, b"mixed", &[]).unwrap();
            }
        }
        let batch: Vec<ObjectId> = remote
            .iter()
            .zip(&local)
            .flat_map(|(&r, &l)| [r, l])
            .collect();
        let got = one.get(&batch, Duration::from_secs(1)).unwrap();
        assert!(got.iter().all(Option::is_some));
        assert_eq!(c.store(1).held_remote_pins(), 3);
        let registry = c.store(1).core().registry();
        let requested_here = || registry.histogram("plasma.release.latency_ns").count();
        let here_before = requested_here();
        for &id in &batch {
            one.release(id).unwrap();
        }
        assert_eq!(requested_here(), here_before, "every pin here was posted");
        assert_eq!(c.store(1).held_remote_pins(), 0);
        c.settle_releases();
        let releases = registry.histogram("rpc.client.release.latency_ns").count();
        assert_eq!(
            releases, 1,
            "one RELEASE: the peer's pins went in one request"
        );
        assert_eq!(c.store(0).remote_pin_count(), 0, "node 0 holds no pin");
        let counted = c
            .store(1)
            .core()
            .list()
            .iter()
            .map(|o| o.ref_count)
            .sum::<u64>();
        assert_eq!(counted, 0, "node 1 counts no reference");
        assert!(c.audit().is_empty());
    }
}
