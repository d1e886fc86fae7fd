//! The test bed: one launched 3-node cluster, a client per node, and the
//! bench-side table of the objects the operation stream names. Also the
//! end-of-run correctness gates, which read only public counters.

use crate::gen::{Noise, Rng, Target, Workload};
use disagg::{Cluster, ClusterConfig};
use obs::MetricsSnapshot;
use plasma::{ObjectId, PlasmaClient, PlasmaError};
use std::time::Duration;

pub const NODES: usize = 3;

/// A lost object must be a counted failure, not a 10-second hang.
pub const GET_TIMEOUT: Duration = Duration::from_millis(200);

/// What the bench knows about one stored object.
#[derive(Debug, Clone, Copy)]
pub struct Obj {
    pub id: ObjectId,
    pub len: u32,
    /// Offset of its payload in the [`Noise`] buffer.
    pub noise_off: u32,
    /// Node index of its ring owner.
    pub owner: usize,
}

/// The running system: shared, never mutated by the bench.
pub struct Rig {
    pub cluster: Cluster,
    /// One client per node, each connected to its node-local store.
    pub clients: Vec<PlasmaClient>,
}

/// The bench-side table of stored objects; the only part of a bed an
/// operation stream mutates.
pub struct Objects {
    workload: Workload,
    /// Objects stored before the timed phase; `None` once deleted.
    catalog: Vec<Option<Obj>>,
    /// Objects put during the timed phase, by put sequence number.
    fresh: Vec<Option<Obj>>,
}

pub struct Bed {
    pub workload: Workload,
    pub rig: Rig,
    pub objects: Objects,
}

/// The cluster every workload runs on: the paper's testbed configuration
/// with only the four fields below overridden. Allocator, shards, data
/// plane, ring, id cache, elastic tier and replication stay at whatever
/// the repository's defaults are, so a change of default is measured.
pub fn cluster_config(workload: Workload, seed: u64) -> ClusterConfig {
    let mut cfg = ClusterConfig::paper_testbed(workload.memory_per_node());
    cfg.nodes = NODES;
    cfg.seed = seed;
    // Deadlines are wall-clock timers; under virtual time nothing they
    // guard against can happen, and an expiry would be a false failure.
    cfg.interconnect.call_deadline = None;
    cfg
}

/// Name an object so that it ring-places on `owner` (if given) and record
/// where the ring put it.
fn place(cluster: &Cluster, base: &str, owner: Option<usize>, len: u32) -> Obj {
    let name = match owner {
        Some(n) => cluster.owned_id(n, base),
        None => base.to_string(),
    };
    let id = ObjectId::from_name(&name);
    let owner_node = cluster.store(0).ring_owner(id).expect("ring cluster");
    let owner = (0..NODES)
        .find(|&i| cluster.node_id(i) == owner_node)
        .expect("owner is a member");
    let head = u64::from_le_bytes(id.as_bytes()[..8].try_into().expect("8 bytes"));
    Obj {
        id,
        len,
        noise_off: Noise::offset(head),
        owner,
    }
}

impl Objects {
    /// Register the `seq`-th fresh object ahead of its put.
    pub fn new_fresh(&mut self, cluster: &Cluster, seq: u32, len: u32) -> Obj {
        let (base, owner) = self.workload.fresh_name(seq);
        let obj = place(cluster, &base, owner, len);
        let slot = seq as usize;
        if self.fresh.len() <= slot {
            self.fresh.resize(slot + 1, None);
        }
        self.fresh[slot] = Some(obj);
        obj
    }

    /// The object `t` names; `None` if its put failed or it was deleted.
    pub fn get(&self, t: Target) -> Option<Obj> {
        match t {
            Target::Catalog(i) => self.catalog[i as usize],
            Target::Fresh(s) => self.fresh.get(s as usize).copied().flatten(),
        }
    }

    /// Forget a deleted object, so `live_bytes` stays the live set.
    pub fn forget(&mut self, t: Target) {
        match t {
            Target::Catalog(i) => self.catalog[i as usize] = None,
            Target::Fresh(s) => self.fresh[s as usize] = None,
        }
    }

    /// Payload bytes of the objects currently stored.
    pub fn live_bytes(&self) -> u64 {
        let all = self.catalog.iter().chain(&self.fresh);
        all.flatten().map(|o| u64::from(o.len)).sum()
    }
}

impl Bed {
    /// Launch the cluster and store the workload's catalog, each object
    /// through the client of the node that owns it.
    pub fn launch(workload: Workload, seed: u64, noise: &Noise) -> Result<Bed, PlasmaError> {
        let cluster = Cluster::launch(cluster_config(workload, seed))?;
        let clients = (0..NODES)
            .map(|i| cluster.client(i))
            .collect::<Result<Vec<_>, PlasmaError>>()?;
        let mut catalog = Vec::new();
        for (i, entry) in workload
            .catalog(&mut Rng::new(seed))
            .into_iter()
            .enumerate()
        {
            let obj = place(&cluster, &workload.catalog_name(i), entry.owner, entry.len);
            clients[obj.owner].put(obj.id, noise.payload(obj.noise_off, obj.len), &[])?;
            catalog.push(Some(obj));
        }
        if workload == Workload::MixedZipf {
            // The workload's premise: node 0 starts above the spill
            // watermark, so the first operator tick has work to do.
            let ppm = cluster.store(0).memory_pressure_ppm();
            if ppm < 880_000 {
                return Err(PlasmaError::Protocol(format!(
                    "mixed_zipf: node 0 is only {ppm} ppm full after preload"
                )));
            }
        }
        Ok(Bed {
            workload,
            rig: Rig { cluster, clients },
            objects: Objects {
                workload,
                catalog,
                fresh: Vec::new(),
            },
        })
    }

    /// Bytes the stores' allocators hold, summed over nodes.
    pub fn allocated_bytes(&self) -> u64 {
        (0..NODES)
            .map(|i| self.rig.cluster.store(i).core().stats().allocated_bytes)
            .sum()
    }

    /// Every node's metric registry, merged by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let parts: Vec<MetricsSnapshot> = (0..NODES)
            .map(|i| self.rig.cluster.store(i).metrics_snapshot())
            .collect();
        MetricsSnapshot::merged(&parts)
    }

    /// Interconnect calls issued so far, by verb (`None`: all verbs).
    pub fn rpc_calls(snap: &MetricsSnapshot, verb: Option<&str>) -> u64 {
        snap.histograms_with_prefix("rpc.client.")
            .filter(|(name, _)| match verb {
                Some(v) => name.ends_with(&format!(".{v}.latency_ns")),
                None => name.ends_with(".latency_ns"),
            })
            .map(|(_, h)| h.count)
            .sum()
    }

    /// End-of-run gates. Each returned string is one violated promise.
    pub fn gate(&self, single_gets: u64) -> Vec<String> {
        let mut bad = Vec::new();
        let mut check = |ok: bool, what: String| {
            if !ok {
                bad.push(what);
            }
        };
        for i in 0..NODES {
            let s = self.rig.cluster.store(i);
            check(
                s.remote_pin_count() == 0,
                format!(
                    "node {i} still pins {} objects for peers",
                    s.remote_pin_count()
                ),
            );
            check(
                s.pending_release_count() == 0,
                format!("node {i} has {} releases parked", s.pending_release_count()),
            );
        }
        let snap = self.snapshot();
        let over_nodes = |f: &dyn Fn(&disagg::DisaggStore) -> u64| -> u64 {
            (0..NODES).map(|i| f(self.rig.cluster.store(i))).sum()
        };
        let evictions = over_nodes(&|s| s.core().stats().evictions);
        let lookups = over_nodes(&|s| s.disagg_stats().lookup_rpcs);
        let fallbacks = over_nodes(&|s| s.disagg_stats().ring_fallbacks);
        let counter = |name: &str| snap.counter(name);
        match self.workload {
            Workload::LocalHot => {
                let calls = Bed::rpc_calls(&snap, None);
                check(
                    calls == 0,
                    format!("local_hot issued {calls} interconnect calls"),
                );
            }
            Workload::RemoteRead => {
                let hits = counter("disagg.replica.local_hits");
                check(hits == 0, format!("remote_read had {hits} replica hits"));
                check(
                    lookups >= single_gets,
                    format!("remote_read: {lookups} lookup RPCs for {single_gets} gets"),
                );
            }
            Workload::WriteChurn => {
                check(
                    evictions == 0,
                    format!("write_churn evicted {evictions} objects"),
                );
            }
            Workload::MixedZipf => {
                check(
                    evictions == 0,
                    format!("mixed_zipf evicted {evictions} objects"),
                );
                check(
                    fallbacks == 0,
                    format!("mixed_zipf: {fallbacks} ring fallbacks"),
                );
                for name in [
                    "disagg.elastic.spills",
                    "disagg.elastic.redirects_followed",
                    "disagg.replica.local_hits",
                ] {
                    check(counter(name) > 0, format!("mixed_zipf: {name} stayed 0"));
                }
            }
        }
        bad
    }
}
