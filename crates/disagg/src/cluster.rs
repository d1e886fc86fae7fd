//! Simulated cluster harness.
//!
//! Launches an N-node memory-disaggregated Plasma deployment inside one
//! process: a shared [`Fabric`], one [`DisaggStore`] per node, a full mesh
//! of interconnect RPC channels (with gRPC-calibrated delay injection),
//! all served by one reader thread, and a Plasma IPC endpoint per store
//! for clients. The paper's testbed is the 2-node instance of this; the
//! design — and this harness — support "rack-scale solutions \[with\]
//! multiple nodes" (paper §V-B).

use crate::proto::method;
use crate::ring::Membership;
use crate::store::{DisaggConfig, DisaggStore, InterconnectConfig, Peer};
use ipc::fault::{FaultConn, FaultPolicy};
use ipc::{Conn, InprocHub};
use netsim::{LinkModel, SharedLink};
use plasma::{
    ClientCost, Notifications, ObjectId, PlasmaClient, PlasmaError, PlasmaServer, StoreConfig,
    StoreCore,
};
use rpclite::{ClientMetrics, NetCost, Reader, RpcClient, ServerHandle};
use std::sync::Arc;
use tfsim::{Clock, Fabric, NodeId};

/// Per-node-pair link selection: given directed pair `(i, j)`, the delay
/// model of the interconnect channel node `i` dials to node `j`. Produced
/// by topology expansions (e.g. `topo::ClusterSpec::link_map`) so a
/// cluster's mesh can have tiered intra-rack / cross-rack / cross-pod
/// links instead of one uniform `rpc_link`.
pub type LinkMap = Arc<dyn Fn(usize, usize) -> LinkModel + Send + Sync>;

/// Cluster construction parameters. Built by one of the two constructors
/// ([`ClusterConfig::paper_testbed`], [`ClusterConfig::functional`]),
/// which decide whether Plasma clients charge modeled IPC costs to the
/// clock; every public field may be overridden afterwards.
#[derive(Clone)]
pub struct ClusterConfig {
    /// Number of nodes (each runs one store).
    pub nodes: usize,
    /// Bytes of disaggregated memory donated per store.
    pub memory_per_node: usize,
    /// Delay model of the store-to-store RPC channel (every pair, unless
    /// overridden per pair by `link_map`).
    pub rpc_link: LinkModel,
    /// Optional per-pair override of `rpc_link`: when set, the channel
    /// from node `i` to node `j` uses `link_map(i, j)` instead. Delay
    /// seeding per pair is unchanged, so a map returning `rpc_link`
    /// everywhere reproduces the uniform mesh byte-for-byte.
    pub link_map: Option<LinkMap>,
    /// Whether Plasma clients charge modeled IPC costs to the clock.
    model_client_cost: bool,
    /// RNG seed for all delay sampling.
    pub seed: u64,
    /// Interconnect fault tolerance (deadlines, retries, peer health).
    pub interconnect: InterconnectConfig,
    /// Most in-flight (created, not yet sealed) objects each store admits
    /// before `create` sheds load with `Overloaded`. `0` disables
    /// admission control.
    pub max_inflight_creates: u64,
    /// Optional wire-level fault policy: every interconnect connection
    /// node `i` dials to node `j` is wrapped in an [`FaultConn`] labeled
    /// `"i->j"`, so a chaos harness can drop, delay, duplicate, corrupt
    /// or truncate store-to-store traffic. `None` (the default) leaves
    /// connections untouched.
    pub fault_policy: Option<Arc<dyn FaultPolicy>>,
}

impl std::fmt::Debug for ClusterConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterConfig")
            .field("nodes", &self.nodes)
            .field("memory_per_node", &self.memory_per_node)
            .field("rpc_link", &self.rpc_link)
            .field("link_map", &self.link_map.as_ref().map(|_| "<map>"))
            .field("model_client_cost", &self.model_client_cost)
            .field("seed", &self.seed)
            .field("interconnect", &self.interconnect)
            .field("max_inflight_creates", &self.max_inflight_creates)
            .field(
                "fault_policy",
                &self.fault_policy.as_ref().map(|_| "<policy>"),
            )
            .finish()
    }
}

impl ClusterConfig {
    /// The paper's testbed shape: two nodes, gRPC-calibrated interconnect,
    /// deterministic virtual time, modeled IPC costs.
    pub fn paper_testbed(memory_per_node: usize) -> Self {
        ClusterConfig {
            nodes: 2,
            memory_per_node,
            rpc_link: LinkModel::grpc_lan(),
            link_map: None,
            model_client_cost: true,
            seed: 0x7F1A,
            interconnect: InterconnectConfig::default(),
            max_inflight_creates: 0,
            fault_policy: None,
        }
    }

    /// Functional-test shape: free clocks, no delays, no cost modeling.
    pub fn functional(nodes: usize, memory_per_node: usize) -> Self {
        ClusterConfig {
            nodes,
            memory_per_node,
            rpc_link: LinkModel::instant(),
            link_map: None,
            model_client_cost: false,
            seed: 1,
            interconnect: InterconnectConfig::default(),
            max_inflight_creates: 0,
            fault_policy: None,
        }
    }
}

struct NodeRuntime {
    node: NodeId,
    store: DisaggStore,
    _plasma_server: PlasmaServer,
    /// `None` while the node's interconnect is stopped (fault injection).
    rpc_server: Option<ServerHandle>,
}

/// A running simulated cluster.
pub struct Cluster {
    fabric: Fabric,
    hub: InprocHub,
    /// The one thread that serves every node's interconnect.
    reader: Reader,
    nodes: Vec<NodeRuntime>,
    config: ClusterConfig,
}

impl Cluster {
    /// Launch a cluster per `config`.
    pub fn launch(config: ClusterConfig) -> Result<Cluster, PlasmaError> {
        assert!(config.nodes >= 1, "cluster needs at least one node");
        let fabric = Fabric::virtual_thymesisflow();
        let hub = InprocHub::new();
        let reader = Reader::start();

        // Stage 1: stores + their RPC and Plasma endpoints.
        let mut nodes = Vec::with_capacity(config.nodes);
        for i in 0..config.nodes {
            let node = fabric.register_node();
            let store_config = StoreConfig::new(format!("store-{i}"), config.memory_per_node);
            let core = StoreCore::new(&fabric, node, store_config)?;
            let store = DisaggStore::new(
                core,
                DisaggConfig {
                    interconnect: config.interconnect.clone(),
                    max_inflight_creates: config.max_inflight_creates,
                },
            );
            let rpc_listener = hub.bind(&format!("rpc-{i}"))?;
            let rpc_server = reader.serve(Box::new(rpc_listener), store.interconnect_service());
            store.served_by(reader.catch_up());
            let plasma_listener = hub.bind(&format!("plasma-{i}"))?;
            let plasma_server =
                plasma::serve_store(Box::new(plasma_listener), Arc::new(store.clone()));
            nodes.push(NodeRuntime {
                node,
                store,
                _plasma_server: plasma_server,
                rpc_server: Some(rpc_server),
            });
        }

        // Stage 2: full-mesh interconnect with per-pair delay injection.
        // Clients dial lazily through a connector, so a connection broken
        // by a peer stop (or an expired deadline) is transparently
        // redialed once the peer's server is back.
        for i in 0..config.nodes {
            // Per-verb call-latency histograms and failure counters,
            // registered once in the *calling* store's registry and shared
            // by its clients, so its snapshot covers the interconnect
            // client side at a size that does not grow with its peers.
            let metrics = ClientMetrics::register(nodes[i].store.core().registry(), method::VERBS);
            for j in 0..config.nodes {
                if i == j {
                    continue;
                }
                let model = match &config.link_map {
                    Some(map) => map(i, j),
                    None => config.rpc_link,
                };
                let net = NetCost {
                    link: SharedLink::new(model, config.seed ^ ((i as u64) << 32) ^ j as u64),
                    clock: fabric.clock().clone(),
                };
                let dial_hub = hub.clone();
                let target = format!("rpc-{j}");
                let fault = config.fault_policy.clone();
                let link = format!("{i}->{j}");
                let mut client = RpcClient::with_connector(
                    Box::new(move || {
                        dial_hub.connect(&target).map(|c| {
                            let conn = Box::new(c) as Box<dyn Conn>;
                            match &fault {
                                Some(policy) => Box::new(FaultConn::wrap(
                                    conn,
                                    link.clone(),
                                    Arc::clone(policy),
                                )) as Box<dyn Conn>,
                                None => conn,
                            }
                        })
                    }),
                    Some(net),
                );
                client.set_metrics(Arc::clone(&metrics));
                nodes[i].store.add_peer(Peer {
                    node: nodes[j].node,
                    name: format!("store-{j}"),
                    client: Arc::new(client),
                });
            }
        }

        // Stage 3: deterministic placement. Every store gets the same
        // epoch-1 membership table, so all rings agree from the start
        // (the steady state the gossip protocol converges to).
        let members: Vec<NodeId> = nodes.iter().map(|n| n.node).collect();
        for runtime in &nodes {
            runtime
                .store
                .set_membership(Membership::new(1, members.clone()));
        }

        Ok(Cluster {
            fabric,
            hub,
            reader,
            nodes,
            config,
        })
    }

    /// The shared fabric.
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    /// The simulation clock.
    pub fn clock(&self) -> &Clock {
        self.fabric.clock()
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the cluster has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The store running on node index `i`.
    pub fn store(&self, i: usize) -> &DisaggStore {
        &self.nodes[i].store
    }

    /// The fabric node id of node index `i`.
    pub fn node_id(&self, i: usize) -> NodeId {
        self.nodes[i].node
    }

    /// Settle every store's releases in flight
    /// ([`DisaggStore::settle_releases`]): once it returns, each owner
    /// has handled every `RELEASE` sent to it so far, and its sender has
    /// acted on the answer. A release is answered `Ok` before its owner
    /// handles it, so a read of an owner's pins — or a delete on the
    /// owner itself — right after another node's release settles first.
    pub fn settle_releases(&self) {
        for node in &self.nodes {
            node.store.settle_releases();
        }
    }

    /// Stop node `i`'s interconnect RPC server, simulating a crashed
    /// peer store. Returns once the server is fully quiescent (its name
    /// `rpc-{i}` unbound and the cluster's reader done with its
    /// connections); peers observe dead connections on their next call.
    /// The node's local Plasma endpoint, its fabric memory and every other
    /// node's interconnect stay up — only this node's interconnect is gone.
    pub fn stop_rpc(&mut self, i: usize) {
        if let Some(mut server) = self.nodes[i].rpc_server.take() {
            server.shutdown();
        }
    }

    /// Restart node `i`'s interconnect after [`Cluster::stop_rpc`], on the
    /// cluster's one reader. Peers redial lazily (their clients carry
    /// connectors) and their failure detectors restore the node to
    /// rotation on the next successful probe.
    pub fn restart_rpc(&mut self, i: usize) -> Result<(), PlasmaError> {
        if self.nodes[i].rpc_server.is_some() {
            return Ok(());
        }
        let listener = Box::new(self.hub.bind(&format!("rpc-{i}"))?);
        let service = self.nodes[i].store.interconnect_service();
        self.nodes[i].rpc_server = Some(self.reader.serve(listener, service));
        Ok(())
    }

    /// Connect a new Plasma client to the store on node `store_idx`,
    /// running on node `client_node_idx` of the fabric (which determines
    /// local-vs-remote buffer read costs).
    pub fn client_at(
        &self,
        store_idx: usize,
        client_node_idx: usize,
    ) -> Result<PlasmaClient, PlasmaError> {
        let conn = self.hub.connect(&format!("plasma-{store_idx}"))?;
        let cost = self.config.model_client_cost.then(|| {
            ClientCost::local_plasma(
                self.fabric.clock().clone(),
                self.config.seed ^ 0xC11E ^ store_idx as u64,
            )
        });
        Ok(PlasmaClient::with_cost(
            Box::new(conn),
            self.fabric.clone(),
            self.nodes[client_node_idx].node,
            cost,
        ))
    }

    /// Connect a client to its node-local store (the normal deployment:
    /// clients always talk to the store on their own node).
    pub fn client(&self, node_idx: usize) -> Result<PlasmaClient, PlasmaError> {
        self.client_at(node_idx, node_idx)
    }

    /// Subscribe to seal notifications from the store on node `i`.
    pub fn notifications(&self, i: usize) -> Result<Notifications, PlasmaError> {
        let conn = self.hub.connect(&format!("plasma-{i}"))?;
        Notifications::subscribe(Box::new(conn))
    }

    /// An object name derived from `base` — `base` itself or `"base~k"`
    /// — whose ring placement lands on node index `node_idx`. Placement
    /// is hash-determined, so tests that need an id on a *specific* node
    /// (e.g. "create locally on node 0, get remotely from node 1")
    /// probe suffixed variants until one lands there. Panics if none
    /// does within 10k probes, or 64 a member past 156 members (a fixed
    /// 10k missed one name in ≈ 17 500 at 1 024).
    pub fn owned_id(&self, node_idx: usize, base: &str) -> String {
        let target = self.nodes[node_idx].node;
        let ring = self.nodes[0].store.membership().map(crate::ring::Ring::new);
        let ring = ring.expect("launch installs a membership table on every store");
        if ring.places_on(ObjectId::from_name(base), target) {
            return base.to_string();
        }
        for k in 0..(64 * ring.membership().nodes.len()).max(10_000) {
            let name = format!("{base}~{k}");
            if ring.places_on(ObjectId::from_name(&name), target) {
                return name;
            }
        }
        panic!("no variant of {base:?} places on node index {node_idx}");
    }

    /// `count` distinct object names (`"base/i"` variants via
    /// [`Cluster::owned_id`]) all placed on node index `node_idx`.
    pub fn owned_ids(&self, node_idx: usize, base: &str, count: usize) -> Vec<String> {
        (0..count)
            .map(|i| self.owned_id(node_idx, &format!("{base}/{i}")))
            .collect()
    }
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("nodes", &self.nodes.len())
            .finish()
    }
}
