//! The service topology: three applications wired into a tiered graph.
//!
//! The graph is the paper's missing distributed dimension made concrete:
//! clients enter at miniweb ([`NodeId::Web`]), miniweb's data-plane
//! sub-calls cross to minidb ([`NodeId::Db`]), and minide
//! ([`NodeId::Ide`]) sits to the side as an operator console probing the
//! web tier over its own channel. Every inter-tier exchange crosses a
//! bounded [`Channel`], which is where the IPC fault corpus bites.
//!
//! For process-level supervision the nodes double as components of a
//! [`RestartTree`](faultstudy_recovery::RestartTree) topology
//! ([`GRAPH_COMPONENTS`]): a `service` root with the three nodes as
//! volatile children, so escalation can take out one node, and
//! ultimately the whole service, exactly as the microreboot ladder does
//! for intra-process components.
//!
//! Every relation between nodes, edges and components is written once,
//! here: the application each node runs, the topology table of each
//! edge's channel and endpoints (its server is the node a fault on the
//! edge takes down; restarting either endpoint tears the channel down),
//! and the node ↔ component map.

use crate::channel::Channel;
use crate::fault::{EdgeId, GraphFaultEvent, GraphFaultPlan};
use faultstudy_apps::{spawn_app, AppState, Application};
use faultstudy_core::taxonomy::AppKind;
use faultstudy_env::Environment;
use faultstudy_micro::{ComponentDesc, StateKind};
use faultstudy_sim::time::{Duration, SimTime};

/// The service tiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeId {
    /// The front tier (miniweb): every client request enters here.
    Web,
    /// The data tier (minidb): serves the web tier's sub-calls.
    Db,
    /// The operator console (minide): probes the web tier.
    Ide,
}

impl NodeId {
    /// Every node, in index order.
    pub const ALL: [NodeId; 3] = [NodeId::Web, NodeId::Db, NodeId::Ide];

    /// The node's index in [`GRAPH_COMPONENTS`]: node `i` of
    /// [`NodeId::ALL`] is component `i + 1`, under the root at 0.
    pub(crate) fn component(self) -> usize {
        self as usize + 1
    }

    /// The node behind restart-tree component `component`, or `None` for
    /// the `service` root.
    pub(crate) fn of_component(component: usize) -> Option<NodeId> {
        NodeId::ALL.get(component.checked_sub(1)?).copied()
    }
}

/// The application each node runs, in [`NodeId::ALL`] order.
const NODE_APPS: [AppKind; 3] = [AppKind::Apache, AppKind::Mysql, AppKind::Gnome];

/// One edge of the topology table.
struct EdgeEnds {
    /// The channel's name.
    name: &'static str,
    /// The calling node, or `None` for the external clients.
    client: Option<NodeId>,
    /// The called node: the receiver of a request and the sender of a
    /// reply, so the endpoint a fault on either leg takes down.
    server: NodeId,
}

/// The topology table, in [`EdgeId::ALL`] order.
const EDGES: [EdgeEnds; 3] = [
    EdgeEnds { name: "client-web", client: None, server: NodeId::Web },
    EdgeEnds { name: "web-db", client: Some(NodeId::Web), server: NodeId::Db },
    EdgeEnds { name: "ide-web", client: Some(NodeId::Ide), server: NodeId::Web },
];

impl EdgeId {
    /// The node serving the edge: the one a crash or hang on it takes down.
    pub(crate) fn server(self) -> NodeId {
        EDGES[self as usize].server
    }

    /// Whether `node` is an endpoint of the edge, so that restarting it
    /// tears the edge's channel down.
    pub(crate) fn touches(self, node: NodeId) -> bool {
        let ends = &EDGES[self as usize];
        ends.server == node || ends.client == Some(node)
    }
}

/// The restart-tree view of the service for process-level supervision:
/// a `service` root with the three nodes as volatile children. Node boot
/// costs dominate channel resets by design — that gap is the mechanism
/// the recovery-plane race measures.
pub const GRAPH_COMPONENTS: [ComponentDesc; 4] = [
    ComponentDesc {
        name: "service",
        state_kind: StateKind::Volatile,
        boot_cost: Duration::from_millis(2_000),
        parent: None,
    },
    ComponentDesc {
        name: "node-web",
        state_kind: StateKind::Volatile,
        boot_cost: Duration::from_millis(800),
        parent: Some(0),
    },
    ComponentDesc {
        name: "node-db",
        state_kind: StateKind::Volatile,
        boot_cost: Duration::from_millis(800),
        parent: Some(0),
    },
    ComponentDesc {
        name: "node-ide",
        state_kind: StateKind::Volatile,
        boot_cost: Duration::from_millis(800),
        parent: Some(0),
    },
];

/// The wired service graph: three applications, three channels, and the
/// unit-start checkpoints recovery restores endpoints from.
pub struct ServiceGraph {
    /// The applications, in [`NodeId::ALL`] order.
    apps: [Box<dyn Application>; 3],
    /// Each application's unit-start checkpoint.
    checkpoints: [AppState; 3],
    /// The channels, in [`EdgeId::ALL`] order.
    channels: [Channel; 3],
    /// Index of the next unapplied event in the active plan.
    cursor: usize,
}

impl ServiceGraph {
    /// Spawns the three applications against `env`, in [`NodeId::ALL`]
    /// order, and wires the edges. Checkpoints are taken at construction —
    /// they are the clean states per-channel recovery microreboots
    /// endpoints back to.
    pub fn new(env: &mut Environment) -> ServiceGraph {
        let apps = NODE_APPS.map(|kind| spawn_app(kind, env));
        let checkpoints = apps.each_ref().map(|app| app.snapshot());
        let channels = EDGES.map(|ends| Channel::new(ends.name));
        ServiceGraph { apps, checkpoints, channels, cursor: 0 }
    }

    /// The channel behind `edge`.
    pub(crate) fn channel(&mut self, edge: EdgeId) -> &mut Channel {
        &mut self.channels[edge as usize]
    }

    /// The application at `node`.
    pub fn node(&mut self, node: NodeId) -> &mut dyn Application {
        self.apps[node as usize].as_mut()
    }

    /// Arms every plan event due at or before `now`, in schedule order.
    /// Returns how many armed. The cursor never rewinds, so each event
    /// arms exactly once per unit.
    pub(crate) fn apply_due(&mut self, plan: &GraphFaultPlan, now: SimTime) -> u64 {
        let mut armed = 0;
        while let Some(&GraphFaultEvent { at, kind }) = plan.events.get(self.cursor) {
            if at > now {
                break;
            }
            self.cursor += 1;
            self.channel(kind.site().edge).arm(kind);
            armed += 1;
        }
        armed
    }

    /// Restores `node` to its unit-start checkpoint — the state half of
    /// an endpoint microreboot or a process restart.
    pub(crate) fn restore_node(&mut self, node: NodeId) {
        self.apps[node as usize].restore(&self.checkpoints[node as usize]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{graph_plans, ChannelFaultKind};
    use faultstudy_micro::validate_topology;

    fn env() -> Environment {
        Environment::builder().seed(7).build()
    }

    #[test]
    fn component_topology_is_valid_and_indices_line_up() {
        validate_topology(&GRAPH_COMPONENTS).unwrap();
        let names = NodeId::ALL.map(|node| GRAPH_COMPONENTS[node.component()].name);
        assert_eq!(names, ["node-web", "node-db", "node-ide"]);
        for node in NodeId::ALL {
            assert_eq!(NodeId::of_component(node.component()), Some(node));
        }
        assert_eq!(NodeId::of_component(0), None, "the root is no node");
        assert_eq!(NodeId::of_component(GRAPH_COMPONENTS.len()), None);
    }

    #[test]
    fn the_table_wires_each_edge_to_its_endpoints() {
        let servers = EdgeId::ALL.map(EdgeId::server);
        assert_eq!(servers, [NodeId::Web, NodeId::Db, NodeId::Web]);
        let touched = NodeId::ALL.map(|node| EdgeId::ALL.map(|edge| edge.touches(node)));
        assert_eq!(touched, [[true, true, true], [false, true, false], [false, false, true]]);
    }

    #[test]
    fn apply_due_arms_each_event_exactly_once_in_order() {
        let mut e = env();
        let mut graph = ServiceGraph::new(&mut e);
        let plans = graph_plans(5);
        let plan = plans.iter().find(|p| p.kind == ChannelFaultKind::R4NullRecvBuffer).unwrap();
        assert_eq!(graph.apply_due(plan, SimTime::ZERO), 0, "nothing due at t=0");
        let armed = graph.apply_due(plan, plan.horizon());
        assert_eq!(armed, plan.events.len() as u64);
        assert_eq!(graph.apply_due(plan, plan.horizon()), 0, "cursor never rewinds");
    }
}
