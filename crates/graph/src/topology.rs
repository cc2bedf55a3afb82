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

    /// The node's index in [`GRAPH_COMPONENTS`] (root is 0).
    pub(crate) fn component(self) -> usize {
        match self {
            NodeId::Web => 1,
            NodeId::Db => 2,
            NodeId::Ide => 3,
        }
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
    web: Box<dyn Application>,
    db: Box<dyn Application>,
    ide: Box<dyn Application>,
    web_snapshot: AppState,
    db_snapshot: AppState,
    ide_snapshot: AppState,
    client_web: Channel,
    web_db: Channel,
    ide_web: Channel,
    /// Index of the next unapplied event in the active plan.
    cursor: usize,
}

impl ServiceGraph {
    /// Spawns the three applications against `env` and wires the edges.
    /// Checkpoints are taken at construction — they are the clean states
    /// per-channel recovery microreboots endpoints back to.
    pub fn new(env: &mut Environment) -> ServiceGraph {
        let web = spawn_app(AppKind::Apache, env);
        let db = spawn_app(AppKind::Mysql, env);
        let ide = spawn_app(AppKind::Gnome, env);
        let web_snapshot = web.snapshot();
        let db_snapshot = db.snapshot();
        let ide_snapshot = ide.snapshot();
        ServiceGraph {
            web,
            db,
            ide,
            web_snapshot,
            db_snapshot,
            ide_snapshot,
            client_web: Channel::new("client-web"),
            web_db: Channel::new("web-db"),
            ide_web: Channel::new("ide-web"),
            cursor: 0,
        }
    }

    /// The channel behind `edge`.
    pub(crate) fn channel(&mut self, edge: EdgeId) -> &mut Channel {
        match edge {
            EdgeId::ClientWeb => &mut self.client_web,
            EdgeId::WebDb => &mut self.web_db,
            EdgeId::IdeWeb => &mut self.ide_web,
        }
    }

    /// The application at `node`.
    pub fn node(&mut self, node: NodeId) -> &mut dyn Application {
        match node {
            NodeId::Web => self.web.as_mut(),
            NodeId::Db => self.db.as_mut(),
            NodeId::Ide => self.ide.as_mut(),
        }
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
        match node {
            NodeId::Web => self.web.restore(&self.web_snapshot),
            NodeId::Db => self.db.restore(&self.db_snapshot),
            NodeId::Ide => self.ide.restore(&self.ide_snapshot),
        }
    }

    /// Resets every channel incident to `node`, returning messages lost
    /// to the drains. Process-level restarts call this: rebooting an
    /// endpoint necessarily tears down its channels too.
    pub(crate) fn reset_channels_of(&mut self, node: NodeId) -> u64 {
        let mut lost = 0;
        for edge in EdgeId::ALL {
            let touches = match edge {
                EdgeId::ClientWeb => node == NodeId::Web,
                EdgeId::WebDb => node == NodeId::Web || node == NodeId::Db,
                EdgeId::IdeWeb => node == NodeId::Ide || node == NodeId::Web,
            };
            if touches {
                lost += self.channel(edge).reset();
            }
        }
        lost
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

    #[test]
    fn process_restart_of_web_drains_its_incident_channels() {
        let mut e = env();
        let mut graph = ServiceGraph::new(&mut e);
        graph.channel(EdgeId::ClientWeb).send("a").unwrap();
        graph.channel(EdgeId::WebDb).send("b").unwrap();
        graph.channel(EdgeId::IdeWeb).send("c").unwrap();
        assert_eq!(graph.reset_channels_of(NodeId::Web), 3);
        assert_eq!(graph.reset_channels_of(NodeId::Db), 0, "already drained");
    }
}
