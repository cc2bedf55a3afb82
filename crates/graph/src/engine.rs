//! The graph engine: open-loop traffic driven across the service graph,
//! one chain (client → miniweb → minidb) per request, with the IPC fault
//! plan armed on the wire and one of two recovery planes answering.
//!
//! The engine runs on the single-app engine's open-loop driver,
//! [`drive_open_loop`] — sessions arrive on its event queue, think, and
//! issue requests, and its tick runs the operator-console probe, which
//! asks the web tier once per run of ticks between two requests — but
//! each request is served by one `Chain`: a client-level retry loop
//! around a web-tier call that may itself run a web-level retry loop
//! around the db sub-call. Every message of the chain crosses its edge
//! through the chain's one `transfer`, which consults the channel's fault
//! state and nothing else. Both loops share ONE chain deadline, so a storm
//! of nested retries can never charge the user more than [`CHAIN_BUDGET`]
//! — the end-to-end-timeout contract this module's tests pin under every
//! plan, plane and retry budget.
//!
//! The two recovery planes differ only in what a detected channel fault
//! costs and tears down:
//!
//! - **process** — the [`RestartTree`] plans a reboot scope for the
//!   faulted endpoint's component; every member restarts from its
//!   unit-start checkpoint, its incident channels are torn down with it,
//!   and the boot costs (hundreds of milliseconds) are charged.
//! - **channel** — the faulted channel alone is drained and reset, only
//!   the endpoint microreboots from its checkpoint, and a typed
//!   [`ChannelReset`] propagates upstream so the caller retries
//!   idempotently; total charge ~22 ms.
//!
//! Cascade accounting: a chain that met a fault records how far the
//! damage travelled — depth 1, absorbed by the tier adjacent to the
//! fault (an inner retry or an in-place recovery); depth 2, propagated
//! one tier up (the client had to retry); depth 3, user-visible loss.

use crate::fault::{EdgeId, FaultBehavior, GraphFaultPlan, Leg};
use crate::topology::{NodeId, ServiceGraph, GRAPH_COMPONENTS};
use faultstudy_apps::Request;
use faultstudy_env::Environment;
use faultstudy_obs::Histogram;
use faultstudy_recovery::{RebootScope, RestartTree};
use faultstudy_sim::time::{Duration, SimTime};
use faultstudy_traffic::{drive_open_loop, Answer, TrafficParams, UnitStats};
use serde::Serialize;

/// Service time the web tier charges per request it handles.
pub const WEB_SERVICE: Duration = Duration::from_micros(300);
/// Service time the db tier charges per sub-call.
pub const DB_SERVICE: Duration = Duration::from_micros(200);
/// Wire time per transfer leg on any channel.
pub const TRANSFER: Duration = Duration::from_micros(50);
/// How long a waiting tier takes to declare a wedged transfer hung.
pub const HANG_DETECT: Duration = Duration::from_millis(500);
/// How long a waiting tier takes to time out a silently lost message.
pub const LOST_TIMEOUT: Duration = Duration::from_millis(250);
/// Cost of draining and resetting one channel's state.
pub const CHANNEL_RESET: Duration = Duration::from_millis(2);
/// Cost of microrebooting one endpoint from its checkpoint.
pub const ENDPOINT_REBOOT: Duration = Duration::from_millis(20);
/// Cost of the whole-service rung of the process plane's ladder.
pub const PROCESS_REBOOT: Duration = Duration::from_millis(2_000);
/// End-to-end budget of one client chain, charged once across all hops.
pub const CHAIN_BUDGET: Duration = Duration::from_secs(4);
/// Operator-console probe cadence on the ide → web edge.
pub const PROBE_EVERY: Duration = Duration::from_millis(50);

/// Which recovery plane answers detected channel faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum PlaneKind {
    /// Process-level supervision: the restart tree reboots components.
    Process,
    /// Per-channel recovery: drain + reset the channel, microreboot only
    /// the endpoint, propagate [`ChannelReset`] upstream.
    Channel,
}

impl PlaneKind {
    /// Both planes, process first.
    pub const ALL: [PlaneKind; 2] = [PlaneKind::Process, PlaneKind::Channel];

    /// Stable short name (metrics label, report column).
    pub fn name(self) -> &'static str {
        match self {
            PlaneKind::Process => "process",
            PlaneKind::Channel => "channel",
        }
    }
}

/// The typed error a per-channel recovery propagates upstream: the named
/// channel was drained and reset, the exchange in flight is gone, and
/// the caller may retry idempotently.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChannelReset {
    /// The edge whose channel was reset.
    pub edge: EdgeId,
}

/// Per-edge wire ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub struct EdgeStats {
    /// Messages offered to the channel (requests, replies, retransmits).
    pub sends: u64,
    /// Messages that reached the far side.
    pub delivered: u64,
    /// Messages lost on the wire to faults.
    pub lost: u64,
    /// Duplicate deliveries (sender-state-not-updated re-offers).
    pub duplicated: u64,
    /// Retransmits after a failed exchange.
    pub retried: u64,
    /// Fault firings on this edge.
    pub faults: u64,
    /// Channel resets performed on this edge.
    pub resets: u64,
}

impl EdgeStats {
    /// Folds `other` into `self`.
    pub(crate) fn absorb(&mut self, other: &EdgeStats) {
        self.sends += other.sends;
        self.delivered += other.delivered;
        self.lost += other.lost;
        self.duplicated += other.duplicated;
        self.retried += other.retried;
        self.faults += other.faults;
        self.resets += other.resets;
    }
}

/// The three edges' ledgers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub struct GraphEdges {
    /// Clients → miniweb.
    pub client_web: EdgeStats,
    /// Miniweb → minidb.
    pub web_db: EdgeStats,
    /// Minide → miniweb (operator probes).
    pub ide_web: EdgeStats,
}

impl GraphEdges {
    /// The ledger behind `edge`.
    pub(crate) fn edge_mut(&mut self, edge: EdgeId) -> &mut EdgeStats {
        match edge {
            EdgeId::ClientWeb => &mut self.client_web,
            EdgeId::WebDb => &mut self.web_db,
            EdgeId::IdeWeb => &mut self.ide_web,
        }
    }

    /// Folds `other` into `self`.
    pub(crate) fn absorb(&mut self, other: &GraphEdges) {
        self.client_web.absorb(&other.client_web);
        self.web_db.absorb(&other.web_db);
        self.ide_web.absorb(&other.ide_web);
    }

    /// The three ledgers summed into one.
    pub fn total(&self) -> EdgeStats {
        let mut total = self.client_web;
        total.absorb(&self.web_db);
        total.absorb(&self.ide_web);
        total
    }
}

/// Per-unit graph outcome: the base request ledger plus the cascade,
/// amplification, and recovery-plane accounting the campaign folds.
#[derive(Debug, Clone, PartialEq, Default, Serialize)]
pub struct GraphUnitStats {
    /// The single-app ledger fields (offered/ok/dropped/latency/...).
    pub base: UnitStats,
    /// Per-edge wire ledgers.
    pub edges: GraphEdges,
    /// How far each faulted chain's damage travelled (1 = absorbed
    /// adjacent to the fault, 2 = propagated one tier, 3 = user-visible).
    pub cascade_depth: Histogram,
    /// Time from a chain's first fault to its eventual success, in
    /// nanoseconds of simulated time (recovered chains only).
    pub ttr: Histogram,
    /// Client chains that invoked the db tier at least once.
    pub db_first: u64,
    /// Db-tier invocations including retry-driven re-executions.
    pub db_seen: u64,
    /// Channel-plane recoveries (reset + endpoint microreboot).
    pub channel_recoveries: u64,
    /// Process-plane component/subtree/process restarts.
    pub node_restarts: u64,
    /// Operator-console probes completed on the ide → web edge.
    pub probes: u64,
}

impl GraphUnitStats {
    /// Requests the db tier saw per client chain that needed it — the
    /// downstream-amplification ratio. 1.0 means no retry ever re-drove
    /// the db; above 1.0 is retry amplification.
    pub fn amplification(&self) -> f64 {
        if self.db_first == 0 {
            return 1.0;
        }
        self.db_seen as f64 / self.db_first as f64
    }

    /// Folds `other` into `self`.
    pub fn absorb(&mut self, other: &GraphUnitStats) {
        self.base.absorb(&other.base);
        self.edges.absorb(&other.edges);
        self.cascade_depth.merge_from(&other.cascade_depth);
        self.ttr.merge_from(&other.ttr);
        self.db_first += other.db_first;
        self.db_seen += other.db_seen;
        self.channel_recoveries += other.channel_recoveries;
        self.node_restarts += other.node_restarts;
        self.probes += other.probes;
    }
}

/// One entry of the graph request mix: the client-visible web request
/// and, for data-plane entries, the db sub-call the web tier fans out.
#[derive(Debug, Clone)]
pub struct GraphRequest {
    /// The request the client sends the web tier.
    pub web: Request,
    /// The sub-call the web tier makes to the db tier, if any.
    pub db: Option<Request>,
}

/// The standard graph mix: half static web requests, half db-backed.
pub(crate) fn graph_mix() -> Vec<GraphRequest> {
    vec![
        GraphRequest { web: Request::new("GET /index.html"), db: None },
        GraphRequest { web: Request::new("AUTH admin"), db: None },
        GraphRequest { web: Request::new("KEEPALIVE 4"), db: None },
        GraphRequest { web: Request::new("GET /index.html"), db: Some(Request::new("PING")) },
        GraphRequest {
            web: Request::new("GET /index.html"),
            db: Some(Request::new("FLUSH TABLES")),
        },
        GraphRequest { web: Request::new("AUTH admin"), db: Some(Request::new("PING")) },
    ]
}

/// Drives one unit of open-loop traffic across the graph under `plan`,
/// with `plane` answering channel faults and `retry_budget` retries
/// available at each level of the chain.
///
/// Arrivals, sessions and the request ledger are [`drive_open_loop`]'s:
/// it hands every request to a new `Chain`, after the plan's due events
/// are applied, and ticks the console probe every [`PROBE_EVERY`].
#[allow(clippy::too_many_arguments)]
pub fn run_graph(
    env: &mut Environment,
    graph: &mut ServiceGraph,
    plan: &GraphFaultPlan,
    plane: PlaneKind,
    retry_budget: u32,
    params: &TrafficParams,
    arrival_seed: u64,
    session_master: u64,
    recovery_seed: u64,
) -> GraphUnitStats {
    let mut stats = GraphUnitStats::default();
    let mut tree = RestartTree::new(&GRAPH_COMPONENTS, recovery_seed);
    let mix = graph_mix();
    // The web tier's answer to the console since the last request.
    let mut console = None;
    let base = drive_open_loop(
        env,
        &mix,
        params,
        arrival_seed,
        session_master,
        Some(PROBE_EVERY),
        |env, req| match req {
            Some(req) => {
                console = None;
                graph.apply_due(plan, env.now());
                Some(Chain::new(graph, env, &mut tree, &mut stats, plane, retry_budget).serve(req))
            }
            None => {
                probe(graph, env, &mut stats, &mut console);
                None
            }
        },
    );
    // The chains counted failures, recoveries and watchdog fires into
    // `stats.base`; the driver ledgered everything else.
    stats.base = UnitStats {
        failures: stats.base.failures,
        recoveries: stats.base.recoveries,
        watchdog_fires: stats.base.watchdog_fires,
        ..base
    };
    stats
}

/// The operator console's request to the web tier.
const CONSOLE_PROBE: &str = "PROBE console";

/// One operator-console probe: minide sends a probe over its edge, the
/// web tier answers. No fault kind targets this edge; the probe keeps
/// the console channel live and measures that the graph stays responsive
/// to operators while the data plane is under fault.
///
/// The web tier answers `PROBE console` from its armed defects alone, and
/// only a request's chain can change them, so `console` keeps its answer
/// for every probe until the next request clears it: the web tier is
/// asked once per run of ticks. No probe consults a channel's fault state
/// either, so the plan's due events wait for the next chain, which arms
/// everything due by its start.
fn probe(
    graph: &mut ServiceGraph,
    env: &mut Environment,
    stats: &mut GraphUnitStats,
    console: &mut Option<bool>,
) {
    env.advance(TRANSFER);
    let ok = *console.get_or_insert_with(|| {
        let probe = Request::new(CONSOLE_PROBE);
        graph.node(NodeId::Web).handle(&probe, env).is_ok_and(|r| r.is_ok())
    });
    env.advance(TRANSFER);
    let edge = stats.edges.edge_mut(EdgeId::IdeWeb);
    edge.sends += 2;
    edge.delivered += 2;
    if ok {
        stats.probes += 1;
    }
}

/// One client chain in flight: the unit's graph, environment, restart
/// tree and ledger, borrowed for the chain, plus the chain's own
/// bookkeeping.
///
/// A request that fans out across tiers (client → miniweb → minidb) gets
/// ONE watchdog budget for the whole chain, fixed at the instant the
/// chain begins. Each hop charges its service, detection, timeout and
/// reboot delays through `charge`, which clamps them to the *remaining*
/// budget, so nested retries cannot stack per-hop deadlines past the
/// outer budget — without this, a chain of H hops with per-hop watchdog
/// W could burn H·W of user-visible time on a single request, which is
/// exactly the end-to-end-timeout bug the fault-tolerance literature
/// warns layered retry designs about.
struct Chain<'a> {
    graph: &'a mut ServiceGraph,
    env: &'a mut Environment,
    tree: &'a mut RestartTree,
    stats: &'a mut GraphUnitStats,
    plane: PlaneKind,
    /// Retries allowed at each level of the chain.
    budget: u32,
    deadline: SimTime,
    /// The chain's first fault instant: the start of its TTR span.
    first_fault: Option<SimTime>,
    client_retries: u32,
    /// Component the process plane last restarted; settled on success.
    restarted: Option<usize>,
    /// Whether the chain is already counted in `db_first`.
    counted_db: bool,
}

impl<'a> Chain<'a> {
    /// Opens a chain at the environment's current instant, with
    /// [`CHAIN_BUDGET`] to spend and `budget` retries at each level.
    fn new(
        graph: &'a mut ServiceGraph,
        env: &'a mut Environment,
        tree: &'a mut RestartTree,
        stats: &'a mut GraphUnitStats,
        plane: PlaneKind,
        budget: u32,
    ) -> Chain<'a> {
        let deadline = env.now().saturating_add(CHAIN_BUDGET);
        Chain {
            graph,
            env,
            tree,
            stats,
            plane,
            budget,
            deadline,
            first_fault: None,
            client_retries: 0,
            restarted: None,
            counted_db: false,
        }
    }

    /// Serves the chain end to end: the client's retry loop around
    /// `web_call`, then the answer's cascade depth, TTR and restart-tree
    /// settle.
    fn serve(mut self, req: &GraphRequest) -> Answer {
        let denied = loop {
            match self.web_call(req) {
                Ok(denied) => break denied,
                Err(_) if self.retry(EdgeId::ClientWeb, self.client_retries) => {
                    self.client_retries += 1;
                }
                Err(_) => {
                    // A defeated chain: user-visible loss is depth 3.
                    if self.first_fault.is_some() {
                        self.stats.cascade_depth.record(3);
                    }
                    return Answer::Dropped;
                }
            }
        };
        if let Some(t0) = self.first_fault {
            let depth = if self.client_retries > 0 { 2 } else { 1 };
            self.stats.cascade_depth.record(depth);
            self.stats.ttr.record(self.env.now().saturating_since(t0).as_nanos());
            if let Some(component) = self.restarted {
                self.tree.settle(component);
            }
        }
        Answer::Served { denied }
    }

    /// One client attempt: request leg, web service, the db sub-call if
    /// the request has one, reply leg. `Ok` says whether the answer is a
    /// denial.
    fn web_call(&mut self, req: &GraphRequest) -> Result<bool, ChannelReset> {
        let edge = EdgeId::ClientWeb;
        if self.expired() {
            return Err(ChannelReset { edge });
        }
        self.transfer(edge, Leg::Request)?;
        self.charge(WEB_SERVICE);
        let web_denied = self.handle(edge, &req.web)?;
        let mut db_denied = false;
        if let Some(db_req) = &req.db {
            if !self.counted_db {
                self.counted_db = true;
                self.stats.db_first += 1;
            }
            // A sub-call gone past the web tier's budget propagates its
            // typed reset upstream: the client is the next level that may
            // retry idempotently.
            db_denied = self.serve_db(db_req)?;
        }
        // No corpus kind targets this leg, but the consult keeps the wire
        // honest under future corpora.
        self.transfer(edge, Leg::Reply)?;
        Ok(web_denied || db_denied)
    }

    /// The web tier's db sub-call: its retry loop around `db_call`, with
    /// up to `budget` web-level retries before the failure propagates
    /// upstream as a [`ChannelReset`].
    fn serve_db(&mut self, req: &Request) -> Result<bool, ChannelReset> {
        let mut retries = 0;
        loop {
            match self.db_call(req) {
                Err(_) if self.retry(EdgeId::WebDb, retries) => retries += 1,
                answer => return answer,
            }
        }
    }

    /// One db attempt: request leg, db service, reply leg.
    fn db_call(&mut self, req: &Request) -> Result<bool, ChannelReset> {
        let edge = EdgeId::WebDb;
        if self.expired() {
            return Err(ChannelReset { edge });
        }
        self.transfer(edge, Leg::Request)?;
        // Db service: the sub-call executes — this is the work retries
        // re-drive, the amplification the campaign prices.
        self.charge(DB_SERVICE);
        self.stats.db_seen += 1;
        let denied = self.handle(edge, req)?;
        // Reply leg: db → web. This is where the send-side corpus bites.
        self.transfer(edge, Leg::Reply)?;
        Ok(denied)
    }

    /// Whether the level whose calls cross `edge`, having used `used`
    /// retries, may retry once more: within the retry budget and before
    /// the deadline. A granted retry is booked on `edge`.
    fn retry(&mut self, edge: EdgeId, used: u32) -> bool {
        let granted = used < self.budget && !self.expired();
        if granted {
            self.stats.edges.edge_mut(edge).retried += 1;
        }
        granted
    }

    /// Runs `req` on the node serving `edge`. A failure there is outside
    /// the wire corpus; it is treated as a crash of that node and
    /// recovered per plane. `Ok` says whether the answer is a denial.
    fn handle(&mut self, edge: EdgeId, req: &Request) -> Result<bool, ChannelReset> {
        match self.graph.node(edge.server()).handle(req, self.env) {
            Ok(resp) => Ok(!resp.is_ok()),
            Err(_) => {
                self.fail();
                self.recover(edge);
                Err(ChannelReset { edge })
            }
        }
    }

    /// Moves one message across `edge` on `leg`; every message of the
    /// chain crosses here. The fault the channel holds for the leg, if
    /// any, decides the outcome, and the typed reset says the exchange was
    /// torn down. Chains are synchronous in simulated time, so a message
    /// would come off the channel's queue within the exchange that put it
    /// there: the transfer consults the fault state alone, and every queue
    /// stays empty.
    fn transfer(&mut self, edge: EdgeId, leg: Leg) -> Result<(), ChannelReset> {
        self.stats.edges.edge_mut(edge).sends += 1;
        self.charge(TRANSFER);
        let Some(kind) = self.graph.channel(edge).fault_for(leg) else {
            self.stats.edges.edge_mut(edge).delivered += 1;
            return Ok(());
        };
        self.stats.edges.edge_mut(edge).faults += 1;
        self.fail();
        match kind.behavior() {
            FaultBehavior::CrashSender | FaultBehavior::CrashReceiver => {
                // The receiver of a request or the sender of a reply died:
                // either way the edge's server.
                self.stats.edges.edge_mut(edge).lost += 1;
                self.recover(edge);
                Err(ChannelReset { edge })
            }
            FaultBehavior::LoseMessage => {
                // Silent loss: the waiting side only learns from its timeout.
                self.stats.edges.edge_mut(edge).lost += 1;
                self.charge(LOST_TIMEOUT);
                self.stats.base.watchdog_fires += 1;
                Err(ChannelReset { edge })
            }
            FaultBehavior::Hang => {
                // The channel wedges; hang detection converts the silence
                // into a failure, then the plane repairs the channel.
                self.charge(HANG_DETECT);
                self.stats.base.watchdog_fires += 1;
                self.stats.edges.edge_mut(edge).lost += 1;
                self.recover(edge);
                Err(ChannelReset { edge })
            }
            FaultBehavior::HangAfterDeliver => {
                // The message WAS delivered; the sender's bookkeeping hangs
                // and re-offers it once recovered — a duplicate, then
                // success.
                self.charge(HANG_DETECT);
                self.stats.base.watchdog_fires += 1;
                let e = self.stats.edges.edge_mut(edge);
                e.delivered += 1;
                e.duplicated += 1;
                self.recover(edge);
                Ok(())
            }
        }
    }

    /// Runs the selected recovery plane for a fault on `edge`, whose
    /// damaged endpoint is the edge's server.
    fn recover(&mut self, edge: EdgeId) {
        let node = edge.server();
        self.stats.base.recoveries += 1;
        match self.plane {
            PlaneKind::Channel => {
                // Drain + reset only the faulted channel, microreboot only
                // the endpoint, charge the (small) fixed costs.
                self.reset(edge);
                self.graph.restore_node(node);
                self.charge(CHANNEL_RESET + ENDPOINT_REBOOT);
                self.stats.channel_recoveries += 1;
            }
            PlaneKind::Process => {
                let component = node.component();
                self.restarted = Some(component);
                let scope = self.tree.plan(component);
                let cost = self.tree.charge(scope);
                match scope {
                    RebootScope::Component(i) => {
                        self.restart(i);
                        self.charge(cost);
                    }
                    RebootScope::Subtree(p) => {
                        for m in self.tree.members(p) {
                            self.restart(m);
                        }
                        self.charge(cost);
                    }
                    RebootScope::Process => {
                        for node in NodeId::ALL {
                            self.restart(node.component());
                        }
                        self.charge(PROCESS_REBOOT);
                    }
                }
                self.stats.node_restarts += 1;
            }
        }
    }

    /// Restarts one restart-tree component: restores its node's
    /// checkpoint and resets every channel the node touches. The
    /// `service` root has no node; its restart is its members' job.
    fn restart(&mut self, component: usize) {
        let Some(node) = NodeId::of_component(component) else {
            return;
        };
        self.graph.restore_node(node);
        for edge in EdgeId::ALL {
            if edge.touches(node) {
                self.reset(edge);
            }
        }
    }

    /// Drains and resets `edge`'s channel, booking the reset on that edge.
    /// The drain loses nothing: transfers never queue a message.
    fn reset(&mut self, edge: EdgeId) {
        self.graph.channel(edge).reset();
        self.stats.edges.edge_mut(edge).resets += 1;
    }

    /// Counts a failure and notes the chain's first fault instant.
    fn fail(&mut self) {
        self.stats.base.failures += 1;
        self.first_fault.get_or_insert(self.env.now());
    }

    /// Charges `want` to the clock, clamped to what is left of the
    /// chain's deadline: a hop may detect, back off and reboot only within
    /// the whole chain's budget.
    fn charge(&mut self, want: Duration) {
        let charge = want.min(self.deadline.saturating_since(self.env.now()));
        if charge > Duration::ZERO {
            self.env.advance(charge);
        }
    }

    /// Whether the chain's deadline has passed.
    fn expired(&self) -> bool {
        self.env.now() >= self.deadline
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{graph_plans, ChannelFaultKind, FaultSite};
    use crate::topology::ServiceGraph;
    use faultstudy_core::taxonomy::FaultClass;
    use faultstudy_sim::rng::split_seed;
    use faultstudy_traffic::arrival::ArrivalKind;

    fn params(requests: u64) -> TrafficParams {
        TrafficParams::standard(ArrivalKind::Poisson, requests)
    }

    fn unit(kind: ChannelFaultKind, plane: PlaneKind, budget: u32, seed: u64) -> GraphUnitStats {
        let mut env = Environment::builder().seed(split_seed(seed, 0)).build();
        let mut graph = ServiceGraph::new(&mut env);
        let plans = graph_plans(seed);
        let plan = plans.iter().find(|p| p.kind == kind).unwrap();
        run_graph(
            &mut env,
            &mut graph,
            plan,
            plane,
            budget,
            &params(60),
            split_seed(seed, 1),
            split_seed(seed, 2),
            split_seed(seed, 3),
        )
    }

    fn control_plan() -> GraphFaultPlan {
        GraphFaultPlan {
            name: "control".to_owned(),
            class: FaultClass::EnvDependentTransient,
            kind: ChannelFaultKind::S1SenderPageFault,
            events: Vec::new(),
        }
    }

    #[test]
    fn healthy_graph_answers_every_request() {
        let mut env = Environment::builder().seed(3).build();
        let mut graph = ServiceGraph::new(&mut env);
        let plan = control_plan();
        let stats =
            run_graph(&mut env, &mut graph, &plan, PlaneKind::Channel, 3, &params(80), 11, 12, 13);
        assert_eq!(stats.base.offered, 80);
        assert_eq!(stats.base.ok + stats.base.denied, 80);
        assert_eq!(stats.base.dropped, 0);
        assert_eq!(stats.base.failures, 0);
        assert!(stats.db_first > 0, "the mix reaches the db tier");
        assert!((stats.amplification() - 1.0).abs() < f64::EPSILON, "no retries, no amplification");
        assert!(stats.probes > 0, "the operator console stayed live");
        assert!(stats.cascade_depth.count() == 0);
    }

    #[test]
    fn graph_units_replay_byte_identically() {
        let a = unit(ChannelFaultKind::S6StateNotResetSend, PlaneKind::Process, 3, 21);
        let b = unit(ChannelFaultKind::S6StateNotResetSend, PlaneKind::Process, 3, 21);
        assert_eq!(a, b);
    }

    #[test]
    fn reply_loss_amplifies_db_load_under_retries() {
        let s = unit(ChannelFaultKind::S1SenderPageFault, PlaneKind::Channel, 3, 9);
        assert!(s.base.failures > 0, "the plan fired");
        assert!(s.db_seen > s.db_first, "retries re-drove the db tier");
        assert!(s.amplification() > 1.0);
        assert_eq!(s.base.dropped, 0, "budget 3 salvages every one-shot loss");
    }

    #[test]
    fn zero_retry_budget_turns_faults_into_user_visible_drops() {
        let s = unit(ChannelFaultKind::S1SenderPageFault, PlaneKind::Channel, 0, 9);
        assert!(s.base.dropped > 0, "no budget, no salvage");
        assert!(s.cascade_depth.max() == Some(3));
    }

    #[test]
    fn channel_plane_beats_process_plane_on_ttr_for_sticky_faults() {
        let ch = unit(ChannelFaultKind::R2StateNotResetRecv, PlaneKind::Channel, 3, 17);
        let pr = unit(ChannelFaultKind::R2StateNotResetRecv, PlaneKind::Process, 3, 17);
        assert!(ch.ttr.count() > 0 && pr.ttr.count() > 0, "both planes recovered chains");
        let (ch_p50, pr_p50) = (ch.ttr.p50().unwrap(), pr.ttr.p50().unwrap());
        assert!(
            ch_p50 < pr_p50,
            "channel reset + endpoint microreboot must undercut a node restart: {ch_p50} vs {pr_p50}"
        );
        assert_eq!(ch.base.dropped, 0, "per-channel recovery lost nothing");
        assert!(ch.channel_recoveries > 0);
        assert!(pr.node_restarts > 0);
    }

    #[test]
    fn defects_defeat_both_planes() {
        for plane in PlaneKind::ALL {
            let s = unit(ChannelFaultKind::R1UnmappedReceiverSlot, plane, 3, 5);
            assert!(s.base.dropped > 0, "{}: an EI defect survives every repair", plane.name());
            assert!(s.base.availability() < 1.0);
        }
    }

    /// `transfer` and `handle` recover the edge's server whatever the
    /// fault. That is the endpoint the fault takes down because every
    /// crash-receiver kind sits on a request leg, whose receiver is the
    /// server, and every crash-sender and hang kind on a reply leg, whose
    /// sender is the server. A hang-after-deliver completes its exchange,
    /// which the chain has always granted on the db reply leg alone.
    #[test]
    fn every_fault_takes_down_its_edge_server() {
        let db_reply = FaultSite { edge: EdgeId::WebDb, leg: Leg::Reply };
        for kind in ChannelFaultKind::ALL {
            let site = kind.site();
            match kind.behavior() {
                FaultBehavior::CrashReceiver => assert_eq!(site.leg, Leg::Request, "{kind}"),
                FaultBehavior::CrashSender | FaultBehavior::Hang => {
                    assert_eq!(site.leg, Leg::Reply, "{kind}");
                }
                FaultBehavior::HangAfterDeliver => assert_eq!(site, db_reply, "{kind}"),
                FaultBehavior::LoseMessage => {}
            }
        }
    }

    /// A process restart of web resets each channel web touches once, and
    /// the resets lose nothing.
    #[test]
    fn a_process_restart_of_web_resets_each_edge_once() {
        let mut env = Environment::builder().seed(7).build();
        let mut graph = ServiceGraph::new(&mut env);
        let mut tree = RestartTree::new(&GRAPH_COMPONENTS, 13);
        let mut stats = GraphUnitStats::default();
        let mut chain =
            Chain::new(&mut graph, &mut env, &mut tree, &mut stats, PlaneKind::Process, 3);
        chain.recover(EdgeId::ClientWeb);
        assert_eq!(stats.node_restarts, 1);
        for e in [stats.edges.client_web, stats.edges.web_db, stats.edges.ide_web] {
            assert_eq!((e.resets, e.lost), (1, 0));
        }
    }

    #[test]
    fn chain_charges_clamp_to_the_deadline_and_an_expired_chain_stops() {
        let mut env = Environment::builder().seed(3).build();
        let mut graph = ServiceGraph::new(&mut env);
        let mut tree = RestartTree::new(&GRAPH_COMPONENTS, 13);
        let mut stats = GraphUnitStats::default();
        let t0 = env.now();
        let mut chain =
            Chain::new(&mut graph, &mut env, &mut tree, &mut stats, PlaneKind::Channel, 3);
        chain.charge(Duration::from_secs(1));
        assert_eq!(chain.env.now(), t0 + Duration::from_secs(1), "within budget, charged whole");
        assert!(chain.retry(EdgeId::ClientWeb, 2), "budget and deadline allow a retry");
        assert!(!chain.retry(EdgeId::ClientWeb, 3), "the level's retries are spent");
        chain.charge(Duration::from_secs(5));
        assert_eq!(chain.env.now(), t0 + CHAIN_BUDGET, "clamped to what is left");
        assert!(!chain.retry(EdgeId::ClientWeb, 0), "past its deadline, a chain refuses retries");
        assert!(chain.web_call(&graph_mix()[0]).is_err(), "and attempts nothing");
        chain.charge(Duration::from_secs(1));
        assert_eq!(chain.env.now(), t0 + CHAIN_BUDGET, "and is charged nothing more");
        assert_eq!(stats.edges.client_web.retried, 1, "only the granted retry is booked");
        assert_eq!(stats.edges.client_web.sends, 0);
    }

    /// Every plan × plane × retry budget, each chain timed from its
    /// arrival to its answer: nested retries, timeouts and reboots never
    /// charge one chain more than [`CHAIN_BUDGET`], and the budget is not
    /// vacuous — some chains spend all of it.
    #[test]
    fn no_chain_is_charged_more_than_the_chain_budget() {
        let mix = graph_mix();
        let (mut chains, mut worst) = (0u32, Duration::ZERO);
        for seed in 1..=4 {
            for plan in graph_plans(seed) {
                for plane in PlaneKind::ALL {
                    for budget in [0, 1, 3] {
                        let mut env = Environment::builder().seed(split_seed(seed, 0)).build();
                        let mut graph = ServiceGraph::new(&mut env);
                        let mut tree = RestartTree::new(&GRAPH_COMPONENTS, split_seed(seed, 3));
                        let mut stats = GraphUnitStats::default();
                        drive_open_loop(
                            &mut env,
                            &mix,
                            &params(200),
                            split_seed(seed, 1),
                            split_seed(seed, 2),
                            None,
                            |env, req| {
                                graph.apply_due(&plan, env.now());
                                let start = env.now();
                                let chain = Chain::new(
                                    &mut graph, env, &mut tree, &mut stats, plane, budget,
                                );
                                let answer = chain.serve(req?);
                                chains += 1;
                                worst = worst.max(env.now() - start);
                                Some(answer)
                            },
                        );
                    }
                }
            }
        }
        assert_eq!(chains, 4 * 12 * 2 * 3 * 200, "every offered request is one chain");
        assert_eq!(worst, CHAIN_BUDGET, "no chain outlives its budget, and some reach it");
    }

    /// The console as it probed before: each probe sends over the ide →
    /// web channel's queue and asks the web tier itself.
    fn probe_alone(graph: &mut ServiceGraph, env: &mut Environment, stats: &mut GraphUnitStats) {
        let edge = stats.edges.edge_mut(EdgeId::IdeWeb);
        edge.sends += 1;
        env.advance(TRANSFER);
        let console = Request::new(CONSOLE_PROBE);
        let _ = graph.channel(EdgeId::IdeWeb).send(console.body.clone());
        let _ = graph.channel(EdgeId::IdeWeb).recv();
        let ok = graph.node(NodeId::Web).handle(&console, env).map(|r| r.is_ok()).unwrap_or(false);
        env.advance(TRANSFER);
        let edge = stats.edges.edge_mut(EdgeId::IdeWeb);
        edge.sends += 1;
        edge.delivered += 2;
        if ok {
            stats.probes += 1;
        }
    }

    /// `run_graph` with every tick applying the plan's due events and
    /// running its own `probe_alone`. Returns the ledger and the ticks
    /// served.
    fn run_graph_probing_alone(
        env: &mut Environment,
        graph: &mut ServiceGraph,
        plan: &GraphFaultPlan,
        plane: PlaneKind,
        budget: u32,
        params: &TrafficParams,
        seed: u64,
    ) -> (GraphUnitStats, u64) {
        let mut stats = GraphUnitStats::default();
        let mut tree = RestartTree::new(&GRAPH_COMPONENTS, split_seed(seed, 3));
        let mut ticks = 0;
        let base = drive_open_loop(
            env,
            &graph_mix(),
            params,
            split_seed(seed, 1),
            split_seed(seed, 2),
            Some(PROBE_EVERY),
            |env, req| {
                graph.apply_due(plan, env.now());
                match req {
                    Some(req) => Some(
                        Chain::new(graph, env, &mut tree, &mut stats, plane, budget).serve(req),
                    ),
                    None => {
                        probe_alone(graph, env, &mut stats);
                        ticks += 1;
                        None
                    }
                }
            },
        );
        let base = UnitStats {
            failures: stats.base.failures,
            recoveries: stats.base.recoveries,
            watchdog_fires: stats.base.watchdog_fires,
            ..base
        };
        (GraphUnitStats { base, ..stats }, ticks)
    }

    /// A run of probes sharing one web-tier answer books what probing
    /// each tick alone books, for every plan × plane × retry budget under
    /// every arrival curve: the same ledger and the same final clock, with
    /// one completed probe per tick. `run_graph` sends nothing on any
    /// channel, where the lone probes send one message per tick on the
    /// console's.
    #[test]
    fn a_probe_run_books_what_probing_each_tick_books() {
        for seed in 1..=4 {
            for arrival in ArrivalKind::ALL {
                let params = TrafficParams::standard(arrival, 60);
                for plan in graph_plans(seed) {
                    for plane in PlaneKind::ALL {
                        for budget in [0, 1, 3] {
                            let what = format!(
                                "{} {plane:?} b{budget} {arrival:?} seed {seed}",
                                plan.name
                            );
                            let mut env = Environment::builder().seed(split_seed(seed, 0)).build();
                            let mut graph = ServiceGraph::new(&mut env);
                            let runs = run_graph(
                                &mut env,
                                &mut graph,
                                &plan,
                                plane,
                                budget,
                                &params,
                                split_seed(seed, 1),
                                split_seed(seed, 2),
                                split_seed(seed, 3),
                            );
                            let mut ref_env =
                                Environment::builder().seed(split_seed(seed, 0)).build();
                            let mut ref_graph = ServiceGraph::new(&mut ref_env);
                            let (single, ticks) = run_graph_probing_alone(
                                &mut ref_env,
                                &mut ref_graph,
                                &plan,
                                plane,
                                budget,
                                &params,
                                seed,
                            );
                            assert_eq!(runs, single, "{what}");
                            assert_eq!(env.now(), ref_env.now(), "{what}");
                            assert_eq!(runs.probes, ticks, "{what}: one probe per tick");
                            for edge in EdgeId::ALL {
                                assert_eq!(
                                    graph.channel(edge).send("next"),
                                    Ok(0),
                                    "{what}: {edge:?}"
                                );
                            }
                            assert_eq!(ref_graph.channel(EdgeId::IdeWeb).send("next"), Ok(ticks));
                        }
                    }
                }
            }
        }
    }
}
