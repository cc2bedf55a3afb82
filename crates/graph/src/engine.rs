//! The graph engine: open-loop traffic driven across the service graph,
//! one chain (client → miniweb → minidb) per request, with the IPC fault
//! plan armed on the wire and one of two recovery planes answering.
//!
//! The engine runs on the single-app engine's open-loop driver,
//! [`drive_open_loop`] — sessions arrive on its event queue, think, and
//! issue requests, and its tick runs the operator-console probe — but
//! each request is served by `serve_chain`: a client-level retry loop
//! around a web-tier call that may itself run a web-level retry loop
//! around the db sub-call. Both loops share ONE chain deadline, so a
//! storm of nested retries can never charge the user more than
//! [`CHAIN_BUDGET`] — the end-to-end-timeout contract this module's tests
//! pin under every plan, plane and retry budget.
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
use serde::{Deserialize, Serialize};
use std::borrow::Cow;

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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChannelReset {
    /// The edge whose channel was reset.
    pub edge: EdgeId,
}

/// Per-edge wire ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct EdgeStats {
    /// Messages offered to the channel (requests, replies, retransmits).
    pub sends: u64,
    /// Messages that reached the far side.
    pub delivered: u64,
    /// Messages lost on the wire (faults and recovery drains).
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
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
}

/// Per-unit graph outcome: the base request ledger plus the cascade,
/// amplification, and recovery-plane accounting the campaign folds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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

impl Default for GraphUnitStats {
    fn default() -> GraphUnitStats {
        GraphUnitStats::new()
    }
}

impl GraphUnitStats {
    /// An empty ledger.
    pub(crate) fn new() -> GraphUnitStats {
        GraphUnitStats {
            base: UnitStats::new(),
            edges: GraphEdges::default(),
            cascade_depth: Histogram::new(),
            ttr: Histogram::new(),
            db_first: 0,
            db_seen: 0,
            channel_recoveries: 0,
            node_restarts: 0,
            probes: 0,
        }
    }

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

/// An end-to-end deadline shared by every hop of one client chain.
///
/// A request that fans out across tiers (client → miniweb → minidb) gets
/// ONE watchdog budget for the whole chain, fixed at the instant the
/// chain begins. Each hop charges its hang-detection, timeout and reboot
/// delays against the *remaining* budget via [`ChainDeadline::clamp`], so
/// nested retries cannot stack per-hop deadlines past the outer budget —
/// without this, a chain of H hops with per-hop watchdog W could burn H·W
/// of user-visible time on a single request, which is exactly the
/// end-to-end-timeout bug the fault-tolerance literature warns layered
/// retry designs about.
struct ChainDeadline {
    deadline: SimTime,
}

impl ChainDeadline {
    /// Opens a chain budget of `budget` starting at `now`.
    fn new(now: SimTime, budget: Duration) -> ChainDeadline {
        ChainDeadline { deadline: now.saturating_add(budget) }
    }

    /// Budget left at `now` (zero once expired).
    fn remaining(&self, now: SimTime) -> Duration {
        self.deadline.saturating_since(now)
    }

    /// Whether the budget is exhausted at `now`.
    fn expired(&self, now: SimTime) -> bool {
        self.remaining(now) == Duration::ZERO
    }

    /// Clamps a delay a hop wants to charge (a service time, a detection
    /// timeout, a reboot) to the budget remaining at `now`.
    fn clamp(&self, now: SimTime, want: Duration) -> Duration {
        want.min(self.remaining(now))
    }
}

/// The per-chain bookkeeping shared by both retry levels.
struct ChainCtx {
    chain: ChainDeadline,
    first_fault: Option<SimTime>,
    client_retries: u32,
    /// Component the process plane last restarted; settled on success.
    restarted: Option<usize>,
    counted_db: bool,
}

/// Drives one unit of open-loop traffic across the graph under `plan`,
/// with `plane` answering channel faults and `retry_budget` retries
/// available at each level of the chain.
///
/// Arrivals, sessions and the request ledger are [`drive_open_loop`]'s:
/// it hands every request to `serve_chain` and ticks the console probe
/// every [`PROBE_EVERY`], each after the plan's due events are applied.
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
    let mut stats = GraphUnitStats::new();
    let mut tree = RestartTree::new(
        &GRAPH_COMPONENTS,
        2,
        Duration::from_millis(50),
        Duration::from_secs(2),
        recovery_seed,
    );
    let mix = graph_mix();
    let base = drive_open_loop(
        env,
        &mix,
        params,
        arrival_seed,
        session_master,
        Some(PROBE_EVERY),
        |env, req| {
            graph.apply_due(plan, env.now());
            match req {
                Some(req) => {
                    Some(serve_chain(graph, env, &mut tree, plane, retry_budget, req, &mut stats))
                }
                None => {
                    probe(graph, env, &mut stats);
                    None
                }
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

/// One operator-console probe: minide sends a probe over its edge, the
/// web tier answers. No fault kind targets this edge; the probe keeps
/// the console channel live and measures that the graph stays responsive
/// to operators while the data plane is under fault.
fn probe(graph: &mut ServiceGraph, env: &mut Environment, stats: &mut GraphUnitStats) {
    let edge = stats.edges.edge_mut(EdgeId::IdeWeb);
    edge.sends += 1;
    env.advance(TRANSFER);
    let console = Request::new("PROBE console");
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

/// Serves one client chain end to end: a client-level retry loop around
/// the web call, which may run a web-level retry loop around the db
/// sub-call. One [`ChainDeadline`] bounds everything.
fn serve_chain(
    graph: &mut ServiceGraph,
    env: &mut Environment,
    tree: &mut RestartTree,
    plane: PlaneKind,
    retry_budget: u32,
    req: &GraphRequest,
    stats: &mut GraphUnitStats,
) -> Answer {
    let mut ctx = ChainCtx {
        chain: ChainDeadline::new(env.now(), CHAIN_BUDGET),
        first_fault: None,
        client_retries: 0,
        restarted: None,
        counted_db: false,
    };
    loop {
        if ctx.chain.expired(env.now()) {
            return finish_dropped(&mut ctx, stats);
        }
        // Request leg: client → web over the client-web channel.
        match transfer(
            graph,
            env,
            EdgeId::ClientWeb,
            Leg::Request,
            req.web.body.clone(),
            plane,
            tree,
            &mut ctx,
            stats,
        ) {
            Ok(()) => {}
            Err(ChannelReset { .. }) => {
                if retry_client(&mut ctx, retry_budget, env, stats) {
                    continue;
                }
                return finish_dropped(&mut ctx, stats);
            }
        }
        // Web service.
        advance_clamped(env, &ctx.chain, WEB_SERVICE);
        let web_result = graph.node(NodeId::Web).handle(&req.web, env);
        let web_denied = match web_result {
            Ok(resp) => !resp.is_ok(),
            Err(_) => {
                // An endpoint failure outside the wire corpus: treat it
                // as a crash of the web tier and recover per plane.
                stats.base.failures += 1;
                note_fault(&mut ctx, env);
                recover(graph, env, tree, plane, EdgeId::ClientWeb, NodeId::Web, &mut ctx, stats);
                if retry_client(&mut ctx, retry_budget, env, stats) {
                    continue;
                }
                return finish_dropped(&mut ctx, stats);
            }
        };
        // Db sub-call, with its own web-level retry loop.
        let mut db_denied = false;
        if let Some(db_req) = &req.db {
            if !ctx.counted_db {
                ctx.counted_db = true;
                stats.db_first += 1;
            }
            match serve_db(graph, env, tree, plane, retry_budget, db_req, &mut ctx, stats) {
                Ok(denied) => db_denied = denied,
                Err(ChannelReset { .. }) => {
                    // The sub-call is gone past the web tier's budget:
                    // propagate the typed reset upstream — the client is
                    // the next level that may retry idempotently.
                    if retry_client(&mut ctx, retry_budget, env, stats) {
                        continue;
                    }
                    return finish_dropped(&mut ctx, stats);
                }
            }
        }
        // Reply leg: web → client. No corpus kind targets this leg, but
        // the consult keeps the wire honest under future corpora.
        match transfer(
            graph,
            env,
            EdgeId::ClientWeb,
            Leg::Reply,
            Cow::Borrowed("reply"),
            plane,
            tree,
            &mut ctx,
            stats,
        ) {
            Ok(()) => {}
            Err(ChannelReset { .. }) => {
                if retry_client(&mut ctx, retry_budget, env, stats) {
                    continue;
                }
                return finish_dropped(&mut ctx, stats);
            }
        }
        return finish_served(&mut ctx, tree, env, stats, web_denied || db_denied);
    }
}

/// The web tier's db sub-call: request leg, db service, reply leg, with
/// up to `retry_budget` web-level retries before the failure propagates
/// upstream as a [`ChannelReset`].
#[allow(clippy::too_many_arguments)]
fn serve_db(
    graph: &mut ServiceGraph,
    env: &mut Environment,
    tree: &mut RestartTree,
    plane: PlaneKind,
    retry_budget: u32,
    db_req: &Request,
    ctx: &mut ChainCtx,
    stats: &mut GraphUnitStats,
) -> Result<bool, ChannelReset> {
    let mut web_retries = 0u32;
    loop {
        if ctx.chain.expired(env.now()) {
            return Err(ChannelReset { edge: EdgeId::WebDb });
        }
        // Request leg: web → db.
        let body = db_req.body.clone();
        if transfer(graph, env, EdgeId::WebDb, Leg::Request, body, plane, tree, ctx, stats).is_err()
        {
            if web_retries < retry_budget && !ctx.chain.expired(env.now()) {
                web_retries += 1;
                stats.edges.edge_mut(EdgeId::WebDb).retried += 1;
                continue;
            }
            return Err(ChannelReset { edge: EdgeId::WebDb });
        }
        // Db service: the sub-call executes — this is the work retries
        // re-drive, the amplification the campaign prices.
        advance_clamped(env, &ctx.chain, DB_SERVICE);
        stats.db_seen += 1;
        let denied = match graph.node(NodeId::Db).handle(db_req, env) {
            Ok(resp) => !resp.is_ok(),
            Err(_) => {
                stats.base.failures += 1;
                note_fault(ctx, env);
                recover(graph, env, tree, plane, EdgeId::WebDb, NodeId::Db, ctx, stats);
                if web_retries < retry_budget && !ctx.chain.expired(env.now()) {
                    web_retries += 1;
                    stats.edges.edge_mut(EdgeId::WebDb).retried += 1;
                    continue;
                }
                return Err(ChannelReset { edge: EdgeId::WebDb });
            }
        };
        // Reply leg: db → web. This is where the send-side corpus bites.
        match reply_transfer(graph, env, plane, tree, ctx, stats) {
            ReplyOutcome::Delivered => return Ok(denied),
            ReplyOutcome::Lost => {
                if web_retries < retry_budget && !ctx.chain.expired(env.now()) {
                    web_retries += 1;
                    stats.edges.edge_mut(EdgeId::WebDb).retried += 1;
                    continue;
                }
                return Err(ChannelReset { edge: EdgeId::WebDb });
            }
        }
    }
}

/// What became of the db's reply.
enum ReplyOutcome {
    Delivered,
    Lost,
}

/// Moves the db's reply across the web-db channel, consulting the fault
/// state on the reply leg — the site of every send-side corpus kind.
fn reply_transfer(
    graph: &mut ServiceGraph,
    env: &mut Environment,
    plane: PlaneKind,
    tree: &mut RestartTree,
    ctx: &mut ChainCtx,
    stats: &mut GraphUnitStats,
) -> ReplyOutcome {
    let edge = EdgeId::WebDb;
    stats.edges.edge_mut(edge).sends += 1;
    advance_clamped(env, &ctx.chain, TRANSFER);
    let Some(kind) = graph.channel(edge).fault_for(Leg::Reply) else {
        stats.edges.edge_mut(edge).delivered += 1;
        return ReplyOutcome::Delivered;
    };
    stats.edges.edge_mut(edge).faults += 1;
    stats.base.failures += 1;
    note_fault(ctx, env);
    match kind.behavior() {
        FaultBehavior::CrashSender => {
            // The db died after doing the work; the reply is gone.
            stats.edges.edge_mut(edge).lost += 1;
            recover(graph, env, tree, plane, edge, NodeId::Db, ctx, stats);
            ReplyOutcome::Lost
        }
        FaultBehavior::CrashReceiver => {
            stats.edges.edge_mut(edge).lost += 1;
            recover(graph, env, tree, plane, edge, NodeId::Web, ctx, stats);
            ReplyOutcome::Lost
        }
        FaultBehavior::LoseMessage => {
            // Silent loss: the web tier only learns from its timeout.
            stats.edges.edge_mut(edge).lost += 1;
            advance_clamped(env, &ctx.chain, LOST_TIMEOUT);
            stats.base.watchdog_fires += 1;
            ReplyOutcome::Lost
        }
        FaultBehavior::Hang => {
            // The channel wedges; hang detection converts the silence
            // into a failure, then the plane repairs the channel.
            advance_clamped(env, &ctx.chain, HANG_DETECT);
            stats.base.watchdog_fires += 1;
            stats.edges.edge_mut(edge).lost += 1;
            recover(graph, env, tree, plane, edge, NodeId::Db, ctx, stats);
            ReplyOutcome::Lost
        }
        FaultBehavior::HangAfterDeliver => {
            // The reply WAS delivered; the sender's bookkeeping hangs and
            // re-offers it once recovered — a duplicate, then success.
            advance_clamped(env, &ctx.chain, HANG_DETECT);
            stats.base.watchdog_fires += 1;
            let e = stats.edges.edge_mut(edge);
            e.delivered += 1;
            e.duplicated += 1;
            recover(graph, env, tree, plane, edge, NodeId::Db, ctx, stats);
            ReplyOutcome::Delivered
        }
    }
}

/// Moves one message across `edge` on `leg`, consulting fault state.
/// Returns the typed reset if the exchange was torn down. The body is a
/// request's own `Cow`, so a borrowed one crosses the wire uncopied.
#[allow(clippy::too_many_arguments)]
fn transfer(
    graph: &mut ServiceGraph,
    env: &mut Environment,
    edge: EdgeId,
    leg: Leg,
    body: Cow<'static, str>,
    plane: PlaneKind,
    tree: &mut RestartTree,
    ctx: &mut ChainCtx,
    stats: &mut GraphUnitStats,
) -> Result<(), ChannelReset> {
    stats.edges.edge_mut(edge).sends += 1;
    advance_clamped(env, &ctx.chain, TRANSFER);
    // Chains are synchronous in simulated time, so the queue is
    // transit-only: the message goes on the wire and comes off it within
    // the same exchange (the bounded-FIFO contract is pinned separately).
    let _ = graph.channel(edge).send(body);
    let fault = graph.channel(edge).fault_for(leg);
    let _ = graph.channel(edge).recv();
    let Some(kind) = fault else {
        stats.edges.edge_mut(edge).delivered += 1;
        return Ok(());
    };
    stats.edges.edge_mut(edge).faults += 1;
    stats.base.failures += 1;
    note_fault(ctx, env);
    match kind.behavior() {
        FaultBehavior::CrashReceiver | FaultBehavior::CrashSender => {
            stats.edges.edge_mut(edge).lost += 1;
            let endpoint = match edge {
                EdgeId::ClientWeb | EdgeId::IdeWeb => NodeId::Web,
                EdgeId::WebDb => NodeId::Db,
            };
            recover(graph, env, tree, plane, edge, endpoint, ctx, stats);
            Err(ChannelReset { edge })
        }
        FaultBehavior::LoseMessage => {
            stats.edges.edge_mut(edge).lost += 1;
            advance_clamped(env, &ctx.chain, LOST_TIMEOUT);
            stats.base.watchdog_fires += 1;
            Err(ChannelReset { edge })
        }
        FaultBehavior::Hang | FaultBehavior::HangAfterDeliver => {
            advance_clamped(env, &ctx.chain, HANG_DETECT);
            stats.base.watchdog_fires += 1;
            stats.edges.edge_mut(edge).lost += 1;
            let endpoint = match edge {
                EdgeId::ClientWeb | EdgeId::IdeWeb => NodeId::Web,
                EdgeId::WebDb => NodeId::Db,
            };
            recover(graph, env, tree, plane, edge, endpoint, ctx, stats);
            Err(ChannelReset { edge })
        }
    }
}

/// Runs the selected recovery plane for a fault on `edge` whose damaged
/// endpoint is `node`.
#[allow(clippy::too_many_arguments)]
fn recover(
    graph: &mut ServiceGraph,
    env: &mut Environment,
    tree: &mut RestartTree,
    plane: PlaneKind,
    edge: EdgeId,
    node: NodeId,
    ctx: &mut ChainCtx,
    stats: &mut GraphUnitStats,
) {
    stats.base.recoveries += 1;
    match plane {
        PlaneKind::Channel => {
            // Drain + reset only the faulted channel, microreboot only
            // the endpoint, charge the (small) fixed costs.
            let drained = graph.channel(edge).reset();
            let e = stats.edges.edge_mut(edge);
            e.resets += 1;
            e.lost += drained;
            graph.restore_node(node);
            advance_clamped(env, &ctx.chain, CHANNEL_RESET + ENDPOINT_REBOOT);
            stats.channel_recoveries += 1;
        }
        PlaneKind::Process => {
            let component = node.component();
            ctx.restarted = Some(component);
            let scope = tree.plan(component);
            let cost = tree.charge(scope);
            match scope {
                RebootScope::Component(i) => {
                    restart_component(graph, i, stats);
                    advance_clamped(env, &ctx.chain, cost);
                }
                RebootScope::Subtree(p) => {
                    for m in tree.members(p) {
                        restart_component(graph, m, stats);
                    }
                    advance_clamped(env, &ctx.chain, cost);
                }
                RebootScope::Process => {
                    for n in NodeId::ALL {
                        graph.restore_node(n);
                        count_resets(graph.reset_channels_of(n), n, stats);
                    }
                    advance_clamped(env, &ctx.chain, PROCESS_REBOOT);
                }
            }
            stats.node_restarts += 1;
        }
    }
}

/// Restarts one restart-tree component: restores its node's checkpoint
/// and tears down the node's incident channels (index 0 is the service
/// root, whose own restart is the members' job).
fn restart_component(graph: &mut ServiceGraph, component: usize, stats: &mut GraphUnitStats) {
    let node = match component {
        1 => NodeId::Web,
        2 => NodeId::Db,
        3 => NodeId::Ide,
        _ => return,
    };
    graph.restore_node(node);
    count_resets(graph.reset_channels_of(node), node, stats);
}

/// Books the resets and drain losses a node restart inflicted on its
/// incident channels.
fn count_resets(drained: u64, node: NodeId, stats: &mut GraphUnitStats) {
    for edge in EdgeId::ALL {
        let touches = match edge {
            EdgeId::ClientWeb => node == NodeId::Web,
            EdgeId::WebDb => node == NodeId::Web || node == NodeId::Db,
            EdgeId::IdeWeb => node == NodeId::Ide || node == NodeId::Web,
        };
        if touches {
            stats.edges.edge_mut(edge).resets += 1;
        }
    }
    // Drained messages were in flight on some incident edge; the graph
    // reports only the total, which the ledger books against the node's
    // primary edge.
    let primary = match node {
        NodeId::Web => EdgeId::ClientWeb,
        NodeId::Db => EdgeId::WebDb,
        NodeId::Ide => EdgeId::IdeWeb,
    };
    stats.edges.edge_mut(primary).lost += drained;
}

/// Notes the chain's first fault instant for the TTR span.
fn note_fault(ctx: &mut ChainCtx, env: &Environment) {
    ctx.first_fault.get_or_insert(env.now());
}

/// Books a client-level retry if budget and chain deadline allow.
fn retry_client(
    ctx: &mut ChainCtx,
    retry_budget: u32,
    env: &Environment,
    stats: &mut GraphUnitStats,
) -> bool {
    if ctx.client_retries < retry_budget && !ctx.chain.expired(env.now()) {
        ctx.client_retries += 1;
        stats.edges.edge_mut(EdgeId::ClientWeb).retried += 1;
        true
    } else {
        false
    }
}

/// Closes a successful chain: cascade depth, TTR, restart-tree settle.
fn finish_served(
    ctx: &mut ChainCtx,
    tree: &mut RestartTree,
    env: &Environment,
    stats: &mut GraphUnitStats,
    denied: bool,
) -> Answer {
    if let Some(t0) = ctx.first_fault {
        let depth = if ctx.client_retries > 0 { 2 } else { 1 };
        stats.cascade_depth.record(depth);
        stats.ttr.record(env.now().saturating_since(t0).as_nanos());
        if let Some(component) = ctx.restarted.take() {
            tree.settle(component);
        }
    }
    Answer::Served { denied }
}

/// Closes a defeated chain: user-visible loss is cascade depth 3.
fn finish_dropped(ctx: &mut ChainCtx, stats: &mut GraphUnitStats) -> Answer {
    if ctx.first_fault.is_some() {
        stats.cascade_depth.record(3);
    }
    Answer::Dropped
}

/// Charges `want` to the clock, clamped to the chain budget remaining —
/// a hop may detect, back off, and reboot only within what is left of
/// the whole chain's deadline.
fn advance_clamped(env: &mut Environment, chain: &ChainDeadline, want: Duration) {
    let charge = chain.clamp(env.now(), want);
    if charge > Duration::ZERO {
        env.advance(charge);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{graph_plans, ChannelFaultKind};
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

    #[test]
    fn chain_deadline_clamps_and_expires() {
        let t0 = SimTime::from_secs(10);
        let chain = ChainDeadline::new(t0, Duration::from_secs(2));
        assert_eq!(chain.remaining(t0), Duration::from_secs(2));
        assert_eq!(chain.clamp(t0, Duration::from_secs(5)), Duration::from_secs(2));
        assert_eq!(chain.clamp(t0, Duration::from_secs(1)), Duration::from_secs(1));
        assert!(!chain.expired(t0));
        assert!(chain.expired(SimTime::from_secs(12)));
        assert_eq!(chain.remaining(SimTime::from_secs(13)), Duration::ZERO);
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
                        let mut tree = RestartTree::new(
                            &GRAPH_COMPONENTS,
                            2,
                            Duration::from_millis(50),
                            Duration::from_secs(2),
                            split_seed(seed, 3),
                        );
                        let mut stats = GraphUnitStats::new();
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
                                let answer = serve_chain(
                                    &mut graph, env, &mut tree, plane, budget, req?, &mut stats,
                                );
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
}
