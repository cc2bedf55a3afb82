//! Microreboot: crash-only component recovery over a per-component
//! restart tree \[Candea03\].
//!
//! Where every generic strategy in this crate restarts the *whole*
//! process and restores a checkpoint byte-for-byte, [`MicroReboot`]
//! routes each failure to the component that served the request and
//! reboots just that component — discarding only its volatile state,
//! at a boot cost orders of magnitude below a process restart. The
//! [`RestartTree`] supervises the escalation ladder: restart the
//! faulting child; if its per-node circuit breaker trips, crash and
//! reboot its parent's subtree; if breakers are open all the way up (or
//! the failing component's state is durable-hard and may not be
//! discarded), fall back to exactly the whole-process restart of
//! [`RestartRetry`]. Every node has its own
//! [`BackoffPolicy`] (jitter derived via `split_seed`, so schedules
//! replay byte-identically at any thread count) and its own
//! [`CircuitBreaker`]; reboot latency and backoff are charged to the
//! simulated clock.
//!
//! Microreboot is deliberately *not* generic in the paper's §2 sense: the
//! component partition, the state-kind taxonomy, and the knowledge of
//! what each crash may discard are application-specific. That is the
//! point of the comparison — §2 proves a truly generic mechanism must
//! preserve all state, so a leak checkpointed into "all state" defeats
//! it, while a crash-only partition is allowed to throw the leak away.

use crate::backoff::BackoffPolicy;
use crate::breaker::CircuitBreaker;
use crate::strategy::RecoveryStrategy;
use crate::RestartRetry;
use faultstudy_apps::{Application, Request};
use faultstudy_env::Environment;
use faultstudy_micro::{subtree, validate_topology, ComponentDesc};
use faultstudy_obs::Span;
use faultstudy_sim::rng::split_seed;
use faultstudy_sim::time::Duration;

/// How far one recovery action reaches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RebootScope {
    /// Crash and reboot one component.
    Component(usize),
    /// Crash and reboot the subtree rooted at this component (children
    /// first, boot in parent-first index order).
    Subtree(usize),
    /// Full process reboot: kill the application's processes and restore
    /// the last checkpoint — byte-identical to
    /// [`RestartRetry`]'s recovery action.
    Process,
}

/// Per-node supervision state.
#[derive(Debug)]
struct TreeNode {
    backoff: BackoffPolicy,
    breaker: CircuitBreaker,
    /// Consecutive reboots of this node since it last settled; drives its
    /// backoff schedule.
    streak: u32,
}

/// The per-component restart tree: one [`CircuitBreaker`] and one
/// [`BackoffPolicy`] per tree node, and the escalation ladder between
/// them.
///
/// Escalation is a pure function of the [`RestartTree::plan`] /
/// [`RestartTree::settle`] call sequence: each level of the tree absorbs
/// two consecutive failures (its breaker's threshold) before the ladder
/// moves one level up, and a settle closes every breaker on the failing
/// component's ancestor chain. Every node backs off in a 50 ms–2 s band.
/// The graph's process plane and the microreboot strategy share this one
/// policy.
#[derive(Debug)]
pub struct RestartTree {
    descs: &'static [ComponentDesc],
    nodes: Vec<TreeNode>,
}

/// Escalation threshold: each tree level absorbs two consecutive failures
/// before the ladder moves up.
const ESCALATE_AFTER: u32 = 2;
/// Per-node backoff band, matching the injection campaign's.
const BACKOFF_BASE: Duration = Duration::from_millis(50);
const BACKOFF_CAP: Duration = Duration::from_secs(2);

impl RestartTree {
    /// Builds the tree over an application's component slice. Per-node
    /// jitter seeds derive from `seed` via `split_seed`.
    ///
    /// # Panics
    ///
    /// Panics if the component slice violates the topology invariants —
    /// an application bug, not a recoverable condition.
    pub fn new(descs: &'static [ComponentDesc], seed: u64) -> RestartTree {
        validate_topology(descs).expect("crash-only component tree is well-formed");
        let nodes = (0..descs.len())
            .map(|i| TreeNode {
                backoff: BackoffPolicy::new(BACKOFF_BASE, BACKOFF_CAP, split_seed(seed, i as u64)),
                breaker: CircuitBreaker::new(ESCALATE_AFTER),
                streak: 0,
            })
            .collect();
        RestartTree { descs, nodes }
    }

    /// The name of component `index` (metrics label).
    pub(crate) fn name(&self, index: usize) -> &'static str {
        self.descs[index].name
    }

    /// Decides the reboot scope for a failure attributed to `component`,
    /// recording the failure on the breakers it consults.
    ///
    /// The ladder: a durable-hard component may never be crashed, so its
    /// failures go straight to [`RebootScope::Process`]. Otherwise the
    /// component absorbs failures until its breaker is open, then each
    /// ancestor absorbs its own threshold of subtree reboots, and when
    /// breakers are open all the way to the root the scope is the whole
    /// process.
    pub fn plan(&mut self, component: usize) -> RebootScope {
        if !self.descs[component].state_kind.crashable() {
            return RebootScope::Process;
        }
        // The trip transition itself still reboots at this level; the
        // *next* failure escalates. Every level thus absorbs exactly its
        // threshold of consecutive failures.
        let tripped = self.nodes[component].breaker.record_failure();
        if tripped || !self.nodes[component].breaker.is_open() {
            return RebootScope::Component(component);
        }
        let mut cursor = self.descs[component].parent;
        while let Some(p) = cursor {
            if !self.descs[p].state_kind.crashable() {
                return RebootScope::Process;
            }
            let tripped = self.nodes[p].breaker.record_failure();
            if tripped || !self.nodes[p].breaker.is_open() {
                return RebootScope::Subtree(p);
            }
            cursor = self.descs[p].parent;
        }
        RebootScope::Process
    }

    /// Settles a success of a request served by `component`: closes every
    /// breaker and resets every backoff streak on its ancestor chain.
    pub fn settle(&mut self, component: usize) {
        let mut cursor = Some(component);
        while let Some(i) = cursor {
            self.nodes[i].breaker.record_success();
            self.nodes[i].streak = 0;
            cursor = self.descs[i].parent;
        }
    }

    /// The members of `root`'s subtree in boot (index) order.
    pub fn members(&self, root: usize) -> Vec<usize> {
        subtree(self.descs, root)
    }

    /// Accounts one reboot of `scope`: advances the charged node's backoff
    /// streak and returns the simulated cost —
    /// boot latency of everything rebooted plus the node's jittered
    /// backoff delay. [`RebootScope::Process`] costs nothing here; the
    /// process restart itself charges
    /// [`Environment::on_generic_recovery`]'s latency.
    pub fn charge(&mut self, scope: RebootScope) -> Duration {
        match scope {
            RebootScope::Component(i) => {
                self.nodes[i].streak += 1;
                self.descs[i].boot_cost + self.nodes[i].backoff.delay(self.nodes[i].streak)
            }
            RebootScope::Subtree(p) => {
                let mut cost = Duration::ZERO;
                for m in self.members(p) {
                    cost = cost + self.descs[m].boot_cost;
                }
                self.nodes[p].streak += 1;
                cost + self.nodes[p].backoff.delay(self.nodes[p].streak)
            }
            RebootScope::Process => Duration::ZERO,
        }
    }
}

/// The microreboot strategy: crash-only component recovery driven by a
/// [`RestartTree`].
///
/// On an application without a crash-only partition
/// ([`Application::as_crash_only`] returns `None`), and for the
/// [`RebootScope::Process`] rung of the ladder, the strategy performs
/// exactly [`RestartRetry`]'s recovery — kill the
/// application's processes, restore the last checkpoint — so a
/// single-component durable-hard tree degenerates byte-for-byte into
/// whole-process restart (pinned by the differential proptests).
///
/// The retry budget counts *attempts*, like every strategy here, but the
/// economics differ: a component reboot costs tens of simulated
/// milliseconds against the full second a process restart consumes, so a
/// time-equivalent budget affords microreboot several times the attempts.
/// [`MicroReboot::new`] defaults to the same attempt budget as the
/// campaign's restart strategy; campaigns that want time-parity raise it
/// explicitly.
#[derive(Debug)]
pub struct MicroReboot {
    restart: RestartRetry,
    seed: u64,
    tree: Option<RestartTree>,
    /// Per-component open time-to-recovery spans: opened at a component's
    /// first failure, closed when a request routed to it succeeds.
    pending: Vec<Option<Span>>,
}

impl MicroReboot {
    /// A microreboot strategy with a retry budget of `retries` attempts,
    /// an escalation threshold of two, and a 50 ms–2 s per-node backoff
    /// band jittered from `seed`.
    pub fn new(retries: u32, seed: u64) -> MicroReboot {
        MicroReboot { restart: RestartRetry::new(retries), seed, tree: None, pending: Vec::new() }
    }
}

impl RecoveryStrategy for MicroReboot {
    fn name(&self) -> &'static str {
        "microreboot"
    }

    fn is_generic(&self) -> bool {
        // The component partition and the right to discard volatile state
        // are application knowledge — exactly what §2 denies a generic
        // mechanism.
        false
    }

    fn on_start(&mut self, app: &mut dyn Application, env: &mut Environment) {
        self.restart.on_start(app, env);
        if let Some(co) = app.as_crash_only() {
            let descs = co.components();
            self.pending = (0..descs.len()).map(|_| None).collect();
            self.tree = Some(RestartTree::new(descs, self.seed));
        }
    }

    fn on_success(&mut self, req: &Request, app: &mut dyn Application, env: &mut Environment) {
        self.restart.on_success(req, app, env);
        let routed = app.as_crash_only().map(|co| co.route(&req.body));
        if let (Some(c), Some(tree)) = (routed, self.tree.as_mut()) {
            tree.settle(c);
            if let Some(span) = self.pending[c].take() {
                let now = env.now();
                env.metrics.record_span("micro.ttr", tree.name(c), span, now);
            }
        }
    }

    fn on_failure(
        &mut self,
        app: &mut dyn Application,
        env: &mut Environment,
        attempt: u32,
    ) -> bool {
        // No request to route: fall back to the whole-process rung.
        self.restart.on_failure(app, env, attempt)
    }

    fn on_failure_for(
        &mut self,
        req: &Request,
        app: &mut dyn Application,
        env: &mut Environment,
        attempt: u32,
    ) -> bool {
        let routed = app.as_crash_only().map(|co| co.route(&req.body));
        if attempt > self.restart.retries() {
            if let (Some(c), Some(tree)) = (routed, self.tree.as_ref()) {
                env.metrics.incr("micro.lost", tree.name(c), 1);
                self.pending[c] = None;
            }
            return false;
        }
        let scope = match (routed, self.tree.as_mut()) {
            (Some(c), Some(tree)) => {
                self.pending[c].get_or_insert_with(|| Span::begin(env.now()));
                tree.plan(c)
            }
            _ => RebootScope::Process,
        };
        match scope {
            RebootScope::Component(i) => {
                let tree = self.tree.as_mut().expect("scoped reboots require a tree");
                let cost = tree.charge(scope);
                let name = tree.name(i);
                let co = app.as_crash_only().expect("partition is stable across attempts");
                co.crash_component(i, env);
                co.boot_component(i, env);
                env.advance(cost);
                env.metrics.incr("micro.reboot", name, 1);
            }
            RebootScope::Subtree(p) => {
                let tree = self.tree.as_mut().expect("scoped reboots require a tree");
                let cost = tree.charge(scope);
                let name = tree.name(p);
                let members = tree.members(p);
                let co = app.as_crash_only().expect("partition is stable across attempts");
                // Crash leaves-first, boot parents-first.
                for &m in members.iter().rev() {
                    co.crash_component(m, env);
                }
                for &m in &members {
                    co.boot_component(m, env);
                }
                env.advance(cost);
                env.metrics.incr("micro.reboot.subtree", name, 1);
            }
            RebootScope::Process => {
                self.restart.recover(app, env);
                let label = match (routed, self.tree.as_ref()) {
                    (Some(c), Some(tree)) => tree.name(c),
                    _ => "unpartitioned",
                };
                env.metrics.incr("micro.reboot.process", label, 1);
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faultstudy_micro::StateKind;

    const fn comp(
        name: &'static str,
        state_kind: StateKind,
        parent: Option<usize>,
    ) -> ComponentDesc {
        ComponentDesc { name, state_kind, boot_cost: Duration::from_millis(10), parent }
    }

    static TOY: [ComponentDesc; 4] = [
        comp("root", StateKind::Volatile, None),
        comp("mid", StateKind::Volatile, Some(0)),
        comp("leaf", StateKind::Volatile, Some(1)),
        comp("vault", StateKind::DurableHard, Some(0)),
    ];

    fn tree() -> RestartTree {
        RestartTree::new(&TOY, 7)
    }

    #[test]
    fn ladder_escalates_component_subtree_process() {
        let mut t = tree();
        // Each level absorbs two consecutive failures of the leaf.
        assert_eq!(t.plan(2), RebootScope::Component(2));
        assert_eq!(t.plan(2), RebootScope::Component(2));
        assert_eq!(t.plan(2), RebootScope::Subtree(1));
        assert_eq!(t.plan(2), RebootScope::Subtree(1));
        assert_eq!(t.plan(2), RebootScope::Subtree(0));
        assert_eq!(t.plan(2), RebootScope::Subtree(0));
        assert_eq!(t.plan(2), RebootScope::Process);
        assert_eq!(t.plan(2), RebootScope::Process, "the ladder stays at the top");
    }

    #[test]
    fn durable_hard_failures_go_straight_to_process() {
        let mut t = tree();
        assert_eq!(t.plan(3), RebootScope::Process);
        assert_eq!(t.plan(3), RebootScope::Process);
    }

    #[test]
    fn settle_closes_the_whole_ancestor_chain() {
        let mut t = tree();
        let ladder = [
            RebootScope::Component(2),
            RebootScope::Component(2),
            RebootScope::Subtree(1),
            RebootScope::Subtree(1),
            RebootScope::Subtree(0),
        ];
        for scope in ladder {
            assert_eq!(t.plan(2), scope);
        }
        t.settle(2);
        // Leaf, mid and root each absorb their two failures afresh.
        for scope in ladder {
            assert_eq!(t.plan(2), scope, "breakers closed by the success");
        }
        assert_eq!(t.plan(2), RebootScope::Subtree(0));
        assert_eq!(t.plan(2), RebootScope::Process);
    }

    #[test]
    fn charge_sums_subtree_boot_costs() {
        let mut t = tree();
        let solo = t.charge(RebootScope::Component(2));
        assert!(solo >= Duration::from_millis(10), "boot cost plus backoff");
        let sub = t.charge(RebootScope::Subtree(1));
        assert!(sub >= Duration::from_millis(20), "two members boot");
        assert_eq!(t.charge(RebootScope::Process), Duration::ZERO);
    }

    #[test]
    fn escalation_is_a_pure_function_of_the_call_sequence() {
        let drive = || {
            let mut t = tree();
            let mut scopes = Vec::new();
            for step in 0..40u32 {
                if step % 7 == 6 {
                    t.settle((step % 3) as usize);
                } else {
                    scopes.push(t.plan((step % 3) as usize));
                }
            }
            scopes
        };
        assert_eq!(drive(), drive());
    }
}
