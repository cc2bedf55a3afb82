//! Differential properties of the crash-only component model.
//!
//! Three families: the restart tree's escalation ladder is a pure
//! function of the `plan`/`settle` call sequence (backoff jitter affects
//! charged cost, never scope); crashing a component discards only its
//! volatile state, so durable answers survive any crash/boot round-trip;
//! and a microrebooting supervisor over an application with no crashable
//! partition degenerates byte-for-byte into plain restart-retry — the
//! whole-process rung *is* the generic strategy, not an approximation of
//! it. The same holds for the state scrub and the profile healer's scrub
//! arm, which fall back to that step when there is nothing to scrub.

use faultstudy_apps::{Application, MiniDb, MiniDe, MiniWeb, Request};
use faultstudy_env::Environment;
use faultstudy_micro::{ComponentDesc, CrashOnly, StateKind};
use faultstudy_recovery::{
    run_workload, FailureProfile, MicroReboot, ProfileHealer, RebootScope, RecoveryStrategy,
    RestartRetry, RestartTree, StateScrub,
};
use faultstudy_sim::time::Duration;
use proptest::prelude::*;

fn env(seed: u64) -> Environment {
    Environment::builder().seed(seed).build()
}

/// MiniWeb's component slice (the deepest of the three partitions).
fn web_components() -> &'static [ComponentDesc] {
    let mut e = env(1);
    let mut web = MiniWeb::new(&mut e);
    web.as_crash_only().expect("partitioned").components()
}

/// Index of a component by name in an application's partition.
fn component_index(app: &mut dyn Application, name: &str) -> usize {
    let co = app.as_crash_only().expect("partitioned");
    co.components().iter().position(|c| c.name == name).expect("component exists")
}

/// Crash and immediately reboot one component, as the strategy would.
fn crash_boot(app: &mut dyn Application, index: usize, e: &mut Environment) {
    let co = app.as_crash_only().expect("partitioned");
    co.crash_component(index, e);
    co.boot_component(index, e);
}

proptest! {
    /// Replaying the same `plan`/`settle` sequence yields the same scope
    /// sequence, and the backoff seed influences only the charged
    /// durations — never which rung of the ladder a failure lands on.
    #[test]
    fn escalation_is_a_pure_function_of_the_failure_sequence(
        ops in prop::collection::vec((any::<bool>(), 0usize..4), 0..60),
        seed_a in any::<u64>(),
        seed_b in any::<u64>(),
    ) {
        let descs = web_components();
        let drive = |seed: u64| {
            let mut tree = RestartTree::new(descs, seed);
            let mut scopes = Vec::new();
            let mut charges = Vec::new();
            for &(fail, component) in &ops {
                if fail {
                    let scope = tree.plan(component);
                    charges.push(tree.charge(scope));
                    scopes.push(scope);
                } else {
                    tree.settle(component);
                }
            }
            (scopes, charges)
        };
        let (scopes_a, charges_a) = drive(seed_a);
        let (scopes_b, charges_b) = drive(seed_b);
        prop_assert_eq!(&scopes_a, &scopes_b, "scope depends only on the call sequence");
        let (replay_scopes, replay_charges) = drive(seed_a);
        prop_assert_eq!(scopes_a, replay_scopes);
        prop_assert_eq!(charges_a, replay_charges, "charges replay exactly under one seed");
        if seed_a == seed_b {
            prop_assert_eq!(charges_b, replay_charges);
        }
    }

    /// Escalation never skips the ladder: a durable-hard component goes
    /// straight to the process rung, everything else starts at its own
    /// component and only widens.
    #[test]
    fn first_failure_of_a_settled_component_never_escalates(
        component in 0usize..4,
        seed in any::<u64>(),
    ) {
        let descs = web_components();
        let mut tree = RestartTree::new(descs, seed);
        let scope = tree.plan(component);
        if descs[component].state_kind.crashable() {
            prop_assert_eq!(scope, RebootScope::Component(component));
        } else {
            prop_assert_eq!(scope, RebootScope::Process);
        }
    }

    /// MiniDb: rows inserted through the durable path answer identically
    /// after any crashable component is crashed and rebooted — the crash
    /// discards parser/executor/buffer-pool scratch, never the tables.
    #[test]
    fn db_crash_boot_round_trip_preserves_durable_rows(
        rows in 1u32..12,
        victim in prop::sample::select(vec!["db-executor", "db-parser", "db-buffer-pool"]),
        seed in any::<u64>(),
    ) {
        let mut e = env(seed);
        let mut db = MiniDb::new(&mut e);
        db.handle(&Request::new("CREATE TABLE t (k, v)"), &mut e).expect("create");
        for i in 0..rows {
            db.handle(&Request::new(format!("INSERT INTO t VALUES ({i}, {})", i * 10)), &mut e)
                .expect("insert");
        }
        let count = Request::new("SELECT COUNT(*) FROM t");
        let before = db.handle(&count, &mut e).expect("count before");
        let index = component_index(&mut db, victim);
        crash_boot(&mut db, index, &mut e);
        let after = db.handle(&count, &mut e).expect("count after");
        prop_assert_eq!(before, after, "durable rows must survive a {} reboot", victim);
    }

    /// MiniWeb: the durable-hard session store answers identically across
    /// crashes of every crashable component.
    #[test]
    fn web_crash_boot_round_trip_preserves_sessions(
        victim in prop::sample::select(vec!["web-listener", "web-worker-pool", "web-cache"]),
        seed in any::<u64>(),
    ) {
        let mut e = env(seed);
        let mut web = MiniWeb::new(&mut e);
        let auth = Request::new("AUTH admin");
        let before = web.handle(&auth, &mut e).expect("auth before");
        web.handle(&Request::new("GET /index.html"), &mut e).expect("benign");
        let index = component_index(&mut web, victim);
        crash_boot(&mut web, index, &mut e);
        let after = web.handle(&auth, &mut e).expect("auth after");
        prop_assert_eq!(before, after, "session auth must survive a {} reboot", victim);
    }

    /// MiniDe: the boot identity lives in the durable-hard editor buffer;
    /// plugin-host and index crashes must not disturb it.
    #[test]
    fn de_crash_boot_round_trip_preserves_boot_identity(
        victim in prop::sample::select(vec!["de-plugin-host", "de-index"]),
        seed in any::<u64>(),
    ) {
        let mut e = env(seed);
        let mut de = MiniDe::new(&mut e);
        let display = Request::new("OPEN-DISPLAY");
        let before = de.handle(&display, &mut e).expect("display before");
        let index = component_index(&mut de, victim);
        crash_boot(&mut de, index, &mut e);
        let after = de.handle(&display, &mut e).expect("display after");
        prop_assert_eq!(before, after, "boot identity must survive a {} reboot", victim);
    }

    /// Crashing a component is idempotent: once its volatile state is
    /// discarded, further crash/boot round-trips change nothing.
    #[test]
    fn repeated_crash_boot_is_idempotent(
        extra in 1usize..4,
        victim in prop::sample::select(vec!["web-listener", "web-worker-pool", "web-cache"]),
        seed in any::<u64>(),
    ) {
        let mut e = env(seed);
        let mut web = MiniWeb::new(&mut e);
        for req in ["GET /index.html", "AUTH admin", "GET /cached", "KEEPALIVE 4"] {
            web.handle(&Request::new(req), &mut e).expect("benign traffic");
        }
        let index = component_index(&mut web, victim);
        crash_boot(&mut web, index, &mut e);
        let once = web.snapshot();
        for _ in 0..extra {
            crash_boot(&mut web, index, &mut e);
        }
        prop_assert_eq!(web.snapshot(), once, "{} crash is idempotent", victim);
    }
}

// --- degeneration: microreboot without a crashable partition is restart ---

/// Implements [`Application`] by delegation to an inner MiniWeb. The
/// `crash_only` variant additionally exposes the wrapper's own partition.
macro_rules! delegate_app {
    ($ty:ty) => {
        delegate_app!(@impl $ty, {});
    };
    ($ty:ty, crash_only) => {
        delegate_app!(@impl $ty, {
            fn as_crash_only(&mut self) -> Option<&mut dyn CrashOnly> {
                Some(self)
            }
        });
    };
    (@impl $ty:ty, { $($extra:item)* }) => {
        impl Application for $ty {
            $($extra)*
            fn kind(&self) -> faultstudy_core::taxonomy::AppKind {
                self.0.kind()
            }
            fn owner(&self) -> faultstudy_env::OwnerId {
                self.0.owner()
            }
            fn handle(
                &mut self,
                req: &Request,
                env: &mut Environment,
            ) -> Result<faultstudy_apps::Response, faultstudy_apps::AppFailure> {
                self.0.handle(req, env)
            }
            fn snapshot(&self) -> faultstudy_apps::AppState {
                self.0.snapshot()
            }
            fn restore(&mut self, state: &faultstudy_apps::AppState) {
                self.0.restore(state)
            }
            fn inject(
                &mut self,
                slug: &str,
                env: &mut Environment,
            ) -> Result<(), faultstudy_apps::InjectError> {
                self.0.inject(slug, env)
            }
            fn arm_defect(&mut self, slug: &str) -> Result<(), faultstudy_apps::InjectError> {
                self.0.arm_defect(slug)
            }
            fn trigger_request(&self, slug: &str) -> Option<Request> {
                self.0.trigger_request(slug)
            }
            fn benign_request(&self) -> Request {
                self.0.benign_request()
            }
        }
    };
}

/// A MiniWeb stripped of its partition: `as_crash_only` stays `None`.
struct Opaque(MiniWeb);
delegate_app!(Opaque);

/// A MiniWeb behind a single durable-hard root: partitioned, but nothing
/// is crashable, so every failure takes the process rung.
struct Monolith(MiniWeb);
delegate_app!(Monolith, crash_only);

static MONOLITH: [ComponentDesc; 1] = [ComponentDesc {
    name: "monolith",
    state_kind: StateKind::DurableHard,
    boot_cost: Duration::ZERO,
    parent: None,
}];

impl CrashOnly for Monolith {
    fn components(&self) -> &'static [ComponentDesc] {
        &MONOLITH
    }
    fn route(&self, _body: &str) -> usize {
        0
    }
    fn crash_component(&mut self, _index: usize, _env: &mut Environment) {
        unreachable!("a durable-hard root is never crashed");
    }
    fn boot_component(&mut self, _index: usize, _env: &mut Environment) {}
}

/// Request pool the degeneration workloads draw from: benign traffic, a
/// deterministic crash (`apache-ei-03` armed), and the checkpointed leak
/// (`apache-edn-01` armed) whose restore-crash loop exercises the retry
/// budget of both strategies identically.
const POOL: [&str; 5] =
    ["GET /index.html", "GET /file", "AUTH admin", "GET /nonexistent", "GET /burst"];

fn degeneration_workload(picks: &[usize]) -> Vec<Request> {
    picks.iter().map(|&i| Request::new(POOL[i])).collect()
}

fn run_restart(
    seed: u64,
    workload: &[Request],
) -> (faultstudy_apps::AppState, faultstudy_sim::time::SimTime, faultstudy_recovery::WorkloadRun) {
    let mut e = env(seed);
    let mut web = MiniWeb::new(&mut e);
    web.inject("apache-ei-03", &mut e).expect("injectable");
    web.inject("apache-edn-01", &mut e).expect("injectable");
    let mut strategy = RestartRetry::new(3);
    let run = run_workload(&mut web, &mut e, workload, &mut strategy);
    (web.snapshot(), e.now(), run)
}

proptest! {
    /// An application with no crash-only partition under [`MicroReboot`],
    /// [`StateScrub`] or a [`ProfileHealer`] whose profile picks the scrub
    /// arm behaves byte-for-byte like [`RestartRetry`]: same run outcome,
    /// same final checkpoint, same simulated clock.
    #[test]
    fn unpartitioned_microreboot_degenerates_into_restart_retry(
        picks in prop::collection::vec(0usize..POOL.len(), 1..24),
        seed in any::<u64>(),
    ) {
        let workload = degeneration_workload(&picks);
        let reference = run_restart(seed, &workload);

        // Reboots that all worked: the healer's scrub arm.
        let scrub_profile = FailureProfile { reboots: 3, ..FailureProfile::default() };
        let strategies: [Box<dyn RecoveryStrategy>; 3] = [
            Box::new(MicroReboot::new(3, seed)),
            Box::new(StateScrub::new(3)),
            Box::new(ProfileHealer::new(3, scrub_profile)),
        ];
        for mut strategy in strategies {
            let mut e = env(seed);
            let mut app = Opaque(MiniWeb::new(&mut e));
            app.inject("apache-ei-03", &mut e).expect("injectable");
            app.inject("apache-edn-01", &mut e).expect("injectable");
            let run = run_workload(&mut app, &mut e, &workload, strategy.as_mut());
            prop_assert_eq!(
                (app.snapshot(), e.now(), run),
                reference.clone(),
                "{} diverged from restart-retry",
                strategy.name()
            );
        }
    }

    /// A single-component durable-hard tree is the same degeneration:
    /// the ladder has exactly one rung and it is the whole-process
    /// restart.
    #[test]
    fn single_durable_component_tree_degenerates_into_restart_retry(
        picks in prop::collection::vec(0usize..POOL.len(), 1..24),
        seed in any::<u64>(),
    ) {
        let workload = degeneration_workload(&picks);
        let reference = run_restart(seed, &workload);

        let mut e = env(seed);
        let mut app = Monolith(MiniWeb::new(&mut e));
        app.inject("apache-ei-03", &mut e).expect("injectable");
        app.inject("apache-edn-01", &mut e).expect("injectable");
        let mut strategy = MicroReboot::new(3, seed);
        let run = run_workload(&mut app, &mut e, &workload, &mut strategy);
        prop_assert_eq!((app.snapshot(), e.now(), run), reference);
    }
}
