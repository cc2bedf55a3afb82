//! State scrubbing: drop volatile component state in place, without a
//! reboot.
//!
//! [`Environment::scrub`] clears non-transient conditions in the
//! *operating environment*; this generalizes the move to *application
//! state* using the crash-only taxonomy: every [`StateKind::Volatile`]
//! component is crashed and booted in place — state that is legitimate to
//! discard by construction — while durable components are never touched.
//! No checkpoint is restored and no process is killed, so a scrub is
//! cheaper than any restart and clears exactly the poisoned volatile
//! state (leaked allocations, stale session counters) that a
//! checkpoint-restoring recovery faithfully preserves.

use crate::strategy::RecoveryStrategy;
use faultstudy_apps::{AppState, Application, Request};
use faultstudy_env::Environment;
use faultstudy_micro::StateKind;
use faultstudy_sim::time::Duration;

/// Crashes and boots every volatile component of `app` in place, charging
/// the boot costs to the simulated clock. Returns `false` without doing
/// anything when the application has no crash-only partition — callers
/// fall back to generic restart.
pub fn scrub_volatile_state(app: &mut dyn Application, env: &mut Environment) -> bool {
    let Some(co) = app.as_crash_only() else {
        return false;
    };
    let descs = co.components();
    let mut cost = Duration::ZERO;
    for (index, desc) in descs.iter().enumerate() {
        if desc.state_kind == StateKind::Volatile {
            co.crash_component(index, env);
            co.boot_component(index, env);
            cost = cost + desc.boot_cost;
        }
    }
    env.advance(cost);
    true
}

/// Restart-retry whose recovery step scrubs volatile application state in
/// place instead of restoring a checkpoint.
///
/// # Example
///
/// ```
/// use faultstudy_recovery::{RecoveryStrategy, StateScrub};
///
/// let s = StateScrub::new(3).with_scrub();
/// assert_eq!(s.name(), "statescrub");
/// assert!(!s.is_generic());
/// ```
#[derive(Debug)]
pub struct StateScrub {
    retries: u32,
    scrub: bool,
    checkpoint: Option<AppState>,
}

impl StateScrub {
    /// A strategy with a retry budget of `retries` and scrubbing
    /// disabled — identical to [`RestartRetry::new`](crate::RestartRetry::new).
    pub fn new(retries: u32) -> StateScrub {
        StateScrub { retries, scrub: false, checkpoint: None }
    }

    /// Enables the in-place volatile scrub as the recovery action.
    #[must_use]
    pub fn with_scrub(mut self) -> StateScrub {
        self.scrub = true;
        self
    }
}

impl RecoveryStrategy for StateScrub {
    fn name(&self) -> &'static str {
        "statescrub"
    }

    fn is_generic(&self) -> bool {
        // Knowing *which* state is volatile is the application's crash-only
        // partition — application knowledge in the paper's sense.
        false
    }

    fn on_start(&mut self, app: &mut dyn Application, _env: &mut Environment) {
        self.checkpoint = Some(app.snapshot());
    }

    fn on_success(&mut self, _req: &Request, app: &mut dyn Application, _env: &mut Environment) {
        self.checkpoint = Some(app.snapshot());
    }

    fn on_failure(
        &mut self,
        app: &mut dyn Application,
        env: &mut Environment,
        attempt: u32,
    ) -> bool {
        if attempt > self.retries {
            return false;
        }
        if self.scrub && scrub_volatile_state(app, env) {
            return true;
        }
        env.on_generic_recovery(app.owner());
        if let Some(cp) = &self.checkpoint {
            app.restore(cp);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::supervisor::run_workload;
    use crate::RestartRetry;
    use faultstudy_apps::MiniWeb;

    fn leak_scenario(strategy: &mut dyn RecoveryStrategy) -> (crate::WorkloadRun, Environment) {
        let mut env = Environment::builder().seed(7).proc_slots(6).build();
        let mut app = MiniWeb::new(&mut env);
        app.arm_defect("apache-edn-01").unwrap();
        let burst = app.trigger_request("apache-edn-01").unwrap();
        let workload: Vec<Request> = (0..6).map(|_| burst.clone()).collect();
        let run = run_workload(&mut app, &mut env, &workload, strategy);
        (run, env)
    }

    #[test]
    fn scrub_clears_the_leak_a_checkpoint_preserves() {
        let (restart, _) = leak_scenario(&mut RestartRetry::new(3));
        assert!(!restart.survived, "the restored checkpoint restores the leak too");
        let (scrubbed, _) = leak_scenario(&mut StateScrub::new(3).with_scrub());
        assert!(scrubbed.survived, "dropping volatile state drops the leaked units");
        assert_eq!(scrubbed.completed, 6);
    }

    #[test]
    fn scrub_does_not_clear_deterministic_code_defects() {
        let mut env = Environment::builder().seed(7).proc_slots(6).build();
        let mut app = MiniWeb::new(&mut env);
        app.inject("apache-ei-01", &mut env).unwrap();
        let workload = vec![app.trigger_request("apache-ei-01").unwrap()];
        let run = run_workload(&mut app, &mut env, &workload, &mut StateScrub::new(3).with_scrub());
        assert!(!run.survived, "an EI fault is in the code, not in volatile state");
    }

    #[test]
    fn scrub_never_touches_durable_state() {
        let mut env = Environment::builder().seed(3).build();
        let mut app = MiniWeb::new(&mut env);
        app.handle(&Request::new("GET /index.html"), &mut env).unwrap();
        let before: faultstudy_apps::AppState = app.snapshot();
        assert!(scrub_volatile_state(&mut app, &mut env));
        // served (durable progress) survives; the volatile counters were
        // already zero, so the state is unchanged byte for byte.
        assert_eq!(app.snapshot(), before);
    }

    #[test]
    fn disabled_scrub_degenerates_into_restart_retry() {
        let baseline = leak_scenario(&mut RestartRetry::new(3));
        let scrub_off = leak_scenario(&mut StateScrub::new(3));
        assert_eq!(scrub_off.0, baseline.0);
        assert_eq!(scrub_off.1.now(), baseline.1.now());
    }
}
