//! Failure-oblivious strategies: keep the request stream alive past a
//! failure the retry budget cannot clear, instead of abandoning it.
//!
//! Two escalation policies over the restart-retry skeleton:
//!
//! - [`Oblivious`] *discards* the doomed request — the client gets an
//!   honest `Denied` substitute and the stream continues. This rescues
//!   the environment-independent majority that no amount of retrying
//!   touches, visibly: the substitute is excluded from goodput.
//! - [`ManufacturedValue`] *synthesizes* a deterministic default answer
//!   and keeps serving, the failure-oblivious computing move: the client
//!   cannot tell the answer was made up, so the cost is silent and only a
//!   correctness oracle (and the supervisor's `oblivious.manufactured`
//!   counter) exposes it.
//!
//! Neither policy rolls the application back when it goes oblivious:
//! plowing ahead with whatever state the failure left behind is exactly
//! what the literature warns about, and exactly what the per-app oracles
//! are there to price. With the feature disabled (`discard_after: None` /
//! `defaults: false`) each strategy is byte-for-byte
//! [`RestartRetry`](crate::RestartRetry).

use crate::strategy::RecoveryStrategy;
use faultstudy_apps::{AppState, Application, Request, Response};
use faultstudy_env::Environment;

/// Discard-and-continue: restart-retry that, past a discard threshold,
/// drops the failing request with a visible `Denied` substitute instead
/// of abandoning the whole stream.
///
/// # Example
///
/// ```
/// use faultstudy_recovery::{Oblivious, RecoveryStrategy};
///
/// let s = Oblivious::new(3).discard_after(0);
/// assert_eq!(s.name(), "oblivious");
/// assert!(s.is_generic());
/// ```
#[derive(Debug)]
pub struct Oblivious {
    retries: u32,
    discard_after: Option<u32>,
    checkpoint: Option<AppState>,
    pending_discard: bool,
}

impl Oblivious {
    /// A strategy with a retry budget of `retries` and discarding
    /// disabled — identical to [`RestartRetry::new`](crate::RestartRetry::new).
    pub fn new(retries: u32) -> Oblivious {
        Oblivious { retries, discard_after: None, checkpoint: None, pending_discard: false }
    }

    /// Enables discarding: after `attempts` failed attempts of one request
    /// the request is dropped and answered with a `Denied` substitute.
    /// `0` discards on the very first failure — pure failure-oblivious
    /// operation, no retry at all.
    #[must_use]
    pub fn discard_after(mut self, attempts: u32) -> Oblivious {
        self.discard_after = Some(attempts);
        self
    }
}

impl RecoveryStrategy for Oblivious {
    fn name(&self) -> &'static str {
        "oblivious"
    }

    fn is_generic(&self) -> bool {
        // Discarding needs no application knowledge: any request can be
        // dropped opaquely, like any checkpoint can be restored opaquely.
        true
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
        if let Some(limit) = self.discard_after {
            if attempt > limit {
                // Decline the retry and leave the state exactly as the
                // failure left it; `manufacture` substitutes the answer.
                self.pending_discard = true;
                return false;
            }
        }
        if attempt > self.retries {
            return false;
        }
        env.on_generic_recovery(app.owner());
        if let Some(cp) = &self.checkpoint {
            app.restore(cp);
        }
        true
    }

    fn manufacture(
        &mut self,
        req: &Request,
        _app: &mut dyn Application,
        _env: &mut Environment,
    ) -> Option<Response> {
        std::mem::take(&mut self.pending_discard)
            .then(|| Response::Denied(format!("discarded after failure: {}", req.body).into()))
    }
}

/// Manufactured-value continuation: restart-retry that, once the retry
/// budget is exhausted, synthesizes a deterministic default answer and
/// keeps serving — the silent variant of going oblivious.
///
/// # Example
///
/// ```
/// use faultstudy_recovery::{ManufacturedValue, RecoveryStrategy};
///
/// let s = ManufacturedValue::new(0).with_defaults();
/// assert_eq!(s.name(), "manufactured");
/// ```
#[derive(Debug)]
pub struct ManufacturedValue {
    retries: u32,
    defaults: bool,
    checkpoint: Option<AppState>,
    pending_default: bool,
}

impl ManufacturedValue {
    /// A strategy with a retry budget of `retries` and manufacturing
    /// disabled — identical to [`RestartRetry::new`](crate::RestartRetry::new).
    pub fn new(retries: u32) -> ManufacturedValue {
        ManufacturedValue { retries, defaults: false, checkpoint: None, pending_default: false }
    }

    /// Enables manufactured defaults once the retry budget is exhausted.
    #[must_use]
    pub fn with_defaults(mut self) -> ManufacturedValue {
        self.defaults = true;
        self
    }
}

impl RecoveryStrategy for ManufacturedValue {
    fn name(&self) -> &'static str {
        "manufactured"
    }

    fn is_generic(&self) -> bool {
        // The default is a pure function of the request text — no
        // application knowledge, which is also why it can be wrong.
        true
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
            if self.defaults {
                self.pending_default = true;
            }
            return false;
        }
        env.on_generic_recovery(app.owner());
        if let Some(cp) = &self.checkpoint {
            app.restore(cp);
        }
        true
    }

    fn manufacture(
        &mut self,
        req: &Request,
        _app: &mut dyn Application,
        _env: &mut Environment,
    ) -> Option<Response> {
        std::mem::take(&mut self.pending_default)
            .then(|| Response::Ok(format!("manufactured default for: {}", req.body).into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::supervisor::{run_workload, run_workload_supervised, SupervisorConfig};
    use crate::RestartRetry;
    use faultstudy_apps::MiniWeb;

    fn ei_scenario(strategy: &mut dyn RecoveryStrategy) -> (crate::WorkloadRun, Environment) {
        let mut env = Environment::builder().seed(7).proc_slots(6).build();
        let mut app = MiniWeb::new(&mut env);
        app.inject("apache-ei-01", &mut env).unwrap();
        let workload = vec![
            Request::new("GET /before"),
            app.trigger_request("apache-ei-01").unwrap(),
            Request::new("GET /after"),
        ];
        let run = run_workload(&mut app, &mut env, &workload, strategy);
        (run, env)
    }

    #[test]
    fn discarding_survives_a_deterministic_fault() {
        let (run, _) = ei_scenario(&mut Oblivious::new(3).discard_after(1));
        assert!(run.survived, "the stream outlives the undeflectable fault");
        assert_eq!(run.completed, 3, "the discarded request still counts as answered");
        assert_eq!(run.failures, 2, "one real attempt plus the single retry");
    }

    #[test]
    fn discard_after_zero_never_retries() {
        let (run, _) = ei_scenario(&mut Oblivious::new(3).discard_after(0));
        assert!(run.survived);
        assert_eq!(run.failures, 1, "no retry at all");
        assert_eq!(run.recoveries, 0);
    }

    #[test]
    fn manufactured_value_serves_a_silent_default() {
        let (run, _) = ei_scenario(&mut ManufacturedValue::new(1).with_defaults());
        assert!(run.survived);
        assert_eq!(run.completed, 3);
    }

    #[test]
    fn disabled_features_degenerate_into_restart_retry() {
        let baseline = ei_scenario(&mut RestartRetry::new(3));
        let oblivious = ei_scenario(&mut Oblivious::new(3));
        let manufactured = ei_scenario(&mut ManufacturedValue::new(3));
        assert_eq!(oblivious.0, baseline.0);
        assert_eq!(oblivious.1.now(), baseline.1.now());
        assert_eq!(manufactured.0, baseline.0);
        assert_eq!(manufactured.1.now(), baseline.1.now());
        assert!(!baseline.0.survived, "restart never touches the EI fault");
    }

    #[test]
    fn supervisor_counts_substitutes_and_oracle_violations() {
        let mut env = Environment::builder().seed(7).proc_slots(6).metrics(true).build();
        let mut app = MiniWeb::new(&mut env);
        app.inject("apache-ei-19", &mut env).unwrap();
        let workload = vec![app.trigger_request("apache-ei-19").unwrap()];
        let mut strategy = ManufacturedValue::new(0).with_defaults();
        let out = run_workload_supervised(
            &mut app,
            &mut env,
            &workload,
            &mut strategy,
            &SupervisorConfig::permissive(),
            None,
        );
        assert!(out.run.survived);
        let reg = env.metrics.take().unwrap();
        assert_eq!(reg.counter("oblivious.manufactured", "manufactured"), 1);
        assert_eq!(reg.counter("oblivious.discarded", "manufactured"), 0);
        // The keep-alive counter wrapped mid-crash and the manufactured
        // continuation kept serving from that state: the oracle sees it.
        assert!(reg.counter("oracle.violations", "manufactured") >= 1);
    }

    #[test]
    fn discarded_substitute_is_denied_not_ok() {
        let mut env = Environment::builder().seed(7).proc_slots(6).metrics(true).build();
        let mut app = MiniWeb::new(&mut env);
        app.inject("apache-ei-01", &mut env).unwrap();
        let workload = vec![app.trigger_request("apache-ei-01").unwrap()];
        let mut strategy = Oblivious::new(3).discard_after(0);
        let out = run_workload_supervised(
            &mut app,
            &mut env,
            &workload,
            &mut strategy,
            &SupervisorConfig::permissive(),
            None,
        );
        assert!(out.run.survived);
        let reg = env.metrics.take().unwrap();
        assert_eq!(reg.counter("oblivious.discarded", "oblivious"), 1);
        assert_eq!(reg.counter("oblivious.manufactured", "oblivious"), 0);
    }
}
