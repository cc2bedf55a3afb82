//! Failure-oblivious strategies: keep the request stream alive past a
//! failure instead of abandoning it.
//!
//! Neither strategy retries. The first failed attempt of a request ends it:
//!
//! - [`Oblivious`] *discards* the failing request — the client gets an
//!   honest `Denied` substitute and the stream continues. This rescues
//!   the environment-independent majority that no amount of retrying
//!   touches, visibly: the substitute is excluded from goodput.
//! - [`ManufacturedValue`] *synthesizes* a deterministic default answer
//!   and keeps serving, the failure-oblivious computing move: the client
//!   cannot tell the answer was made up, so the cost is silent and only a
//!   correctness oracle (and the supervisor's `oblivious.manufactured`
//!   counter) exposes it.
//!
//! Neither policy rolls the application back, so neither keeps a
//! checkpoint: plowing ahead with whatever state the failure left behind
//! is exactly what the literature warns about, and exactly what the
//! per-app oracles are there to price.

use crate::strategy::RecoveryStrategy;
use faultstudy_apps::{Application, Request, Response};
use faultstudy_env::Environment;

/// Discard-and-continue: drops a failing request with a visible `Denied`
/// substitute instead of abandoning the whole stream.
///
/// # Example
///
/// ```
/// use faultstudy_recovery::{Oblivious, RecoveryStrategy};
///
/// let s = Oblivious::default();
/// assert_eq!(s.name(), "oblivious");
/// assert!(s.is_generic());
/// ```
#[derive(Debug, Default)]
pub struct Oblivious {
    pending_discard: bool,
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

    fn on_failure(
        &mut self,
        _app: &mut dyn Application,
        _env: &mut Environment,
        _attempt: u32,
    ) -> bool {
        // Decline the retry and leave the state exactly as the failure
        // left it; `manufacture` substitutes the answer.
        self.pending_discard = true;
        false
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

/// Manufactured-value continuation: synthesizes a deterministic default
/// answer for a failing request and keeps serving — the silent variant of
/// going oblivious.
///
/// # Example
///
/// ```
/// use faultstudy_recovery::{ManufacturedValue, RecoveryStrategy};
///
/// let s = ManufacturedValue::default();
/// assert_eq!(s.name(), "manufactured");
/// ```
#[derive(Debug, Default)]
pub struct ManufacturedValue {
    pending_default: bool,
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

    fn on_failure(
        &mut self,
        _app: &mut dyn Application,
        _env: &mut Environment,
        _attempt: u32,
    ) -> bool {
        self.pending_default = true;
        false
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
    use faultstudy_apps::MiniWeb;

    fn ei_scenario(strategy: &mut dyn RecoveryStrategy) -> crate::WorkloadRun {
        let mut env = Environment::builder().seed(7).proc_slots(6).build();
        let mut app = MiniWeb::new(&mut env);
        app.inject("apache-ei-01", &mut env).unwrap();
        let workload = vec![
            Request::new("GET /before"),
            app.trigger_request("apache-ei-01").unwrap(),
            Request::new("GET /after"),
        ];
        run_workload(&mut app, &mut env, &workload, strategy)
    }

    #[test]
    fn discarding_never_retries() {
        let run = ei_scenario(&mut Oblivious::default());
        assert!(run.survived, "the stream outlives the undeflectable fault");
        assert_eq!(run.completed, 3, "the discarded request still counts as answered");
        assert_eq!(run.failures, 1, "no retry at all");
        assert_eq!(run.recoveries, 0);
    }

    #[test]
    fn manufactured_value_serves_a_silent_default() {
        let run = ei_scenario(&mut ManufacturedValue::default());
        assert!(run.survived);
        assert_eq!(run.completed, 3);
        assert_eq!(run.failures, 1, "no retry at all");
    }

    #[test]
    fn supervisor_counts_substitutes_and_oracle_violations() {
        let mut env = Environment::builder().seed(7).proc_slots(6).metrics(true).build();
        let mut app = MiniWeb::new(&mut env);
        app.inject("apache-ei-19", &mut env).unwrap();
        let workload = vec![app.trigger_request("apache-ei-19").unwrap()];
        let mut strategy = ManufacturedValue::default();
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
        let mut strategy = Oblivious::default();
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
