//! Progressive retry with environment perturbation \[Wang93\].
//!
//! §7: such schemes "increase the non-determinism in the application by
//! re-ordering events such as message receives: these are basically
//! techniques to induce change to the external environment … they increase
//! the chance that an environment-dependent fault will experience a
//! different operating environment during recovery". Each successive
//! attempt here escalates: restore and retry, then force a fresh thread
//! interleaving (the message-reorder analogue), then back off
//! exponentially in simulated time so slowly-healing conditions get their
//! chance. The escalation never converts an environment-*independent*
//! fault — the paper is explicit that these techniques do not — and the
//! recovery-matrix experiment confirms it.

use crate::strategy::RecoveryStrategy;
use crate::RestartRetry;
use faultstudy_apps::{Application, Request};
use faultstudy_env::Environment;
use faultstudy_sim::time::Duration;

/// The first backoff, at attempt 3; each later attempt doubles it.
const BACKOFF_BASE: Duration = Duration::from_millis(500);

/// Escalating retry: restore → reseed interleaving → exponential backoff.
#[derive(Debug)]
pub struct ProgressiveRetry {
    restart: RestartRetry,
}

impl ProgressiveRetry {
    /// Up to `retries` attempts with a 500 ms base backoff.
    pub fn new(retries: u32) -> ProgressiveRetry {
        ProgressiveRetry { restart: RestartRetry::new(retries) }
    }
}

impl RecoveryStrategy for ProgressiveRetry {
    fn name(&self) -> &'static str {
        "progressive"
    }

    fn is_generic(&self) -> bool {
        true
    }

    fn on_start(&mut self, app: &mut dyn Application, env: &mut Environment) {
        self.restart.on_start(app, env);
    }

    fn on_success(&mut self, req: &Request, app: &mut dyn Application, env: &mut Environment) {
        self.restart.on_success(req, app, env);
    }

    fn on_failure(
        &mut self,
        app: &mut dyn Application,
        env: &mut Environment,
        attempt: u32,
    ) -> bool {
        if !self.restart.on_failure(app, env, attempt) {
            return false;
        }
        if attempt >= 2 {
            // Stage 2: induce a different event ordering.
            env.reshuffle_interleaving();
        }
        if attempt >= 3 {
            // Stage 3: exponential backoff in simulated time.
            let factor = 1u64 << (attempt - 3).min(16);
            env.advance(BACKOFF_BASE.saturating_mul(factor));
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faultstudy_apps::{MiniDb, Request};
    use faultstudy_sim::sched::RaceGadget;

    #[test]
    fn escalation_stages_fire_in_order() {
        // A twin environment under plain restart-retry shows what each
        // stage adds. The twins draw from one stream, so where a deciding
        // read's seed came from (its draw number) tells their
        // interleavings apart.
        let twins = || {
            let mut env = Environment::builder().seed(4).build();
            let app = MiniDb::new(&mut env);
            (env, app)
        };
        let (mut env, mut app) = twins();
        let (mut plain_env, mut plain_app) = twins();
        let mut s = ProgressiveRetry::new(5);
        let mut plain = RestartRetry::new(5);
        s.on_start(&mut app, &mut env);
        plain.on_start(&mut plain_app, &mut plain_env);
        let interleaving = |env: &mut Environment| {
            let _ = env.race(RaceGadget::default());
            env.read_log().reads().last().map(|(read, _)| read.source)
        };
        assert!(s.on_failure(&mut app, &mut env, 1));
        assert!(plain.on_failure(&mut plain_app, &mut plain_env, 1));
        assert_eq!(
            interleaving(&mut env),
            interleaving(&mut plain_env),
            "attempt 1 is a plain retry"
        );
        assert!(s.on_failure(&mut app, &mut env, 2));
        assert!(plain.on_failure(&mut plain_app, &mut plain_env, 2));
        assert_eq!(env.now(), plain_env.now(), "attempt 2 does not back off");
        assert_ne!(interleaving(&mut env), interleaving(&mut plain_env), "attempt 2 reseeds");
        let before = env.now();
        assert!(s.on_failure(&mut app, &mut env, 3));
        // recovery (1s) + backoff (500ms)
        assert_eq!(env.now(), before + env.recovery_takes() + Duration::from_millis(500));
        assert!(!s.on_failure(&mut app, &mut env, 6));
    }

    #[test]
    fn reseeding_lets_a_raced_request_through() {
        // Find a seed whose *initial* interleaving crashes the race, then
        // check progressive retry recovers it within budget.
        for seed in 0..64 {
            let mut env = Environment::builder().seed(seed).build();
            let mut app = MiniDb::new(&mut env);
            app.inject("mysql-edt-01", &mut env).unwrap();
            let req = Request::new("SHUTDOWN");
            if app.handle(&req, &mut env).is_ok() {
                continue; // this seed does not trip the race
            }
            let mut s = ProgressiveRetry::new(8);
            s.on_start(&mut app, &mut env);
            let mut survived = false;
            for attempt in 1..=8 {
                if !s.on_failure(&mut app, &mut env, attempt) {
                    break;
                }
                if app.handle(&req, &mut env).is_ok() {
                    survived = true;
                    break;
                }
            }
            assert!(survived, "seed {seed}: race not recovered in 8 perturbedretries");
            return;
        }
        panic!("no seed tripped the race at all — gadget window too narrow");
    }

    #[test]
    fn exponential_backoff_grows() {
        let mut env = Environment::builder().seed(4).build();
        let mut app = MiniDb::new(&mut env);
        let mut s = ProgressiveRetry::new(10);
        let t0 = env.now();
        s.on_failure(&mut app, &mut env, 3);
        let d3 = env.now() - t0;
        let t1 = env.now();
        s.on_failure(&mut app, &mut env, 4);
        let d4 = env.now() - t1;
        assert!(d4 > d3, "attempt 4 backs off longer than attempt 3");
    }
}
