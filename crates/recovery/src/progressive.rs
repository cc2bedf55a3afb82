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
use faultstudy_apps::{AppState, Application, Request};
use faultstudy_env::Environment;
use faultstudy_sim::time::Duration;

/// The first backoff, at attempt 3; each later attempt doubles it.
const BACKOFF_BASE: Duration = Duration::from_millis(500);

/// Escalating retry: restore → reseed interleaving → exponential backoff.
#[derive(Debug)]
pub struct ProgressiveRetry {
    retries: u32,
    checkpoint: Option<AppState>,
    perturbations: u32,
}

impl ProgressiveRetry {
    /// Up to `retries` attempts with a 500 ms base backoff.
    pub fn new(retries: u32) -> ProgressiveRetry {
        ProgressiveRetry { retries, checkpoint: None, perturbations: 0 }
    }

    /// Interleaving perturbations applied so far.
    pub fn perturbations(&self) -> u32 {
        self.perturbations
    }
}

impl RecoveryStrategy for ProgressiveRetry {
    fn name(&self) -> &'static str {
        "progressive"
    }

    fn is_generic(&self) -> bool {
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
            return false;
        }
        env.on_generic_recovery(app.owner());
        if let Some(cp) = &self.checkpoint {
            app.restore(cp);
        }
        if attempt >= 2 {
            // Stage 2: induce a different event ordering.
            env.reshuffle_interleaving();
            self.perturbations += 1;
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
    use faultstudy_sim::time::SimTime;

    #[test]
    fn escalation_stages_fire_in_order() {
        let mut env = Environment::builder().seed(4).build();
        let mut app = MiniDb::new(&mut env);
        let mut s = ProgressiveRetry::new(5);
        s.on_start(&mut app, &mut env);
        assert!(s.on_failure(&mut app, &mut env, 1));
        assert_eq!(s.perturbations(), 0, "attempt 1 is a plain retry");
        assert!(s.on_failure(&mut app, &mut env, 2));
        assert_eq!(s.perturbations(), 1, "attempt 2 reseeds the interleaving");
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
        let _ = SimTime::ZERO;
    }
}
