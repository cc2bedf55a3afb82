//! Proactive software rejuvenation \[Huang95\].
//!
//! §6.2: rejuvenation "takes advantage of recovery code that is already
//! present in the application, e.g. code to re-initialize the
//! application's state" and "seeks to prevent failures by invoking this
//! application-specific recovery code before the program crashes". The
//! strategy periodically sends the application's own rejuvenation request
//! (Apache's HUP); reactive failures fall back to restart-retry. Because
//! the hook is the application's, the strategy is not purely generic — it
//! is the bridge case between the two §2 categories.

use crate::strategy::RecoveryStrategy;
use crate::RestartRetry;
use faultstudy_apps::{Application, Request};
use faultstudy_env::Environment;

/// Periodic rejuvenation with restart-retry fallback.
#[derive(Debug)]
pub struct Rejuvenation {
    period: u32,
    served_since: u32,
    restart: RestartRetry,
}

impl Rejuvenation {
    /// Rejuvenates every `period` served requests; on reactive failure,
    /// retries up to `retries` times.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn new(period: u32, retries: u32) -> Rejuvenation {
        assert!(period > 0, "rejuvenation period must be positive");
        Rejuvenation { period, served_since: 0, restart: RestartRetry::new(retries) }
    }
}

impl RecoveryStrategy for Rejuvenation {
    fn name(&self) -> &'static str {
        "rejuvenation"
    }

    fn is_generic(&self) -> bool {
        // Invokes application-provided recovery code.
        false
    }

    fn on_start(&mut self, app: &mut dyn Application, env: &mut Environment) {
        self.restart.on_start(app, env);
    }

    fn on_success(&mut self, req: &Request, app: &mut dyn Application, env: &mut Environment) {
        self.served_since += 1;
        if self.served_since >= self.period {
            self.served_since = 0;
            if let Some(req) = app.rejuvenate_request() {
                // Proactive rejuvenation; a failure of the hook itself is
                // tolerated (the reactive path will deal with the fault).
                let _ = app.handle(&req, env);
            }
        }
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
        // After the restart, apply the rejuvenation hook as well: the
        // restarted instance begins from re-initialized resources.
        if let Some(req) = app.rejuvenate_request() {
            let _ = app.handle(&req, env);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faultstudy_apps::{MiniDb, MiniWeb};

    #[test]
    fn periodic_rejuvenation_prevents_the_leak_crash() {
        let mut env = Environment::builder().seed(5).build();
        let mut app = MiniWeb::new(&mut env);
        app.inject("apache-edn-01", &mut env).unwrap();
        let mut s = Rejuvenation::new(2, 1);
        s.on_start(&mut app, &mut env);
        // Twelve bursts would crash at the third without rejuvenation; the
        // period-2 hook resets the leak before it accumulates.
        let burst = Request::new("GET /burst");
        for i in 0..12 {
            let result = app.handle(&burst, &mut env);
            assert!(result.is_ok(), "burst {i} crashed despite rejuvenation");
            s.on_success(&burst, &mut app, &mut env);
        }
    }

    #[test]
    fn without_rejuvenation_the_same_load_crashes() {
        let mut env = Environment::builder().seed(5).build();
        let mut app = MiniWeb::new(&mut env);
        app.inject("apache-edn-01", &mut env).unwrap();
        let burst = Request::new("GET /burst");
        let mut crashed = false;
        for _ in 0..12 {
            if app.handle(&burst, &mut env).is_err() {
                crashed = true;
                break;
            }
        }
        assert!(crashed);
    }

    #[test]
    fn reactive_path_rejuvenates_after_restore() {
        let mut env = Environment::builder().seed(5).build();
        let mut app = MiniWeb::new(&mut env);
        app.inject("apache-edn-01", &mut env).unwrap();
        let burst = Request::new("GET /burst");
        let mut s = Rejuvenation::new(100, 2);
        s.on_start(&mut app, &mut env);
        // Crash the app by leaking.
        app.handle(&burst, &mut env).unwrap();
        app.handle(&burst, &mut env).unwrap();
        assert!(app.handle(&burst, &mut env).is_err());
        assert!(s.on_failure(&mut app, &mut env, 1));
        // The restored-but-rejuvenated instance serves the burst again.
        assert!(app.handle(&burst, &mut env).is_ok());
    }

    #[test]
    fn apps_without_a_hook_degrade_to_restart() {
        let mut env = Environment::builder().seed(5).build();
        let mut app = MiniDb::new(&mut env);
        assert!(app.rejuvenate_request().is_none(), "MiniDb has no rejuvenation hook");
        let mut s = Rejuvenation::new(1, 1);
        s.on_start(&mut app, &mut env);
        let ping = Request::new("PING");
        app.handle(&ping, &mut env).unwrap();
        s.on_success(&ping, &mut app, &mut env);
        assert!(s.on_failure(&mut app, &mut env, 1));
        assert!(!s.on_failure(&mut app, &mut env, 2));
    }

    #[test]
    #[should_panic(expected = "period must be positive")]
    fn zero_period_rejected() {
        Rejuvenation::new(0, 1);
    }
}
