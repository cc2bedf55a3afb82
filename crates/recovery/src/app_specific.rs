//! The application-specific recovery comparator.
//!
//! §2's other category: "a non-fault-tolerant design is made fault-tolerant
//! by adding code that is specific to the application … the programmer …
//! reconstructs part of the program state during recovery." On failure this
//! strategy performs the environmental recovery and then invokes
//! [`Application::cold_start`]: the application's own re-initialization,
//! which releases the resources *it* leaked, rebinds to the current
//! environment, and rebuilds session state — everything a byte-for-byte
//! checkpoint restore is forbidden to do.
//!
//! The paper's conclusion predicts this comparator out-recovers every
//! generic strategy on environment-dependent-nontransient faults whose
//! condition is of the application's own making (its leaks, its stale
//! session bindings), while still failing on deterministic faults and on
//! external conditions (a disk another program filled, a missing DNS
//! record). The recovery-matrix experiment measures exactly that.

use crate::strategy::RecoveryStrategy;
use faultstudy_apps::Application;
use faultstudy_env::Environment;

/// Application-specific cold-start recovery.
#[derive(Debug)]
pub struct AppSpecific {
    retries: u32,
}

impl AppSpecific {
    /// Retries each failed request up to `retries` times after cold starts.
    pub fn new(retries: u32) -> AppSpecific {
        AppSpecific { retries }
    }
}

impl RecoveryStrategy for AppSpecific {
    fn name(&self) -> &'static str {
        "app-specific"
    }

    fn is_generic(&self) -> bool {
        false
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
        app.cold_start(env);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faultstudy_apps::{MiniDe, MiniWeb, Request};

    #[test]
    fn cold_start_recovers_self_inflicted_fd_exhaustion() {
        let mut env = Environment::builder().seed(6).fd_limit(4).build();
        let mut app = MiniWeb::new(&mut env);
        app.inject("apache-edn-02", &mut env).unwrap();
        let req = Request::new("GET /file");
        assert!(app.handle(&req, &mut env).is_err());
        let mut s = AppSpecific::new(1);
        assert!(s.on_failure(&mut app, &mut env, 1));
        assert!(app.handle(&req, &mut env).is_ok(), "cold start released own fds");
    }

    #[test]
    fn cold_start_recovers_hostname_rebinding() {
        let mut env = Environment::builder().seed(6).build();
        let mut app = MiniDe::new(&mut env);
        app.inject("gnome-edn-01", &mut env).unwrap();
        let req = Request::new("OPEN-DISPLAY");
        assert!(app.handle(&req, &mut env).is_err());
        let mut s = AppSpecific::new(1);
        assert!(s.on_failure(&mut app, &mut env, 1));
        assert!(app.handle(&req, &mut env).is_ok(), "session rebound to the new name");
    }

    #[test]
    fn cold_start_cannot_fix_deterministic_faults() {
        let mut env = Environment::builder().seed(6).build();
        let mut app = MiniWeb::new(&mut env);
        app.inject("apache-ei-03", &mut env).unwrap();
        let req = Request::new("GET /nonexistent");
        assert!(app.handle(&req, &mut env).is_err());
        let mut s = AppSpecific::new(2);
        assert!(s.on_failure(&mut app, &mut env, 1));
        assert!(app.handle(&req, &mut env).is_err(), "the defect is in the code");
    }

    #[test]
    fn cold_start_cannot_fix_external_conditions() {
        let mut env = Environment::builder().seed(6).fs_capacity(4096).build();
        let mut app = MiniWeb::new(&mut env);
        app.inject("apache-edn-05", &mut env).unwrap();
        let req = Request::new("GET /logged");
        assert!(app.handle(&req, &mut env).is_err());
        let mut s = AppSpecific::new(2);
        assert!(s.on_failure(&mut app, &mut env, 1));
        assert!(app.handle(&req, &mut env).is_err(), "the disk is full with ballast");
    }

    #[test]
    fn budget_is_enforced() {
        let mut env = Environment::builder().seed(6).build();
        let mut app = MiniWeb::new(&mut env);
        let mut s = AppSpecific::new(1);
        assert!(s.on_failure(&mut app, &mut env, 1));
        assert!(!s.on_failure(&mut app, &mut env, 2));
    }
}
