//! Generic restart-and-retry from the last checkpoint.
//!
//! The simplest application-generic technique: checkpoint after every
//! served request; on failure, let the recovery layer kill the
//! application's processes, restore the last checkpoint byte-for-byte, and
//! retry the failed request. Each recovery consumes
//! [`Environment::recovery_takes`] of simulated time, which is what gives
//! naturally-healing conditions their chance.
//!
//! Every other strategy that checkpoints this way holds a [`RestartRetry`]
//! and calls it from its own hooks, so the step is written once: progressive
//! retry and rejuvenation escalate around it, the state scrub and the
//! profile healer fall back to it, and microreboot's whole-process rung is
//! it. Every checkpoint any strategy keeps is taken through
//! [`refresh_checkpoint`], which refreshes the one it holds in place.

use crate::strategy::RecoveryStrategy;
use faultstudy_apps::{AppState, Application, Request};
use faultstudy_env::Environment;

/// Refreshes `checkpoint` to `app`'s current state: in place when it holds
/// a checkpoint already ([`Application::snapshot_into`]), a first
/// [`Application::snapshot`] when it holds none.
pub fn refresh_checkpoint(checkpoint: &mut Option<AppState>, app: &dyn Application) {
    match checkpoint {
        Some(saved) => app.snapshot_into(saved),
        None => *checkpoint = Some(app.snapshot()),
    }
}

/// Restart-and-retry with a bounded retry budget.
///
/// # Example
///
/// ```
/// use faultstudy_recovery::{RecoveryStrategy, RestartRetry};
///
/// let s = RestartRetry::new(3);
/// assert_eq!(s.name(), "restart");
/// assert!(s.is_generic());
/// ```
#[derive(Debug)]
pub struct RestartRetry {
    retries: u32,
    checkpoint: Option<AppState>,
}

impl RestartRetry {
    /// A strategy that retries each failed request up to `retries` times.
    pub fn new(retries: u32) -> RestartRetry {
        RestartRetry { retries, checkpoint: None }
    }

    /// The retry budget.
    pub(crate) fn retries(&self) -> u32 {
        self.retries
    }

    /// The generic recovery step without the budget check: kill the
    /// application's processes and restore the last checkpoint.
    pub(crate) fn recover(&self, app: &mut dyn Application, env: &mut Environment) {
        env.on_generic_recovery(app.owner());
        if let Some(cp) = &self.checkpoint {
            app.restore(cp);
        }
    }
}

impl RecoveryStrategy for RestartRetry {
    fn name(&self) -> &'static str {
        "restart"
    }

    fn is_generic(&self) -> bool {
        true
    }

    fn on_start(&mut self, app: &mut dyn Application, _env: &mut Environment) {
        refresh_checkpoint(&mut self.checkpoint, app);
    }

    fn on_success(&mut self, _req: &Request, app: &mut dyn Application, _env: &mut Environment) {
        refresh_checkpoint(&mut self.checkpoint, app);
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
        self.recover(app, env);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faultstudy_apps::{MiniWeb, Response};

    fn setup() -> (Environment, MiniWeb) {
        let mut env = Environment::builder().seed(1).proc_slots(4).build();
        let app = MiniWeb::new(&mut env);
        (env, app)
    }

    #[test]
    fn restores_last_checkpoint_on_failure() {
        let (mut env, mut app) = setup();
        let mut s = RestartRetry::new(2);
        s.on_start(&mut app, &mut env);
        let req = Request::new("GET /a");
        let resp = app.handle(&req, &mut env).unwrap();
        assert_eq!(resp, Response::Ok("200 OK /a".into()));
        s.on_success(&req, &mut app, &mut env);
        let at_one = app.snapshot();
        app.handle(&Request::new("GET /b"), &mut env).unwrap();
        assert!(s.on_failure(&mut app, &mut env, 1));
        assert_eq!(app.snapshot(), at_one, "state rolled back to the checkpoint");
    }

    #[test]
    fn budget_exhaustion_gives_up() {
        let (mut env, mut app) = setup();
        let mut s = RestartRetry::new(2);
        assert!(s.on_failure(&mut app, &mut env, 1));
        assert!(s.on_failure(&mut app, &mut env, 2));
        assert!(!s.on_failure(&mut app, &mut env, 3));
    }

    #[test]
    fn recovery_kills_app_processes_and_advances_time() {
        let (mut env, mut app) = setup();
        let pid = env.procs.spawn(app.owner()).unwrap();
        env.procs.hang(pid).unwrap();
        let before = env.now();
        let mut s = RestartRetry::new(1);
        s.on_start(&mut app, &mut env);
        assert!(s.on_failure(&mut app, &mut env, 1));
        assert_eq!(env.procs.count_of(app.owner()), 0);
        assert!(env.now() > before);
    }
}
