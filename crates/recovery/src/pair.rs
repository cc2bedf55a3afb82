//! Process pairs \[Gray86\]: per-request state mirroring with fast failover.
//!
//! The primary ships its state to the backup after every served request;
//! when the primary fails, the backup takes over from the mirrored state
//! and retries the operation "on the same code (possibly on a different
//! computer)" (§2). In a *pure* application-generic pair the backup's
//! state is byte-identical to the primary's at the last request boundary —
//! the paper's §7 analysis of Tandem explains that much of the field
//! success of real process pairs came from the backup *not* starting from
//! the same state, which a purely generic mechanism cannot rely on.
//!
//! Compared with [`RestartRetry`](crate::RestartRetry), failover is an
//! order of magnitude faster than a full restart, which matters for
//! conditions that heal with time: a quick failover gives DNS less time to
//! recover. The harness's recovery matrix makes this visible.

use crate::restart::refresh_checkpoint;
use crate::strategy::RecoveryStrategy;
use faultstudy_apps::{AppState, Application, Request};
use faultstudy_env::Environment;
use faultstudy_sim::time::Duration;

/// Failover latency: much shorter than a full restart.
const FAILOVER_TAKES: Duration = Duration::from_millis(100);

/// A primary/backup process pair.
#[derive(Debug)]
pub struct ProcessPair {
    retries: u32,
    /// The checkpoint most recently shipped to the backup.
    backup: Option<AppState>,
}

impl ProcessPair {
    /// A pair that fails over up to `retries` times, 100 ms per failover.
    pub fn new(retries: u32) -> ProcessPair {
        ProcessPair { retries, backup: None }
    }
}

impl RecoveryStrategy for ProcessPair {
    fn name(&self) -> &'static str {
        "process-pair"
    }

    fn is_generic(&self) -> bool {
        true
    }

    fn on_start(&mut self, app: &mut dyn Application, _env: &mut Environment) {
        refresh_checkpoint(&mut self.backup, app);
    }

    fn on_success(&mut self, _req: &Request, app: &mut dyn Application, _env: &mut Environment) {
        // Ship the state delta to the backup at the request boundary.
        refresh_checkpoint(&mut self.backup, app);
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
        // The failing primary's processes are cleaned up...
        env.procs.kill_all_of(app.owner());
        // ...and the backup resumes from the mirrored state after a short
        // takeover, not a full restart.
        env.advance(FAILOVER_TAKES);
        if let Some(backup) = &self.backup {
            app.restore(backup);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faultstudy_apps::MiniWeb;
    use faultstudy_sim::time::SimTime;

    #[test]
    fn failover_is_faster_than_restart() {
        let mut env = Environment::builder().seed(2).build();
        let mut app = MiniWeb::new(&mut env);
        let mut pair = ProcessPair::new(3);
        pair.on_start(&mut app, &mut env);
        assert!(pair.on_failure(&mut app, &mut env, 1));
        assert_eq!(env.now(), SimTime::from_millis(100));
        assert!(env.now() < SimTime::ZERO + env.recovery_takes());
    }

    #[test]
    fn backup_state_is_the_last_request_boundary() {
        let mut env = Environment::builder().seed(2).build();
        let mut app = MiniWeb::new(&mut env);
        let mut pair = ProcessPair::new(1);
        pair.on_start(&mut app, &mut env);
        let req = Request::new("GET /x");
        app.handle(&req, &mut env).unwrap();
        pair.on_success(&req, &mut app, &mut env);
        let mirrored = app.snapshot();
        app.handle(&Request::new("GET /y"), &mut env).unwrap();
        assert!(pair.on_failure(&mut app, &mut env, 1));
        assert_eq!(app.snapshot(), mirrored);
    }

    #[test]
    fn budget_limits_failovers() {
        let mut env = Environment::builder().seed(2).build();
        let mut app = MiniWeb::new(&mut env);
        let mut pair = ProcessPair::new(1);
        assert!(pair.on_failure(&mut app, &mut env, 1));
        assert!(!pair.on_failure(&mut app, &mut env, 2));
    }
}
