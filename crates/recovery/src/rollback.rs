//! Rollback-recovery: periodic checkpoints plus message-log replay
//! [Elnozahy99, Huang93].
//!
//! Instead of checkpointing at every request boundary, the application is
//! checkpointed every `checkpoint_every` served requests and the requests
//! since the checkpoint are logged. Recovery restores the checkpoint and
//! replays the log. Crucially, replay re-delivers the *requests* but not
//! the one-shot environmental timing events that accompanied them (a
//! user's stop press is not in the message log), and the replayed
//! execution observes the *current* environment — both are exactly the
//! paper's mechanism by which transient conditions disappear on retry.

use crate::restart::refresh_checkpoint;
use crate::strategy::RecoveryStrategy;
use faultstudy_apps::{AppState, Application, Request};
use faultstudy_env::Environment;

/// Checkpoint/replay rollback recovery.
#[derive(Debug)]
pub struct RollbackRecovery {
    checkpoint_every: u32,
    retries: u32,
    checkpoint: Option<AppState>,
    log: Vec<Request>,
    since_checkpoint: u32,
    replayed_total: u64,
}

impl RollbackRecovery {
    /// Checkpoints every `checkpoint_every` requests and retries a failed
    /// request up to `retries` times.
    ///
    /// # Panics
    ///
    /// Panics if `checkpoint_every` is zero.
    pub fn new(checkpoint_every: u32, retries: u32) -> RollbackRecovery {
        assert!(checkpoint_every > 0, "checkpoint interval must be positive");
        RollbackRecovery {
            checkpoint_every,
            retries,
            checkpoint: None,
            log: Vec::new(),
            since_checkpoint: 0,
            replayed_total: 0,
        }
    }

    /// Requests replayed across all recoveries (benchmark statistic).
    pub fn replayed_total(&self) -> u64 {
        self.replayed_total
    }
}

impl RecoveryStrategy for RollbackRecovery {
    fn name(&self) -> &'static str {
        "rollback"
    }

    fn is_generic(&self) -> bool {
        true
    }

    fn on_start(&mut self, app: &mut dyn Application, _env: &mut Environment) {
        refresh_checkpoint(&mut self.checkpoint, app);
        self.log.clear();
        self.since_checkpoint = 0;
    }

    fn on_success(&mut self, req: &Request, app: &mut dyn Application, _env: &mut Environment) {
        self.since_checkpoint += 1;
        if self.since_checkpoint >= self.checkpoint_every {
            refresh_checkpoint(&mut self.checkpoint, app);
            self.log.clear();
            self.since_checkpoint = 0;
        } else {
            // Log the message for replay, without its one-shot timing event.
            let mut logged = req.clone();
            logged.timing_event = false;
            self.log.push(logged);
        }
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
        // Replay the logged messages against the current environment. A
        // replay failure aborts this recovery attempt; the budget allows
        // trying again (the environment may have changed meanwhile).
        for req in &self.log {
            self.replayed_total += 1;
            if app.handle(req, env).is_err() {
                return attempt < self.retries;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faultstudy_apps::MiniWeb;

    fn setup() -> (Environment, MiniWeb) {
        let mut env = Environment::builder().seed(3).build();
        let app = MiniWeb::new(&mut env);
        (env, app)
    }

    fn serve(app: &mut MiniWeb, env: &mut Environment, s: &mut RollbackRecovery, path: &str) {
        let req = Request::new(format!("GET {path}"));
        app.handle(&req, env).unwrap();
        s.on_success(&req, app, env);
    }

    #[test]
    fn replay_reconstructs_state_between_checkpoints() {
        let (mut env, mut app) = setup();
        let mut s = RollbackRecovery::new(3, 2);
        s.on_start(&mut app, &mut env);
        serve(&mut app, &mut env, &mut s, "/a");
        serve(&mut app, &mut env, &mut s, "/b");
        let served_before = app.served();
        assert!(s.on_failure(&mut app, &mut env, 1));
        assert_eq!(app.served(), served_before, "checkpoint + replay = same state");
        assert_eq!(s.replayed_total(), 2);
    }

    #[test]
    fn checkpoint_boundary_truncates_the_log() {
        let (mut env, mut app) = setup();
        let mut s = RollbackRecovery::new(2, 2);
        s.on_start(&mut app, &mut env);
        serve(&mut app, &mut env, &mut s, "/a");
        serve(&mut app, &mut env, &mut s, "/b"); // checkpoint here
        assert!(s.on_failure(&mut app, &mut env, 1));
        assert_eq!(s.replayed_total(), 0, "log was truncated at the checkpoint");
    }

    #[test]
    fn timing_events_are_not_replayed() {
        let (mut env, mut app) = setup();
        app.inject("apache-edt-03", &mut env).unwrap();
        let mut s = RollbackRecovery::new(10, 2);
        s.on_start(&mut app, &mut env);
        // The download with the stop press fails; pretend an earlier
        // attempt succeeded and was logged WITH its event armed.
        let req = Request::new("GET /download").with_timing_event();
        s.on_success(&req, &mut app, &mut env);
        // Replay must not re-fire the event, so recovery succeeds.
        assert!(s.on_failure(&mut app, &mut env, 1));
    }

    #[test]
    #[should_panic(expected = "checkpoint interval")]
    fn zero_interval_rejected() {
        RollbackRecovery::new(0, 1);
    }

    #[test]
    fn gives_up_past_budget() {
        let (mut env, mut app) = setup();
        let mut s = RollbackRecovery::new(2, 1);
        assert!(s.on_failure(&mut app, &mut env, 1));
        assert!(!s.on_failure(&mut app, &mut env, 2));
    }
}
