//! Ablation sweeps over the recovery-design parameters (E11–E13).
//!
//! These quantify the design choices §6 discusses: how much replay work a
//! rollback-recovery checkpoint interval buys (E11), how much Wang93-style
//! perturbation improves race survival over plain retry (E12), and how the
//! rejuvenation period trades proactive work against leak-driven failures
//! (E13).

use faultstudy_apps::{spawn_app, AppState, Application, Request};
use faultstudy_core::taxonomy::AppKind;
use faultstudy_env::Environment;
use faultstudy_recovery::{
    refresh_checkpoint, run_workload, ProgressiveRetry, RecoveryStrategy, Rejuvenation,
    RollbackRecovery,
};

/// In-place retry in an *unchanged* environment: restore the checkpoint
/// and immediately re-execute, without advancing simulated time. Under the
/// paper's §3 principle — a fixed operating environment makes execution
/// deterministic — such a retry re-encounters the same interleaving, so it
/// is the correct no-perturbation baseline for E12.
#[derive(Debug)]
struct InstantRetry {
    retries: u32,
    checkpoint: Option<AppState>,
}

impl InstantRetry {
    fn new(retries: u32) -> InstantRetry {
        InstantRetry { retries, checkpoint: None }
    }
}

impl RecoveryStrategy for InstantRetry {
    fn name(&self) -> &'static str {
        "instant-retry"
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
        _env: &mut Environment,
        attempt: u32,
    ) -> bool {
        if attempt > self.retries {
            return false;
        }
        if let Some(cp) = &self.checkpoint {
            app.restore(cp);
        }
        true
    }
}

fn standard_env(seed: u64) -> Environment {
    Environment::builder().seed(seed).fd_limit(16).proc_slots(8).build()
}

/// One point of the E11 checkpoint-interval sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointPoint {
    /// Requests between checkpoints.
    pub interval: u32,
    /// Whether the workload survived its mid-stream transient failure.
    pub survived: bool,
    /// Messages replayed during recovery — the cost a long interval incurs.
    pub replayed: u64,
}

/// E11: a 24-request workload with one transient failure at the end, under
/// rollback recovery at each checkpoint interval.
pub(crate) fn sweep_checkpoint_interval(intervals: &[u32], seed: u64) -> Vec<CheckpointPoint> {
    intervals
        .iter()
        .map(|&interval| {
            let mut env = standard_env(seed);
            let mut app = spawn_app(AppKind::Apache, &mut env);
            app.inject("apache-edt-02", &mut env).expect("injectable");
            // 27 requests so that no swept interval divides the workload
            // evenly — every interval leaves a non-trivial log to replay.
            let mut workload: Vec<Request> =
                (0..27).map(|i| Request::new(format!("GET /page{i}"))).collect();
            workload.push(app.trigger_request("apache-edt-02").expect("trigger"));
            let mut strategy = RollbackRecovery::new(interval, 3);
            let run = run_workload(app.as_mut(), &mut env, &workload, &mut strategy);
            CheckpointPoint {
                interval,
                survived: run.survived,
                replayed: strategy.replayed_total(),
            }
        })
        .collect()
}

/// One point of the E12 perturbation sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PerturbationPoint {
    /// Retry budget.
    pub retries: u32,
    /// Environment seeds tried.
    pub seeds: u64,
    /// Survivals under in-place retry in an unchanged environment (the
    /// same interleaving re-fails deterministically).
    pub instant_survived: u32,
    /// Survivals under progressive retry with interleaving perturbation.
    pub progressive_survived: u32,
}

/// E12: survival of the armed MySQL shutdown race across environment
/// seeds, retry-in-unchanged-environment vs perturbed retry.
pub(crate) fn sweep_perturbation(retry_budgets: &[u32], seeds: u64) -> Vec<PerturbationPoint> {
    retry_budgets
        .iter()
        .map(|&retries| {
            let mut instant_survived = 0;
            let mut progressive_survived = 0;
            for seed in 0..seeds {
                for progressive in [false, true] {
                    let mut env = standard_env(seed);
                    let mut app = spawn_app(AppKind::Mysql, &mut env);
                    app.inject("mysql-edt-01", &mut env).expect("injectable");
                    let workload = vec![app.trigger_request("mysql-edt-01").expect("trigger")];
                    let survived = if progressive {
                        let mut s = ProgressiveRetry::new(retries);
                        run_workload(app.as_mut(), &mut env, &workload, &mut s).survived
                    } else {
                        let mut s = InstantRetry::new(retries);
                        run_workload(app.as_mut(), &mut env, &workload, &mut s).survived
                    };
                    if survived {
                        if progressive {
                            progressive_survived += 1;
                        } else {
                            instant_survived += 1;
                        }
                    }
                }
            }
            PerturbationPoint { retries, seeds, instant_survived, progressive_survived }
        })
        .collect()
}

/// One point of the E13 rejuvenation sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RejuvenationPoint {
    /// Requests between proactive rejuvenations.
    pub period: u32,
    /// Whether the 12-burst leak workload completed.
    pub survived: bool,
    /// Failures observed along the way (0 = the leak never manifested).
    pub failures: u32,
}

/// E13: the Apache leak fault (crash at 3 accumulated units) under a
/// 12-burst workload, for each rejuvenation period.
pub(crate) fn sweep_rejuvenation(periods: &[u32], seed: u64) -> Vec<RejuvenationPoint> {
    periods
        .iter()
        .map(|&period| {
            let mut env = standard_env(seed);
            let mut app = spawn_app(AppKind::Apache, &mut env);
            app.inject("apache-edn-01", &mut env).expect("injectable");
            let workload: Vec<Request> = (0..12).map(|_| Request::new("GET /burst")).collect();
            let mut strategy = Rejuvenation::new(period, 2);
            let run = run_workload(app.as_mut(), &mut env, &workload, &mut strategy);
            RejuvenationPoint { period, survived: run.survived, failures: run.failures }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_checkpoint_intervals_replay_less() {
        let points = sweep_checkpoint_interval(&[1, 4, 16], 11);
        assert!(points.iter().all(|p| p.survived), "{points:?}");
        assert!(
            points[0].replayed <= points[1].replayed && points[1].replayed <= points[2].replayed,
            "replay work grows with the interval: {points:?}"
        );
    }

    #[test]
    fn unchanged_environment_retries_never_recover_the_race() {
        // §3: fixed environment => deterministic execution. The armed race
        // re-fails on every in-place retry, no matter the budget.
        for p in sweep_perturbation(&[1, 5], 24) {
            assert_eq!(p.instant_survived, 0, "{p:?}");
        }
    }

    #[test]
    fn perturbation_recovers_most_races_given_budget() {
        let points = sweep_perturbation(&[1, 5], 24);
        assert!(
            points[1].progressive_survived > points[0].progressive_survived,
            "more perturbed retries recover more races: {points:?}"
        );
        let generous = &points[1];
        assert!(
            f64::from(generous.progressive_survived) >= 0.8 * generous.seeds as f64,
            "{generous:?}"
        );
    }

    #[test]
    fn frequent_rejuvenation_prevents_leak_failures() {
        let points = sweep_rejuvenation(&[1, 2, 4, 8], 13);
        // Period below the leak threshold (3): the fault never manifests.
        assert!(points[0].survived && points[0].failures == 0, "{points:?}");
        assert!(points[1].survived && points[1].failures == 0, "{points:?}");
        // Longer periods see failures; the reactive path still recovers
        // because it re-runs the rejuvenation hook after restore.
        assert!(points[2].failures > 0, "{points:?}");
        assert!(points[3].failures >= points[2].failures, "{points:?}");
    }

    #[test]
    fn sweeps_are_deterministic() {
        assert_eq!(sweep_rejuvenation(&[2, 4], 1), sweep_rejuvenation(&[2, 4], 1));
        assert_eq!(sweep_checkpoint_interval(&[2], 9), sweep_checkpoint_interval(&[2], 9));
    }
}
