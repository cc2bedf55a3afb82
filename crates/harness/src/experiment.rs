//! One fault-injection experiment: inject a corpus fault into its
//! application, drive the triggering workload under a recovery strategy,
//! and record whether the work survived.

use faultstudy_apps::{spawn_app, Request};
use faultstudy_core::taxonomy::FaultClass;
use faultstudy_corpus::CuratedFault;
use faultstudy_env::witness::ReadLog;
use faultstudy_env::Environment;
use faultstudy_obs::MetricsRegistry;
use faultstudy_recovery::{
    run_workload, AppSpecific, NoRecovery, ProcessPair, ProgressiveRetry, RecoveryStrategy,
    Rejuvenation, RestartRetry, RollbackRecovery,
};
use serde::Serialize;
use std::fmt;

/// The recovery strategies the matrix compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub enum StrategyKind {
    /// No recovery: first failure is fatal (baseline).
    None,
    /// Generic restart + retry from the last checkpoint.
    Restart,
    /// Process pairs: mirrored state, fast failover \[Gray86\].
    ProcessPair,
    /// Checkpoint every N requests + message-log replay \[Elnozahy99\].
    Rollback,
    /// Progressive retry with environment perturbation \[Wang93\].
    Progressive,
    /// Proactive software rejuvenation \[Huang95\].
    Rejuvenation,
    /// The application-specific comparator (§2).
    AppSpecific,
}

impl StrategyKind {
    /// Every strategy, baseline first.
    pub const ALL: [StrategyKind; 7] = [
        StrategyKind::None,
        StrategyKind::Restart,
        StrategyKind::ProcessPair,
        StrategyKind::Rollback,
        StrategyKind::Progressive,
        StrategyKind::Rejuvenation,
        StrategyKind::AppSpecific,
    ];

    /// Short identifier.
    pub fn name(self) -> &'static str {
        match self {
            StrategyKind::None => "none",
            StrategyKind::Restart => "restart",
            StrategyKind::ProcessPair => "process-pair",
            StrategyKind::Rollback => "rollback",
            StrategyKind::Progressive => "progressive",
            StrategyKind::Rejuvenation => "rejuvenation",
            StrategyKind::AppSpecific => "app-specific",
        }
    }

    /// Whether the strategy is application-generic in the paper's sense.
    pub fn is_generic(self) -> bool {
        !matches!(self, StrategyKind::Rejuvenation | StrategyKind::AppSpecific)
    }

    /// Instantiates the strategy with the harness's standard budgets.
    pub fn build(self) -> Box<dyn RecoveryStrategy> {
        match self {
            StrategyKind::None => Box::new(NoRecovery),
            StrategyKind::Restart => Box::new(RestartRetry::new(3)),
            StrategyKind::ProcessPair => Box::new(ProcessPair::new(3)),
            StrategyKind::Rollback => Box::new(RollbackRecovery::new(2, 3)),
            StrategyKind::Progressive => Box::new(ProgressiveRetry::new(5)),
            StrategyKind::Rejuvenation => Box::new(Rejuvenation::new(2, 3)),
            StrategyKind::AppSpecific => Box::new(AppSpecific::new(3)),
        }
    }
}

impl fmt::Display for StrategyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The outcome of one (fault, strategy) experiment.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct FaultOutcome {
    /// Corpus slug of the injected fault.
    pub slug: String,
    /// The fault's class per the corpus.
    pub class: FaultClass,
    /// The strategy under test.
    pub strategy: StrategyKind,
    /// Whether the full triggering workload was eventually served.
    pub survived: bool,
    /// Fault manifestations observed.
    pub failures: u32,
    /// Recovery actions performed.
    pub recoveries: u32,
}

/// Builds `fault`'s triggering workload without running anything: warm-up,
/// the trigger repeated as its How-To-Repeat demands, and a trailing
/// request proving continued service.
///
/// Benign and trigger requests are pure functions of `(application,
/// slug)` — they never read the environment — so a campaign prepares every
/// fault's workload once up front instead of rebuilding (and re-cloning)
/// it for each of millions of samples. The scratch environment here is
/// discarded; only the request text survives.
pub fn build_workload(fault: &CuratedFault) -> Vec<Request> {
    let mut env = standard_env(0, false);
    let mut app = spawn_app(fault.app(), &mut env);
    app.inject(fault.slug(), &mut env).expect("every corpus fault is injectable");
    let benign = app.benign_request();
    let trigger =
        app.trigger_request(fault.slug()).expect("every corpus fault has a triggering request");
    // Resource-leak faults manifest under sustained load (§5.1 "high
    // load"): their trigger must be repeated past the leak threshold. The
    // corpus knows how often from the condition kind.
    let mut workload = vec![benign.clone(), benign.clone()];
    workload.extend(std::iter::repeat_n(trigger, fault.trigger_reps()));
    workload.push(benign);
    workload
}

/// The slug-free outcome of one experiment: what a campaign aggregates.
///
/// [`FaultOutcome`] owns the fault's slug, which costs an allocation per
/// sample; the campaign hot path borrows the slug from the corpus instead
/// and folds these plain counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeanOutcome {
    /// The fault's class per the corpus.
    pub class: FaultClass,
    /// Whether the full triggering workload was eventually served.
    pub survived: bool,
    /// Fault manifestations observed.
    pub failures: u32,
    /// Recovery actions performed.
    pub recoveries: u32,
}

impl FaultOutcome {
    /// `fault`'s outcome under `strategy`, with the slug attached.
    pub(crate) fn new(
        fault: &CuratedFault,
        strategy: StrategyKind,
        out: LeanOutcome,
    ) -> FaultOutcome {
        let LeanOutcome { class, survived, failures, recoveries } = out;
        let slug = fault.slug().to_owned();
        FaultOutcome { slug, class, strategy, survived, failures, recoveries }
    }
}

/// The one experiment body: a fresh environment seeded by `seed` (metrics
/// on iff `metrics`), `fault` injected into a fresh instance of its
/// application, and `workload` — prepared by [`build_workload`] — driven
/// under `strategy`. With metrics on it also returns the registry, with
/// the TTR distribution re-keyed under the experiment's matrix cell,
/// `recovery.ttr.class{<class>/<strategy>}`. Metrics are pure
/// observation, so the outcome is the same either way.
///
/// The log is the environment's seed witness ([`Environment::read_log`]):
/// a blind log means the run, registry included, would have been the same
/// under every seed, and a complete one that it is the same under every
/// seed that gives its reads the same verdicts.
pub fn run_prepared(
    fault: &CuratedFault,
    strategy: StrategyKind,
    seed: u64,
    workload: &[Request],
    metrics: bool,
) -> (LeanOutcome, Option<MetricsRegistry>, ReadLog) {
    let mut env = standard_env(seed, metrics);
    let mut app = spawn_app(fault.app(), &mut env);
    app.inject(fault.slug(), &mut env)
        .expect("every corpus fault is injectable into its application");
    let mut strat = strategy.build();
    let run = run_workload(app.as_mut(), &mut env, workload, strat.as_mut());
    let outcome = LeanOutcome {
        class: fault.class(),
        survived: run.survived,
        failures: run.failures,
        recoveries: run.recoveries,
    };
    let registry = env.metrics.take().map(|mut reg| {
        if let Some(ttr) = reg.histogram("recovery.ttr", strategy.name()).cloned() {
            reg.merge_histogram("recovery.ttr.class", cell_label(fault.class(), strategy), ttr);
        }
        reg
    });
    (outcome, registry, *env.read_log())
}

/// Runs one fault under one strategy against a workload prepared by
/// [`build_workload`], without metrics: the sampled campaign's per-sample
/// step. Byte-identical in outcome to [`run_fault_experiment`], minus the
/// owned slug.
pub fn run_prepared_experiment(
    fault: &CuratedFault,
    strategy: StrategyKind,
    seed: u64,
    workload: &[Request],
) -> LeanOutcome {
    run_prepared(fault, strategy, seed, workload, false).0
}

/// Ledgers `samples` experiments with one outcome into a registry that
/// aggregates a whole population: `experiment.total`,
/// `experiment.survived` and `recovery.actions`, each under the strategy's
/// name. The matrix and the sampled campaign both ledger through it.
pub(crate) fn ledger_experiment(
    registry: &mut MetricsRegistry,
    strategy: StrategyKind,
    survived: bool,
    recoveries: u32,
    samples: u64,
) {
    registry.incr("experiment.total", strategy.name(), samples);
    if survived {
        registry.incr("experiment.survived", strategy.name(), samples);
    }
    if recoveries > 0 {
        registry.incr("recovery.actions", strategy.name(), samples * u64::from(recoveries));
    }
}

/// The harness's standard environment budgets, shared by every experiment.
pub(crate) fn standard_env(seed: u64, metrics: bool) -> Environment {
    Environment::builder()
        .seed(seed)
        .fd_limit(16)
        .proc_slots(8)
        .fs_capacity(256 * 1024)
        .max_file_size(64 * 1024)
        .metrics(metrics)
        .build()
}

/// Runs one fault under one strategy with the given environment seed.
///
/// Builds the fault's triggering workload, then drives it under the
/// supervisor in a fresh environment with the application spawned and
/// injected. Everything is a pure function of `(fault, strategy, seed)`.
pub fn run_fault_experiment(
    fault: &CuratedFault,
    strategy: StrategyKind,
    seed: u64,
) -> FaultOutcome {
    let out = run_prepared_experiment(fault, strategy, seed, &build_workload(fault));
    FaultOutcome::new(fault, strategy, out)
}

/// Like [`run_fault_experiment`], but with the environment's metrics sink
/// enabled; returns the registry alongside the outcome.
///
/// The registry carries the supervisor's per-strategy time-to-recovery and
/// retry histograms, plus the TTR distribution re-keyed under this
/// experiment's matrix cell, `recovery.ttr.class{<class>/<strategy>}`.
/// Survival counters (`experiment.*{<strategy>}`) are added by the
/// aggregating callers — the campaign and the matrix — which see the whole
/// sample population. Metrics are pure observation, so the outcome is
/// byte-identical to the uninstrumented run's.
pub fn run_fault_experiment_instrumented(
    fault: &CuratedFault,
    strategy: StrategyKind,
    seed: u64,
) -> (FaultOutcome, MetricsRegistry) {
    let (out, registry, _) = run_prepared(fault, strategy, seed, &build_workload(fault), true);
    (FaultOutcome::new(fault, strategy, out), registry.expect("metrics were enabled"))
}

/// The `<class>/<strategy>` label of a matrix cell, interned once so the
/// per-sample instrumented path never formats a label.
pub(crate) fn cell_label(class: FaultClass, strategy: StrategyKind) -> &'static str {
    use std::sync::OnceLock;
    static CELLS: OnceLock<Vec<String>> = OnceLock::new();
    let cells = CELLS.get_or_init(|| {
        FaultClass::ALL
            .iter()
            .flat_map(|c| {
                StrategyKind::ALL.iter().map(move |s| format!("{}/{}", c.short(), s.name()))
            })
            .collect()
    });
    let ci = FaultClass::ALL.iter().position(|&c| c == class).expect("class in ALL");
    let si = StrategyKind::ALL.iter().position(|&s| s == strategy).expect("strategy in ALL");
    cells[ci * StrategyKind::ALL.len() + si].as_str()
}

#[cfg(test)]
mod tests {
    use super::*;
    use faultstudy_corpus::find;

    #[test]
    fn strategy_kinds_have_unique_names() {
        use std::collections::BTreeSet;
        let names: BTreeSet<_> = StrategyKind::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(names.len(), StrategyKind::ALL.len());
        assert!(StrategyKind::Restart.is_generic());
        assert!(!StrategyKind::AppSpecific.is_generic());
        assert!(!StrategyKind::Rejuvenation.is_generic());
    }

    #[test]
    fn experiments_are_deterministic_in_the_seed() {
        let fault = find("mysql-edt-01").unwrap();
        let a = run_fault_experiment(&fault, StrategyKind::Restart, 42);
        let b = run_fault_experiment(&fault, StrategyKind::Restart, 42);
        assert_eq!(a, b);
    }

    #[test]
    fn environment_independent_fault_never_survives_any_strategy() {
        let fault = find("mysql-ei-03").unwrap();
        for strategy in StrategyKind::ALL {
            let out = run_fault_experiment(&fault, strategy, 7);
            assert!(!out.survived, "{strategy}");
            assert!(out.failures > 0);
        }
    }

    #[test]
    fn nontransient_fault_defeats_generic_but_leak_yields_to_app_knowledge() {
        let leak = find("apache-edn-01").unwrap();
        for strategy in [StrategyKind::Restart, StrategyKind::ProcessPair, StrategyKind::Rollback] {
            assert!(!run_fault_experiment(&leak, strategy, 7).survived, "{strategy}");
        }
        assert!(run_fault_experiment(&leak, StrategyKind::AppSpecific, 7).survived);
        // Rejuvenation *prevents* the leak from ever manifesting (§6.2).
        let rejuv = run_fault_experiment(&leak, StrategyKind::Rejuvenation, 7);
        assert!(rejuv.survived);
        assert_eq!(rejuv.failures, 0, "proactive rejuvenation avoided the crash");
    }

    #[test]
    fn instrumented_experiment_matches_plain_and_carries_metrics() {
        let fault = find("apache-edt-04").unwrap();
        let plain = run_fault_experiment(&fault, StrategyKind::Restart, 7);
        let (outcome, reg) = run_fault_experiment_instrumented(&fault, StrategyKind::Restart, 7);
        assert_eq!(outcome, plain, "instrumentation must not perturb the experiment");
        let ttr = reg.histogram("recovery.ttr", "restart").expect("recovery happened");
        assert!(ttr.max().unwrap() > 0);
        assert_eq!(
            reg.histogram("recovery.ttr.class", "transient/restart").map(|h| h.count()),
            Some(ttr.count()),
            "class re-key carries the same distribution"
        );
    }

    #[test]
    fn transient_fault_survives_restart_but_not_no_recovery() {
        let fault = find("apache-edt-04").unwrap();
        assert!(run_fault_experiment(&fault, StrategyKind::Restart, 7).survived);
        assert!(!run_fault_experiment(&fault, StrategyKind::None, 7).survived);
    }

    #[test]
    fn dns_healing_needs_slow_recovery_fast_failover_misses_it() {
        let fault = find("apache-edt-01").unwrap();
        let restart = run_fault_experiment(&fault, StrategyKind::Restart, 7);
        assert!(restart.survived, "1s restarts reach the 2s DNS repair point");
        let pair = run_fault_experiment(&fault, StrategyKind::ProcessPair, 7);
        assert!(
            !pair.survived,
            "100ms failovers exhaust the budget before DNS heals — fast failover \
             is not automatically better for time-healing conditions"
        );
    }
}
