//! The injection campaign: every standard injection plan crossed with
//! every recovery strategy, with and without environment scrubbing.
//!
//! The corpus-driven campaigns (see [`campaign`](crate::campaign)) test the
//! paper's thesis through scripted bug reports; this one tests it from the
//! environment side. Each unit arms one application defect, lets a
//! deterministic [`InjectionPlan`] perturb the simulated environment on its
//! own schedule, and asks the hardened supervisor whether the workload
//! survived. The class contract under test (§3, §6):
//!
//! - **transient** injections self-heal, so retry-family strategies
//!   survive some of them with no operator help;
//! - **nontransient** injections (descriptor and disk exhaustion by an
//!   external program) defeat every generic strategy unless the
//!   supervisor's scrub step — an operator action — clears them;
//! - the **environment-independent** control survives nothing, scrub or
//!   not.
//!
//! Determinism: plans are a pure function of the master seed and units
//! run on the campaign driver — the report is byte-identical at any
//! thread count and chunk size.

use crate::driver::{drive_cells, grid, write_anomalies, Campaign};
use crate::experiment::{standard_env, StrategyKind};
use faultstudy_apps::{Application, MiniWeb};
use faultstudy_core::taxonomy::FaultClass;
use faultstudy_exec::ParallelSpec;
use faultstudy_inject::{standard_plans, InjectionPlan, Injector};
use faultstudy_obs::MetricsRegistry;
use faultstudy_recovery::{run_workload_supervised, BackoffPolicy, SupervisorConfig};
use faultstudy_sim::rng::split_seed;
use faultstudy_sim::time::Duration;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Configuration of an injection campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct InjectSpec {
    /// Master seed; the campaign is a pure function of it.
    pub seed: u64,
}

/// One `(plan, strategy, scrub)` unit of the campaign.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct InjectCell {
    /// Injection plan name.
    pub plan: String,
    /// The paper class of the injected condition.
    pub class: FaultClass,
    /// Strategy under test.
    pub strategy: StrategyKind,
    /// Whether the supervisor scrubbed the environment between retries.
    pub scrub: bool,
    /// Whether the whole workload was eventually served.
    pub survived: bool,
    /// Fault manifestations observed.
    pub failures: u32,
    /// Recovery actions performed.
    pub recoveries: u32,
    /// Injection events that came due and were applied.
    pub injected: usize,
    /// Hung attempts detected by the watchdog deadline.
    pub watchdog_fires: u32,
    /// Circuit-breaker trips (graceful degradation).
    pub breaker_trips: u32,
    /// Environment scrubs performed.
    pub scrubs: u32,
    /// Requests shed after a breaker trip.
    pub shed: usize,
}

/// Aggregate of one injection campaign.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct InjectReport {
    /// The spec that produced this report.
    pub spec: InjectSpec,
    /// Every unit, in `(plan, strategy, scrub)` enumeration order.
    pub cells: Vec<InjectCell>,
    /// Violations of the class contract; must be empty.
    pub anomalies: Vec<String>,
}

/// The hardened supervisor configuration every campaign unit runs under.
///
/// Requests take 100 ms, so a plan's pre-trigger schedule (50–350 ms)
/// fires while the workload's four leading benign requests are served.
/// The 4 s watchdog outlives every self-healing window (2 s), so a
/// detected hang retries into a healed environment. Backoff starts at
/// 50 ms and caps at 2 s — small enough that strategy retry budgets, not
/// the clock, decide outcomes. The breaker trips at four consecutive
/// recovered failures: inside progressive retry's budget of five, beyond
/// everyone else's, so exactly the most persistent strategy degrades
/// gracefully instead of burning its whole budget.
fn unit_config(scrub: bool, backoff_seed: u64) -> SupervisorConfig {
    SupervisorConfig {
        watchdog: Some(Duration::from_secs(4)),
        backoff: BackoffPolicy::new(
            Duration::from_millis(50),
            Duration::from_secs(2),
            backoff_seed,
        ),
        breaker_threshold: 4,
        scrub_every: u32::from(scrub),
        request_takes: Duration::from_millis(100),
    }
}

/// One campaign unit: arm the plan's companion defect in a fresh MiniWeb,
/// replay the plan through the supervisor's pre-attempt hook, and drive
/// the triggering workload.
fn run_unit(
    plan: &InjectionPlan,
    strategy: StrategyKind,
    scrub: bool,
    unit_seed: u64,
    instrumented: bool,
) -> (InjectCell, Option<MetricsRegistry>) {
    let mut env = standard_env(unit_seed, instrumented);
    let mut app = MiniWeb::new(&mut env);
    app.arm_defect(&plan.companion_defect).expect("every plan's companion defect arms in MiniWeb");
    let benign = app.benign_request();
    let trigger = app
        .trigger_request(&plan.companion_defect)
        .expect("every companion defect has a triggering request");
    // Four benign requests consume the plan's schedule window, three
    // triggers meet the armed defect in the perturbed environment, two
    // trailing benigns prove continued service.
    let mut workload = vec![benign.clone(); 4];
    workload.extend(std::iter::repeat_n(trigger, 3));
    workload.extend([benign.clone(), benign]);
    let mut injector = Injector::new(plan, &mut env);
    let mut strat = strategy.build();
    let config = unit_config(scrub, split_seed(unit_seed, 1));
    let sup = run_workload_supervised(
        &mut app,
        &mut env,
        &workload,
        strat.as_mut(),
        &config,
        Some(&mut injector),
    );
    let cell = InjectCell {
        plan: plan.name.clone(),
        class: plan.class,
        strategy,
        scrub,
        survived: sup.run.survived,
        failures: sup.run.failures,
        recoveries: sup.run.recoveries,
        injected: injector.applied(),
        watchdog_fires: sup.watchdog_fires,
        breaker_trips: sup.breaker_trips,
        scrubs: sup.scrubs,
        shed: sup.shed,
    };
    (cell, env.metrics.take())
}

/// The class contract a unit may violate.
fn contract_violation(cell: &InjectCell) -> Option<String> {
    let violates = cell.survived
        && (cell.class == FaultClass::EnvironmentIndependent
            || (cell.class == FaultClass::EnvDependentNonTransient
                && !cell.scrub
                && cell.strategy.is_generic()));
    violates.then(|| {
        format!(
            "{} survived {} with scrubbing {}",
            cell.plan,
            cell.strategy.name(),
            if cell.scrub { "on" } else { "off" },
        )
    })
}

impl Campaign for InjectReport {
    type Spec = InjectSpec;
    const NAME: &'static str = "inject";

    /// The registry carries the supervisor's hardening counters
    /// (`supervisor.watchdog`, `supervisor.breaker.trips`,
    /// `supervisor.scrubs`, `supervisor.backoff`), the injector's
    /// `inject.applied` event counts, the per-strategy `inject.units` and
    /// `inject.survived` ledger, and the usual recovery histograms.
    fn run(
        spec: InjectSpec,
        parallel: ParallelSpec,
        instrumented: bool,
    ) -> (InjectReport, MetricsRegistry) {
        let plans = standard_plans(spec.seed);
        let strategies = StrategyKind::ALL.len();
        let (cells, registry) = drive_cells(
            spec.seed,
            plans.len() * strategies * 2,
            parallel,
            instrumented,
            |index, unit_seed| {
                let (plan, strategy, scrub) = grid(index, strategies, 2);
                let strategy = StrategyKind::ALL[strategy];
                run_unit(&plans[plan], strategy, scrub == 1, unit_seed, instrumented)
            },
            |registry, cell: &InjectCell| {
                registry.incr("inject.units", cell.strategy.name(), 1);
                if cell.survived {
                    registry.incr("inject.survived", cell.strategy.name(), 1);
                }
            },
        );
        let anomalies = cells.iter().filter_map(contract_violation).collect();
        (InjectReport { spec, cells, anomalies }, registry)
    }

    fn violations(&self) -> Vec<String> {
        self.anomalies.clone()
    }
}

impl InjectReport {
    /// `(survived, total)` over every unit of `class` under `strategy`
    /// with the given scrub setting.
    pub fn class_survival(
        &self,
        class: FaultClass,
        strategy: StrategyKind,
        scrub: bool,
    ) -> (u32, u32) {
        self.cells
            .iter()
            .filter(|c| c.class == class && c.strategy == strategy && c.scrub == scrub)
            .fold((0, 0), |(s, t), c| (s + u32::from(c.survived), t + 1))
    }

    /// Total watchdog fires across the campaign.
    pub fn watchdog_fires(&self) -> u64 {
        self.cells.iter().map(|c| u64::from(c.watchdog_fires)).sum()
    }

    /// Total circuit-breaker trips across the campaign.
    pub fn breaker_trips(&self) -> u64 {
        self.cells.iter().map(|c| u64::from(c.breaker_trips)).sum()
    }

    /// Total environment scrubs across the campaign.
    pub fn scrubs(&self) -> u64 {
        self.cells.iter().map(|c| u64::from(c.scrubs)).sum()
    }
}

impl fmt::Display for InjectReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Cells run plan-major, so each plan's cells are contiguous.
        let mut seen: Vec<&str> = self.cells.iter().map(|c| c.plan.as_str()).collect();
        seen.dedup();
        writeln!(
            f,
            "Injection campaign: {} plans x {} strategies x scrub off/on, master seed {}",
            seen.len(),
            StrategyKind::ALL.len(),
            self.spec.seed
        )?;
        for plan in seen {
            for scrub in [false, true] {
                let survivors: Vec<&str> = self
                    .cells
                    .iter()
                    .filter(|c| c.plan == plan && c.scrub == scrub && c.survived)
                    .map(|c| c.strategy.name())
                    .collect();
                let class =
                    self.cells.iter().find(|c| c.plan == plan).map_or("?", |c| c.class.short());
                writeln!(
                    f,
                    "  {:<20} {:<13} scrub {:<4} survivors: {}",
                    plan,
                    class,
                    if scrub { "on" } else { "off" },
                    if survivors.is_empty() { "(none)".to_owned() } else { survivors.join(" ") },
                )?;
            }
        }
        writeln!(
            f,
            "  supervisor: {} watchdog fires, {} breaker trips, {} scrubs",
            self.watchdog_fires(),
            self.breaker_trips(),
            self.scrubs()
        )?;
        write_anomalies(f, &self.anomalies, "every survival matched the injected condition's class")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(seed: u64) -> InjectReport {
        InjectReport::run(InjectSpec { seed }, ParallelSpec::AUTO, false).0
    }

    #[test]
    fn campaign_upholds_the_class_contract() {
        let report = run(1);
        assert!(report.anomalies.is_empty(), "{:?}", report.anomalies);
        assert_eq!(report.cells.len(), 9 * 7 * 2);
        // Transient injections are survivable by the retry family without
        // any operator help.
        for strategy in [StrategyKind::Restart, StrategyKind::Rollback, StrategyKind::Progressive] {
            let (survived, total) =
                report.class_survival(FaultClass::EnvDependentTransient, strategy, false);
            assert!(survived > 0, "{strategy}: no transient injection survived");
            assert_eq!(total, 5);
        }
        // Nontransient injections defeat every generic strategy without a
        // scrub, and the scrub step is what turns them survivable.
        let mut scrub_rescues = 0;
        for strategy in StrategyKind::ALL {
            let (survived, _) =
                report.class_survival(FaultClass::EnvDependentNonTransient, strategy, false);
            if strategy.is_generic() {
                assert_eq!(survived, 0, "{strategy}: nontransient survived without scrub");
            }
            let (with_scrub, _) =
                report.class_survival(FaultClass::EnvDependentNonTransient, strategy, true);
            scrub_rescues += with_scrub;
        }
        assert!(scrub_rescues > 0, "scrubbing rescued no nontransient unit");
        // The control plan survives nothing, scrub or not.
        for scrub in [false, true] {
            for strategy in StrategyKind::ALL {
                let (survived, total) =
                    report.class_survival(FaultClass::EnvironmentIndependent, strategy, scrub);
                assert_eq!((survived, total), (0, 1), "{strategy} scrub={scrub}");
            }
        }
    }

    #[test]
    fn hardening_counters_are_exercised() {
        let report = run(1);
        assert!(report.watchdog_fires() > 0, "no hang was ever detected");
        assert!(report.breaker_trips() > 0, "no breaker ever tripped");
        assert!(report.scrubs() > 0, "no scrub ever ran");
        // Scrubs only happen in scrub-enabled units.
        assert!(report.cells.iter().all(|c| c.scrub || c.scrubs == 0));
        // The control plan injects nothing; every other plan injects.
        for cell in &report.cells {
            if cell.plan == "ei-control" {
                assert_eq!(cell.injected, 0);
            } else {
                assert!(cell.injected > 0, "{}: no event applied", cell.plan);
            }
        }
    }

    #[test]
    fn instrumented_campaign_ledgers_every_unit() {
        let (report, registry) =
            InjectReport::run(InjectSpec { seed: 5 }, ParallelSpec::AUTO, true);
        let units: u64 =
            StrategyKind::ALL.iter().map(|s| registry.counter("inject.units", s.name())).sum();
        assert_eq!(units, 9 * 7 * 2, "every unit counted exactly once");
        // The supervisor's hardening events reached the registry.
        let watchdog: u64 = StrategyKind::ALL
            .iter()
            .map(|s| registry.counter("supervisor.watchdog", s.name()))
            .sum();
        assert_eq!(watchdog, report.watchdog_fires());
        let scrubs: u64 =
            StrategyKind::ALL.iter().map(|s| registry.counter("supervisor.scrubs", s.name())).sum();
        assert_eq!(scrubs, report.scrubs());
    }

    #[test]
    fn display_summarizes() {
        let report = run(2);
        let text = report.to_string();
        assert!(text.contains("9 plans"));
        assert!(text.contains("ei-control"));
        assert!(text.contains("watchdog fires"));
    }
}
