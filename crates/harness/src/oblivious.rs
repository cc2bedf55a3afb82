//! The oblivious-recovery campaign: failure-oblivious continuation and
//! self-healing measured against generic restart, priced by a
//! per-application correctness oracle.
//!
//! The microreboot campaign (see [`micro`](crate::micro)) showed what
//! application knowledge of *state* buys. This campaign asks the next
//! question in the paper's §8 lineage: what does giving up on
//! *correctness* buy? Each `(plan, mode, application)` unit offers the
//! same open-loop stream under five recovery modes:
//!
//! - `restart` — [`RestartRetry`], the generic baseline;
//! - `oblivious` — [`Oblivious`]: discard the failing request and keep
//!   serving (visible refusal, nothing dropped);
//! - `manufactured` — [`ManufacturedValue`]: synthesize a deterministic
//!   default answer (silent substitution);
//! - `statescrub` — [`StateScrub`]: drop volatile component state in
//!   place instead of restoring a checkpoint;
//! - `healer` — [`ProfileHealer`]: pick retry/scrub/discard per attempt
//!   from a failure profile observed in a deterministic microreboot
//!   probe of the same unit.
//!
//! After every recovery the supervisor evaluates the application's own
//! correctness oracle
//! ([`Application::check_oracle`](faultstudy_apps::Application::check_oracle)),
//! so each cell reports not just availability but the *silent-wrong-answer
//! cost* of staying available: substitutes manufactured and oracle
//! violations accrued. The campaign's physics, asserted as anomalies:
//! the environment-independent majority that retry never rescues *is*
//! survivable by going oblivious — at a wrong-answer cost the oracle
//! makes visible — while the state-leak slice is healed silently and
//! correctly by scrubbing alone.
//!
//! Determinism: units run on the campaign driver, and the healer's probe
//! derives from `split_seed(unit_seed, 5)` on its own environment —
//! reports and registries are byte-identical at any thread count and
//! chunk size.

use crate::driver::{
    drive_cells, fold, grid, ledger, unit_share, write_anomalies, write_title, Campaign, LoadSpec,
};
use crate::matrix::RecoveryMatrix;
use crate::micro::micro_plans;
use crate::traffic::serve_plan;
use faultstudy_core::taxonomy::{AppKind, FaultClass};
use faultstudy_exec::ParallelSpec;
use faultstudy_inject::InjectionPlan;
use faultstudy_obs::{Histogram, MetricsRegistry};
use faultstudy_recovery::{
    FailureProfile, ManufacturedValue, MicroReboot, Oblivious, ProfileHealer, RecoveryStrategy,
    RestartRetry, StateScrub,
};
use faultstudy_sim::rng::split_seed;
use faultstudy_traffic::{ArrivalKind, UnitStats};
use serde::Serialize;
use std::fmt;

/// Retry budget of the restart baseline, matching the recovery matrix.
const RESTART_RETRIES: u32 = 3;

/// Retry budget of the scrubbing modes. As in the microreboot campaign,
/// budgets are time-equivalent rather than attempt-equivalent: an
/// in-place scrub charges tens of milliseconds where a process restart
/// charges ~1 s, so eight scrub attempts cost less downtime than one
/// restart attempt.
const SCRUB_RETRIES: u32 = 8;

/// Requests the healer's microreboot probe offers on its own environment
/// before the measured run. Fixed so the probe cost — and the profile it
/// distills — is independent of the unit's measured load.
const PROBE_REQUESTS: u64 = 96;

/// The oblivious campaign's [`LoadSpec`], under the name the benchmark
/// package spells it by.
pub type ObliviousSpec = LoadSpec;

/// The recovery mode of one campaign unit — the comparison axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize)]
pub enum HealMode {
    /// Whole-process restart from the last checkpoint ([`RestartRetry`]).
    Restart,
    /// Discard the failing request and keep serving ([`Oblivious`]).
    Oblivious,
    /// Serve a deterministic default instead ([`ManufacturedValue`]).
    Manufactured,
    /// Drop volatile component state in place ([`StateScrub`]).
    Scrub,
    /// Profile-guided retry/scrub/discard ([`ProfileHealer`]).
    Healer,
}

impl HealMode {
    /// Every mode, in enumeration order.
    pub const ALL: [HealMode; 5] = [
        HealMode::Restart,
        HealMode::Oblivious,
        HealMode::Manufactured,
        HealMode::Scrub,
        HealMode::Healer,
    ];

    /// The mode's strategy name as it appears in metrics labels.
    pub(crate) fn name(self) -> &'static str {
        match self {
            HealMode::Restart => "restart",
            HealMode::Oblivious => "oblivious",
            HealMode::Manufactured => "manufactured",
            HealMode::Scrub => "statescrub",
            HealMode::Healer => "healer",
        }
    }

    /// Builds the mode's strategy for one unit. Only the healer looks at
    /// the plan: its profile comes from a deterministic microreboot probe
    /// of the same `(plan, app)` on a separate environment.
    fn build(
        self,
        plan: &InjectionPlan,
        app_kind: AppKind,
        arrival: ArrivalKind,
        unit_seed: u64,
    ) -> Box<dyn RecoveryStrategy> {
        match self {
            HealMode::Restart => Box::new(RestartRetry::new(RESTART_RETRIES)),
            HealMode::Oblivious => Box::new(Oblivious::default()),
            HealMode::Manufactured => Box::new(ManufacturedValue::default()),
            HealMode::Scrub => Box::new(StateScrub::new(SCRUB_RETRIES)),
            HealMode::Healer => {
                let profile = probe_profile(plan, app_kind, arrival, unit_seed);
                Box::new(ProfileHealer::new(SCRUB_RETRIES, profile))
            }
        }
    }
}

impl fmt::Display for HealMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The healer's observation pass: a short microreboot run of the same
/// `(plan, app)` unit on its own instrumented environment, distilled into a
/// [`FailureProfile`]. Seeded from `split_seed(unit_seed, 5)` so it is a
/// pure function of the unit and never perturbs the measured run.
fn probe_profile(
    plan: &InjectionPlan,
    app_kind: AppKind,
    arrival: ArrivalKind,
    unit_seed: u64,
) -> FailureProfile {
    let probe_seed = split_seed(unit_seed, 5);
    let mut probe = MicroReboot::new(SCRUB_RETRIES, split_seed(probe_seed, 4));
    let served = serve_plan(plan, app_kind, &mut probe, arrival, PROBE_REQUESTS, probe_seed, true);
    FailureProfile::from_registry(&served.registry.expect("probe metrics were enabled"))
}

/// One `(plan, mode, application)` unit of the campaign.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ObliviousCell {
    /// Application under load.
    pub app: AppKind,
    /// Injection plan name.
    pub plan: String,
    /// The paper class of the injected condition.
    pub class: FaultClass,
    /// Recovery mode under test.
    pub mode: HealMode,
    /// Injection events that came due and were applied.
    pub injected: usize,
    /// The unit's request ledger.
    pub stats: UnitStats,
    /// Time-to-recovery over the unit's recovered requests (simulated).
    pub ttr: Histogram,
    /// Requests answered with a visible discard substitute.
    pub discarded: u64,
    /// Requests answered with a silent manufactured default.
    pub manufactured: u64,
    /// Correctness-oracle violations: per-request checks recorded by the
    /// supervisor plus one end-of-unit audit of the final state.
    pub oracle_violations: u64,
}

/// Aggregate of one oblivious-recovery campaign.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ObliviousReport {
    /// The spec that produced this report.
    pub spec: LoadSpec,
    /// Every unit, in `(plan, mode, app)` enumeration order.
    pub cells: Vec<ObliviousCell>,
    /// Violations of the oblivious-recovery contract; must be empty for
    /// a campaign large enough to exercise every contract cell.
    pub anomalies: Vec<String>,
}

/// One campaign unit: the open-loop unit of [`serve_plan`] under the
/// unit's heal mode. Metrics are always enabled — the cell's TTR,
/// substitute, and oracle counters come from the registry — so the plain
/// and instrumented campaigns run the very same simulation.
fn run_unit(
    plan: &InjectionPlan,
    mode: HealMode,
    app_kind: AppKind,
    requests: u64,
    arrival: ArrivalKind,
    unit_seed: u64,
) -> (ObliviousCell, Option<MetricsRegistry>) {
    let mut strategy = mode.build(plan, app_kind, arrival, unit_seed);
    let served = serve_plan(plan, app_kind, strategy.as_mut(), arrival, requests, unit_seed, true);
    let registry = served.registry.expect("metrics were enabled");
    let name = mode.name();
    let cell = ObliviousCell {
        app: app_kind,
        plan: plan.name.clone(),
        class: plan.class,
        mode,
        injected: served.injected,
        stats: served.stats,
        ttr: registry.histogram("recovery.ttr", name).cloned().unwrap_or_default(),
        discarded: registry.counter("oblivious.discarded", name),
        manufactured: registry.counter("oblivious.manufactured", name),
        oracle_violations: registry.counter("oracle.violations", name) + served.final_audit,
    };
    (cell, Some(registry))
}

/// The campaign's class contract, checked on the folded cell set. Every
/// check pins one edge of the physics on the application whose defect
/// rides in the traffic mix (MiniWeb): the EI slice is rescued *only* by
/// the oblivious family and at visible cost, the state-leak slice is
/// healed silently by scrubbing, and a contract cell that was offered no
/// requests is itself an anomaly — an underpowered campaign must not
/// pass vacuously.
fn contract_anomalies(cells: &[ObliviousCell]) -> Vec<String> {
    let mut anomalies = Vec::new();
    let mut check = |plan: &str,
                     mode: HealMode,
                     what: &str,
                     holds: &dyn Fn(&ObliviousCell) -> bool| {
        let found =
            cells.iter().find(|c| c.plan == plan && c.mode == mode && c.app == AppKind::Apache);
        let Some(cell) = found else {
            anomalies.push(format!("{plan}/{}: contract cell missing", mode.name()));
            return;
        };
        if cell.stats.offered == 0 {
            anomalies
                .push(format!("{plan}/{}: offered no requests, contract unchecked", mode.name()));
            return;
        }
        if !holds(cell) {
            anomalies.push(format!("{plan}/{}: {what}", mode.name()));
        }
    };
    // The EI control: a deterministic code defect in the mix.
    check(
        "ei-control",
        HealMode::Restart,
        "generic restart must keep dropping the EI trigger",
        &|c| c.stats.dropped > 0,
    );
    check(
        "ei-control",
        HealMode::Scrub,
        "scrubbing volatile state must not heal a code defect",
        &|c| c.stats.dropped > 0,
    );
    check("ei-control", HealMode::Oblivious, "discarding must answer every request", &|c| {
        c.stats.dropped == 0 && c.discarded > 0
    });
    check(
        "ei-control",
        HealMode::Manufactured,
        "manufacturing must answer every request at visible wrong-answer cost",
        &|c| c.stats.dropped == 0 && c.manufactured > 0,
    );
    check(
        "ei-control",
        HealMode::Healer,
        "a lost-heavy profile must route the healer to discard",
        &|c| c.stats.dropped == 0,
    );
    // The state leak: poisoned volatile state inside the checkpoint.
    check(
        "state-leak",
        HealMode::Restart,
        "the restored checkpoint must preserve the leak",
        &|c| c.stats.dropped > 0,
    );
    check(
        "state-leak",
        HealMode::Scrub,
        "the in-place scrub must heal the leak with no drops and no oracle violations",
        &|c| c.stats.dropped == 0 && c.oracle_violations == 0,
    );
    check(
        "state-leak",
        HealMode::Manufactured,
        "serving past the crash threshold must trip the correctness oracle",
        &|c| c.oracle_violations > 0,
    );
    check(
        "state-leak",
        HealMode::Healer,
        "a reboot-heavy profile must route the healer to scrub",
        &|c| c.stats.dropped == 0,
    );
    anomalies
}

impl Campaign for ObliviousReport {
    type Spec = LoadSpec;
    const NAME: &'static str = "oblivious";

    /// The healer's probe runs on its own environment, seeded
    /// `split_seed(unit_seed, 5)`.
    ///
    /// The registry carries the units' environment registries and the
    /// per-cell ledgers (`oblivious.offered`, `oblivious.ok`,
    /// `oblivious.denied`, `oblivious.dropped`, `oblivious.slo.violations`,
    /// `oblivious.sim_nanos`, `oblivious.substitute.discarded`,
    /// `oblivious.substitute.manufactured`, `oblivious.oracle.violations`,
    /// `oblivious.latency`, `oblivious.ttr.class`).
    fn run(
        spec: LoadSpec,
        parallel: ParallelSpec,
        instrumented: bool,
    ) -> (ObliviousReport, MetricsRegistry) {
        let plans = micro_plans(spec.seed);
        let (modes, apps) = (HealMode::ALL.len(), AppKind::ALL.len());
        let units = plans.len() * modes * apps;
        let (cells, registry) = drive_cells(
            spec.seed,
            units,
            parallel,
            instrumented,
            |index, unit_seed| {
                let (plan, mode, app) = grid(index, modes, apps);
                let (mode, app) = (HealMode::ALL[mode], AppKind::ALL[app]);
                let requests = unit_share(spec.requests, units, index);
                run_unit(&plans[plan], mode, app, requests, spec.arrival, unit_seed)
            },
            |registry, cell: &ObliviousCell| {
                let label = format!("{}/{}", cell.class.short(), cell.mode.name());
                ledger!(registry, "oblivious", &label, &cell.stats);
                registry.incr("oblivious.substitute.discarded", &label, cell.discarded);
                registry.incr("oblivious.substitute.manufactured", &label, cell.manufactured);
                registry.incr("oblivious.oracle.violations", &label, cell.oracle_violations);
                registry.merge_histogram("oblivious.ttr.class", &label, cell.ttr.clone());
            },
        );
        // The contract spans modes, so it is checked on the complete
        // fold — a pure function of the cells, hence thread-invariant.
        let anomalies = contract_anomalies(&cells);
        (ObliviousReport { spec, cells, anomalies }, registry)
    }

    fn violations(&self) -> Vec<String> {
        self.anomalies.clone()
    }

    /// The report, then the wrong-answer matrix.
    fn text(&self) -> String {
        let matrix = RecoveryMatrix::run(self.spec.seed, ParallelSpec::SEQUENTIAL, false).0;
        format!("{self}{}", matrix.render_with_oracle(self))
    }
}

impl ObliviousReport {
    /// `Campaign::run` with metrics. Kept only because
    /// `benchmark/src/workload.rs` names it; everything else calls
    /// [`Campaign::run`].
    pub fn run_instrumented(
        spec: LoadSpec,
        parallel: ParallelSpec,
    ) -> (ObliviousReport, MetricsRegistry) {
        Self::run(spec, parallel, true)
    }

    /// Every unit of `class` under `mode`, across all plans and
    /// applications.
    fn in_class(&self, class: FaultClass, mode: HealMode) -> impl Iterator<Item = &ObliviousCell> {
        self.cells.iter().filter(move |c| c.class == class && c.mode == mode)
    }

    /// The folded ledger of every unit of `class` under `mode`, across
    /// all plans and applications.
    pub(crate) fn class_stats(&self, class: FaultClass, mode: HealMode) -> UnitStats {
        fold(self.in_class(class, mode).map(|c| &c.stats), UnitStats::absorb)
    }

    /// `(discarded, manufactured, oracle violations)` summed over every
    /// unit of `class` under `mode` — the wrong-answer column family.
    pub(crate) fn class_costs(&self, class: FaultClass, mode: HealMode) -> (u64, u64, u64) {
        self.in_class(class, mode).fold((0, 0, 0), |(d, m, o), c| {
            (d + c.discarded, m + c.manufactured, o + c.oracle_violations)
        })
    }

    /// The folded ledger of the whole campaign.
    pub fn totals(&self) -> UnitStats {
        fold(self.cells.iter().map(|c| &c.stats), UnitStats::absorb)
    }
}

impl fmt::Display for ObliviousReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_title(f, "Oblivious-recovery", &self.spec, self.cells.len())?;
        writeln!(
            f,
            "  {:<12} {:<13} {:>9} {:>7} {:>9} {:>9} {:>9} {:>9}",
            "class", "mode", "offered", "avail%", "dropped", "discard", "manuf", "oracle"
        )?;
        for class in FaultClass::ALL {
            for mode in HealMode::ALL {
                let s = self.class_stats(class, mode);
                if s.offered == 0 {
                    continue;
                }
                let (discarded, manufactured, oracle) = self.class_costs(class, mode);
                writeln!(
                    f,
                    "  {:<12} {:<13} {:>9} {:>7.2} {:>9} {:>9} {:>9} {:>9}",
                    class.short(),
                    mode.name(),
                    s.offered,
                    100.0 * s.availability(),
                    s.dropped,
                    discarded,
                    manufactured,
                    oracle,
                )?;
            }
        }
        let t = self.totals();
        writeln!(
            f,
            "  total: {} offered, {} answered ({:.2}%), {} dropped",
            t.offered,
            t.answered(),
            100.0 * t.availability(),
            t.dropped,
        )?;
        write_anomalies(
            f,
            &self.anomalies,
            "rescue and wrong-answer costs matched the class contract",
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec(seed: u64) -> LoadSpec {
        // 6000 / 150 units = 40 requests per unit, exactly.
        LoadSpec { seed, requests: 6_000, arrival: ArrivalKind::Poisson }
    }

    fn run(spec: LoadSpec) -> ObliviousReport {
        ObliviousReport::run(spec, ParallelSpec::AUTO, false).0
    }

    /// The unit for `(plan, mode, app)`, if the plan exists.
    fn cell<'a>(
        report: &'a ObliviousReport,
        plan: &str,
        mode: HealMode,
        app: AppKind,
    ) -> Option<&'a ObliviousCell> {
        report.cells.iter().find(|c| c.plan == plan && c.mode == mode && c.app == app)
    }

    #[test]
    fn campaign_enumerates_every_plan_mode_app() {
        let report = run(small_spec(1));
        assert_eq!(report.cells.len(), 10 * 5 * 3);
        assert_eq!(report.totals().offered, 6_000);
        assert!(report.cells.iter().all(|c| c.stats.offered == 40));
        for mode in HealMode::ALL {
            for app in AppKind::ALL {
                assert!(cell(&report, "state-leak", mode, app).is_some(), "{mode} {app:?}");
            }
        }
    }

    #[test]
    fn campaign_upholds_the_oblivious_contract() {
        let report = run(small_spec(1));
        assert!(report.anomalies.is_empty(), "{:?}", report.anomalies);
    }

    #[test]
    fn the_ei_slice_is_rescued_only_by_going_oblivious() {
        let report = run(small_spec(1));
        let restart = cell(&report, "ei-control", HealMode::Restart, AppKind::Apache).unwrap();
        let scrub = cell(&report, "ei-control", HealMode::Scrub, AppKind::Apache).unwrap();
        let oblivious = cell(&report, "ei-control", HealMode::Oblivious, AppKind::Apache).unwrap();
        let manufactured =
            cell(&report, "ei-control", HealMode::Manufactured, AppKind::Apache).unwrap();
        // Neither retry nor state surgery touches a deterministic defect.
        assert!(restart.stats.dropped > 0);
        assert!(scrub.stats.dropped > 0);
        // Giving up on the request — or on its correctness — does.
        assert_eq!(oblivious.stats.dropped, 0);
        assert!(oblivious.discarded > 0);
        assert_eq!(manufactured.stats.dropped, 0);
        assert!(manufactured.manufactured > 0, "silent substitutes must be counted");
    }

    #[test]
    fn the_state_leak_is_healed_silently_only_by_scrubbing() {
        let report = run(small_spec(1));
        let restart = cell(&report, "state-leak", HealMode::Restart, AppKind::Apache).unwrap();
        let scrub = cell(&report, "state-leak", HealMode::Scrub, AppKind::Apache).unwrap();
        let manufactured =
            cell(&report, "state-leak", HealMode::Manufactured, AppKind::Apache).unwrap();
        assert!(restart.stats.dropped > 0, "the checkpoint preserves the leak");
        assert_eq!(scrub.stats.dropped, 0, "the in-place scrub heals it");
        assert_eq!(scrub.oracle_violations, 0, "and correctly so");
        assert!(
            manufactured.oracle_violations > 0,
            "plowing ahead serves past the crash threshold"
        );
    }

    #[test]
    fn instrumented_ledgers_reconcile_with_the_report() {
        let (report, registry) = ObliviousReport::run(small_spec(5), ParallelSpec::AUTO, true);
        let mut offered = 0;
        let mut oracle = 0;
        for class in FaultClass::ALL {
            for mode in HealMode::ALL {
                let label = format!("{}/{}", class.short(), mode.name());
                offered += registry.counter("oblivious.offered", &label);
                oracle += registry.counter("oblivious.oracle.violations", &label);
            }
        }
        assert_eq!(offered, report.totals().offered);
        let cell_oracle: u64 = report.cells.iter().map(|c| c.oracle_violations).sum();
        assert_eq!(oracle, cell_oracle);
        assert!(oracle > 0, "the campaign must exercise the correctness oracle");
    }

    #[test]
    fn underpowered_campaigns_report_anomalies_instead_of_passing() {
        // One request per unit cannot exercise the contract cells.
        let spec = LoadSpec { seed: 1, requests: 150, arrival: ArrivalKind::Poisson };
        let report = run(spec);
        assert!(!report.anomalies.is_empty(), "a vacuous campaign must not look healthy");
    }

    #[test]
    fn display_renders_the_cost_table() {
        let report = run(small_spec(4));
        let text = report.to_string();
        assert!(text.contains("oracle"));
        assert!(text.contains("manufactured"));
        assert!(text.contains("statescrub"));
        assert!(text.contains("total:"));
        assert!(text.contains("no anomalies"));
    }
}
