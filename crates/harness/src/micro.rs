//! The microreboot campaign: crash-only component recovery measured
//! against whole-process restart under open-loop traffic.
//!
//! The traffic campaign (see [`traffic`](crate::traffic)) asks what each
//! *generic* strategy delivers under load. This campaign isolates the one
//! design axis the paper's §2 contract forbids generic recovery from
//! using: application knowledge of which state is safe to discard. Each
//! `(plan, mode, application)` unit offers the same open-loop stream
//! twice — once under [`RestartRetry`] (kill the process, restore the
//! checkpoint byte-for-byte) and once under [`MicroReboot`] (crash and
//! reboot only the component the failing request routed to) — and
//! ledgers availability, requests lost, and time-to-recovery per cell.
//!
//! The plan suite is the traffic campaign's nine standard plans plus a
//! tenth, `state-leak`: no environment events at all, just MiniWeb's
//! checkpointed allocation leak (`apache-edn-01`) riding in the mix. It
//! is the microreboot thesis in one cell — the generic checkpoint
//! faithfully preserves the poisoned counter and crashes forever, while
//! the crash-only worker pool discards it and keeps serving.
//!
//! Determinism: units run on the campaign driver, and each is the traffic
//! campaign's open-loop unit with the same per-unit seed derivation —
//! reports are byte-identical at any thread count and chunk size.

use crate::driver::{
    drive_cells, fold, grid, miss_rate, ms, unit_share, write_anomalies, write_title, write_totals,
    Campaign, LoadSpec,
};
use crate::matrix::RecoveryMatrix;
use crate::traffic::serve_plan;
use faultstudy_core::taxonomy::{AppKind, FaultClass};
use faultstudy_exec::ParallelSpec;
use faultstudy_inject::{standard_plans, InjectionPlan};
use faultstudy_obs::Histogram;
use faultstudy_recovery::{MicroReboot, RecoveryStrategy, RestartRetry};
use faultstudy_sim::rng::split_seed;
use faultstudy_traffic::{ArrivalKind, UnitStats};
use serde::Serialize;
use std::fmt;

/// Retry budget of the process-restart mode, matching the recovery
/// matrix's [`RestartRetry`] configuration.
const RESTART_RETRIES: u32 = 3;

/// Retry budget of the microreboot mode. Deliberately larger than
/// [`RESTART_RETRIES`]: budgets here are *time-equivalent*, not
/// attempt-equivalent. A process restart charges ~1 s of simulated
/// recovery latency per attempt where a component reboot charges tens of
/// milliseconds, so eight microreboot attempts still spend well under one
/// process-restart attempt's worth of downtime.
const MICRO_RETRIES: u32 = 8;

/// The recovery mode of one campaign unit — the comparison axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize)]
pub enum RecoveryMode {
    /// Whole-process restart from the last checkpoint ([`RestartRetry`]).
    Restart,
    /// Crash-only component reboot with tree escalation ([`MicroReboot`]).
    Micro,
}

impl RecoveryMode {
    /// Both modes, in enumeration order.
    pub const ALL: [RecoveryMode; 2] = [RecoveryMode::Restart, RecoveryMode::Micro];

    /// The mode's strategy name as it appears in metrics labels.
    pub fn name(self) -> &'static str {
        match self {
            RecoveryMode::Restart => "restart",
            RecoveryMode::Micro => "microreboot",
        }
    }

    /// Builds the mode's strategy for one unit.
    fn build(self, unit_seed: u64) -> Box<dyn RecoveryStrategy> {
        match self {
            RecoveryMode::Restart => Box::new(RestartRetry::new(RESTART_RETRIES)),
            RecoveryMode::Micro => {
                Box::new(MicroReboot::new(MICRO_RETRIES, split_seed(unit_seed, 4)))
            }
        }
    }
}

impl fmt::Display for RecoveryMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The campaign's plan suite: the nine standard injection plans plus the
/// `state-leak` plan — no environment events, only MiniWeb's checkpointed
/// allocation leak (`apache-edn-01`) armed and triggered by the mix. The
/// poisoned state lives *inside* the checkpoint, which is exactly the
/// case §2's preserve-all-state contract cannot recover and a crash-only
/// partition can.
pub(crate) fn micro_plans(seed: u64) -> Vec<InjectionPlan> {
    let mut plans = standard_plans(seed);
    plans.push(InjectionPlan {
        name: "state-leak".to_owned(),
        class: FaultClass::EnvDependentNonTransient,
        companion_defect: "apache-edn-01".to_owned(),
        events: Vec::new(),
    });
    plans
}

/// One `(plan, mode, application)` unit of the campaign.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct MicroCell {
    /// Application under load.
    pub app: AppKind,
    /// Injection plan name.
    pub plan: String,
    /// The paper class of the injected condition.
    pub class: FaultClass,
    /// Recovery mode under test.
    pub mode: RecoveryMode,
    /// Injection events that came due and were applied.
    pub injected: usize,
    /// The unit's request ledger.
    pub stats: UnitStats,
    /// Time-to-recovery over the unit's recovered requests (simulated).
    pub ttr: Histogram,
}

/// Aggregate of one microreboot campaign.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct MicroReport {
    /// The spec that produced this report.
    pub spec: LoadSpec,
    /// Every unit, in `(plan, mode, app)` enumeration order.
    pub cells: Vec<MicroCell>,
}

/// One campaign unit: the open-loop unit of [`serve_plan`] under the
/// unit's recovery mode.
///
/// The environment's metrics sink is enabled here: the cell's TTR
/// histogram comes from the supervisor's `recovery.ttr` spans.
fn run_unit(
    plan: &InjectionPlan,
    mode: RecoveryMode,
    app: AppKind,
    requests: u64,
    arrival: ArrivalKind,
    unit_seed: u64,
) -> MicroCell {
    let mut strategy = mode.build(unit_seed);
    let served = serve_plan(plan, app, strategy.as_mut(), arrival, requests, unit_seed, true);
    let registry = served.registry.expect("metrics were enabled");
    let ttr = registry.histogram("recovery.ttr", mode.name()).cloned().unwrap_or_default();
    MicroCell {
        app,
        plan: plan.name.clone(),
        class: plan.class,
        mode,
        injected: served.injected,
        stats: served.stats,
        ttr,
    }
}

impl Campaign for MicroReport {
    type Spec = LoadSpec;
    const NAME: &'static str = "micro";

    /// Each unit is the traffic campaign's open-loop unit with the same
    /// per-unit seed derivation.
    fn run(spec: LoadSpec, parallel: ParallelSpec) -> MicroReport {
        let plans = micro_plans(spec.seed);
        let (modes, apps) = (RecoveryMode::ALL.len(), AppKind::ALL.len());
        let units = plans.len() * modes * apps;
        let cells = drive_cells(spec.seed, units, parallel, |index, unit_seed| {
            let (plan, mode, app) = grid(index, modes, apps);
            let (mode, app) = (RecoveryMode::ALL[mode], AppKind::ALL[app]);
            let requests = unit_share(spec.requests, units, index);
            run_unit(&plans[plan], mode, app, requests, spec.arrival, unit_seed)
        });
        MicroReport { spec, cells }
    }

    /// Violations of the campaign's class contract on the state-leak
    /// plan: the restored checkpoint must preserve the leak (restart
    /// drops requests), the crash-only reboot must discard it (no drops,
    /// strictly better availability). A contract cell that was offered no
    /// requests is itself an anomaly — an underpowered run must exit
    /// non-zero instead of passing vacuously.
    fn violations(&self) -> Vec<String> {
        let mut anomalies = Vec::new();
        let [restart, micro] = RecoveryMode::ALL.map(|mode| {
            let key = format!("state-leak/{}", mode.name());
            match self.cell("state-leak", mode, AppKind::Apache) {
                None => anomalies.push(format!("{key}: contract cell missing")),
                Some(c) if c.stats.offered == 0 => {
                    anomalies.push(format!("{key}: offered no requests, contract unchecked"))
                }
                Some(c) => return Some(&c.stats),
            }
            None
        });
        if restart.is_some_and(|s| s.dropped == 0) {
            anomalies.push(
                "state-leak/restart: the restored checkpoint must preserve the leak".to_owned(),
            );
        }
        if micro.is_some_and(|s| s.dropped > 0) {
            anomalies.push(
                "state-leak/microreboot: the crash-only reboot must not lose a request".to_owned(),
            );
        }
        if let (Some(restart), Some(micro)) = (restart, micro) {
            if micro.availability() <= restart.availability() {
                anomalies.push(
                    "state-leak: microreboot availability must beat whole-process restart"
                        .to_owned(),
                );
            }
        }
        anomalies
    }

    /// The report, then the microreboot comparison matrix.
    fn text(&self) -> String {
        let matrix = RecoveryMatrix::run(self.spec.seed, ParallelSpec::SEQUENTIAL);
        format!("{self}{}", matrix.render_with_micro(self))
    }
}

impl MicroReport {
    /// The unit for `(plan, mode, app)`, if the plan exists.
    pub fn cell(&self, plan: &str, mode: RecoveryMode, app: AppKind) -> Option<&MicroCell> {
        self.cells.iter().find(|c| c.plan == plan && c.mode == mode && c.app == app)
    }

    /// Every unit of `class` under `mode`, across all plans and
    /// applications.
    fn in_class(&self, class: FaultClass, mode: RecoveryMode) -> impl Iterator<Item = &MicroCell> {
        self.cells.iter().filter(move |c| c.class == class && c.mode == mode)
    }

    /// The folded ledger of every unit of `class` under `mode`, across
    /// all plans and applications.
    pub fn class_stats(&self, class: FaultClass, mode: RecoveryMode) -> UnitStats {
        fold(self.in_class(class, mode).map(|c| &c.stats), UnitStats::absorb)
    }

    /// The merged time-to-recovery histogram of every unit of `class`
    /// under `mode`.
    pub fn class_ttr(&self, class: FaultClass, mode: RecoveryMode) -> Histogram {
        fold(self.in_class(class, mode).map(|c| &c.ttr), Histogram::merge_from)
    }

    /// The folded ledger of the whole campaign.
    pub fn totals(&self) -> UnitStats {
        fold(self.cells.iter().map(|c| &c.stats), UnitStats::absorb)
    }
}

impl fmt::Display for MicroReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_title(f, "Microreboot", &self.spec, self.cells.len())?;
        writeln!(
            f,
            "  {:<12} {:<12} {:>9} {:>7} {:>9} {:>11} {:>11} {:>7}",
            "class", "mode", "offered", "avail%", "dropped", "ttr p50 ms", "ttr p99 ms", "viol%"
        )?;
        for class in FaultClass::ALL {
            for mode in RecoveryMode::ALL {
                let s = self.class_stats(class, mode);
                if s.offered == 0 {
                    continue;
                }
                let ttr = self.class_ttr(class, mode);
                writeln!(
                    f,
                    "  {:<12} {:<12} {:>9} {:>7.2} {:>9} {:>11.2} {:>11.2} {:>7.2}",
                    class.short(),
                    mode.name(),
                    s.offered,
                    100.0 * s.availability(),
                    s.dropped,
                    ms(ttr.p50()),
                    ms(ttr.p99()),
                    100.0 * miss_rate(&s),
                )?;
            }
        }
        write_totals(f, &self.totals())?;
        write_anomalies(
            f,
            &self.violations(),
            "the state-leak cells matched the crash-only contract",
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec(seed: u64) -> LoadSpec {
        // 3600 / 60 units = 60 requests per unit, exactly.
        LoadSpec { seed, requests: 3_600, arrival: ArrivalKind::Poisson }
    }

    fn run(spec: LoadSpec) -> MicroReport {
        MicroReport::run(spec, ParallelSpec::AUTO)
    }

    #[test]
    fn campaign_enumerates_every_plan_mode_app() {
        let report = run(small_spec(1));
        assert_eq!(report.cells.len(), 10 * 2 * 3);
        assert_eq!(report.totals().offered, 3_600);
        assert!(report.cells.iter().all(|c| c.stats.offered == 60));
        // The tenth plan exists in both modes on every app.
        for mode in RecoveryMode::ALL {
            for app in AppKind::ALL {
                assert!(report.cell("state-leak", mode, app).is_some(), "{mode} {app:?}");
            }
        }
    }

    #[test]
    fn state_leak_recovers_under_microreboot_and_defeats_restart() {
        let report = run(small_spec(1));
        let restart = report.cell("state-leak", RecoveryMode::Restart, AppKind::Apache).unwrap();
        let micro = report.cell("state-leak", RecoveryMode::Micro, AppKind::Apache).unwrap();
        // The checkpoint preserves the leaked allocations, so the generic
        // restart replays the crash until the retry budget runs out.
        assert!(restart.stats.dropped > 0, "restart must keep dropping the leak trigger");
        // The crash-only worker pool discards the leak and keeps serving.
        assert_eq!(micro.stats.dropped, 0, "microreboot must not lose a single request");
        assert!(micro.stats.availability() > restart.stats.availability());
    }

    #[test]
    fn display_renders_the_comparison_table() {
        let report = run(small_spec(4));
        let text = report.to_string();
        assert!(text.contains("ttr p50 ms"));
        assert!(text.contains("microreboot"));
        assert!(text.contains("restart"));
        assert!(text.contains("total:"));
    }
}
