//! The traffic campaign: open-loop request streams driven through every
//! injection plan × recovery strategy × application.
//!
//! The injection campaign (see [`inject`](crate::inject)) asks a binary
//! question — did a fixed nine-request workload survive? This campaign
//! asks the operator's question instead: under sustained load and the
//! same environmental perturbations, what availability, goodput, and
//! tail latency does each strategy actually deliver? Each unit offers an
//! open-loop stream of user sessions (arrivals never wait for the
//! server), serves every request through the hardened per-request
//! supervisor with the unit's injection plan firing mid-stream, and
//! ledgers per-request outcomes into a latency histogram and SLO
//! counters. That unit, `serve_plan`, is also the body of the
//! microreboot and oblivious campaigns.
//!
//! Determinism: units run on the campaign driver, with arrival schedules
//! and session randomness derived per unit — the report and the metrics
//! registry are byte-identical at any thread count and chunk size.

use crate::driver::{
    drive_cells, fold, grid, ledger, miss_rate, ms, unit_share, write_anomalies, write_title,
    write_totals, Campaign, LoadSpec,
};
use crate::experiment::{cell_label, standard_env, StrategyKind};
use crate::matrix::RecoveryMatrix;
use faultstudy_apps::{spawn_app, Application, Request};
use faultstudy_core::taxonomy::{AppKind, FaultClass};
use faultstudy_exec::ParallelSpec;
use faultstudy_inject::{standard_plans, InjectionPlan, Injector};
use faultstudy_obs::MetricsRegistry;
use faultstudy_recovery::{BackoffPolicy, RecoveryStrategy, SupervisorConfig};
use faultstudy_sim::rng::split_seed;
use faultstudy_sim::time::Duration;
use faultstudy_traffic::{run_open_loop, ArrivalKind, TrafficParams, UnitStats};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The traffic campaign's [`LoadSpec`], under the name the benchmark
/// package spells it by.
pub type TrafficSpec = LoadSpec;

/// One `(plan, strategy, application)` unit of the campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrafficCell {
    /// Application under load.
    pub app: AppKind,
    /// Injection plan name.
    pub plan: String,
    /// The paper class of the injected condition.
    pub class: FaultClass,
    /// Strategy under test.
    pub strategy: StrategyKind,
    /// Injection events that came due and were applied.
    pub injected: usize,
    /// The unit's request ledger.
    pub stats: UnitStats,
}

/// Aggregate of one traffic campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrafficReport {
    /// The spec that produced this report.
    pub spec: LoadSpec,
    /// Every unit, in `(plan, strategy, app)` enumeration order.
    pub cells: Vec<TrafficCell>,
}

/// The supervised-serving configuration of every open-loop unit.
///
/// Requests take 500 µs of simulated service against a 1000 req/s offered
/// rate, so the healthy system runs at 50% utilization with headroom for
/// recovery stalls. The 4 s watchdog outlives every self-healing window;
/// backoff matches the injection campaign's 50 ms–2 s band. The breaker
/// is disabled: an open-loop stream must keep attempting requests so the
/// ledger reflects every strategy's steady-state behaviour, not a single
/// trip to degraded mode.
fn traffic_config(backoff_seed: u64) -> SupervisorConfig {
    SupervisorConfig {
        watchdog: Some(Duration::from_secs(4)),
        backoff: BackoffPolicy::new(
            Duration::from_millis(50),
            Duration::from_secs(2),
            backoff_seed,
        ),
        breaker_threshold: 0,
        scrub_every: 0,
        request_takes: Duration::from_micros(500),
    }
}

/// The request mix a unit's sessions draw from, prepared once per unit so
/// the per-request path only indexes into it.
///
/// Every body is safe on a healthy application (served or gracefully
/// denied); the environment-touching entries (descriptors, DNS, entropy,
/// hostname) are what couple the stream to the injection plan's
/// perturbations. On MiniWeb the plan's companion defect is armed, and
/// its triggering request rides in the mix — the fault under study is
/// *part of the traffic*, exactly the paper's "users do not generously
/// avoid the trigger" assumption.
fn traffic_mix(app: &dyn Application, kind: AppKind, plan: &InjectionPlan) -> Vec<Request> {
    match kind {
        AppKind::Apache => {
            let trigger = app
                .trigger_request(&plan.companion_defect)
                .expect("every plan's companion defect has a trigger");
            vec![
                Request::new("GET /index.html"),
                Request::new("GET /index.html"),
                Request::new("GET /file"),
                Request::new("GET /file"),
                Request::new("AUTH admin"),
                Request::new("RESOLVE remote.example"),
                Request::new("SSL"),
                Request::new("BIND"),
                Request::new("KEEPALIVE 4"),
                trigger.clone(),
                trigger,
            ]
        }
        AppKind::Gnome => vec![
            Request::new("CLICK clock"),
            Request::new("CLICK desktop-background"),
            Request::new("OPEN desktop/readme.txt"),
            Request::new("OPEN-DISPLAY"),
            Request::new("PLAY-SOUND"),
            Request::new("LAUNCH"),
            Request::new("FORMULA (1+2)"),
        ],
        AppKind::Mysql => vec![
            Request::new("PING"),
            Request::new("PING"),
            Request::new("CONNECT"),
            Request::new("UNLOCK TABLES"),
            Request::new("FLUSH TABLES"),
        ],
    }
}

/// What one open-loop unit served.
pub(crate) struct Served {
    /// The unit's request ledger.
    pub(crate) stats: UnitStats,
    /// Injection events that came due and were applied.
    pub(crate) injected: usize,
    /// Violations the application's correctness oracle finds in its final
    /// state: corruption no later success re-checked, e.g. in a unit whose
    /// final requests were all dropped.
    pub(crate) final_audit: u64,
    /// The environment's registry; `Some` iff metrics were enabled.
    pub(crate) registry: Option<MetricsRegistry>,
}

/// One open-loop unit, the body of the traffic, microreboot and oblivious
/// campaigns: a fresh environment (metrics on iff `metrics`) and
/// `app_kind` instance seeded by `unit_seed`, the plan's companion defect
/// armed on MiniWeb, the plan's injector on the supervisor's pre-attempt
/// hook, and `requests` open-loop requests from the plan's mix served
/// under `strategy`. Backoff, arrival and session seeds are
/// `split_seed(unit_seed, 1..=3)`.
pub(crate) fn serve_plan(
    plan: &InjectionPlan,
    app_kind: AppKind,
    strategy: &mut dyn RecoveryStrategy,
    arrival: ArrivalKind,
    requests: u64,
    unit_seed: u64,
    metrics: bool,
) -> Served {
    let mut env = standard_env(unit_seed, metrics);
    let mut app = spawn_app(app_kind, &mut env);
    if app_kind == AppKind::Apache {
        app.arm_defect(&plan.companion_defect)
            .expect("every plan's companion defect arms in MiniWeb");
    }
    let mix = traffic_mix(app.as_ref(), app_kind, plan);
    let mut injector = Injector::new(plan, &mut env);
    let stats = run_open_loop(
        app.as_mut(),
        &mut env,
        strategy,
        &traffic_config(split_seed(unit_seed, 1)),
        Some(&mut injector),
        &mix,
        &TrafficParams::standard(arrival, requests),
        split_seed(unit_seed, 2),
        split_seed(unit_seed, 3),
    );
    Served {
        stats,
        injected: injector.applied(),
        final_audit: app.check_oracle(&env).len() as u64,
        registry: env.metrics.take(),
    }
}

impl Campaign for TrafficReport {
    type Spec = LoadSpec;
    const NAME: &'static str = "traffic";

    /// Each unit draws its arrival schedule and session randomness from
    /// its own unit seed.
    ///
    /// The registry carries per-cell request ledgers (`traffic.offered`,
    /// `traffic.ok`, `traffic.denied`, `traffic.dropped`,
    /// `traffic.slo.violations`, `traffic.sim_nanos`), the merged
    /// per-cell latency histograms (`traffic.latency`), and everything
    /// the environment's own sink recorded (supervisor hardening
    /// counters, recovery TTR spans, injector applications).
    fn run(
        spec: LoadSpec,
        parallel: ParallelSpec,
        instrumented: bool,
    ) -> (TrafficReport, MetricsRegistry) {
        let plans = standard_plans(spec.seed);
        let (strategies, apps) = (StrategyKind::ALL.len(), AppKind::ALL.len());
        let units = plans.len() * strategies * apps;
        let (cells, registry) = drive_cells(
            spec.seed,
            units,
            parallel,
            instrumented,
            |index, unit_seed| {
                let (plan, strategy, app) = grid(index, strategies, apps);
                let (plan, strategy, app) =
                    (&plans[plan], StrategyKind::ALL[strategy], AppKind::ALL[app]);
                let requests = unit_share(spec.requests, units, index);
                let mut strat = strategy.build();
                let served = serve_plan(
                    plan,
                    app,
                    strat.as_mut(),
                    spec.arrival,
                    requests,
                    unit_seed,
                    instrumented,
                );
                let cell = TrafficCell {
                    app,
                    plan: plan.name.clone(),
                    class: plan.class,
                    strategy,
                    injected: served.injected,
                    stats: served.stats,
                };
                (cell, served.registry)
            },
            |registry, cell: &TrafficCell| {
                let label = cell_label(cell.class, cell.strategy);
                ledger!(registry, "traffic", label, &cell.stats);
            },
        );
        (TrafficReport { spec, cells }, registry)
    }

    fn violations(&self) -> Vec<String> {
        self.anomalies()
    }

    /// The report, then the SLO-miss matrix.
    fn text(&self) -> String {
        let matrix = RecoveryMatrix::run(self.spec.seed, ParallelSpec::SEQUENTIAL, false).0;
        format!("{self}{}", matrix.render_with_slo(self))
    }
}

impl TrafficReport {
    /// `Campaign::run` without metrics. Kept only because
    /// `benchmark/src/workload.rs` names it; everything else calls
    /// [`Campaign::run`].
    pub fn run_with(spec: LoadSpec, parallel: ParallelSpec) -> TrafficReport {
        Self::run(spec, parallel, false).0
    }

    /// The folded ledger of every unit of `class` under `strategy`,
    /// across all plans and applications.
    pub fn class_stats(&self, class: FaultClass, strategy: StrategyKind) -> UnitStats {
        let cells = self.cells.iter().filter(|c| c.class == class && c.strategy == strategy);
        fold(cells.map(|c| &c.stats), UnitStats::absorb)
    }

    /// The folded ledger of the whole campaign.
    pub fn totals(&self) -> UnitStats {
        fold(self.cells.iter().map(|c| &c.stats), UnitStats::absorb)
    }

    /// Fraction of offered requests in `(class, strategy)` that missed
    /// the SLO — violations plus drops over offered, in [0, 1].
    pub fn slo_miss_rate(&self, class: FaultClass, strategy: StrategyKind) -> f64 {
        miss_rate(&self.class_stats(class, strategy))
    }

    /// Violations of the campaign's class contract: EI triggers must
    /// drop requests under no recovery, restart must not make transient
    /// classes worse than no recovery, and the run must exercise faults
    /// at all. A class cell that was offered no requests is itself an
    /// anomaly — an underpowered run must exit non-zero instead of
    /// passing vacuously.
    pub fn anomalies(&self) -> Vec<String> {
        let mut anomalies = Vec::new();
        let none = self.class_stats(FaultClass::EnvironmentIndependent, StrategyKind::None);
        if none.offered == 0 {
            anomalies.push("ei/none: offered no requests, contract unchecked".to_owned());
        } else if none.dropped == 0 {
            anomalies.push("ei/none: EI triggers must drop requests under no recovery".to_owned());
        }
        let restart = self.class_stats(FaultClass::EnvDependentTransient, StrategyKind::Restart);
        let bare = self.class_stats(FaultClass::EnvDependentTransient, StrategyKind::None);
        if restart.offered == 0 || bare.offered == 0 {
            anomalies.push("edt: offered no requests, contract unchecked".to_owned());
        } else if restart.availability() < bare.availability() {
            anomalies.push(format!(
                "edt: restart availability {:.4} below no-recovery {:.4}",
                restart.availability(),
                bare.availability()
            ));
        }
        if self.totals().failures == 0 {
            anomalies.push("campaign exercised no faults".to_owned());
        }
        anomalies
    }
}

impl fmt::Display for TrafficReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_title(f, "Traffic", &self.spec, self.cells.len())?;
        writeln!(
            f,
            "  {:<12} {:<13} {:>9} {:>7} {:>10} {:>9} {:>9} {:>7}",
            "class", "strategy", "offered", "avail%", "goodput/s", "p99 ms", "p999 ms", "viol%"
        )?;
        for class in FaultClass::ALL {
            for strategy in StrategyKind::ALL {
                let s = self.class_stats(class, strategy);
                if s.offered == 0 {
                    continue;
                }
                writeln!(
                    f,
                    "  {:<12} {:<13} {:>9} {:>7.2} {:>10.1} {:>9.2} {:>9.2} {:>7.2}",
                    class.short(),
                    strategy.name(),
                    s.offered,
                    100.0 * s.availability(),
                    s.goodput_per_sec(),
                    ms(s.latency.p99()),
                    ms(s.latency.p999()),
                    100.0 * miss_rate(&s),
                )?;
            }
        }
        write_totals(f, &self.totals())?;
        write_anomalies(f, &self.anomalies(), "degradation and recovery matched the class contract")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec(seed: u64) -> LoadSpec {
        LoadSpec { seed, requests: 3_780, arrival: ArrivalKind::Poisson }
    }

    fn run(spec: LoadSpec) -> TrafficReport {
        TrafficReport::run(spec, ParallelSpec::AUTO, false).0
    }

    #[test]
    fn campaign_offers_exactly_the_requested_load() {
        let report = run(small_spec(1));
        assert_eq!(report.cells.len(), 9 * 7 * 3);
        assert_eq!(report.totals().offered, 3_780);
        // Every unit got its even share (3780 / 189 = 20 exactly).
        assert!(report.cells.iter().all(|c| c.stats.offered == 20));
    }

    #[test]
    fn uneven_loads_land_on_the_earliest_units() {
        let spec = LoadSpec { seed: 1, requests: 191, arrival: ArrivalKind::Poisson };
        let report = run(spec);
        assert_eq!(report.totals().offered, 191);
        assert_eq!(report.cells[0].stats.offered, 2);
        assert_eq!(report.cells[1].stats.offered, 2);
        assert_eq!(report.cells[2].stats.offered, 1);
    }

    #[test]
    fn faults_degrade_availability_but_recovery_restores_goodput() {
        let report = run(small_spec(3));
        // The environment-independent control defeats every strategy on
        // MiniWeb: its trigger rides in the mix and always crashes.
        let none = report.class_stats(FaultClass::EnvironmentIndependent, StrategyKind::None);
        assert!(none.dropped > 0, "EI triggers must drop requests under no recovery");
        // Transient perturbations under restart still answer nearly all
        // requests; under no recovery they drop more.
        let restart = report.class_stats(FaultClass::EnvDependentTransient, StrategyKind::Restart);
        let bare = report.class_stats(FaultClass::EnvDependentTransient, StrategyKind::None);
        assert!(
            restart.availability() >= bare.availability(),
            "restart {} < none {}",
            restart.availability(),
            bare.availability()
        );
        assert!(report.totals().failures > 0, "the campaign must exercise faults");
    }

    #[test]
    fn instrumented_ledgers_reconcile_with_the_report() {
        let (report, registry) = TrafficReport::run(small_spec(5), ParallelSpec::AUTO, true);
        let mut offered = 0;
        let mut latency_count = 0;
        for class in FaultClass::ALL {
            for strategy in StrategyKind::ALL {
                let label = format!("{}/{}", class.short(), strategy.name());
                offered += registry.counter("traffic.offered", &label);
                latency_count +=
                    registry.histogram("traffic.latency", &label).map_or(0, |h| h.count());
            }
        }
        assert_eq!(offered, report.totals().offered);
        assert_eq!(latency_count, report.totals().latency.count());
    }

    #[test]
    fn display_renders_the_slo_table() {
        let report = run(small_spec(4));
        let text = report.to_string();
        assert!(text.contains("goodput/s"));
        assert!(text.contains("p999 ms"));
        assert!(text.contains("restart"));
        assert!(text.contains("total:"));
    }
}
