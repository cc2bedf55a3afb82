//! The corpus × strategy survival matrix — the end-to-end check of the
//! paper's thesis.
//!
//! The paper predicts (Tables 1–3 + §6): environment-independent faults
//! survive nothing; environment-dependent-nontransient faults survive no
//! purely generic strategy; environment-dependent-transient faults survive
//! generic retry-based recovery. Running every corpus fault under every
//! strategy turns that prediction into measurement.

use crate::driver::{drive_cells, Campaign};
use crate::experiment::{
    build_workload, ledger_experiment, run_prepared, FaultOutcome, StrategyKind,
};
use crate::graph::{GraphReport, GRAPH_BUDGETS};
use crate::micro::{MicroReport, RecoveryMode};
use crate::oblivious::{HealMode, ObliviousReport};
use crate::traffic::TrafficReport;
use faultstudy_apps::Request;
use faultstudy_core::taxonomy::FaultClass;
use faultstudy_corpus::full_corpus;
use faultstudy_exec::ParallelSpec;
use faultstudy_graph::PlaneKind;
use faultstudy_obs::{Histogram, MetricsRegistry};
use faultstudy_sim::time::Duration;
use faultstudy_traffic::UnitStats;
use serde::Serialize;
use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;

/// Survival counts for one (class, strategy) cell.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct Cell {
    /// Experiments in the cell.
    pub total: u32,
    /// Experiments whose workload was eventually served.
    pub survived: u32,
}

impl Cell {
    /// Survival rate in [0, 1]; zero for an empty cell.
    pub fn rate(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            f64::from(self.survived) / f64::from(self.total)
        }
    }
}

/// One (class, strategy) entry of the matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct MatrixCell {
    /// Fault class of the cell.
    pub class: FaultClass,
    /// Strategy of the cell.
    pub strategy: StrategyKind,
    /// Survival counts.
    pub cell: Cell,
}

/// The full survival matrix.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RecoveryMatrix {
    seed: u64,
    cells: Vec<MatrixCell>,
    outcomes: Vec<FaultOutcome>,
}

impl Campaign for RecoveryMatrix {
    /// The environment seed every experiment runs on.
    type Spec = u64;
    const NAME: &'static str = "recover";

    /// Runs the whole corpus under every strategy, each fault's workload
    /// prepared once. Every experiment runs on the matrix seed itself, so
    /// the driver's per-unit seeds go unused.
    ///
    /// The registry holds a time-to-recovery histogram per strategy
    /// (`recovery.ttr{<strategy>}`) and per `(class, strategy)` cell
    /// (`recovery.ttr.class{<class>/<strategy>}`); render them next to the
    /// survival columns with [`RecoveryMatrix::render_with_ttr`].
    fn run(
        seed: u64,
        parallel: ParallelSpec,
        instrumented: bool,
    ) -> (RecoveryMatrix, MetricsRegistry) {
        let corpus = full_corpus();
        let workloads: Vec<Vec<Request>> = corpus.iter().map(build_workload).collect();
        let strategies = StrategyKind::ALL.len();
        let (outcomes, registry) = drive_cells(
            seed,
            corpus.len() * strategies,
            parallel,
            instrumented,
            |index, _| {
                let (fault, workload) =
                    (&corpus[index / strategies], &workloads[index / strategies]);
                let strategy = StrategyKind::ALL[index % strategies];
                let (out, metrics, _) = run_prepared(fault, strategy, seed, workload, instrumented);
                (FaultOutcome::new(fault, strategy, out), metrics)
            },
            |registry, out: &FaultOutcome| {
                ledger_experiment(registry, out.strategy, out.survived, out.recoveries, 1);
            },
        );
        let mut map: BTreeMap<(FaultClass, StrategyKind), Cell> = BTreeMap::new();
        for out in &outcomes {
            let cell = map.entry((out.class, out.strategy)).or_default();
            cell.total += 1;
            cell.survived += u32::from(out.survived);
        }
        let cells =
            map.into_iter().map(|((class, strategy), cell)| MatrixCell { class, strategy, cell });
        (RecoveryMatrix { seed, cells: cells.collect(), outcomes }, registry)
    }

    /// The paper's thesis, checked on the matrix: no strategy survives an
    /// environment-independent fault, no generic strategy survives a
    /// nontransient one, and restart's overall survival lands in the
    /// paper's 5–14% transient band.
    fn violations(&self) -> Vec<String> {
        let mut violations = Vec::new();
        for strategy in StrategyKind::ALL {
            let name = strategy.name();
            let ei = self.cell(FaultClass::EnvironmentIndependent, strategy).survived;
            if ei != 0 {
                violations.push(format!("{name} survived {ei} EI faults"));
            }
            let edn = self.cell(FaultClass::EnvDependentNonTransient, strategy).survived;
            if strategy.is_generic() && edn != 0 {
                violations.push(format!("{name} survived {edn} EDN faults"));
            }
        }
        let restart_pct = self.overall(StrategyKind::Restart).rate() * 100.0;
        if !(5.0..=14.0).contains(&restart_pct) {
            violations.push(format!("restart overall {restart_pct:.1}% outside the 5-14% band"));
        }
        violations
    }

    fn text(&self) -> String {
        format!("{self}\n")
    }
}

impl RecoveryMatrix {
    /// One cell of the matrix.
    pub fn cell(&self, class: FaultClass, strategy: StrategyKind) -> Cell {
        self.cells
            .iter()
            .find(|c| c.class == class && c.strategy == strategy)
            .map(|c| c.cell)
            .unwrap_or_default()
    }

    /// Overall survival rate of one strategy across all 139 faults — the
    /// number to compare against the paper's 5–14% transient fraction.
    pub fn overall(&self, strategy: StrategyKind) -> Cell {
        let mut out = Cell::default();
        for class in FaultClass::ALL {
            let c = self.cell(class, strategy);
            out.total += c.total;
            out.survived += c.survived;
        }
        out
    }

    /// Slugs of faults with the given class and strategy that survived
    /// (`survived = true`) or failed (`survived = false`).
    pub fn slugs_where(
        &self,
        class: FaultClass,
        strategy: StrategyKind,
        survived: bool,
    ) -> Vec<&str> {
        self.outcomes
            .iter()
            .filter(|o| o.class == class && o.strategy == strategy && o.survived == survived)
            .map(|o| o.slug.as_str())
            .collect()
    }

    /// Renders the matrix with a time-to-recovery column per strategy,
    /// taken from the `recovery.ttr{<strategy>}` histograms of the registry
    /// an instrumented [`Campaign::run`] returns. Strategies that
    /// never recovered anything show `-`.
    pub fn render_with_ttr(&self, registry: &MetricsRegistry) -> String {
        let mut out = self.to_string();
        let _ = writeln!(out, "time to recovery (simulated, over recovered requests):");
        let columns = [("n", 6), ("p50", 10), ("p90", 10), ("p99", 10), ("p999", 10), ("max", 10)];
        let rows = StrategyKind::ALL.iter().map(|&strategy| {
            let cells = match registry.histogram("recovery.ttr", strategy.name()) {
                Some(h) if h.count() > 0 => {
                    let quantiles = [h.p50(), h.p90(), h.p99(), h.p999(), h.max()];
                    let mut cells = vec![h.count().to_string()];
                    cells.extend(
                        quantiles.map(|q| Duration::from_nanos(q.expect("nonempty")).to_string()),
                    );
                    cells
                }
                _ => ["0", "-", "-", "-", "-", "-"].map(String::from).to_vec(),
            };
            (strategy.name(), cells)
        });
        write_table(&mut out, "strategy", &columns, rows);
        out
    }

    /// Renders the matrix with the microreboot comparison appended: per
    /// fault class, availability and median time-to-recovery under
    /// whole-process restart versus crash-only microreboot from the same
    /// open-loop traffic. The survival matrix measures what *generic*
    /// recovery can do; this family measures what the one deliberately
    /// application-aware axis — knowing which state a crash may discard —
    /// buys on top.
    pub(crate) fn render_with_micro(&self, micro: &MicroReport) -> String {
        let mut out = self.to_string();
        let _ = writeln!(
            out,
            "microreboot vs whole-process restart (open-loop traffic, {} requests):",
            micro.spec.requests
        );
        let modes = &RecoveryMode::ALL;
        write_class_table(&mut out, "availability", modes, RecoveryMode::name, |mode, class| {
            availability(&micro.class_stats(class, mode))
        });
        write_class_table(&mut out, "ttr p50", modes, RecoveryMode::name, |mode, class| {
            median(&micro.class_ttr(class, mode))
        });
        out
    }

    /// Renders the matrix with the distributed comparison appended: per
    /// fault class at the campaign's full retry budget, availability and
    /// median time-to-recovery under process-level supervision versus
    /// per-channel recovery on the service graph, plus the cascade line
    /// (faulted chains, channel resets, node restarts, peak downstream
    /// amplification). The survival matrix measures recovery of one
    /// process; these families measure what the same taxonomy costs once
    /// the fault rides the wire between processes.
    pub fn render_with_graph(&self, graph: &GraphReport) -> String {
        let full = *GRAPH_BUDGETS.last().expect("sweep is nonempty");
        let mut out = self.to_string();
        let _ = writeln!(
            out,
            "per-channel recovery vs process supervision (service graph, {} requests, budget {}):",
            graph.spec.requests, full
        );
        let planes = &PlaneKind::ALL;
        write_class_table(&mut out, "availability", planes, PlaneKind::name, |plane, class| {
            availability(&graph.class_stats(class, plane, full))
        });
        write_class_table(&mut out, "ttr p50", planes, PlaneKind::name, |plane, class| {
            median(&graph.class_ttr(class, plane, full))
        });
        let totals = graph.graph_totals();
        let _ = writeln!(
            out,
            "cascade: {} faulted chains, {} channel resets, {} node restarts, max amplification \
             {:.2}",
            totals.cascade_depth.count(),
            totals.channel_recoveries,
            totals.node_restarts,
            graph.max_amplification(full),
        );
        out
    }

    /// Renders the matrix with the oblivious-recovery column families
    /// per fault class, taken from an oblivious campaign: availability
    /// per heal mode, then the price of staying available — substitute
    /// answers handed out (visible discards + silent manufactured
    /// defaults) and correctness-oracle violations. The survival matrix
    /// says whether a strategy keeps an application alive; these
    /// families say which answers were wrong while it did.
    pub(crate) fn render_with_oracle(&self, oblivious: &ObliviousReport) -> String {
        let mut out = self.to_string();
        let _ = writeln!(
            out,
            "oblivious recovery vs restart (open-loop traffic, {} requests):",
            oblivious.spec.requests
        );
        let modes = &HealMode::ALL;
        // Costs show only in cells that were offered traffic.
        let costs = |mode, class| {
            let offered = oblivious.class_stats(class, mode).offered > 0;
            offered.then(|| oblivious.class_costs(class, mode))
        };
        write_class_table(&mut out, "availability", modes, HealMode::name, |mode, class| {
            availability(&oblivious.class_stats(class, mode))
        });
        write_class_table(&mut out, "substitutes", modes, HealMode::name, |mode, class| {
            costs(mode, class)
                .map(|(discarded, manufactured, _)| format!("{discarded}+{manufactured}"))
        });
        write_class_table(&mut out, "oracle violations", modes, HealMode::name, |mode, class| {
            costs(mode, class).map(|(_, _, violations)| violations.to_string())
        });
        out
    }

    /// Renders the matrix with an SLO-miss column family per fault class,
    /// taken from a traffic campaign over the same strategies: the
    /// fraction of offered requests that were dropped or answered over
    /// the latency SLO. The survival matrix says whether a strategy keeps
    /// an application alive; this family says what the users experienced
    /// while it did.
    pub(crate) fn render_with_slo(&self, traffic: &TrafficReport) -> String {
        let mut out = self.to_string();
        let _ =
            writeln!(out, "SLO misses under open-loop traffic (dropped + over-SLO, of offered):");
        let strategies = &StrategyKind::ALL;
        write_class_table(
            &mut out,
            "strategy",
            strategies,
            StrategyKind::name,
            |strategy, class| {
                let offered = traffic.class_stats(class, strategy).offered > 0;
                offered.then(|| format!("{:.2}%", 100.0 * traffic.slo_miss_rate(class, strategy)))
            },
        );
        out
    }
}

/// Appends one table to `out`: a header line of `corner` and the column
/// headers, then one line per row. Row names are left-aligned in 22
/// columns; every cell is right-aligned in its column's width.
fn write_table<'a>(
    out: &mut String,
    corner: &str,
    columns: &[(&str, usize)],
    rows: impl IntoIterator<Item = (&'a str, Vec<String>)>,
) {
    let _ = write!(out, "{corner:<22}");
    for &(header, width) in columns {
        let _ = write!(out, " {header:>width$}");
    }
    let _ = writeln!(out);
    for (name, cells) in rows {
        let _ = write!(out, "{name:<22}");
        for (cell, &(_, width)) in cells.iter().zip(columns) {
            let _ = write!(out, " {cell:>width$}");
        }
        let _ = writeln!(out);
    }
}

/// Appends a per-class table to `out`: one column per fault class and one
/// row per entry of `rows`, each cell `cell(row, class)`, or `-` where
/// that is `None`.
fn write_class_table<K: Copy>(
    out: &mut String,
    corner: &str,
    rows: &[K],
    name: fn(K) -> &'static str,
    cell: impl Fn(K, FaultClass) -> Option<String>,
) {
    let columns = FaultClass::ALL.map(|class| (class.short(), 14));
    let rows = rows.iter().map(|&row| {
        let cells = FaultClass::ALL.map(|class| cell(row, class).unwrap_or_else(|| "-".to_owned()));
        (name(row), cells.to_vec())
    });
    write_table(out, corner, &columns, rows);
}

/// A cell's availability as a percentage, or `None` if it was offered
/// nothing.
fn availability(stats: &UnitStats) -> Option<String> {
    (stats.offered > 0).then(|| format!("{:.2}%", 100.0 * stats.availability()))
}

/// A histogram's median as a simulated duration, or `None` if it is empty.
fn median(histogram: &Histogram) -> Option<String> {
    histogram.p50().map(|nanos| Duration::from_nanos(nanos).to_string())
}

impl fmt::Display for RecoveryMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = format!(
            "Recovery matrix (seed {}): survived/total per fault class and strategy\n",
            self.seed
        );
        let columns: Vec<(&str, usize)> =
            FaultClass::ALL.iter().map(|c| c.short()).chain(["overall"]).map(|h| (h, 14)).collect();
        let rows = StrategyKind::ALL.iter().map(|&strategy| {
            let mut cells: Vec<String> = FaultClass::ALL
                .iter()
                .map(|&class| self.cell(class, strategy))
                .map(|c| format!("{}/{}", c.survived, c.total))
                .collect();
            let o = self.overall(strategy);
            cells.push(format!("{}/{} ({:.0}%)", o.survived, o.total, o.rate() * 100.0));
            (strategy.name(), cells)
        });
        write_table(&mut out, "strategy", &columns, rows);
        f.write_str(&out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(seed: u64) -> RecoveryMatrix {
        RecoveryMatrix::run(seed, ParallelSpec::AUTO, false).0
    }

    // One full-matrix computation shared by the assertions below.
    fn matrix() -> RecoveryMatrix {
        run(2000)
    }

    #[test]
    fn matrix_reproduces_the_papers_thesis() {
        let m = matrix();

        // Environment-independent faults survive nothing (Tables 1-3, §6.1).
        for strategy in StrategyKind::ALL {
            let c = m.cell(FaultClass::EnvironmentIndependent, strategy);
            assert_eq!(c.total, 113);
            assert_eq!(c.survived, 0, "{strategy} must not survive EI faults");
        }

        // Nontransient faults survive no purely generic strategy (§3).
        for strategy in StrategyKind::ALL.into_iter().filter(|s| s.is_generic()) {
            let c = m.cell(FaultClass::EnvDependentNonTransient, strategy);
            assert_eq!(c.total, 14);
            assert_eq!(c.survived, 0, "{strategy} must not survive EDN faults");
        }

        // Application knowledge recovers the self-inflicted EDN conditions.
        let app_specific = m.cell(FaultClass::EnvDependentNonTransient, StrategyKind::AppSpecific);
        assert_eq!(app_specific.survived, 4, "leak, 2x own-fd leaks, hostname rebind");

        // Transient faults survive retry-based generic recovery (§6.3).
        let restart = m.cell(FaultClass::EnvDependentTransient, StrategyKind::Restart);
        assert_eq!(restart.total, 12);
        assert!(restart.survived >= 10, "restart survived only {}", restart.survived);
        let progressive = m.cell(FaultClass::EnvDependentTransient, StrategyKind::Progressive);
        assert!(progressive.survived >= 11, "progressive survived {}", progressive.survived);

        // Without any recovery nothing survives.
        assert_eq!(m.overall(StrategyKind::None).survived, 0);

        // The headline: overall generic survival lands in the paper's
        // 5-14% transient band.
        let overall = m.overall(StrategyKind::Restart);
        let pct = overall.rate() * 100.0;
        assert!((5.0..=14.0).contains(&pct), "restart overall {pct:.1}% outside 5-14%");
    }

    #[test]
    fn fast_failover_underperforms_slow_restart_on_healing_conditions() {
        let m = matrix();
        let pair = m.cell(FaultClass::EnvDependentTransient, StrategyKind::ProcessPair);
        let restart = m.cell(FaultClass::EnvDependentTransient, StrategyKind::Restart);
        assert!(
            pair.survived < restart.survived,
            "pair {} !< restart {}",
            pair.survived,
            restart.survived
        );
    }

    #[test]
    fn display_renders_all_strategies() {
        let text = run(1).to_string();
        assert!(text.contains("none"));
        assert!(text.contains("transient"));
        assert!(text.contains("0/113"));
    }

    #[test]
    fn instrumented_matrix_matches_plain_and_renders_ttr() {
        let plain = matrix();
        let (m, registry) = RecoveryMatrix::run(2000, ParallelSpec::AUTO, true);
        assert_eq!(m, plain, "metrics must not perturb the matrix");
        // Retry strategies recovered transient faults, so their TTR columns
        // are populated; the baseline never recovers anything.
        assert!(registry.histogram("recovery.ttr", "restart").unwrap().count() > 0);
        assert!(registry.histogram("recovery.ttr", "none").is_none());
        let text = m.render_with_ttr(&registry);
        assert!(text.contains("time to recovery"));
        assert!(text.contains("restart"), "{text}");
        let none_row = text.lines().filter(|l| l.starts_with("none")).nth(1).unwrap_or_else(|| {
            text.lines().find(|l| l.starts_with("none") && l.contains('-')).expect("none TTR row")
        });
        assert!(none_row.contains('-'), "baseline shows empty TTR: {none_row}");
    }

    #[test]
    fn slugs_where_partitions_outcomes() {
        let m = run(3);
        let survived =
            m.slugs_where(FaultClass::EnvDependentTransient, StrategyKind::Restart, true);
        let failed = m.slugs_where(FaultClass::EnvDependentTransient, StrategyKind::Restart, false);
        assert_eq!(survived.len() + failed.len(), 12);
        assert!(survived.contains(&"apache-edt-02"));
    }

    /// A hand-built matrix with the corpus's class totals, in which
    /// `survived(class, strategy)` faults of each cell survived.
    fn matrix_with(survived: impl Fn(FaultClass, StrategyKind) -> u32) -> RecoveryMatrix {
        let total = |class| match class {
            FaultClass::EnvironmentIndependent => 113,
            FaultClass::EnvDependentNonTransient => 14,
            FaultClass::EnvDependentTransient => 12,
        };
        let cells = FaultClass::ALL
            .into_iter()
            .flat_map(|class| StrategyKind::ALL.map(|strategy| (class, strategy)))
            .map(|(class, strategy)| {
                let cell = Cell { total: total(class), survived: survived(class, strategy) };
                MatrixCell { class, strategy, cell }
            });
        RecoveryMatrix { seed: 0, cells: cells.collect(), outcomes: Vec::new() }
    }

    #[test]
    fn thesis_violations_fail_the_matrix() {
        use FaultClass::{EnvDependentNonTransient as Edn, EnvDependentTransient as Edt};
        // Every transient fault survives and app-specific recovery also
        // rescues four nontransient ones: restart lands at 12/139 = 8.6%.
        let healthy = |class, strategy| match (class, strategy) {
            (Edt, _) => 12,
            (Edn, StrategyKind::AppSpecific) => 4,
            _ => 0,
        };
        assert_eq!(matrix_with(healthy).violations(), Vec::<String>::new());
        let ei = matrix_with(|class, strategy| match (class, strategy) {
            (FaultClass::EnvironmentIndependent, StrategyKind::Restart) => 1,
            _ => healthy(class, strategy),
        });
        assert_eq!(ei.violations(), ["restart survived 1 EI faults"]);
        let edn = matrix_with(|class, strategy| match (class, strategy) {
            (Edn, StrategyKind::Rollback) => 2,
            _ => healthy(class, strategy),
        });
        assert_eq!(edn.violations(), ["rollback survived 2 EDN faults"]);
        let band = matrix_with(|class, strategy| match (class, strategy) {
            (Edt, StrategyKind::Restart) => 3,
            _ => healthy(class, strategy),
        });
        assert_eq!(band.violations(), ["restart overall 2.2% outside the 5-14% band"]);
        assert_eq!(matrix().violations(), Vec::<String>::new());
    }
}
