//! The graph campaign: the distributed IPC fault plane driven at scale.
//!
//! The traffic and microreboot campaigns load a *single* application; this
//! campaign loads the whole service graph — clients → miniweb → minidb
//! with minide as an operator console — and injects the twelve-kind
//! Theseus/MINIX3 IPC fault corpus on the wire between the tiers. Each
//! `(fault kind, recovery plane, retry budget)` unit offers the same
//! open-loop stream and races the two recovery planes the graph engine
//! implements: process-level supervision (the restart tree reboots graph
//! nodes) versus per-channel recovery (drain + reset the channel and
//! microreboot only the endpoint). On top of the usual SLO ledger every
//! unit carries the distributed costs the single-app campaigns cannot
//! see: cascade-depth histograms, per-edge loss/reset counters, and the
//! downstream-amplification ratio (db requests actually served per db
//! request a client chain first demanded).
//!
//! Determinism: units run on the campaign driver, with arrival, session
//! and recovery seeds derived per unit — reports are byte-identical at any
//! thread count and chunk size.

use crate::driver::{
    drive_cells, fold, grid, miss_rate, ms, unit_share, write_anomalies, write_title, write_totals,
    Campaign, LoadSpec,
};
use crate::experiment::standard_env;
use crate::matrix::RecoveryMatrix;
use faultstudy_core::taxonomy::FaultClass;
use faultstudy_exec::ParallelSpec;
use faultstudy_graph::{
    graph_plans, run_graph, ChannelFaultKind, GraphFaultPlan, GraphUnitStats, PlaneKind,
    ServiceGraph,
};
use faultstudy_obs::Histogram;
use faultstudy_sim::rng::split_seed;
use faultstudy_traffic::{ArrivalKind, TrafficParams, UnitStats};
use serde::Serialize;
use std::fmt;

/// The retry-budget sweep: no retries (every bitten chain is a
/// user-visible drop), one retry, and the production-ish budget the
/// engine's contract tests pin.
pub const GRAPH_BUDGETS: [u32; 3] = [0, 1, 3];

/// The graph campaign's [`LoadSpec`], under the name the benchmark
/// package spells it by.
pub type GraphSpec = LoadSpec;

/// One `(fault kind, plane, budget)` unit of the campaign.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct GraphCell {
    /// Fault plan name (the kind's wire name, e.g. `s1-sender-page-fault`).
    pub plan: String,
    /// The paper class the kind maps to under the IPC taxonomy.
    pub class: FaultClass,
    /// The injected IPC fault kind.
    pub kind: ChannelFaultKind,
    /// Recovery plane under test.
    pub plane: PlaneKind,
    /// Client retry budget of the unit's chains.
    pub budget: u32,
    /// Fault firings on the wire, summed over every edge.
    pub fired: u64,
    /// The unit's graph ledger (SLO base + edges + cascade + TTR).
    pub stats: GraphUnitStats,
}

/// Aggregate of one graph campaign.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct GraphReport {
    /// The spec that produced this report.
    pub spec: LoadSpec,
    /// Every unit, in `(kind, plane, budget)` enumeration order.
    pub cells: Vec<GraphCell>,
}

/// One campaign unit: fresh environment, a fresh three-tier graph, the
/// kind's fault plan firing on the wire, and an open-loop request stream
/// served through multi-hop chains under the unit's recovery plane.
fn run_unit(
    plan: &GraphFaultPlan,
    plane: PlaneKind,
    budget: u32,
    requests: u64,
    arrival: ArrivalKind,
    unit_seed: u64,
) -> GraphCell {
    let mut env = standard_env(unit_seed, false);
    let mut graph = ServiceGraph::new(&mut env);
    let params = TrafficParams::standard(arrival, requests);
    let stats = run_graph(
        &mut env,
        &mut graph,
        plan,
        plane,
        budget,
        &params,
        split_seed(unit_seed, 1),
        split_seed(unit_seed, 2),
        split_seed(unit_seed, 3),
    );
    let fired = stats.edges.total().faults;
    GraphCell {
        plan: plan.name.clone(),
        class: plan.class,
        kind: plan.kind,
        plane,
        budget,
        fired,
        stats,
    }
}

impl Campaign for GraphReport {
    type Spec = LoadSpec;
    const NAME: &'static str = "graph";

    /// Each unit derives its arrival, session and recovery seeds from its
    /// own unit seed.
    fn run(spec: LoadSpec, parallel: ParallelSpec) -> GraphReport {
        let plans = graph_plans(spec.seed);
        let (planes, budgets) = (PlaneKind::ALL.len(), GRAPH_BUDGETS.len());
        let units = plans.len() * planes * budgets;
        let cells = drive_cells(spec.seed, units, parallel, |index, unit_seed| {
            let (plan, plane, budget) = grid(index, planes, budgets);
            let (plane, budget) = (PlaneKind::ALL[plane], GRAPH_BUDGETS[budget]);
            let requests = unit_share(spec.requests, units, index);
            run_unit(&plans[plan], plane, budget, requests, spec.arrival, unit_seed)
        });
        GraphReport { spec, cells }
    }

    fn violations(&self) -> Vec<String> {
        self.anomalies()
    }

    /// The report, then the distributed comparison matrix.
    fn text(&self) -> String {
        let matrix = RecoveryMatrix::run(self.spec.seed, ParallelSpec::SEQUENTIAL);
        format!("{self}{}", matrix.render_with_graph(self))
    }
}

impl GraphReport {
    /// [`Campaign::run`] under the name `benchmark/src/workload.rs` calls
    /// it by; everything else calls [`Campaign::run`].
    pub fn run_with(spec: LoadSpec, parallel: ParallelSpec) -> GraphReport {
        Self::run(spec, parallel)
    }

    /// The folded graph ledger of every unit of `class` under `plane` at
    /// `budget`, across all fault kinds of the class.
    pub fn class_graph(&self, class: FaultClass, plane: PlaneKind, budget: u32) -> GraphUnitStats {
        let cells = self
            .cells
            .iter()
            .filter(|c| c.class == class && c.plane == plane && c.budget == budget);
        fold(cells.map(|c| &c.stats), GraphUnitStats::absorb)
    }

    /// The folded SLO ledger of `(class, plane, budget)`.
    pub fn class_stats(&self, class: FaultClass, plane: PlaneKind, budget: u32) -> UnitStats {
        self.class_graph(class, plane, budget).base
    }

    /// The merged time-to-recovery histogram of `(class, plane, budget)`,
    /// over chains that were bitten by a fault and still answered.
    pub(crate) fn class_ttr(&self, class: FaultClass, plane: PlaneKind, budget: u32) -> Histogram {
        self.class_graph(class, plane, budget).ttr
    }

    /// The largest per-cell downstream-amplification ratio at `budget` —
    /// db requests served per db request the chains first demanded.
    pub fn max_amplification(&self, budget: u32) -> f64 {
        self.cells
            .iter()
            .filter(|c| c.budget == budget)
            .map(|c| c.stats.amplification())
            .fold(1.0, f64::max)
    }

    /// The folded SLO ledger of the whole campaign.
    pub fn totals(&self) -> UnitStats {
        fold(self.cells.iter().map(|c| &c.stats.base), UnitStats::absorb)
    }

    /// The folded graph ledger of the whole campaign.
    pub fn graph_totals(&self) -> GraphUnitStats {
        fold(self.cells.iter().map(|c| &c.stats), GraphUnitStats::absorb)
    }

    /// Violations of the campaign's class contracts — the distributed
    /// analogue of the survival matrix's predictions, measured on the
    /// wire. A contract cell that was offered no requests (or recovered
    /// nothing where recovery is the thing under test) is itself an
    /// anomaly: an underpowered run must exit non-zero instead of
    /// passing vacuously.
    ///
    /// 1. Sticky (nontransient) wedges at the full budget: per-channel
    ///    recovery must lose nothing and beat process supervision on
    ///    median time-to-recovery — resetting a channel and rebooting one
    ///    endpoint is orders cheaper than restarting the node.
    /// 2. At least one retry policy must amplify downstream load
    ///    (db requests served per db request demanded > 1): retries are
    ///    not free, they cascade.
    /// 3. Defects (environment-independent) must drop requests under
    ///    *both* planes — no channel hygiene recovers a deterministic bug.
    /// 4. The run must exercise faults at all.
    pub fn anomalies(&self) -> Vec<String> {
        let mut anomalies = Vec::new();
        let full = *GRAPH_BUDGETS.last().expect("sweep is nonempty");

        let edn = FaultClass::EnvDependentNonTransient;
        let channel = self.class_graph(edn, PlaneKind::Channel, full);
        let process = self.class_graph(edn, PlaneKind::Process, full);
        if channel.base.offered == 0 || process.base.offered == 0 {
            anomalies.push("edn: offered no requests, contract unchecked".to_owned());
        } else if channel.base.dropped > 0 {
            anomalies.push(format!(
                "edn/channel/b{full}: per-channel recovery lost {} requests on sticky wedges",
                channel.base.dropped
            ));
        } else {
            match (channel.ttr.p50(), process.ttr.p50()) {
                (Some(ch), Some(pr)) if ch < pr => {}
                (Some(ch), Some(pr)) => anomalies.push(format!(
                    "edn/b{full}: channel ttr p50 {ch} ns must beat process ttr p50 {pr} ns"
                )),
                _ => anomalies.push("edn: no recoveries measured, contract unchecked".to_owned()),
            }
        }

        let amp = self.max_amplification(full);
        if amp <= 1.0 {
            anomalies.push(format!(
                "b{full}: no retry policy amplified downstream load (max ratio {amp:.3})"
            ));
        }

        let ei = FaultClass::EnvironmentIndependent;
        for plane in PlaneKind::ALL {
            let stats = self.class_stats(ei, plane, full);
            if stats.offered == 0 {
                anomalies
                    .push(format!("ei/{}: offered no requests, contract unchecked", plane.name()));
            } else if stats.dropped == 0 {
                anomalies.push(format!(
                    "ei/{}: defects must drop requests under any recovery plane",
                    plane.name()
                ));
            }
        }

        if self.totals().failures == 0 {
            anomalies.push("campaign exercised no faults".to_owned());
        }
        anomalies
    }
}

impl fmt::Display for GraphReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_title(f, "Graph", &self.spec, self.cells.len())?;
        writeln!(
            f,
            "  {:<12} {:<8} {:>3} {:>8} {:>7} {:>8} {:>11} {:>6} {:>7}",
            "class", "plane", "b", "offered", "avail%", "dropped", "ttr p50 ms", "amp", "viol%"
        )?;
        for class in FaultClass::ALL {
            for plane in PlaneKind::ALL {
                for budget in GRAPH_BUDGETS {
                    let g = self.class_graph(class, plane, budget);
                    if g.base.offered == 0 {
                        continue;
                    }
                    writeln!(
                        f,
                        "  {:<12} {:<8} {:>3} {:>8} {:>7.2} {:>8} {:>11.2} {:>6.2} {:>7.2}",
                        class.short(),
                        plane.name(),
                        budget,
                        g.base.offered,
                        100.0 * g.base.availability(),
                        g.base.dropped,
                        ms(g.ttr.p50()),
                        g.amplification(),
                        100.0 * miss_rate(&g.base),
                    )?;
                }
            }
        }
        let t = self.graph_totals();
        write_totals(f, &t.base)?;
        writeln!(
            f,
            "  cascade: {} faulted chains (depth p50 {} max {}), {} channel resets, {} node \
             restarts, max amplification {:.2} at b{}",
            t.cascade_depth.count(),
            t.cascade_depth.p50().unwrap_or(0),
            t.cascade_depth.max().unwrap_or(0),
            t.channel_recoveries,
            t.node_restarts,
            self.max_amplification(*GRAPH_BUDGETS.last().expect("sweep is nonempty")),
            GRAPH_BUDGETS.last().expect("sweep is nonempty"),
        )?;
        write_anomalies(f, &self.anomalies(), "both planes matched the wire-level class contract")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec(seed: u64) -> LoadSpec {
        // 3600 / 72 units = 50 requests per unit, exactly.
        LoadSpec { seed, requests: 3_600, arrival: ArrivalKind::Poisson }
    }

    fn run(spec: LoadSpec) -> GraphReport {
        GraphReport::run(spec, ParallelSpec::AUTO)
    }

    #[test]
    fn campaign_enumerates_every_kind_plane_budget() {
        let report = run(small_spec(1));
        assert_eq!(report.cells.len(), 12 * 2 * 3);
        assert_eq!(report.totals().offered, 3_600);
        assert!(report.cells.iter().all(|c| c.stats.base.offered == 50));
        for kind in ChannelFaultKind::ALL {
            for plane in PlaneKind::ALL {
                for budget in GRAPH_BUDGETS {
                    assert!(
                        report
                            .cells
                            .iter()
                            .any(|c| c.kind == kind && c.plane == plane && c.budget == budget),
                        "{kind} {plane:?} {budget}"
                    );
                }
            }
        }
    }

    #[test]
    fn uneven_loads_land_on_the_earliest_units() {
        let spec = LoadSpec { seed: 1, requests: 145, arrival: ArrivalKind::Poisson };
        let report = run(spec);
        assert_eq!(report.totals().offered, 145);
        assert_eq!(report.cells[0].stats.base.offered, 3);
        assert_eq!(report.cells[1].stats.base.offered, 2);
        assert_eq!(report.cells[2].stats.base.offered, 2);
    }

    #[test]
    fn the_class_contracts_hold_and_the_report_is_anomaly_free() {
        let report = run(small_spec(1));
        assert_eq!(report.anomalies(), Vec::<String>::new());

        // Sticky wedges: the channel plane salvages everything and
        // recovers far faster than node restarts.
        let edn = FaultClass::EnvDependentNonTransient;
        let channel = report.class_graph(edn, PlaneKind::Channel, 3);
        let process = report.class_graph(edn, PlaneKind::Process, 3);
        assert_eq!(channel.base.dropped, 0, "channel plane must not lose sticky-wedge chains");
        assert!(
            channel.ttr.p50().unwrap() < process.ttr.p50().unwrap(),
            "channel ttr p50 {:?} !< process {:?}",
            channel.ttr.p50(),
            process.ttr.p50()
        );

        // Retries cascade: some budget-3 cell re-drove the db tier.
        assert!(report.max_amplification(3) > 1.0);

        // Defects defeat both planes.
        for plane in PlaneKind::ALL {
            let ei = report.class_stats(FaultClass::EnvironmentIndependent, plane, 3);
            assert!(ei.dropped > 0, "{} plane must drop on defects", plane.name());
        }

        // Zero budget turns every bitten chain into a user-visible drop:
        // strictly worse availability than the full budget, same plane.
        let b0 = report.class_stats(edn, PlaneKind::Channel, 0);
        assert!(b0.dropped > 0, "zero budget must surface drops");
    }

    #[test]
    fn display_renders_the_cascade_table() {
        let report = run(small_spec(4));
        let text = report.to_string();
        assert!(text.contains("ttr p50 ms"));
        assert!(text.contains("channel"));
        assert!(text.contains("process"));
        assert!(text.contains("cascade:"));
        assert!(text.contains("amplification"));
    }
}
