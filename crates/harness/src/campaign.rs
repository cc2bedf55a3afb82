//! Randomized fault-injection campaigns.
//!
//! A [`RecoveryMatrix`](crate::RecoveryMatrix) answers "what happens at one
//! seed"; a campaign samples many `(fault, strategy, seed)` triples and
//! checks that the thesis holds in distribution — the fixed-seed analogue
//! of re-running the paper's study on other archives. Transient faults are
//! the only stochastic cell (races depend on the drawn interleavings), so
//! the campaign reports their survival rate with its spread.

use crate::driver::{drive, write_anomalies, Campaign};
use crate::experiment::{
    build_workload, ledger_experiment, run_prepared, LeanOutcome, StrategyKind,
};
use faultstudy_apps::Request;
use faultstudy_core::taxonomy::FaultClass;
use faultstudy_corpus::full_corpus;
use faultstudy_exec::ParallelSpec;
use faultstudy_obs::MetricsRegistry;
use faultstudy_sim::rng::{DetRng, Xoshiro256StarStar};
use serde::{Deserialize, Serialize};
use std::fmt;

/// One (class, strategy) cell of a campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CampaignCell {
    /// Fault class of the sampled faults.
    pub class: FaultClass,
    /// Strategy under test.
    pub strategy: StrategyKind,
    /// Samples that survived.
    pub survived: u32,
    /// Samples drawn.
    pub total: u32,
}

/// Configuration of a campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CampaignSpec {
    /// Number of `(fault, strategy, seed)` samples to draw.
    pub samples: u32,
    /// Master seed; the campaign is a pure function of it.
    pub seed: u64,
}

/// Aggregate of one campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignReport {
    /// The spec that produced this report.
    pub spec: CampaignSpec,
    /// Per (class, strategy) sample counts, in `(class, strategy)` order.
    pub cells: Vec<CampaignCell>,
    /// Violations of the deterministic guarantees (environment-independent
    /// or generic-vs-nontransient survivals); must be empty.
    pub anomalies: Vec<String>,
}

/// Draws the `(fault index, strategy, env_seed)` triple of the sample
/// seeded by `sample_seed` from a corpus of `faults` faults.
///
/// The materialized reference engine in `tests/parallel_determinism.rs`
/// keeps its own copy of this draw; the streaming-vs-materialized tests
/// there fail if the two ever diverge.
fn draw(faults: usize, sample_seed: u64) -> (usize, StrategyKind, u64) {
    let mut rng = Xoshiro256StarStar::seed_from(sample_seed);
    let fault = rng.below(faults as u64) as usize;
    let strategy = StrategyKind::ALL[rng.below(StrategyKind::ALL.len() as u64) as usize];
    (fault, strategy, rng.next_u64())
}

/// Number of `(class, strategy)` cells a campaign can populate.
const CELL_COUNT: usize = FaultClass::ALL.len() * StrategyKind::ALL.len();

/// Constant-size partial aggregate of one campaign index-partition: the
/// streaming fold's accumulator. A whole campaign needs O(workers) of
/// these instead of O(samples) materialized outcomes, which is what lets
/// sample counts reach the tens of millions.
struct CampaignAcc {
    /// `(survived, total)` per `(class, strategy)` cell, flat in the order
    /// the `ALL` arrays declare. That order equals the derived `Ord`
    /// order of both enums, so emitting non-empty cells in flat order
    /// reproduces a `BTreeMap` aggregation byte for byte.
    counts: [(u32, u32); CELL_COUNT],
    /// Guarantee violations, in sample-index order.
    anomalies: Vec<String>,
    /// Merged metrics, folded per sample in index order.
    registry: MetricsRegistry,
}

impl CampaignAcc {
    fn new() -> CampaignAcc {
        CampaignAcc {
            counts: [(0, 0); CELL_COUNT],
            anomalies: Vec::new(),
            registry: MetricsRegistry::new(),
        }
    }

    fn cell(class: FaultClass, strategy: StrategyKind) -> usize {
        class as usize * StrategyKind::ALL.len() + strategy as usize
    }

    /// Folds one sample's outcome in; an instrumented run also ledgers it.
    fn record(
        &mut self,
        slug: &str,
        strategy: StrategyKind,
        env_seed: u64,
        out: LeanOutcome,
        instrumented: bool,
    ) {
        let cell = &mut self.counts[Self::cell(out.class, strategy)];
        cell.1 += 1;
        cell.0 += u32::from(out.survived);
        let violates = out.survived
            && (out.class == FaultClass::EnvironmentIndependent
                || (out.class == FaultClass::EnvDependentNonTransient && strategy.is_generic()));
        if violates {
            self.anomalies.push(format!("{slug} survived {} at seed {env_seed}", strategy.name()));
        }
        if instrumented {
            ledger_experiment(&mut self.registry, strategy, out.survived, out.recoveries);
        }
    }

    /// Merges a later index-partition into this one. Because every fold
    /// ingredient is append (anomalies) or accumulate (counts, registry),
    /// merging partials in index order is identical to having folded the
    /// later partition's samples directly — the law the differential
    /// tests in `tests/parallel_determinism.rs` pin down.
    fn merge(&mut self, later: CampaignAcc) {
        for (a, b) in self.counts.iter_mut().zip(later.counts) {
            a.0 += b.0;
            a.1 += b.1;
        }
        self.anomalies.extend(later.anomalies);
        self.registry.merge_from(&later.registry);
    }

    fn into_report(self, spec: CampaignSpec) -> (CampaignReport, MetricsRegistry) {
        let cells = FaultClass::ALL
            .iter()
            .flat_map(|&class| StrategyKind::ALL.iter().map(move |&strategy| (class, strategy)))
            .map(|(class, strategy)| (class, strategy, self.counts[Self::cell(class, strategy)]))
            .filter(|&(_, _, (_, total))| total > 0)
            .map(|(class, strategy, (survived, total))| CampaignCell {
                class,
                strategy,
                survived,
                total,
            })
            .collect();
        (CampaignReport { spec, cells, anomalies: self.anomalies }, self.registry)
    }
}

impl Campaign for CampaignReport {
    type Spec = CampaignSpec;
    const NAME: &'static str = "campaign";

    /// Each sample's RNG is seeded from `split_seed(spec.seed, index)`, so
    /// sample `index` draws the same `(fault, strategy, env_seed)` triple no
    /// matter which worker executes it. Every fault's workload is prepared
    /// once up front, and the driver folds each chunk of samples into a
    /// constant-size `CampaignAcc`, so memory is O(workers), not
    /// O(samples).
    ///
    /// The registry aggregates the supervisor's time-to-recovery and retry
    /// histograms per strategy and per `(class, strategy)` cell.
    fn run(
        spec: CampaignSpec,
        parallel: ParallelSpec,
        instrumented: bool,
    ) -> (CampaignReport, MetricsRegistry) {
        let corpus = full_corpus();
        let workloads: Vec<Vec<Request>> = corpus.iter().map(build_workload).collect();
        let acc = drive(
            spec.seed,
            spec.samples as usize,
            parallel,
            CampaignAcc::new,
            |acc: &mut CampaignAcc, _, sample_seed| {
                let (fi, strategy, env_seed) = draw(corpus.len(), sample_seed);
                let (fault, workload) = (&corpus[fi], &workloads[fi]);
                let (out, metrics) =
                    run_prepared(fault, strategy, env_seed, workload, instrumented);
                if let Some(metrics) = metrics {
                    acc.registry.merge_from(&metrics);
                }
                acc.record(fault.slug(), strategy, env_seed, out, instrumented);
            },
            CampaignAcc::merge,
        );
        acc.into_report(spec)
    }

    fn violations(&self) -> Vec<String> {
        self.anomalies.clone()
    }

    fn text(&self) -> String {
        format!("{self}\n")
    }
}

impl CampaignReport {
    /// `Campaign::run` without metrics. Kept only because
    /// `benchmark/src/workload.rs` names it; everything else calls
    /// [`Campaign::run`].
    pub fn run_with(spec: CampaignSpec, parallel: ParallelSpec) -> CampaignReport {
        Self::run(spec, parallel, false).0
    }

    /// Survival rate of transient faults under `strategy` over the
    /// sampled seeds, with the sample count: `(rate, n)`.
    pub fn transient_rate(&self, strategy: StrategyKind) -> (f64, u32) {
        match self
            .cells
            .iter()
            .find(|c| c.class == FaultClass::EnvDependentTransient && c.strategy == strategy)
        {
            Some(c) if c.total > 0 => (f64::from(c.survived) / f64::from(c.total), c.total),
            _ => (0.0, 0),
        }
    }
}

impl fmt::Display for CampaignReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Campaign: {} samples from master seed {}", self.spec.samples, self.spec.seed)?;
        for cell in &self.cells {
            writeln!(
                f,
                "  {:<36} {:<14} {}/{}",
                cell.class.label(),
                cell.strategy.name(),
                cell.survived,
                cell.total
            )?;
        }
        write_anomalies(f, &self.anomalies, "the deterministic guarantees held on every sample")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(samples: u32, seed: u64) -> CampaignReport {
        CampaignReport::run(CampaignSpec { samples, seed }, ParallelSpec::AUTO, false).0
    }

    #[test]
    fn campaign_upholds_the_deterministic_guarantees() {
        let report = run(300, 42);
        assert!(report.anomalies.is_empty(), "{:?}", report.anomalies);
        // Every cell's survived <= total.
        for cell in &report.cells {
            assert!(cell.survived <= cell.total, "{} {}", cell.class, cell.strategy);
        }
        let total: u32 = report.cells.iter().map(|c| c.total).sum();
        assert_eq!(total, 300);
    }

    #[test]
    fn transient_survival_is_high_under_retry_strategies() {
        let report = run(600, 9);
        for strategy in [StrategyKind::Restart, StrategyKind::Progressive] {
            let (rate, n) = report.transient_rate(strategy);
            assert!(n > 0, "{strategy}: no transient samples drawn");
            assert!(rate >= 0.8, "{strategy}: transient rate {rate:.2} over {n}");
        }
        let (none_rate, _) = report.transient_rate(StrategyKind::None);
        assert_eq!(none_rate, 0.0, "no recovery, no survival");
    }

    #[test]
    fn instrumented_campaign_ledgers_every_sample() {
        let spec = CampaignSpec { samples: 60, seed: 11 };
        let (_, registry) = CampaignReport::run(spec, ParallelSpec::AUTO, true);
        let total: u64 =
            StrategyKind::ALL.iter().map(|s| registry.counter("experiment.total", s.name())).sum();
        assert_eq!(total, 60, "every sample counted exactly once");
        // Some sampled strategy recovered a transient fault, so at least
        // one TTR distribution is populated.
        assert!(registry.histograms().any(|(k, _)| k.starts_with("recovery.ttr")));
    }

    #[test]
    fn flat_cell_order_reproduces_btreemap_order() {
        // The streaming accumulator indexes cells by enum discriminant and
        // emits them in flat order; that only matches a BTreeMap
        // aggregation if each ALL array lists its variants in declaration
        // (= derived Ord) order.
        for (i, &class) in FaultClass::ALL.iter().enumerate() {
            assert_eq!(class as usize, i, "{class:?}");
        }
        for (i, &strategy) in StrategyKind::ALL.iter().enumerate() {
            assert_eq!(strategy as usize, i, "{strategy:?}");
        }
    }

    #[test]
    fn display_summarizes() {
        let text = run(30, 3).to_string();
        assert!(text.contains("30 samples"));
        assert!(text.contains("no anomalies"));
    }
}
