//! Randomized fault-injection campaigns.
//!
//! A [`RecoveryMatrix`](crate::RecoveryMatrix) answers "what happens at one
//! seed"; a campaign samples many `(fault, strategy, seed)` triples and
//! checks that the thesis holds in distribution — the fixed-seed analogue
//! of re-running the paper's study on other archives. Transient faults are
//! the only stochastic cell (races depend on the drawn interleavings), so
//! the campaign reports their survival rate with its spread.

use crate::driver::{drive, write_anomalies};
use crate::experiment::{
    build_workload, run_fault_experiment, run_fault_experiment_instrumented,
    run_prepared_experiment, run_prepared_experiment_instrumented, LeanOutcome, StrategyKind,
};
use faultstudy_apps::Request;
use faultstudy_core::taxonomy::FaultClass;
use faultstudy_corpus::full_corpus;
use faultstudy_exec::{run_indexed, ParallelSpec};
use faultstudy_obs::MetricsRegistry;
use faultstudy_sim::rng::{split_seed, DetRng, Xoshiro256StarStar};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
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

/// The outcome of one campaign sample, before aggregation.
struct Sample {
    class: FaultClass,
    strategy: StrategyKind,
    survived: bool,
    recoveries: u32,
    anomaly: Option<String>,
    /// `Some` only for instrumented samples that recorded anything — most
    /// samples never recover and produce an empty registry, which the
    /// aggregation can skip outright.
    metrics: Option<MetricsRegistry>,
}

/// Draws the `(fault index, strategy, env_seed)` triple of the sample
/// seeded by `sample_seed` from a corpus of `faults` faults.
///
/// Shared by the streaming and materialized engines so the draw — and
/// therefore every downstream result — is identical between them.
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
    /// reproduces the materialized `BTreeMap` aggregation byte for byte.
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

    /// Folds one sample's outcome in. Mirrors `aggregate`'s per-sample
    /// body exactly — same counter order, same anomaly text — except the
    /// anomaly borrows the slug from the corpus instead of owning it.
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
            self.registry.incr("experiment.total", strategy.name(), 1);
            if out.survived {
                self.registry.incr("experiment.survived", strategy.name(), 1);
            }
            if out.recoveries > 0 {
                self.registry.incr("recovery.actions", strategy.name(), u64::from(out.recoveries));
            }
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

fn aggregate(
    spec: CampaignSpec,
    samples: Vec<Sample>,
    instrumented: bool,
) -> (CampaignReport, MetricsRegistry) {
    let mut cells: BTreeMap<(FaultClass, StrategyKind), (u32, u32)> = BTreeMap::new();
    let mut anomalies = Vec::new();
    // Per-sample registries merge in index order, so the merged registry is
    // the same for every thread count.
    let mut registry = MetricsRegistry::new();
    for sample in samples {
        let cell = cells.entry((sample.class, sample.strategy)).or_insert((0, 0));
        cell.1 += 1;
        cell.0 += u32::from(sample.survived);
        anomalies.extend(sample.anomaly);
        if let Some(reg) = &sample.metrics {
            registry.merge_from(reg);
        }
        if instrumented {
            // Counters derivable from the outcome live with the
            // aggregation, not the sample: one upsert here is cheaper than
            // a fresh key in every per-sample registry plus a merge.
            registry.incr("experiment.total", sample.strategy.name(), 1);
            if sample.survived {
                registry.incr("experiment.survived", sample.strategy.name(), 1);
            }
            if sample.recoveries > 0 {
                registry.incr(
                    "recovery.actions",
                    sample.strategy.name(),
                    u64::from(sample.recoveries),
                );
            }
        }
    }
    let cells = cells
        .into_iter()
        .map(|((class, strategy), (survived, total))| CampaignCell {
            class,
            strategy,
            survived,
            total,
        })
        .collect();
    (CampaignReport { spec, cells, anomalies }, registry)
}

impl CampaignReport {
    /// Runs the campaign with the host's available parallelism.
    pub fn run(spec: CampaignSpec) -> CampaignReport {
        Self::run_with(spec, ParallelSpec::default())
    }

    /// Runs the campaign on `parallel` worker threads.
    ///
    /// Each sample's RNG is seeded from `split_seed(spec.seed, index)`, so
    /// sample `index` draws the same `(fault, strategy, env_seed)` triple no
    /// matter which worker executes it; aggregation folds the outcomes in
    /// index order. The report is therefore byte-identical for every thread
    /// count.
    pub fn run_with(spec: CampaignSpec, parallel: ParallelSpec) -> CampaignReport {
        Self::run_streamed(spec, parallel, false).0
    }

    /// Runs the campaign with per-sample metrics enabled, returning the
    /// merged registry alongside the (unchanged) report.
    ///
    /// The registry aggregates the supervisor's time-to-recovery and retry
    /// histograms per strategy and per `(class, strategy)` cell. It is as
    /// deterministic as the report itself: per-sample registries merge in
    /// index order, so the result is byte-identical at any thread count.
    pub fn run_instrumented(
        spec: CampaignSpec,
        parallel: ParallelSpec,
    ) -> (CampaignReport, MetricsRegistry) {
        Self::run_streamed(spec, parallel, true)
    }

    /// The streaming campaign engine behind [`run_with`](Self::run_with)
    /// and [`run_instrumented`](Self::run_instrumented).
    ///
    /// Every fault's workload is prepared once up front; the campaign
    /// driver then folds each chunk of samples into a constant-size
    /// [`CampaignAcc`], so memory is O(workers), not O(samples).
    fn run_streamed(
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
                let out = if instrumented {
                    let (out, reg) =
                        run_prepared_experiment_instrumented(fault, strategy, env_seed, workload);
                    if !reg.is_empty() {
                        acc.registry.merge_from(&reg);
                    }
                    out
                } else {
                    run_prepared_experiment(fault, strategy, env_seed, workload)
                };
                acc.record(fault.slug(), strategy, env_seed, out, instrumented);
            },
            CampaignAcc::merge,
        );
        acc.into_report(spec)
    }

    /// The materialized reference engine: collects every sample outcome
    /// into a vector, then aggregates — O(samples) memory.
    ///
    /// This is the original campaign implementation, kept as the oracle
    /// the streaming fold is differentially tested against; only tests
    /// call it. Use [`run_with`](Self::run_with) for real campaigns.
    pub fn run_materialized(
        spec: CampaignSpec,
        parallel: ParallelSpec,
        instrumented: bool,
    ) -> (CampaignReport, MetricsRegistry) {
        let corpus = full_corpus();
        let samples = run_indexed(spec.samples as usize, parallel, |index| {
            let (fi, strategy, env_seed) = draw(corpus.len(), split_seed(spec.seed, index as u64));
            let fault = &corpus[fi];
            let (out, metrics) = if instrumented {
                let (out, reg) = run_fault_experiment_instrumented(fault, strategy, env_seed);
                (out, (!reg.is_empty()).then_some(reg))
            } else {
                (run_fault_experiment(fault, strategy, env_seed), None)
            };
            // The deterministic guarantees of the taxonomy.
            let violates = out.survived
                && (out.class == FaultClass::EnvironmentIndependent
                    || (out.class == FaultClass::EnvDependentNonTransient
                        && strategy.is_generic()));
            Sample {
                class: out.class,
                strategy,
                survived: out.survived,
                recoveries: out.recoveries,
                anomaly: violates.then(|| {
                    format!("{} survived {} at seed {env_seed}", out.slug, strategy.name())
                }),
                metrics,
            }
        });
        aggregate(spec, samples, instrumented)
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

    #[test]
    fn campaign_upholds_the_deterministic_guarantees() {
        let report = CampaignReport::run(CampaignSpec { samples: 300, seed: 42 });
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
        let report = CampaignReport::run(CampaignSpec { samples: 600, seed: 9 });
        for strategy in [StrategyKind::Restart, StrategyKind::Progressive] {
            let (rate, n) = report.transient_rate(strategy);
            assert!(n > 0, "{strategy}: no transient samples drawn");
            assert!(rate >= 0.8, "{strategy}: transient rate {rate:.2} over {n}");
        }
        let (none_rate, _) = report.transient_rate(StrategyKind::None);
        assert_eq!(none_rate, 0.0, "no recovery, no survival");
    }

    #[test]
    fn campaigns_are_reproducible() {
        let spec = CampaignSpec { samples: 50, seed: 7 };
        assert_eq!(CampaignReport::run(spec), CampaignReport::run(spec));
    }

    #[test]
    fn instrumented_campaign_reproduces_the_plain_report() {
        let spec = CampaignSpec { samples: 60, seed: 11 };
        let plain = CampaignReport::run(spec);
        let (report, registry) = CampaignReport::run_instrumented(spec, ParallelSpec::default());
        assert_eq!(report, plain, "metrics must not perturb the campaign");
        let total: u64 =
            StrategyKind::ALL.iter().map(|s| registry.counter("experiment.total", s.name())).sum();
        assert_eq!(total, 60, "every sample counted exactly once");
        // Some sampled strategy recovered a transient fault, so at least
        // one TTR distribution is populated.
        assert!(registry.histograms().any(|(k, _)| k.starts_with("recovery.ttr")));
    }

    #[test]
    fn instrumented_registry_is_identical_across_thread_counts() {
        let spec = CampaignSpec { samples: 40, seed: 5 };
        let (ref_report, ref_registry) =
            CampaignReport::run_instrumented(spec, ParallelSpec::threads(1));
        for threads in [2usize, 8] {
            let (report, registry) =
                CampaignReport::run_instrumented(spec, ParallelSpec::threads(threads));
            assert_eq!(report, ref_report, "{threads} threads");
            assert_eq!(registry, ref_registry, "{threads} threads");
        }
    }

    #[test]
    fn flat_cell_order_reproduces_btreemap_order() {
        // The streaming accumulator indexes cells by enum discriminant and
        // emits them in flat order; that only matches the materialized
        // BTreeMap aggregation if each ALL array lists its variants in
        // declaration (= derived Ord) order.
        for (i, &class) in FaultClass::ALL.iter().enumerate() {
            assert_eq!(class as usize, i, "{class:?}");
        }
        for (i, &strategy) in StrategyKind::ALL.iter().enumerate() {
            assert_eq!(strategy as usize, i, "{strategy:?}");
        }
    }

    #[test]
    fn streaming_fold_matches_the_materialized_reference() {
        let spec = CampaignSpec { samples: 120, seed: 13 };
        let (mat_report, mat_registry) =
            CampaignReport::run_materialized(spec, ParallelSpec::SEQUENTIAL, true);
        for threads in [1usize, 2, 4] {
            let (report, registry) =
                CampaignReport::run_instrumented(spec, ParallelSpec::threads(threads));
            assert_eq!(report, mat_report, "{threads} threads");
            assert_eq!(registry, mat_registry, "{threads} threads");
        }
    }

    #[test]
    fn display_summarizes() {
        let report = CampaignReport::run(CampaignSpec { samples: 30, seed: 3 });
        let text = report.to_string();
        assert!(text.contains("30 samples"));
        assert!(text.contains("no anomalies"));
    }
}
