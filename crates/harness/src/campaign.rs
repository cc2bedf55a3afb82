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
use crate::memo::{DecisionMemo, Proven};
use faultstudy_apps::Request;
use faultstudy_core::taxonomy::FaultClass;
use faultstudy_corpus::full_corpus;
use faultstudy_exec::ParallelSpec;
use faultstudy_obs::MetricsRegistry;
use faultstudy_sim::rng::{DetRng, Xoshiro256StarStar};
use serde::Serialize;
use std::fmt;
use std::sync::OnceLock;

/// One (class, strategy) cell of a campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct CampaignSpec {
    /// Number of `(fault, strategy, seed)` samples to draw.
    pub samples: u32,
    /// Master seed; the campaign is a pure function of it.
    pub seed: u64,
}

/// Aggregate of one campaign.
#[derive(Debug, Clone, PartialEq, Serialize)]
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

/// What one campaign has learned about a `(fault, strategy)` pair from its
/// first run.
enum Pair {
    /// The run read no seed: its outcome holds at every seed.
    Blind(Proven),
    /// The run decided races: outcomes by decision path.
    Reading(Box<DecisionMemo>),
}

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
    /// A run that never read its environment's seed
    /// ([`Environment::read_log`](faultstudy_env::Environment::read_log))
    /// proves the outcome of its `(fault, strategy)` pair at every seed.
    /// It fills the pair's slot, and every later sample of the pair folds
    /// the slot's outcome and registry instead of running. A run whose
    /// reads all decided races proves its outcome for every seed that
    /// decides them alike: the pair's slot holds a [`DecisionMemo`], and a
    /// later sample runs only when its decisions take a path no run has
    /// taken yet. The slots live in this call and are shared by all
    /// workers; whichever fills a slot or a memo node stores the same
    /// value, so the report is the same at any thread count and chunk
    /// size (DESIGN.md §13).
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
        let pairs: Vec<OnceLock<Pair>> =
            (0..corpus.len() * StrategyKind::ALL.len()).map(|_| OnceLock::new()).collect();
        let acc = drive(
            spec.seed,
            spec.samples as usize,
            parallel,
            CampaignAcc::new,
            |acc: &mut CampaignAcc, _, sample_seed| {
                let (fi, strategy, env_seed) = draw(corpus.len(), sample_seed);
                let fault = &corpus[fi];
                let slot = &pairs[fi * StrategyKind::ALL.len() + strategy as usize];
                let proven = match slot.get() {
                    Some(Pair::Blind(proven)) => Some(proven),
                    Some(Pair::Reading(memo)) => memo.lookup(env_seed),
                    None => None,
                };
                let out = match proven {
                    Some((out, metrics)) => {
                        if let Some(metrics) = metrics {
                            acc.registry.merge_from(metrics);
                        }
                        *out
                    }
                    None => {
                        let (out, metrics, reads) =
                            run_prepared(fault, strategy, env_seed, &workloads[fi], instrumented);
                        if let Some(metrics) = &metrics {
                            acc.registry.merge_from(metrics);
                        }
                        let proven = (out, metrics.map(Box::new));
                        // A worker that filled the slot first stored the
                        // same kind of pair.
                        if reads.is_blind() {
                            let _ = slot.set(Pair::Blind(proven));
                        } else if let Pair::Reading(memo) =
                            slot.get_or_init(|| Pair::Reading(Box::default()))
                        {
                            memo.insert(&reads, proven);
                        }
                        out
                    }
                };
                acc.record(fault.slug(), strategy, env_seed, out, instrumented);
            },
            CampaignAcc::merge,
        );
        acc.into_report(spec)
    }

    /// The guarantee anomalies, then the ledger laws: the cells hold
    /// exactly `spec.samples` samples, and no cell survived more samples
    /// than it drew.
    fn violations(&self) -> Vec<String> {
        let mut violations = self.anomalies.clone();
        let total: u64 = self.cells.iter().map(|c| u64::from(c.total)).sum();
        if total != u64::from(self.spec.samples) {
            violations.push(format!("cells hold {total} of {} samples", self.spec.samples));
        }
        for c in self.cells.iter().filter(|c| c.survived > c.total) {
            let (class, strategy) = (c.class.short(), c.strategy.name());
            violations.push(format!("{class}/{strategy}: survived {} of {}", c.survived, c.total));
        }
        violations
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
        // `(survived, total)` of the transient cell under `strategy`.
        let transient = |strategy| {
            let cell = report
                .cells
                .iter()
                .find(|c| c.class == FaultClass::EnvDependentTransient && c.strategy == strategy);
            cell.map_or((0, 0), |c| (c.survived, c.total))
        };
        for strategy in [StrategyKind::Restart, StrategyKind::Progressive] {
            let (survived, n) = transient(strategy);
            assert!(n > 0, "{strategy}: no transient samples drawn");
            let rate = f64::from(survived) / f64::from(n);
            assert!(rate >= 0.8, "{strategy}: transient rate {rate:.2} over {n}");
        }
        assert_eq!(transient(StrategyKind::None).0, 0, "no recovery, no survival");
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
    fn violations_hold_the_ledger_laws() {
        let cell = |survived, total| CampaignCell {
            class: FaultClass::EnvDependentTransient,
            strategy: StrategyKind::Restart,
            survived,
            total,
        };
        let report = |cells, anomalies: &[&str]| CampaignReport {
            spec: CampaignSpec { samples: 5, seed: 1 },
            cells,
            anomalies: anomalies.iter().map(|a| a.to_string()).collect(),
        };
        assert_eq!(report(vec![cell(3, 5)], &[]).violations(), Vec::<String>::new());
        assert_eq!(report(vec![cell(3, 4)], &[]).violations(), ["cells hold 4 of 5 samples"]);
        assert_eq!(
            report(vec![cell(6, 5)], &["an anomaly"]).violations(),
            ["an anomaly", "transient/restart: survived 6 of 5"]
        );
        assert!(run(40, 5).violations().is_empty());
    }

    #[test]
    fn display_summarizes() {
        let text = run(30, 3).to_string();
        assert!(text.contains("30 samples"));
        assert!(text.contains("no anomalies"));
    }
}
