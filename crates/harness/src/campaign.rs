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
use faultstudy_corpus::{full_corpus, CuratedFault};
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

/// Draws the fault index and the strategy of the sample seeded by
/// `sample_seed` from a corpus of `faults` faults, and returns them with
/// the sample's generator, whose next draw is the sample's environment
/// seed. A sample whose pair is proven seed-blind never makes that draw.
///
/// The materialized reference engine in `tests/parallel_determinism.rs`
/// keeps its own copy of this draw; the streaming-vs-materialized tests
/// there fail if the two ever diverge.
fn draw(faults: usize, sample_seed: u64) -> (usize, StrategyKind, Xoshiro256StarStar) {
    let mut rng = Xoshiro256StarStar::seed_from(sample_seed);
    let fault = rng.below(faults as u64) as usize;
    let strategy = StrategyKind::ALL[rng.below(StrategyKind::ALL.len() as u64) as usize];
    (fault, strategy, rng)
}

/// Whether `out` under `strategy` breaks the deterministic guarantees: an
/// environment-independent fault survived, or an environment-dependent
/// nontransient one survived a generic strategy.
fn violates(out: &LeanOutcome, strategy: StrategyKind) -> bool {
    out.survived
        && (out.class == FaultClass::EnvironmentIndependent
            || (out.class == FaultClass::EnvDependentNonTransient && strategy.is_generic()))
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
///
/// A sample whose pair is proven seed-blind, with an outcome clean of the
/// guarantees, only adds one to its pair's count; every other sample is
/// folded one at a time, in index order. [`CampaignAcc::into_report`]
/// folds each counted pair once, scaled by its count.
struct CampaignAcc {
    /// `(survived, total)` per `(class, strategy)` cell, flat in the order
    /// the `ALL` arrays declare. That order equals the derived `Ord`
    /// order of both enums, so emitting non-empty cells in flat order
    /// reproduces a `BTreeMap` aggregation byte for byte.
    counts: [(u32, u32); CELL_COUNT],
    /// Counted samples per `(fault, strategy)` pair, flat by slot index.
    /// Only a pair whose slot holds a seed-blind outcome that keeps the
    /// guarantees is counted, so once its count is non-zero a later sample
    /// of it skips the slot read too.
    blind: Vec<u32>,
    /// Guarantee violations, in sample-index order.
    anomalies: Vec<String>,
    /// Merged metrics: the samples folded one at a time, and by
    /// `into_report` each counted pair's registry, once per sample.
    registry: MetricsRegistry,
}

impl CampaignAcc {
    fn new(pairs: usize) -> CampaignAcc {
        CampaignAcc {
            counts: [(0, 0); CELL_COUNT],
            blind: vec![0; pairs],
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
        self.tally(strategy, out, 1, instrumented);
        if violates(&out, strategy) {
            self.anomalies.push(format!("{slug} survived {} at seed {env_seed}", strategy.name()));
        }
    }

    /// Adds `n` samples of `strategy` with outcome `out` to their cell; an
    /// instrumented run also ledgers them.
    fn tally(&mut self, strategy: StrategyKind, out: LeanOutcome, n: u32, instrumented: bool) {
        let cell = &mut self.counts[Self::cell(out.class, strategy)];
        cell.1 += n;
        cell.0 += n * u32::from(out.survived);
        if instrumented {
            let n = u64::from(n);
            ledger_experiment(&mut self.registry, strategy, out.survived, out.recoveries, n);
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
        for (a, b) in self.blind.iter_mut().zip(later.blind) {
            *a += b;
        }
        self.anomalies.extend(later.anomalies);
        self.registry.merge_from(&later.registry);
    }

    /// Folds each counted pair once, its count scaled into its cell and
    /// its proven registry merged into the campaign registry once per
    /// sample, then emits the report. Counts add and registries merge
    /// commutatively, so this equals folding each counted sample where it
    /// fell.
    fn into_report(
        mut self,
        spec: CampaignSpec,
        pairs: &[OnceLock<Pair>],
        instrumented: bool,
    ) -> (CampaignReport, MetricsRegistry) {
        for (index, slot) in pairs.iter().enumerate() {
            let n = self.blind[index];
            if n == 0 {
                continue;
            }
            let Some(Pair::Blind((out, metrics))) = slot.get() else {
                unreachable!("only the samples of a seed-blind pair are counted")
            };
            let strategy = StrategyKind::ALL[index % StrategyKind::ALL.len()];
            self.tally(strategy, *out, n, instrumented);
            if let Some(metrics) = metrics {
                for _ in 0..n {
                    self.registry.merge_from(metrics);
                }
            }
        }
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
    /// It fills the pair's slot, and every later sample of the pair reuses
    /// the slot's outcome and registry instead of running. When that
    /// outcome keeps the guarantees, such a sample draws no environment
    /// seed and only adds one to its pair's count in the accumulator,
    /// which folds each pair's count once at the end; a sample whose
    /// outcome breaks them is folded on its own, so its anomaly names its
    /// environment seed in sample-index order. A run whose reads all
    /// decided races proves its outcome for every seed that decides them
    /// alike: the pair's slot holds a [`DecisionMemo`], and a later sample
    /// runs only when its decisions take a path no run has taken yet. The
    /// slots live in this call and are shared by all workers; whichever
    /// fills a slot or a memo node stores the same value, and counts add
    /// and registries merge commutatively, so the report is the same at
    /// any thread count and chunk size (DESIGN.md §13).
    ///
    /// The registry aggregates the supervisor's time-to-recovery and retry
    /// histograms per strategy and per `(class, strategy)` cell.
    fn run(
        spec: CampaignSpec,
        parallel: ParallelSpec,
        instrumented: bool,
    ) -> (CampaignReport, MetricsRegistry) {
        let corpus = full_corpus();
        let pairs: Vec<OnceLock<Pair>> =
            (0..corpus.len() * StrategyKind::ALL.len()).map(|_| OnceLock::new()).collect();
        run_over(spec, parallel, instrumented, &corpus, &pairs)
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

/// [`Campaign::run`] over `corpus`, whose pairs' slots are `pairs`, one
/// per `(fault, strategy)` in flat order. A slot that holds an outcome
/// already is taken as proven.
fn run_over(
    spec: CampaignSpec,
    parallel: ParallelSpec,
    instrumented: bool,
    corpus: &[CuratedFault],
    pairs: &[OnceLock<Pair>],
) -> (CampaignReport, MetricsRegistry) {
    let workloads: Vec<Vec<Request>> = corpus.iter().map(build_workload).collect();
    let acc = drive(
        spec.seed,
        spec.samples as usize,
        parallel,
        || CampaignAcc::new(pairs.len()),
        |acc: &mut CampaignAcc, _, sample_seed| {
            let (fi, strategy, mut rng) = draw(corpus.len(), sample_seed);
            let pair = fi * StrategyKind::ALL.len() + strategy as usize;
            let count = &mut acc.blind[pair];
            if *count > 0 {
                *count += 1;
                return;
            }
            let slot = &pairs[pair];
            let known = slot.get();
            if let Some(Pair::Blind((out, _))) = known {
                if !violates(out, strategy) {
                    *count = 1;
                    return;
                }
            }
            let env_seed = rng.next_u64();
            let fault = &corpus[fi];
            let proven = match known {
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
                    // A worker that filled the slot first stored the same
                    // kind of pair.
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
    acc.into_report(spec, pairs, instrumented)
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

    /// A sample whose pair is proven seed-blind folds one at a time when
    /// the proven outcome breaks the guarantees, and by count otherwise.
    /// Every slot is filled before the run, so no sample runs an
    /// experiment: environment-independent faults "survive", which breaks
    /// the guarantees, and every other fault dies. Each of the breaking
    /// samples must still yield its anomaly line, with its environment
    /// seed, in sample-index order, and the counted ones must add their
    /// cells, ledger and registry as if folded one by one.
    #[test]
    fn a_proven_outcome_that_breaks_the_guarantees_keeps_every_anomaly() {
        let corpus = full_corpus();
        let spec = CampaignSpec { samples: 3_000, seed: 5 };
        let proven = |fault: &CuratedFault, instrumented: bool| {
            let class = fault.class();
            let survived = class == FaultClass::EnvironmentIndependent;
            let out = LeanOutcome { class, survived, failures: 1, recoveries: 2 };
            let mut metrics = MetricsRegistry::new();
            metrics.incr("proven.samples", fault.slug(), 1);
            metrics.record("proven.value", "", u64::MAX / 3);
            (out, instrumented.then(|| Box::new(metrics)))
        };
        let slots = |instrumented: bool| -> Vec<OnceLock<Pair>> {
            let slot = |fault| OnceLock::from(Pair::Blind(proven(fault, instrumented)));
            corpus.iter().flat_map(|fault| StrategyKind::ALL.map(|_| slot(fault))).collect()
        };
        for instrumented in [false, true] {
            // The reference folds every sample one at a time.
            let mut reference = CampaignAcc::new(0);
            for index in 0..u64::from(spec.samples) {
                let sample_seed = faultstudy_sim::rng::split_seed(spec.seed, index);
                let (fi, strategy, mut rng) = draw(corpus.len(), sample_seed);
                let (out, metrics) = proven(&corpus[fi], instrumented);
                if let Some(metrics) = metrics {
                    reference.registry.merge_from(&metrics);
                }
                let (slug, env_seed) = (corpus[fi].slug(), rng.next_u64());
                reference.record(slug, strategy, env_seed, out, instrumented);
            }
            let (reference, reference_registry) = reference.into_report(spec, &[], instrumented);
            assert!(reference.anomalies.len() > 100, "{} anomalies", reference.anomalies.len());
            assert!(reference.anomalies.iter().all(|a| a.contains(" at seed ")));
            for parallel in [
                ParallelSpec::SEQUENTIAL,
                ParallelSpec::threads(2).with_chunk(1),
                ParallelSpec::threads(2).with_chunk(7),
                ParallelSpec::threads(2),
            ] {
                let (report, registry) =
                    run_over(spec, parallel, instrumented, &corpus, &slots(instrumented));
                let what = format!("instrumented {instrumented}, {parallel:?}");
                assert_eq!(report.anomalies, reference.anomalies, "{what}");
                assert_eq!(report, reference, "{what}");
                assert_eq!(registry, reference_registry, "{what}");
            }
        }
    }

    #[test]
    fn display_summarizes() {
        let text = run(30, 3).to_string();
        assert!(text.contains("30 samples"));
        assert!(text.contains("no anomalies"));
    }
}
