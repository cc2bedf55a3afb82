//! Determinism under concurrency: campaigns, funnels, and dedup must be
//! pure functions of their spec — thread count must be unobservable in
//! every result, down to the serialized byte. `campaign_contract.rs`
//! holds every campaign report to the same thread, chunk and
//! instrumentation invariance.

use faultstudy::core::report::BugReport;
use faultstudy::core::taxonomy::{AppKind, FaultClass, Severity};
use faultstudy::corpus::full_corpus;
use faultstudy::exec::{run_indexed, ParallelSpec};
use faultstudy::harness::campaign::{CampaignCell, CampaignReport, CampaignSpec};
use faultstudy::harness::experiment::{
    run_fault_experiment, run_fault_experiment_instrumented, StrategyKind,
};
use faultstudy::harness::funnel::paper_scale_funnels;
use faultstudy::harness::Campaign;
use faultstudy::mining::dedup::{dedup_indices_keyed, normalize_title};
use faultstudy::obs::MetricsRegistry;
use faultstudy::sim::rng::{split_seed, DetRng, Xoshiro256StarStar};
use proptest::prelude::*;
use std::collections::BTreeMap;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];
const MASTER_SEEDS: [u64; 4] = [1, 7, 42, 2000];

/// The outcome of one campaign sample, before aggregation.
struct Sample {
    class: FaultClass,
    strategy: StrategyKind,
    survived: bool,
    recoveries: u32,
    anomaly: Option<String>,
    /// `Some` only for instrumented samples that recorded anything.
    metrics: Option<MetricsRegistry>,
}

/// The materialized reference engine: the sampled campaign as it was
/// first written. It collects every sample outcome into a vector, then
/// aggregates into a `BTreeMap` — O(samples) memory. It shares no fold
/// and no ledger with `Campaign::run`, only the experiment itself: its
/// draw and its three-counter ledger are copies, so the streaming tests
/// below fail if either side drifts. It runs every sample, reusing no
/// outcome, so it also checks the campaign's reuse of proven outcomes.
fn materialized(spec: CampaignSpec, instrumented: bool) -> (CampaignReport, MetricsRegistry) {
    let corpus = full_corpus();
    let samples: Vec<Sample> = (0..u64::from(spec.samples))
        .map(|index| {
            let mut rng = Xoshiro256StarStar::seed_from(split_seed(spec.seed, index));
            let fault = &corpus[rng.below(corpus.len() as u64) as usize];
            let strategy = StrategyKind::ALL[rng.below(StrategyKind::ALL.len() as u64) as usize];
            let env_seed = rng.next_u64();
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
        })
        .collect();
    let mut cells: BTreeMap<(FaultClass, StrategyKind), (u32, u32)> = BTreeMap::new();
    let mut anomalies = Vec::new();
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
            registry.incr("experiment.total", sample.strategy.name(), 1);
            if sample.survived {
                registry.incr("experiment.survived", sample.strategy.name(), 1);
            }
            if sample.recoveries > 0 {
                let actions = u64::from(sample.recoveries);
                registry.incr("recovery.actions", sample.strategy.name(), actions);
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

/// `CampaignReport` JSON is byte-identical across `--threads 1/2/8` for
/// several master seeds.
#[test]
fn campaign_json_is_byte_identical_across_thread_counts() {
    for seed in MASTER_SEEDS {
        let spec = CampaignSpec { samples: 120, seed };
        let baseline =
            serde_json::to_string(&CampaignReport::run_with(spec, ParallelSpec::SEQUENTIAL))
                .expect("campaign serializes");
        for threads in THREAD_COUNTS {
            let report = CampaignReport::run_with(spec, ParallelSpec::threads(threads));
            let json = serde_json::to_string(&report).expect("campaign serializes");
            assert_eq!(json, baseline, "seed {seed}, {threads} threads");
        }
    }
}

/// The streaming fold is a drop-in replacement for the materialized
/// engine: both the report and the instrumented metrics registry are
/// byte-identical at every thread count.
#[test]
fn streaming_fold_matches_materialized_reference_at_every_thread_count() {
    for seed in MASTER_SEEDS {
        let spec = CampaignSpec { samples: 150, seed };
        let (reference, reference_registry) = materialized(spec, true);
        let reference_json = serde_json::to_string(&reference).expect("campaign serializes");
        for threads in [1, 2, 4, 8] {
            let (streamed, registry) =
                CampaignReport::run(spec, ParallelSpec::threads(threads), true);
            assert_eq!(streamed, reference, "seed {seed}, {threads} threads");
            assert_eq!(registry, reference_registry, "registry: seed {seed}, {threads} threads");
            let json = serde_json::to_string(&streamed).expect("campaign serializes");
            assert_eq!(json, reference_json, "json bytes: seed {seed}, {threads} threads");
        }
    }
}

/// At 3,000 samples most `(fault, strategy)` pairs recur, so about 2,000
/// samples per run fold an outcome their pair's first seed-blind run
/// proved instead of running (the 150-sample specs above repeat ~11
/// pairs). Instrumented and plain runs both match the memo-free
/// reference.
#[test]
fn reused_outcomes_match_materialized_reference() {
    for seed in [7, 2000] {
        let spec = CampaignSpec { samples: 3_000, seed };
        let (reference, reference_registry) = materialized(spec, true);
        for threads in THREAD_COUNTS {
            let parallel = ParallelSpec::threads(threads);
            let (instrumented, registry) = CampaignReport::run(spec, parallel, true);
            assert_eq!(instrumented, reference, "seed {seed}, {threads} threads");
            assert_eq!(registry, reference_registry, "registry: seed {seed}, {threads} threads");
            let (plain, registry) = CampaignReport::run(spec, parallel, false);
            assert_eq!(plain, reference, "plain: seed {seed}, {threads} threads");
            assert!(registry.is_empty(), "plain: seed {seed}, {threads} threads");
        }
    }
}

/// At 20,000 samples each of the 28 race pairs recurs about 20 times, so
/// the campaign takes and reuses its race memos' deeper decision paths
/// (the 3,000-sample specs above draw about 3 samples per race pair), and
/// so does each seed-blind pair, so most samples only add to their pair's
/// count, which the campaign folds once per pair at the end. With chunks
/// of one sample every sample starts a fresh accumulator, which has
/// counted no pair yet, so each reads its pair's slot and every count
/// passes through a chunk merge. Instrumented runs, registry included,
/// and plain runs match the memo-free reference at 1, 2, 4 and 8 threads
/// and at chunk sizes 1, 7, 1000 and auto (0).
#[test]
fn race_decision_paths_match_materialized_reference() {
    for seed in [11, 2000] {
        let spec = CampaignSpec { samples: 20_000, seed };
        let (reference, reference_registry) = materialized(spec, true);
        let reference_json = serde_json::to_string(&reference).expect("campaign serializes");
        for threads in [1, 2, 4, 8] {
            for chunk in [1, 7, 1000, 0] {
                let parallel = ParallelSpec::threads(threads).with_chunk(chunk);
                let what = format!("seed {seed}, {threads} threads, chunk {chunk}");
                let (instrumented, registry) = CampaignReport::run(spec, parallel, true);
                assert_eq!(instrumented, reference, "{what}");
                assert_eq!(registry, reference_registry, "registry: {what}");
                let json = serde_json::to_string(&instrumented).expect("campaign serializes");
                assert_eq!(json, reference_json, "json bytes: {what}");
                let (plain, registry) = CampaignReport::run(spec, parallel, false);
                assert_eq!(plain, reference, "plain: {what}");
                assert!(registry.is_empty(), "plain registry: {what}");
            }
        }
    }
}

/// The work-queue chunk size is as unobservable as the thread count: any
/// chunking of the sample index space folds to the same bytes.
#[test]
fn streaming_fold_is_identical_for_every_chunk_size() {
    let spec = CampaignSpec { samples: 130, seed: 2000 };
    let (reference, reference_registry) = materialized(spec, true);
    for chunk in [1, 2, 7, 16, 64, 130, 1000] {
        for threads in [2, 4] {
            let parallel = ParallelSpec::threads(threads).with_chunk(chunk);
            let (streamed, registry) = CampaignReport::run(spec, parallel, true);
            assert_eq!(streamed, reference, "chunk {chunk}, {threads} threads");
            assert_eq!(registry, reference_registry, "registry: chunk {chunk}, {threads} threads");
        }
    }
}

#[test]
fn campaign_auto_parallelism_matches_sequential() {
    let spec = CampaignSpec { samples: 80, seed: 3 };
    assert_eq!(
        CampaignReport::run_with(spec, ParallelSpec::AUTO),
        CampaignReport::run_with(spec, ParallelSpec::SEQUENTIAL),
    );
}

/// `PipelineOutcome` (via the paper-scale funnels, which exercise keyword,
/// severity, production, and dedup stages) is identical for every thread
/// count.
#[test]
fn funnel_outcomes_are_identical_across_thread_counts() {
    for seed in [5u64, 99] {
        let (baseline, _) = paper_scale_funnels(seed, ParallelSpec::SEQUENTIAL, false);
        for threads in THREAD_COUNTS {
            let (runs, _) = paper_scale_funnels(seed, ParallelSpec::threads(threads), false);
            assert_eq!(runs, baseline, "seed {seed}, {threads} threads");
            let json_a = serde_json::to_string(&runs).expect("funnels serialize");
            let json_b = serde_json::to_string(&baseline).expect("funnels serialize");
            assert_eq!(json_a, json_b, "seed {seed}, {threads} threads");
        }
    }
}

fn report(id: u64, title: String) -> BugReport {
    BugReport::builder(AppKind::Gnome, id).title(title).severity(Severity::Severe).build()
}

proptest! {
    /// Dedup over titles normalized sequentially and over titles
    /// normalized in parallel keeps exactly the same survivors, for
    /// arbitrary titles (including re-post markers and punctuation).
    #[test]
    fn sequential_and_parallel_dedup_keep_the_same_survivors(
        titles in prop::collection::vec("(re |again |fwd )?[a-c!. ]{0,10}", 1..24)
    ) {
        let reports: Vec<BugReport> = titles
            .into_iter()
            .enumerate()
            .map(|(i, t)| report(i as u64, t))
            .collect();
        let key = |i: usize| (reports[i].id, reports[i].duplicate_of);
        let all = || (0..reports.len()).collect();
        let norms = reports.iter().map(|r| normalize_title(&r.title)).collect();
        let sequential = dedup_indices_keyed(key, all(), norms);
        for threads in THREAD_COUNTS {
            let norms = run_indexed(reports.len(), ParallelSpec::threads(threads), |i| {
                normalize_title(&reports[i].title)
            });
            let parallel = dedup_indices_keyed(key, all(), norms);
            prop_assert_eq!(&sequential, &parallel, "threads={}", threads);
        }
    }

    /// `run_indexed` is order-preserving and complete for any job count and
    /// thread count.
    #[test]
    fn run_indexed_is_order_preserving(jobs in 0usize..200, threads in 1usize..12) {
        let out = run_indexed(jobs, ParallelSpec::threads(threads), |i| i);
        prop_assert_eq!(out, (0..jobs).collect::<Vec<_>>());
    }
}
