//! Determinism under concurrency: campaigns, funnels, and dedup must be
//! pure functions of their spec — thread count must be unobservable in
//! every result, down to the serialized byte.

use faultstudy::core::report::BugReport;
use faultstudy::core::taxonomy::{AppKind, Severity};
use faultstudy::exec::{run_indexed, ParallelSpec};
use faultstudy::harness::campaign::{CampaignReport, CampaignSpec};
use faultstudy::harness::funnel::paper_scale_funnels_with;
use faultstudy::harness::{InjectReport, InjectSpec, LoadSpec, ObliviousReport};
use faultstudy::mining::dedup::{dedup_reports, dedup_reports_with_norms, normalize_title};
use faultstudy::obs::MetricsRegistry;
use faultstudy::traffic::ArrivalKind;
use proptest::prelude::*;
use std::fmt::{Debug, Display};

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];
const MASTER_SEEDS: [u64; 4] = [1, 7, 42, 2000];

/// The ISSUE acceptance criterion: `CampaignReport` JSON is byte-identical
/// across `--threads 1/2/8` for several master seeds.
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
        let (reference, reference_registry) =
            CampaignReport::run_materialized(spec, ParallelSpec::SEQUENTIAL, true);
        let reference_json = serde_json::to_string(&reference).expect("campaign serializes");
        for threads in [1, 2, 4, 8] {
            let (streamed, registry) =
                CampaignReport::run_instrumented(spec, ParallelSpec::threads(threads));
            assert_eq!(streamed, reference, "seed {seed}, {threads} threads");
            assert_eq!(registry, reference_registry, "registry: seed {seed}, {threads} threads");
            let json = serde_json::to_string(&streamed).expect("campaign serializes");
            assert_eq!(json, reference_json, "json bytes: seed {seed}, {threads} threads");
        }
    }
}

/// The work-queue chunk size is as unobservable as the thread count: any
/// chunking of the sample index space folds to the same bytes.
#[test]
fn streaming_fold_is_identical_for_every_chunk_size() {
    let spec = CampaignSpec { samples: 130, seed: 2000 };
    let (reference, reference_registry) =
        CampaignReport::run_materialized(spec, ParallelSpec::SEQUENTIAL, true);
    for chunk in [1, 2, 7, 16, 64, 130, 1000] {
        for threads in [2, 4] {
            let parallel = ParallelSpec::threads(threads).with_chunk(chunk);
            let (streamed, registry) = CampaignReport::run_instrumented(spec, parallel);
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

/// Runs an instrumented campaign at 2 and 4 threads and at chunk sizes 7
/// and 1, and asserts that the report, its registry and its rendered text
/// each match the 1-thread run.
fn assert_identical_across_threads_and_chunks<R: PartialEq + Debug + Display>(
    run: impl Fn(ParallelSpec) -> (R, MetricsRegistry),
) {
    let (reference, ref_registry) = run(ParallelSpec::threads(1));
    let ref_rendered = reference.to_string();
    let specs = [
        ParallelSpec::threads(2),
        ParallelSpec::threads(4),
        ParallelSpec::threads(2).with_chunk(7),
        ParallelSpec::threads(4).with_chunk(1),
    ];
    for parallel in specs {
        let (report, registry) = run(parallel);
        assert_eq!(report, reference, "report diverged at {parallel:?}");
        assert_eq!(registry, ref_registry, "registry diverged at {parallel:?}");
        assert_eq!(report.to_string(), ref_rendered, "rendered bytes diverged at {parallel:?}");
    }
}

/// The injection and oblivious campaigns are pure functions of their
/// spec: report, merged registry and rendered bytes are identical at any
/// thread count and chunk size.
#[test]
fn inject_and_oblivious_are_byte_identical_across_threads_and_chunks() {
    let inject = InjectSpec { seed: 2000 };
    assert_identical_across_threads_and_chunks(|parallel| {
        InjectReport::run_instrumented(inject, parallel)
    });
    let oblivious = LoadSpec { seed: 2000, requests: 6_000, arrival: ArrivalKind::Poisson };
    assert_identical_across_threads_and_chunks(|parallel| {
        ObliviousReport::run_instrumented(oblivious, parallel)
    });
}

/// `PipelineOutcome` (via the paper-scale funnels, which exercise keyword,
/// severity, production, and dedup stages) is identical for every thread
/// count.
#[test]
fn funnel_outcomes_are_identical_across_thread_counts() {
    for seed in [5u64, 99] {
        let baseline = paper_scale_funnels_with(seed, ParallelSpec::SEQUENTIAL);
        for threads in THREAD_COUNTS {
            let runs = paper_scale_funnels_with(seed, ParallelSpec::threads(threads));
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
    /// Sequential dedup and dedup over parallel pre-normalized titles keep
    /// exactly the same survivor ids, for arbitrary titles (including
    /// re-post markers and punctuation).
    #[test]
    fn sequential_and_parallel_dedup_keep_the_same_survivors(
        titles in prop::collection::vec("(re |again |fwd )?[a-c!. ]{0,10}", 1..24)
    ) {
        let reports: Vec<BugReport> = titles
            .into_iter()
            .enumerate()
            .map(|(i, t)| report(i as u64, t))
            .collect();
        let sequential = dedup_reports(reports.clone());
        for threads in THREAD_COUNTS {
            let norms = run_indexed(reports.len(), ParallelSpec::threads(threads), |i| {
                normalize_title(&reports[i].title)
            });
            let parallel = dedup_reports_with_norms(reports.clone(), norms);
            let seq_ids: Vec<u64> = sequential.iter().map(|r| r.id).collect();
            let par_ids: Vec<u64> = parallel.iter().map(|r| r.id).collect();
            prop_assert_eq!(&seq_ids, &par_ids, "threads={}", threads);
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
