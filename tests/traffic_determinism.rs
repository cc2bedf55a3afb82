//! Determinism of the open-loop traffic campaign: the report, the
//! instrumented metrics registry, and the rendered SLO table must be pure
//! functions of the `LoadSpec` — thread count and chunk size must be
//! unobservable down to the serialized byte, for every arrival curve.
//! `campaign_contract.rs` holds every campaign to the same contract.

use faultstudy::exec::ParallelSpec;
use faultstudy::harness::traffic::TrafficReport;
use faultstudy::harness::{Campaign, LoadSpec};
use faultstudy::traffic::ArrivalKind;

const THREAD_COUNTS: [usize; 3] = [1, 2, 4];

/// Report JSON, registry, and rendered text are byte-identical at 1/2/4
/// threads for every arrival kind.
#[test]
fn traffic_report_is_byte_identical_across_thread_counts() {
    for arrival in ArrivalKind::ALL {
        let spec = LoadSpec { seed: 7, requests: 3_780, arrival };
        let (reference, reference_registry) =
            TrafficReport::run(spec, ParallelSpec::SEQUENTIAL, true);
        let reference_json = serde_json::to_string(&reference).expect("report serializes");
        let reference_text = reference.to_string();
        for threads in THREAD_COUNTS {
            let (report, registry) = TrafficReport::run(spec, ParallelSpec::threads(threads), true);
            let json = serde_json::to_string(&report).expect("report serializes");
            assert_eq!(json, reference_json, "{arrival:?}, {threads} threads");
            assert_eq!(registry, reference_registry, "registry: {arrival:?}, {threads} threads");
            assert_eq!(report.to_string(), reference_text, "text: {arrival:?}, {threads} threads");
        }
    }
}

/// Chunk size is as unobservable as thread count: any chunking of the
/// unit index space folds to the same bytes.
#[test]
fn traffic_report_is_identical_for_every_chunk_size() {
    let spec = LoadSpec { seed: 2000, requests: 2_457, arrival: ArrivalKind::Bursty };
    let (reference, reference_registry) = TrafficReport::run(spec, ParallelSpec::SEQUENTIAL, true);
    for chunk in [1, 2, 7, 63, 189, 1000] {
        for threads in [2, 4] {
            let parallel = ParallelSpec::threads(threads).with_chunk(chunk);
            let (report, registry) = TrafficReport::run(spec, parallel, true);
            assert_eq!(report, reference, "chunk {chunk}, {threads} threads");
            assert_eq!(registry, reference_registry, "registry: chunk {chunk}, {threads} threads");
        }
    }
}

/// The `run_with` wrapper agrees with the plain and instrumented
/// `Campaign::run`, and auto parallelism matches sequential.
#[test]
fn traffic_entry_points_agree() {
    let spec = LoadSpec { seed: 5, requests: 1_890, arrival: ArrivalKind::Poisson };
    let reference = TrafficReport::run_with(spec, ParallelSpec::SEQUENTIAL);
    let (plain, registry) = TrafficReport::run(spec, ParallelSpec::SEQUENTIAL, false);
    assert_eq!(plain, reference);
    assert!(registry.is_empty(), "a plain run records no metrics");
    assert_eq!(TrafficReport::run_with(spec, ParallelSpec::AUTO), reference);
    let (instrumented, _) = TrafficReport::run(spec, ParallelSpec::threads(2), true);
    assert_eq!(instrumented, reference);
}

/// Every offered request is accounted for exactly once in the outcome
/// ledger, for each arrival curve.
#[test]
fn every_request_is_accounted_for() {
    for arrival in ArrivalKind::ALL {
        let spec = LoadSpec { seed: 11, requests: 1_323, arrival };
        let (report, _) = TrafficReport::run(spec, ParallelSpec::AUTO, false);
        let totals = report.totals();
        assert_eq!(totals.offered, spec.requests, "{arrival:?}");
        assert_eq!(totals.answered() + totals.dropped, totals.offered, "{arrival:?}");
        for cell in &report.cells {
            assert_eq!(
                cell.stats.answered() + cell.stats.dropped,
                cell.stats.offered,
                "{arrival:?} {cell:?}"
            );
        }
    }
}
