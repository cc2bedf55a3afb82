//! The observability layer's own determinism contract: an instrumented
//! run is byte-identical to the plain one, and the merged registry is a
//! pure function of the seed — thread count must be unobservable in both.
//! `campaign_contract.rs` holds every campaign report, and the registry of
//! each of the three instrumented runs, to it as well.

use faultstudy::exec::ParallelSpec;
use faultstudy::harness::funnel::paper_scale_funnels;
use faultstudy::harness::inject::{InjectReport, InjectSpec};
use faultstudy::harness::{Campaign, RecoveryMatrix};

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// The injection campaign's registry, which `faultstudy metrics` prints,
/// is identical at 1, 2, and 8 worker threads, and recording never
/// perturbs the report.
#[test]
fn campaign_registry_is_identical_across_thread_counts() {
    for seed in [5u64, 2000] {
        let spec = InjectSpec { seed };
        let plain = InjectReport::run(spec, ParallelSpec::SEQUENTIAL);
        let (baseline_report, baseline_registry) =
            InjectReport::run_instrumented(spec, ParallelSpec::SEQUENTIAL);
        assert_eq!(baseline_report, plain, "seed {seed}: metrics must not perturb the campaign");
        for threads in THREAD_COUNTS {
            let (report, registry) =
                InjectReport::run_instrumented(spec, ParallelSpec::threads(threads));
            assert_eq!(report, baseline_report, "seed {seed}, {threads} threads");
            assert_eq!(registry, baseline_registry, "seed {seed}, {threads} threads");
        }
    }
}

/// Serialized registries are byte-identical across thread counts — the
/// equality above is not hiding representation differences.
#[test]
fn campaign_registry_json_is_byte_identical_across_thread_counts() {
    let spec = InjectSpec { seed: 11 };
    let (_, baseline) = InjectReport::run_instrumented(spec, ParallelSpec::SEQUENTIAL);
    let baseline_json = serde_json::to_string(&baseline).expect("registry serializes");
    for threads in THREAD_COUNTS {
        let (_, registry) = InjectReport::run_instrumented(spec, ParallelSpec::threads(threads));
        let json = serde_json::to_string(&registry).expect("registry serializes");
        assert_eq!(json, baseline_json, "{threads} threads");
    }
}

/// The instrumented mining funnels reproduce the plain runs and their
/// stage-timing registry is thread-count invariant.
#[test]
fn funnel_registry_is_identical_across_thread_counts() {
    let (plain, _) = paper_scale_funnels(2000, ParallelSpec::SEQUENTIAL, false);
    let (baseline_runs, baseline_registry) =
        paper_scale_funnels(2000, ParallelSpec::SEQUENTIAL, true);
    assert_eq!(baseline_runs, plain, "metrics must not perturb the funnels");
    for threads in THREAD_COUNTS {
        let (runs, registry) = paper_scale_funnels(2000, ParallelSpec::threads(threads), true);
        assert_eq!(runs, baseline_runs, "{threads} threads");
        assert_eq!(registry, baseline_registry, "{threads} threads");
    }
}

/// The instrumented matrix reproduces the plain one and its registry
/// carries a populated TTR histogram for every retry-based strategy.
#[test]
fn instrumented_matrix_reproduces_plain_and_carries_ttr() {
    let plain = RecoveryMatrix::run(2000, ParallelSpec::AUTO);
    let (matrix, registry) = RecoveryMatrix::run_instrumented(2000, ParallelSpec::AUTO);
    assert_eq!(matrix, plain, "metrics must not perturb the matrix");
    for strategy in ["restart", "rollback", "progressive"] {
        let ttr = registry
            .histogram("recovery.ttr", strategy)
            .unwrap_or_else(|| panic!("{strategy} recovered transient faults"));
        assert!(ttr.count() > 0, "{strategy}");
        assert!(ttr.max().unwrap() > 0, "{strategy}: recovery consumed simulated time");
    }
    assert!(registry.histogram("recovery.ttr", "none").is_none(), "baseline never recovers");
}
