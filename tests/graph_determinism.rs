//! The graph campaign's determinism and wire-level class contracts,
//! pinned end to end.
//!
//! Determinism first: the campaign is a pure function of its spec —
//! report and every rendered table are byte-identical at any thread count
//! and chunk size
//! (`campaign_contract.rs` holds every campaign to the same contract).
//! Then the two acceptance pins of the distributed fault plane: (1) on sticky
//! (nontransient) channel wedges at the full retry budget, per-channel
//! recovery loses zero requests and strictly beats process supervision
//! on median time-to-recovery; (2) at least one retry policy amplifies
//! downstream load — the db tier serves measurably more requests than
//! the client chains first demanded.

use faultstudy::core::taxonomy::FaultClass;
use faultstudy::exec::ParallelSpec;
use faultstudy::graph::PlaneKind;
use faultstudy::harness::graph::{GraphReport, GRAPH_BUDGETS};
use faultstudy::harness::{Campaign, LoadSpec, RecoveryMatrix};
use faultstudy::traffic::ArrivalKind;

fn contract_spec(seed: u64) -> LoadSpec {
    // 7200 / 72 units = 100 requests per unit, exactly.
    LoadSpec { seed, requests: 7_200, arrival: ArrivalKind::Poisson }
}

fn contract_report() -> GraphReport {
    GraphReport::run(contract_spec(2000), ParallelSpec::AUTO)
}

/// The campaign is a pure function of its spec: report, rendered campaign
/// table, and the matrix's distributed comparison are all byte-identical
/// at any thread count and chunk size.
#[test]
fn campaign_is_byte_identical_across_threads_and_chunks() {
    let spec = contract_spec(5);
    let reference = GraphReport::run(spec, ParallelSpec::threads(1));
    let ref_rendered = reference.to_string();
    let matrix = RecoveryMatrix::run(5, ParallelSpec::AUTO);
    let ref_matrix_table = matrix.render_with_graph(&reference);
    let specs = [
        ParallelSpec::threads(2),
        ParallelSpec::threads(4),
        ParallelSpec::threads(2).with_chunk(7),
        ParallelSpec::threads(4).with_chunk(1),
    ];
    for parallel in specs {
        let report = GraphReport::run(spec, parallel);
        assert_eq!(report, reference, "report diverged at {parallel:?}");
        assert_eq!(report.to_string(), ref_rendered, "rendered bytes diverged at {parallel:?}");
        assert_eq!(
            matrix.render_with_graph(&report),
            ref_matrix_table,
            "matrix table diverged at {parallel:?}"
        );
    }
}

#[test]
fn channel_recovery_beats_process_supervision_on_sticky_wedges() {
    let report = contract_report();
    let full = *GRAPH_BUDGETS.last().unwrap();
    let edn = FaultClass::EnvDependentNonTransient;
    let channel = report.class_graph(edn, PlaneKind::Channel, full);
    let process = report.class_graph(edn, PlaneKind::Process, full);
    assert_eq!(channel.base.dropped, 0, "per-channel recovery must not lose a request");
    assert!(channel.ttr.count() > 0 && process.ttr.count() > 0, "both planes recovered chains");
    let (ch_p50, pr_p50) = (channel.ttr.p50().unwrap(), process.ttr.p50().unwrap());
    assert!(ch_p50 < pr_p50, "channel ttr p50 {ch_p50}ns must strictly beat process {pr_p50}ns");
    // The whole report agrees: the contract checker finds nothing.
    assert_eq!(report.anomalies(), Vec::<String>::new());
}

/// Acceptance pin 2 — retries are not free: at the full budget at least
/// one fault kind re-drives the db tier past what the client chains
/// first demanded, and the measured amplification ratio exceeds one.
#[test]
fn some_retry_policy_amplifies_downstream_load() {
    let report = contract_report();
    let full = *GRAPH_BUDGETS.last().unwrap();
    let amp = report.max_amplification(full);
    assert!(amp > 1.0, "max amplification {amp} must exceed 1");
    // And at zero budget there is nothing to amplify with: every cell's
    // db tier sees exactly the first-demand load.
    assert!((report.max_amplification(0) - 1.0).abs() < f64::EPSILON);
}

/// Defects (environment-independent kinds) defeat both planes: no
/// channel hygiene or node restart recovers a deterministic bug, so both
/// planes drop requests and availability stays below 100%.
#[test]
fn defects_defeat_both_recovery_planes() {
    let report = contract_report();
    let full = *GRAPH_BUDGETS.last().unwrap();
    for plane in PlaneKind::ALL {
        let ei = report.class_stats(FaultClass::EnvironmentIndependent, plane, full);
        assert!(ei.dropped > 0, "{}: defects must drop requests", plane.name());
        assert!(ei.availability() < 1.0, "{}: availability must stay degraded", plane.name());
    }
}
