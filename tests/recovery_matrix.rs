//! Integration: the end-to-end recovery experiment (§5.4/§8) confirms the
//! classification's predictions for every fault class and strategy.

use faultstudy::core::taxonomy::FaultClass;
use faultstudy::corpus::{find, full_corpus};
use faultstudy::harness::experiment::{run_fault_experiment, StrategyKind};
use faultstudy::harness::{Campaign, ParallelSpec, RecoveryMatrix};

fn matrix(seed: u64) -> RecoveryMatrix {
    RecoveryMatrix::run(seed, ParallelSpec::AUTO)
}

#[test]
fn the_papers_thesis_holds_end_to_end() {
    let matrix = matrix(2000);

    // 1. Environment-independent faults survive nothing whatsoever.
    for strategy in StrategyKind::ALL {
        let c = matrix.cell(FaultClass::EnvironmentIndependent, strategy);
        assert_eq!((c.total, c.survived), (113, 0), "{strategy}");
    }

    // 2. No purely generic strategy survives a nontransient fault.
    for strategy in StrategyKind::ALL.into_iter().filter(|s| s.is_generic()) {
        let c = matrix.cell(FaultClass::EnvDependentNonTransient, strategy);
        assert_eq!((c.total, c.survived), (14, 0), "{strategy}");
    }

    // 3. Application-specific recovery reaches the self-inflicted
    //    nontransient conditions: the Apache leak, both own-descriptor
    //    leaks, and the hostname rebinding.
    let cold =
        matrix.slugs_where(FaultClass::EnvDependentNonTransient, StrategyKind::AppSpecific, true);
    assert_eq!(
        cold,
        ["apache-edn-01", "apache-edn-02", "gnome-edn-01", "gnome-edn-02"],
        "app-specific survivors"
    );

    // 4. Transient faults survive retry-based generic recovery.
    for strategy in [StrategyKind::Restart, StrategyKind::Rollback, StrategyKind::Progressive] {
        let c = matrix.cell(FaultClass::EnvDependentTransient, strategy);
        assert_eq!(c.total, 12);
        assert!(c.survived >= 11, "{strategy} survived only {}/12", c.survived);
    }

    // 5. The baseline survives nothing.
    assert_eq!(matrix.overall(StrategyKind::None).survived, 0);

    // 6. Headline: overall generic survival sits in the paper's 5-14%
    //    transient band — generic recovery "will not be sufficient".
    for strategy in [StrategyKind::Restart, StrategyKind::ProcessPair, StrategyKind::Rollback] {
        let pct = matrix.overall(strategy).rate() * 100.0;
        assert!((5.0..=14.0).contains(&pct), "{strategy}: {pct:.1}% outside 5-14%");
    }
}

#[test]
fn thesis_is_robust_across_seeds() {
    // The matrix conclusions must not hinge on one lucky seed.
    for seed in [1, 123, 99_991] {
        let m = matrix(seed);
        assert_eq!(m.cell(FaultClass::EnvironmentIndependent, StrategyKind::Restart).survived, 0);
        assert_eq!(m.cell(FaultClass::EnvDependentNonTransient, StrategyKind::Restart).survived, 0);
        let t = m.cell(FaultClass::EnvDependentTransient, StrategyKind::Restart);
        assert!(t.survived >= 10, "seed {seed}: restart survived {}/12", t.survived);
        let pct = m.overall(StrategyKind::Restart).rate() * 100.0;
        assert!((5.0..=14.0).contains(&pct), "seed {seed}: {pct:.1}%");
    }
}

#[test]
fn every_fault_manifests_under_no_recovery() {
    // The experiment is only meaningful if the injected fault actually
    // fires: under NoRecovery, every one of the 139 workloads must fail.
    for fault in full_corpus() {
        let out = run_fault_experiment(&fault, StrategyKind::None, 4242);
        assert!(!out.survived, "{} did not manifest", fault.slug());
        assert!(out.failures > 0, "{}", fault.slug());
    }
}

#[test]
fn recovery_counts_are_consistent() {
    let fault = find("apache-edt-01").expect("slug exists");
    let out = run_fault_experiment(&fault, StrategyKind::Restart, 2000);
    assert!(out.survived);
    // DNS heals two simulated seconds after injection; 1s restarts reach
    // it on the second recovery.
    assert_eq!(out.recoveries, 2);
    assert_eq!(out.failures, 2);
}

#[test]
fn measured_transient_fraction_sits_among_related_work() {
    // Close the loop with §7: the measured transient percentage from the
    // corpus is consistent with Sullivan & Chillarege's 5-13% band and
    // with the overall cross-study conclusion.
    use faultstudy::corpus::paper_study;
    use faultstudy::report::RelatedWork;
    let d = paper_study().discussion();
    let rw = RelatedWork::paper(d.transient.1);
    assert!(rw.all_agree_faults_are_mostly_nontransient());
    assert!(rw.prior[0].consistent_with(d.transient.1), "within [Sullivan91/92]'s band");
}

#[test]
fn entropy_starvation_needs_exactly_one_restart() {
    let fault = find("apache-edt-07").expect("slug exists");
    let out = run_fault_experiment(&fault, StrategyKind::Restart, 2000);
    assert!(out.survived);
    assert_eq!(out.recoveries, 1, "one second of recovery refills 256 bits");
}
