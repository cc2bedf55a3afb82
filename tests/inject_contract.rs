//! Integration: the environment-injection campaign confirms the paper's
//! class contract from the environment side (§3, §6), and the hardened
//! supervisor with every policy armed but inert replays the bare loop.
//!
//! The corpus-driven matrix (`recovery_matrix.rs`) tests the thesis
//! through scripted bug reports; here the environment is perturbed
//! directly by scheduled injection plans and the outcomes must still line
//! up with the class of the injected condition.

use faultstudy::apps::spawn_app;
use faultstudy::core::taxonomy::FaultClass;
use faultstudy::corpus::full_corpus;
use faultstudy::env::Environment;
use faultstudy::harness::experiment::{build_workload, StrategyKind};
use faultstudy::harness::{Campaign, InjectReport, InjectSpec, ParallelSpec};
use faultstudy::recovery::{run_workload, run_workload_supervised, SupervisorConfig};
use faultstudy::sim::rng::split_seed;

#[test]
fn the_class_contract_holds_under_direct_environment_injection() {
    let report = InjectReport::run(InjectSpec { seed: 2000 }, ParallelSpec::AUTO);
    assert!(report.anomalies.is_empty(), "{:?}", report.anomalies);

    // 1. The environment-independent control survives nothing — no
    //    strategy, no scrub setting, no injection at all can save a
    //    deterministic application defect.
    for strategy in StrategyKind::ALL {
        for scrub in [false, true] {
            let (survived, total) =
                report.class_survival(FaultClass::EnvironmentIndependent, strategy, scrub);
            assert_eq!((survived, total), (0, 1), "{strategy} scrub={scrub}");
        }
    }

    // 2. Transient injections self-heal, so the retry family survives
    //    some of them without any operator help.
    for strategy in [StrategyKind::Restart, StrategyKind::Rollback, StrategyKind::Progressive] {
        let (survived, total) =
            report.class_survival(FaultClass::EnvDependentTransient, strategy, false);
        assert_eq!(total, 5);
        assert!(survived > 0, "{strategy}: survived no transient injection");
    }
    // The baseline survives nothing at all.
    for class in [
        FaultClass::EnvironmentIndependent,
        FaultClass::EnvDependentNonTransient,
        FaultClass::EnvDependentTransient,
    ] {
        let (survived, _) = report.class_survival(class, StrategyKind::None, false);
        assert_eq!(survived, 0, "no recovery, no survival ({class:?})");
    }

    // 3. Nontransient injections (an external program exhausting
    //    descriptors or disk) defeat every generic strategy — unless the
    //    supervisor's explicit scrub step, the stand-in for an operator
    //    action, clears the condition between retries.
    for strategy in StrategyKind::ALL.into_iter().filter(|s| s.is_generic()) {
        let (survived, total) =
            report.class_survival(FaultClass::EnvDependentNonTransient, strategy, false);
        assert_eq!((survived, total), (0, 3), "{strategy} survived without scrub");
    }
    for strategy in [StrategyKind::Restart, StrategyKind::Rollback, StrategyKind::Progressive] {
        let (survived, total) =
            report.class_survival(FaultClass::EnvDependentNonTransient, strategy, true);
        assert_eq!(total, 3);
        assert!(survived > 0, "{strategy}: scrubbing rescued nothing");
    }

    // 4. The hardening machinery actually ran: hangs were detected by the
    //    watchdog, the breaker degraded the most persistent strategy, and
    //    scrub-enabled units scrubbed.
    assert!(report.watchdog_fires() > 0);
    assert!(report.breaker_trips() > 0);
    assert!(report.scrubs() > 0);
}

/// With every hardening policy armed but unable to change a run — hang
/// detection, zero backoff, a breaker no retry budget can trip, scrubbing
/// off — the supervised loop replays the bare one on every transient
/// corpus fault: the same outcome and the same final simulated clock.
#[test]
fn inert_hardening_reproduces_the_bare_loop() {
    let mut inert = SupervisorConfig::permissive();
    inert.breaker_threshold = u32::MAX;
    let corpus = full_corpus();
    for fault in corpus.iter().filter(|f| f.class() == FaultClass::EnvDependentTransient) {
        let workload = build_workload(fault);
        for strategy in [StrategyKind::Restart, StrategyKind::Rollback, StrategyKind::Progressive] {
            for round in 0..3 {
                let run = |config: Option<&SupervisorConfig>| {
                    let mut env = Environment::builder()
                        .seed(split_seed(2000, round))
                        .fd_limit(16)
                        .proc_slots(8)
                        .fs_capacity(256 * 1024)
                        .max_file_size(64 * 1024)
                        .build();
                    let mut app = spawn_app(fault.app(), &mut env);
                    app.inject(fault.slug(), &mut env).expect("corpus fault injects");
                    let mut strategy = strategy.build();
                    let (app, strategy) = (app.as_mut(), strategy.as_mut());
                    let run = match config {
                        None => run_workload(app, &mut env, &workload, strategy),
                        Some(config) => {
                            run_workload_supervised(
                                app, &mut env, &workload, strategy, config, None,
                            )
                            .run
                        }
                    };
                    (run, env.now())
                };
                let slug = fault.slug();
                assert_eq!(run(Some(&inert)), run(None), "{slug} {strategy} round {round}");
            }
        }
    }
}
