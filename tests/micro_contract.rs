//! The microreboot contract: what crash-only component recovery must and
//! must not buy over whole-process restart, pinned as a differential
//! suite over the same open-loop traffic.
//!
//! The pins mirror the paper's §2 argument from the other side. Generic
//! recovery must preserve all application state, so state poisoned by the
//! application itself (the checkpointed allocation leak) defeats it
//! forever; a crash-only partition is allowed to discard volatile state
//! and recovers. Conversely, application knowledge buys nothing against
//! environment-independent defects — the bug re-triggers no matter which
//! component reboots — and durable-hard components may never be crashed,
//! so their failures must escalate to exactly the whole-process restart.

use faultstudy::apps::spawn_app;
use faultstudy::core::taxonomy::{AppKind, FaultClass};
use faultstudy::env::Environment;
use faultstudy::exec::ParallelSpec;
use faultstudy::harness::micro::{MicroReport, RecoveryMode};
use faultstudy::harness::{Campaign, LoadSpec};
use faultstudy::recovery::{run_workload, MicroReboot};
use faultstudy::traffic::ArrivalKind;

fn contract_report() -> MicroReport {
    // 6000 / 60 units = 100 requests per unit, exactly.
    let spec = LoadSpec { seed: 2000, requests: 6_000, arrival: ArrivalKind::Poisson };
    MicroReport::run(spec, ParallelSpec::AUTO)
}

/// The headline differential: state poisoned *inside* the checkpoint
/// (MiniWeb's allocation leak) defeats generic restart forever — the
/// restore faithfully brings the poison back — while the crash-only
/// worker pool discards it and loses not a single request.
#[test]
fn checkpointed_state_leak_defeats_restart_and_survives_microreboot() {
    let report = contract_report();
    let restart = report.cell("state-leak", RecoveryMode::Restart, AppKind::Apache).unwrap();
    let micro = report.cell("state-leak", RecoveryMode::Micro, AppKind::Apache).unwrap();
    assert!(restart.stats.dropped > 0, "restart must keep dropping the leak trigger");
    assert_eq!(micro.stats.dropped, 0, "microreboot must not lose a single request");
    assert!(
        micro.stats.availability() > restart.stats.availability(),
        "micro {} !> restart {}",
        micro.stats.availability(),
        restart.stats.availability()
    );
    // The recovery itself is cheap: the worker-pool reboot resolves each
    // leak crash in one component-scoped attempt.
    assert!(micro.stats.recoveries < restart.stats.recoveries);
}

/// For transient environment faults on volatile components, the
/// component-scoped time-to-recovery sits well below the process-restart
/// TTR: a worker-pool reboot charges tens of milliseconds where
/// `on_generic_recovery` charges a full second.
#[test]
fn volatile_transient_ttr_is_strictly_below_process_restart() {
    let report = contract_report();
    let class = FaultClass::EnvDependentTransient;
    let restart = report.class_ttr(class, RecoveryMode::Restart);
    let micro = report.class_ttr(class, RecoveryMode::Micro);
    assert!(restart.count() > 0, "restart must recover transient faults");
    assert!(micro.count() > 0, "microreboot must recover transient faults");
    let (micro_p50, restart_p50) = (micro.p50().unwrap(), restart.p50().unwrap());
    assert!(
        micro_p50 * 3 < restart_p50,
        "median microreboot TTR {micro_p50}ns not well below restart {restart_p50}ns"
    );
    // Fewer recovery stalls over the SLO too, not just a faster median.
    let micro_stats = report.class_stats(class, RecoveryMode::Micro);
    let restart_stats = report.class_stats(class, RecoveryMode::Restart);
    assert!(micro_stats.slo_violations < restart_stats.slo_violations);
    assert_eq!(micro_stats.dropped, 0, "transient faults must not lose requests under micro");
}

/// Environment-independent defects are beyond both modes: the bug lives
/// in the code path, so it re-triggers after any reboot of any scope.
/// Neither mode may bring the drop count to zero.
#[test]
fn ei_control_faults_never_survive_either_mode() {
    let report = contract_report();
    for mode in RecoveryMode::ALL {
        let cell = report.cell("ei-control", mode, AppKind::Apache).unwrap();
        assert!(
            cell.stats.dropped > 0,
            "{}: the EI control trigger must keep dropping requests",
            mode.name()
        );
        let class = report.class_stats(FaultClass::EnvironmentIndependent, mode);
        assert!(class.dropped > 0, "{}: EI drops at class scope too", mode.name());
    }
}

/// A fault routed to a durable-hard component (MiniDe's editor buffer,
/// which owns the session identity) must never be crash-rebooted: the
/// restart tree escalates straight to the whole-process rung, and since
/// that rung is exactly the generic restore-everything restart, the
/// hostname-identity fault stays unrecovered — no scoped reboot is ever
/// attempted.
#[test]
fn durable_hard_faults_escalate_to_full_process_reboot() {
    let mut env = Environment::builder().seed(11).metrics(true).build();
    let mut app = spawn_app(AppKind::Gnome, &mut env);
    app.inject("gnome-edn-01", &mut env).expect("injectable");
    let workload = vec![
        app.benign_request(),
        app.benign_request(),
        app.trigger_request("gnome-edn-01").expect("trigger"),
    ];
    let mut strategy = MicroReboot::new(8, 7);
    let run = run_workload(app.as_mut(), &mut env, &workload, &mut strategy);
    assert!(!run.survived, "the preserved boot identity must keep failing");
    assert_eq!(run.completed, 2, "everything before the trigger was served");
    assert_eq!(run.failures, 9, "initial failure plus the full retry budget");

    let registry = env.metrics.take().expect("metrics were enabled");
    assert!(
        registry.counter("micro.reboot.process", "de-editor-buffer") > 0,
        "durable-hard failures must take the whole-process rung"
    );
    let scoped: u64 = registry
        .counters()
        .filter(|(k, _)| k.starts_with("micro.reboot{") || k.starts_with("micro.reboot.subtree{"))
        .map(|(_, v)| v)
        .sum();
    assert_eq!(scoped, 0, "no component- or subtree-scoped reboot may be attempted");
    assert_eq!(registry.counter("micro.lost", "de-editor-buffer"), 1, "the trigger was lost");
}
