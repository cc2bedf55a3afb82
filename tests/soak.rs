//! Soak tests: long mixed workloads with mid-stream fault injection, the
//! closest the suite comes to the paper's production setting.

use faultstudy::apps::spawn_app;
use faultstudy::core::taxonomy::{AppKind, FaultClass};
use faultstudy::env::Environment;
use faultstudy::exec::ParallelSpec;
use faultstudy::harness::campaign::{CampaignReport, CampaignSpec};
use faultstudy::harness::experiment::StrategyKind;
use faultstudy::harness::workload::WorkloadGen;
use faultstudy::harness::Campaign;
use faultstudy::recovery::{run_workload, ProgressiveRetry, RestartRetry};

fn big_env(seed: u64) -> Environment {
    Environment::builder()
        .seed(seed)
        .fd_limit(128)
        .proc_slots(64)
        .fs_capacity(1 << 24)
        .max_file_size(1 << 22)
        .build()
}

#[test]
fn thousand_request_soak_without_faults_is_clean() {
    for app_kind in AppKind::ALL {
        let mut env = big_env(1);
        let mut app = spawn_app(app_kind, &mut env);
        let workload = WorkloadGen::new(app_kind, 2).take_requests(1000);
        let mut strategy = RestartRetry::new(1);
        let run = run_workload(app.as_mut(), &mut env, &workload, &mut strategy);
        assert!(run.survived, "{app_kind}: {:?}", run.last_failure);
        assert_eq!(run.completed, 1000, "{app_kind}");
        assert_eq!(run.failures, 0, "{app_kind}");
        assert_eq!(run.recoveries, 0, "{app_kind}");
    }
}

#[test]
fn transient_fault_mid_soak_recovers_and_load_continues() {
    // 200 requests, the process-table fault's trigger in the middle.
    let mut env = big_env(3);
    let mut app = spawn_app(AppKind::Apache, &mut env);
    app.inject("apache-edt-02", &mut env).expect("injectable");
    let mut workload = WorkloadGen::new(AppKind::Apache, 4).take_requests(100);
    workload.push(app.trigger_request("apache-edt-02").expect("trigger"));
    workload.extend(WorkloadGen::new(AppKind::Apache, 5).take_requests(100));
    let mut strategy = ProgressiveRetry::new(5);
    let run = run_workload(app.as_mut(), &mut env, &workload, &mut strategy);
    assert!(run.survived, "{:?}", run.last_failure);
    assert_eq!(run.completed, 201);
    assert!(run.failures >= 1, "the injected fault must manifest");
}

#[test]
fn deterministic_fault_mid_soak_halts_progress_at_the_trigger() {
    let mut env = big_env(3);
    let mut app = spawn_app(AppKind::Mysql, &mut env);
    app.inject("mysql-ei-04", &mut env).expect("injectable");
    let mut workload = WorkloadGen::new(AppKind::Mysql, 6).take_requests(50);
    workload.push(app.trigger_request("mysql-ei-04").expect("trigger"));
    workload.extend(WorkloadGen::new(AppKind::Mysql, 7).take_requests(50));
    let mut strategy = RestartRetry::new(3);
    let run = run_workload(app.as_mut(), &mut env, &workload, &mut strategy);
    assert!(!run.survived);
    assert_eq!(run.completed, 50, "everything before the trigger was served");
    assert_eq!(run.failures, 4, "initial failure plus three futile retries");
}

#[test]
fn soak_outcomes_are_reproducible() {
    let run_once = || {
        let mut env = big_env(9);
        let mut app = spawn_app(AppKind::Gnome, &mut env);
        app.inject("gnome-edt-02", &mut env).expect("injectable");
        let mut workload = WorkloadGen::new(AppKind::Gnome, 10).take_requests(60);
        workload.push(app.trigger_request("gnome-edt-02").expect("trigger"));
        let mut strategy = ProgressiveRetry::new(5);
        run_workload(app.as_mut(), &mut env, &workload, &mut strategy)
    };
    assert_eq!(run_once(), run_once());
}

/// The streaming campaign fold at stress scale: a million samples in
/// release mode (scaled down under debug assertions so `cargo test` stays
/// fast), with the constant-memory contract asserted structurally — the
/// entire campaign aggregate is the survival-cell cross product plus the
/// anomaly list, so its size must not grow with the sample count.
#[test]
fn million_sample_streaming_campaign_holds_constant_state() {
    const SAMPLES: u32 = if cfg!(debug_assertions) { 50_000 } else { 1_000_000 };
    let spec = |samples| CampaignSpec { samples, seed: 2000 };
    let (small, _) = CampaignReport::run(spec(SAMPLES / 10), ParallelSpec::AUTO, false);
    let (big, _) = CampaignReport::run(spec(SAMPLES), ParallelSpec::AUTO, false);

    // 10x the samples, identical aggregate shape: the fold's state is the
    // (class, strategy) cross product, not the sample stream.
    let cell_bound = FaultClass::ALL.len() * StrategyKind::ALL.len();
    assert!(big.cells.len() <= cell_bound, "{} cells exceed the cross product", big.cells.len());
    assert_eq!(big.cells.len(), small.cells.len(), "cell count must not scale with samples");
    assert!(big.anomalies.is_empty(), "contract violations at scale: {:?}", big.anomalies);

    // Every sample landed in exactly one cell.
    let total: u64 = big.cells.iter().map(|c| u64::from(c.total)).sum();
    assert_eq!(total, u64::from(SAMPLES));
    // And the paper's thesis holds at stress scale: generic recovery never
    // rescues an environment-independent fault.
    for cell in &big.cells {
        if cell.class == FaultClass::EnvironmentIndependent && cell.strategy.is_generic() {
            assert_eq!(cell.survived, 0, "{:?}/{:?} survived EI faults", cell.class, cell.strategy);
        }
    }
}

/// The microreboot campaign at stress scale: a million requests in
/// release mode (scaled down under debug assertions), asserting the
/// constant-state contract — the campaign aggregate is the
/// (plan, mode, app) cross product plus one bounded histogram per cell,
/// so its shape must not grow with the request count, no matter how many
/// component reboots the stream provokes.
#[test]
fn million_request_microreboot_campaign_holds_constant_state() {
    use faultstudy::harness::micro::{MicroReport, RecoveryMode};
    use faultstudy::harness::LoadSpec;
    use faultstudy::traffic::ArrivalKind;

    const REQUESTS: u64 = if cfg!(debug_assertions) { 60_000 } else { 1_000_000 };
    let spec = |requests| LoadSpec { seed: 2000, requests, arrival: ArrivalKind::Poisson };
    let (small, _) = MicroReport::run(spec(REQUESTS / 10), ParallelSpec::AUTO, false);
    let (big, _) = MicroReport::run(spec(REQUESTS), ParallelSpec::AUTO, false);

    // 10x the requests, identical aggregate shape.
    assert_eq!(big.cells.len(), small.cells.len(), "cell count must not scale with load");
    assert_eq!(big.totals().offered, REQUESTS, "every offered request is accounted");

    // The microreboot contract holds at stress scale: the checkpointed
    // leak still defeats restart and still costs microreboot nothing,
    // and component-scoped recovery keeps its transient-TTR edge.
    let restart = big.cell("state-leak", RecoveryMode::Restart, AppKind::Apache).unwrap();
    let micro = big.cell("state-leak", RecoveryMode::Micro, AppKind::Apache).unwrap();
    assert!(restart.stats.dropped > 0, "the leak must keep defeating generic restart");
    assert_eq!(micro.stats.dropped, 0, "microreboot must absorb every leak crash");
    let class = FaultClass::EnvDependentTransient;
    let micro_ttr = big.class_ttr(class, RecoveryMode::Micro).p50().expect("recoveries");
    let restart_ttr = big.class_ttr(class, RecoveryMode::Restart).p50().expect("recoveries");
    assert!(
        micro_ttr < restart_ttr,
        "median transient TTR: micro {micro_ttr}ns !< restart {restart_ttr}ns"
    );
}

#[test]
fn injected_but_untriggered_fault_is_latent() {
    // A defect that never meets its trigger does not perturb the workload:
    // the paper's faults sat in released software until the workload found
    // them.
    let mut env = big_env(12);
    let mut app = spawn_app(AppKind::Apache, &mut env);
    app.inject("apache-ei-01", &mut env).expect("injectable");
    let workload = WorkloadGen::new(AppKind::Apache, 13).take_requests(300);
    let mut strategy = RestartRetry::new(0);
    let run = run_workload(app.as_mut(), &mut env, &workload, &mut strategy);
    assert!(run.survived, "{:?}", run.last_failure);
    assert_eq!(run.failures, 0, "the long-URL bug is latent under normal load");
}
