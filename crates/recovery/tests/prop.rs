//! Property tests for the recovery strategies.

use faultstudy_apps::{spawn_app, Request};
use faultstudy_core::taxonomy::AppKind;
use faultstudy_env::Environment;
use faultstudy_recovery::thread_pair::{run_pair, Op};
use faultstudy_recovery::{
    run_workload, BackoffPolicy, FailureProfile, ManufacturedValue, NoRecovery, Oblivious,
    ProcessPair, ProfileHealer, ProgressiveRetry, RecoveryStrategy, RestartRetry, RollbackRecovery,
};
use faultstudy_sim::time::Duration;
use proptest::prelude::*;

fn app_strategy() -> impl Strategy<Value = AppKind> {
    prop::sample::select(AppKind::ALL.to_vec())
}

fn big_env(seed: u64) -> Environment {
    Environment::builder().seed(seed).fd_limit(64).proc_slots(32).fs_capacity(1 << 22).build()
}

fn strategies(retries: u32) -> Vec<Box<dyn RecoveryStrategy>> {
    vec![
        Box::new(NoRecovery),
        Box::new(RestartRetry::new(retries)),
        Box::new(ProcessPair::new(retries)),
        Box::new(RollbackRecovery::new(2, retries)),
        Box::new(ProgressiveRetry::new(retries)),
    ]
}

proptest! {
    /// On a healthy application, every strategy is a no-op: the workload
    /// completes with zero failures and zero recoveries.
    #[test]
    fn strategies_are_invisible_without_faults(
        kind in app_strategy(),
        n in 1usize..30,
        seed in any::<u64>(),
        retries in 1u32..5
    ) {
        for mut strategy in strategies(retries) {
            let mut env = big_env(seed);
            let mut app = spawn_app(kind, &mut env);
            let workload: Vec<Request> = (0..n).map(|_| app.benign_request()).collect();
            let run = run_workload(app.as_mut(), &mut env, &workload, strategy.as_mut());
            prop_assert!(run.survived, "{}", strategy.name());
            prop_assert_eq!(run.completed, n);
            prop_assert_eq!(run.failures, 0, "{}", strategy.name());
            prop_assert_eq!(run.recoveries, 0, "{}", strategy.name());
        }
    }

    /// Recoveries never exceed failures, and completed never exceeds the
    /// workload, for any fault and strategy.
    #[test]
    fn run_accounting_is_consistent(
        fault_idx in 0usize..139,
        retries in 0u32..4,
        seed in any::<u64>()
    ) {
        let corpus = faultstudy_corpus::full_corpus();
        let fault = &corpus[fault_idx];
        for mut strategy in strategies(retries) {
            let mut env = big_env(seed);
            let mut app = spawn_app(fault.app(), &mut env);
            app.inject(fault.slug(), &mut env).expect("injectable");
            let workload = vec![
                app.benign_request(),
                app.trigger_request(fault.slug()).expect("trigger"),
            ];
            let run = run_workload(app.as_mut(), &mut env, &workload, strategy.as_mut());
            prop_assert!(run.recoveries <= run.failures);
            prop_assert!(run.completed <= run.total);
            prop_assert_eq!(run.survived, run.completed == run.total);
            if !run.survived {
                prop_assert!(run.last_failure.is_some());
            }
        }
    }

    /// An environment-independent fault is never survived, whatever the
    /// retry budget — the taxonomy's core guarantee.
    #[test]
    fn deterministic_faults_resist_any_budget(
        retries in 0u32..8,
        seed in any::<u64>()
    ) {
        let fault = faultstudy_corpus::find("apache-ei-26").expect("exists");
        for mut strategy in strategies(retries) {
            let mut env = big_env(seed);
            let mut app = spawn_app(fault.app(), &mut env);
            app.inject(fault.slug(), &mut env).expect("injectable");
            let workload = vec![app.trigger_request(fault.slug()).expect("trigger")];
            let run = run_workload(app.as_mut(), &mut env, &workload, strategy.as_mut());
            prop_assert!(!run.survived, "{} with {retries} retries", strategy.name());
        }
    }

    /// Over the whole fault corpus, the healer with an empty profile
    /// degenerates byte-for-byte into plain restart-retry (same run
    /// accounting and same simulated clock), and the oblivious pair never
    /// retries: both answer every request of the workload without a
    /// single recovery.
    #[test]
    fn disabled_oblivious_family_degenerates_into_restart_retry(
        fault_idx in 0usize..139,
        retries in 0u32..4,
        seed in any::<u64>()
    ) {
        let corpus = faultstudy_corpus::full_corpus();
        let fault = &corpus[fault_idx];
        let scenario = |strategy: &mut dyn RecoveryStrategy| {
            let mut env = big_env(seed);
            let mut app = spawn_app(fault.app(), &mut env);
            app.inject(fault.slug(), &mut env).expect("injectable");
            let workload = vec![
                app.benign_request(),
                app.trigger_request(fault.slug()).expect("trigger"),
                app.benign_request(),
            ];
            let run = run_workload(app.as_mut(), &mut env, &workload, strategy);
            (run, env.now())
        };
        let baseline = scenario(&mut RestartRetry::new(retries));
        let healer = scenario(&mut ProfileHealer::new(retries, FailureProfile::empty()));
        prop_assert_eq!(&healer, &baseline, "healer diverged from restart-retry");
        let oblivious_pair: Vec<Box<dyn RecoveryStrategy>> =
            vec![Box::new(Oblivious::default()), Box::new(ManufacturedValue::default())];
        for mut strategy in oblivious_pair {
            let (run, _) = scenario(strategy.as_mut());
            prop_assert!(run.survived, "{} lost a request", strategy.name());
            prop_assert_eq!(run.recoveries, 0, "{} recovered", strategy.name());
        }
    }

    /// The thread-based process pair computes the same sum as a sequential
    /// fold for arbitrary fault-free op lists, and survives exactly one
    /// transient fault anywhere in the list.
    #[test]
    fn thread_pair_matches_sequential_sum(
        values in prop::collection::vec(0u64..1000, 0..20),
        fault_at in prop::option::of(0usize..20)
    ) {
        let mut ops: Vec<Op> = values.iter().map(|v| Op::Add(*v)).collect();
        let expected: u64 = values.iter().sum();
        let mut expect_failover = false;
        if let Some(pos) = fault_at {
            if pos <= ops.len() {
                ops.insert(pos, Op::TransientFault(7));
                expect_failover = true;
            }
        }
        let outcome = run_pair(&ops);
        let expected_total = expected + if expect_failover { 7 } else { 0 };
        prop_assert_eq!(outcome.result, Some(expected_total));
        prop_assert_eq!(outcome.failed_over, expect_failover);
    }

    /// A poison op defeats the pair no matter where it sits.
    #[test]
    fn thread_pair_never_survives_poison(
        values in prop::collection::vec(0u64..100, 0..10),
        pos in 0usize..11
    ) {
        let mut ops: Vec<Op> = values.iter().map(|v| Op::Add(*v)).collect();
        let pos = pos.min(ops.len());
        ops.insert(pos, Op::PoisonFault);
        let outcome = run_pair(&ops);
        prop_assert_eq!(outcome.result, None);
    }

    /// The backoff schedule is monotone non-decreasing in the attempt
    /// number and never exceeds its cap, for any base/cap/seed.
    #[test]
    fn backoff_is_monotone_and_bounded_by_cap(
        base_ms in 0u64..5_000,
        cap_ms in 0u64..600_000,
        seed in any::<u64>()
    ) {
        let p = BackoffPolicy::new(
            Duration::from_millis(base_ms),
            Duration::from_millis(cap_ms),
            seed,
        );
        let mut prev = Duration::ZERO;
        for attempt in 1..=80u32 {
            let d = p.delay(attempt);
            prop_assert!(d >= prev, "attempt {attempt}: {d} < {prev}");
            prop_assert!(d <= Duration::from_millis(cap_ms), "attempt {attempt} over cap");
            prev = d;
        }
    }

    /// Equal seeds give byte-identical schedules; the delay is a pure
    /// function of `(policy, attempt)` with no hidden state, so the
    /// schedule cannot depend on which thread or in what order attempts
    /// are evaluated.
    #[test]
    fn backoff_is_deterministic_and_order_independent(
        base_ms in 1u64..5_000,
        cap_ms in 1u64..600_000,
        seed in any::<u64>(),
        order in prop::collection::vec(1u32..40, 1..20)
    ) {
        let make = || BackoffPolicy::new(
            Duration::from_millis(base_ms),
            Duration::from_millis(cap_ms),
            seed,
        );
        let (a, b) = (make(), make());
        let forward: Vec<Duration> = (1..=40).map(|n| a.delay(n)).collect();
        // Query b in an arbitrary (possibly repeating) order first.
        for &n in &order {
            b.delay(n);
        }
        for attempt in 1..=40u32 {
            prop_assert_eq!(b.delay(attempt), forward[attempt as usize - 1]);
        }
    }
}
