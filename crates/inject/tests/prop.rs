//! Property tests for the injection engine: plans are pure functions of
//! their seed and replays are byte-identical however time is stepped.

use faultstudy_env::Environment;
use faultstudy_inject::{standard_plans, InjectionKind, Injector};
use faultstudy_recovery::EnvHook;
use faultstudy_sim::time::Duration;
use proptest::prelude::*;

proptest! {
    /// Equal seeds give byte-identical plan suites; the generator holds no
    /// global state, so generation order cannot matter.
    #[test]
    fn plan_suites_are_pure_functions_of_the_seed(seed in any::<u64>()) {
        let a = standard_plans(seed);
        standard_plans(seed ^ 0xdead_beef); // interleaved unrelated generation
        let b = standard_plans(seed);
        prop_assert_eq!(a, b);
    }

    /// Every plan's schedule is strictly increasing and every event
    /// carries the class its plan advertises.
    #[test]
    fn schedules_are_ordered_and_classes_coherent(seed in any::<u64>()) {
        for plan in standard_plans(seed) {
            for pair in plan.events.windows(2) {
                prop_assert!(pair[0].at < pair[1].at, "{}: out of order", plan.name);
            }
            for ev in &plan.events {
                prop_assert_eq!(ev.kind.class(), plan.class, "{}", plan.name);
            }
        }
    }

    /// Replaying a plan is independent of how the clock is stepped: any
    /// partition of the same total time applies the same events and leaves
    /// the environment's resource tables in the same state.
    #[test]
    fn replay_is_step_size_independent(
        seed in any::<u64>(),
        plan_idx in 0usize..9,
        steps in prop::collection::vec(1u64..300, 1..12),
    ) {
        let plan = &standard_plans(seed)[plan_idx];
        let total: u64 = steps.iter().sum();

        let run = |chunks: &[u64]| {
            let mut env = Environment::builder().seed(1).fd_limit(16).fs_capacity(64 * 1024).build();
            let mut injector = Injector::new(plan, &mut env);
            for &ms in chunks {
                env.advance(Duration::from_millis(ms));
                injector.pre_attempt(&mut env);
            }
            (injector.applied(), env.fds.in_use(), env.fs.used(), env.fds.is_exhausted())
        };

        prop_assert_eq!(run(&steps), run(&[total]));
    }

    /// The per-event fd grab of a leak ramp never panics and never
    /// overshoots the table, whatever the table size.
    #[test]
    fn fd_ramp_saturates_cleanly(limit in 1u32..64, per_event in 0u32..40, reps in 1u32..6) {
        let mut env = Environment::builder().seed(2).fd_limit(limit).build();
        let owner = env.register_owner();
        for _ in 0..reps {
            InjectionKind::FdLeakRamp { per_event }.apply(&mut env, owner);
        }
        prop_assert!(env.fds.in_use() <= limit);
        prop_assert_eq!(env.fds.in_use(), (per_event * reps).min(limit));
    }
}
