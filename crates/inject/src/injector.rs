//! The injector: replays an [`InjectionPlan`] against the environment as
//! simulated time reaches each event.

use crate::plan::{InjectionEvent, InjectionPlan};
use faultstudy_env::{Environment, OwnerId};
use faultstudy_recovery::EnvHook;

/// Applies a plan's events on schedule.
///
/// The injector registers itself as a resource owner in the environment
/// (it *is* an external program competing for resources) and implements
/// [`EnvHook`], so the hardened supervisor consults it before every
/// attempt. Events strictly in the past or due now are applied exactly
/// once, in schedule order; nothing is ever re-applied, so a scrub between
/// retries genuinely clears what an already-fired event created.
///
/// # Example
///
/// ```
/// use faultstudy_inject::{standard_plans, Injector};
/// use faultstudy_env::Environment;
/// use faultstudy_recovery::EnvHook;
/// use faultstudy_sim::time::Duration;
///
/// let plan = &standard_plans(7)[1]; // fd-exhaustion
/// let mut env = Environment::builder().seed(1).fd_limit(8).build();
/// let mut injector = Injector::new(plan, &mut env);
/// injector.pre_attempt(&mut env); // nothing due at t=0
/// assert!(!env.fds.is_exhausted());
/// env.advance(Duration::from_secs(1));
/// injector.pre_attempt(&mut env);
/// assert!(env.fds.is_exhausted());
/// ```
#[derive(Debug)]
pub struct Injector {
    owner: OwnerId,
    events: Vec<InjectionEvent>,
    cursor: usize,
}

impl Injector {
    /// Prepares to replay `plan`, registering the injector as an external
    /// resource owner in `env`.
    pub fn new(plan: &InjectionPlan, env: &mut Environment) -> Injector {
        let owner = env.register_owner();
        Injector { owner, events: plan.events.clone(), cursor: 0 }
    }

    /// Events applied so far.
    pub fn applied(&self) -> usize {
        self.cursor
    }
}

impl EnvHook for Injector {
    fn pre_attempt(&mut self, env: &mut Environment) {
        let now = env.now();
        while let Some(event) = self.events.get(self.cursor) {
            if event.at > now {
                break;
            }
            event.kind.apply(env, self.owner);
            env.metrics.incr("inject.applied", event.kind.name(), 1);
            self.cursor += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::standard_plans;
    use faultstudy_sim::time::Duration;

    fn env() -> Environment {
        Environment::builder().seed(3).fd_limit(16).fs_capacity(64 * 1024).build()
    }

    fn plan_named(name: &str) -> InjectionPlan {
        standard_plans(7).into_iter().find(|p| p.name == name).unwrap()
    }

    #[test]
    fn events_apply_once_in_order_as_time_passes() {
        let plan = plan_named("fd-leak-ramp");
        let mut env = env();
        let mut injector = Injector::new(&plan, &mut env);
        assert_eq!(plan.events.len(), 4);
        assert_eq!(injector.applied(), 0);
        // Walk time forward in 100ms steps, polling like the supervisor.
        let mut in_use_prev = 0;
        for _ in 0..10 {
            env.advance(Duration::from_millis(100));
            injector.pre_attempt(&mut env);
            assert!(env.fds.in_use() >= in_use_prev, "ramp only grows");
            in_use_prev = env.fds.in_use();
        }
        assert_eq!(injector.applied(), 4);
        assert!(env.fds.is_exhausted(), "4 events x 5 fds saturate the 16-slot table");
        // Idempotent once drained: more polls change nothing.
        injector.pre_attempt(&mut env);
        assert_eq!(injector.applied(), 4);
    }

    #[test]
    fn applied_events_are_not_reapplied_after_a_scrub() {
        let plan = plan_named("disk-full");
        let mut env = env();
        let mut injector = Injector::new(&plan, &mut env);
        env.advance(Duration::from_secs(1));
        injector.pre_attempt(&mut env);
        assert!(env.fs.is_full());
        env.scrub();
        injector.pre_attempt(&mut env);
        assert!(!env.fs.is_full(), "the fired event stays fired; the scrub sticks");
    }

    #[test]
    fn injection_replays_identically_for_equal_seeds() {
        let run = || {
            let plan = plan_named("fd-leak-ramp");
            let mut env = env();
            let mut injector = Injector::new(&plan, &mut env);
            for _ in 0..8 {
                env.advance(Duration::from_millis(70));
                injector.pre_attempt(&mut env);
            }
            (env.fds.in_use(), injector.applied(), env.now())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn instrumented_injection_counts_applied_events() {
        let plan = plan_named("fd-leak-ramp");
        let mut env = Environment::builder().seed(3).fd_limit(16).metrics(true).build();
        let mut injector = Injector::new(&plan, &mut env);
        env.advance(Duration::from_secs(1));
        injector.pre_attempt(&mut env);
        let reg = env.metrics.take().unwrap();
        assert_eq!(reg.counter("inject.applied", "fd-leak-ramp"), 4);
    }
}
