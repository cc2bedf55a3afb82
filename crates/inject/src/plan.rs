//! Injection plans: what to perturb, when, and what the paper's taxonomy
//! says about survivability.
//!
//! A plan is data — a named list of `(simulated time, perturbation)` events
//! plus the companion application defect whose trigger turns the
//! perturbation into a high-impact failure. Plans never execute anything
//! themselves; the [`Injector`](crate::Injector) applies due events as the
//! supervisor drives simulated time forward. Everything is a pure function
//! of the generating seed, so a plan replays byte-identically wherever and
//! however often it runs.

use faultstudy_core::taxonomy::FaultClass;
use faultstudy_env::dns::DnsHealth;
use faultstudy_env::network::LinkQuality;
use faultstudy_env::{Environment, OwnerId};
use faultstudy_sim::rng::{split_seed, DetRng, Xoshiro256StarStar};
use faultstudy_sim::time::{Duration, SimTime};
use std::fmt;

/// One kind of environment perturbation.
///
/// Each variant carries everything its application needs, so applying an
/// event is a pure function of `(event, environment)` — there is no hidden
/// generator state to replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectionKind {
    /// Open `per_event` descriptors as an external program and never close
    /// them: one step of a leak ramp. The paper's "competition between
    /// MySQL and a web server for descriptors" spread over time.
    FdLeakRamp {
        /// Descriptors grabbed by this step.
        per_event: u32,
    },
    /// Exhaust the descriptor table outright.
    FdExhaustion,
    /// Fill the filesystem to capacity with external ballast — an ENOSPC
    /// window that stays open until somebody scrubs.
    DiskFull,
    /// DNS server starts erroring; self-heals after `heal_after`.
    DnsTimeout {
        /// Outage duration.
        heal_after: Duration,
    },
    /// DNS latency spikes past request timeouts; self-heals.
    DnsLatencySpike {
        /// Spike duration.
        heal_after: Duration,
    },
    /// Packet loss/reorder degrades the link to its slow profile;
    /// self-heals.
    PacketLossBurst {
        /// Burst duration.
        heal_after: Duration,
    },
    /// Drain the kernel entropy pool (it refills with time).
    EntropyStarvation,
    /// Perturb scheduler timing: force a new thread-interleave seed.
    SchedulerJitter {
        /// The interleave seed to force.
        seed: u64,
    },
}

impl InjectionKind {
    /// Stable short name (used as a metric label and in reports).
    pub(crate) fn name(self) -> &'static str {
        match self {
            InjectionKind::FdLeakRamp { .. } => "fd-leak-ramp",
            InjectionKind::FdExhaustion => "fd-exhaustion",
            InjectionKind::DiskFull => "disk-full",
            InjectionKind::DnsTimeout { .. } => "dns-timeout",
            InjectionKind::DnsLatencySpike { .. } => "dns-latency",
            InjectionKind::PacketLossBurst { .. } => "packet-loss",
            InjectionKind::EntropyStarvation => "entropy-starvation",
            InjectionKind::SchedulerJitter { .. } => "scheduler-jitter",
        }
    }

    /// The paper class of the condition this perturbation creates:
    /// resource exhaustion that only an operator clears is nontransient;
    /// self-healing or timing conditions are transient.
    pub fn class(self) -> FaultClass {
        match self {
            InjectionKind::FdLeakRamp { .. }
            | InjectionKind::FdExhaustion
            | InjectionKind::DiskFull => FaultClass::EnvDependentNonTransient,
            InjectionKind::DnsTimeout { .. }
            | InjectionKind::DnsLatencySpike { .. }
            | InjectionKind::PacketLossBurst { .. }
            | InjectionKind::EntropyStarvation
            | InjectionKind::SchedulerJitter { .. } => FaultClass::EnvDependentTransient,
        }
    }

    /// Applies the perturbation to `env`, acting as the external program
    /// `owner` where resources are owned.
    pub fn apply(self, env: &mut Environment, owner: OwnerId) {
        let now = env.now();
        match self {
            InjectionKind::FdLeakRamp { per_event } => {
                for _ in 0..per_event {
                    if env.fds.open(owner).is_err() {
                        break;
                    }
                }
            }
            InjectionKind::FdExhaustion => {
                env.fds.exhaust_as(owner);
            }
            InjectionKind::DiskFull => env.fs.fill_with_ballast(),
            InjectionKind::DnsTimeout { heal_after } => {
                env.dns.set_health(DnsHealth::Erroring, now + heal_after);
            }
            InjectionKind::DnsLatencySpike { heal_after } => {
                env.dns.set_health(DnsHealth::Slow, now + heal_after);
            }
            InjectionKind::PacketLossBurst { heal_after } => {
                env.net.set_quality(LinkQuality::Slow, now + heal_after);
            }
            InjectionKind::EntropyStarvation => env.entropy.drain(now),
            InjectionKind::SchedulerJitter { seed } => env.force_interleave_seed(seed),
        }
    }
}

impl fmt::Display for InjectionKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One scheduled perturbation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectionEvent {
    /// Simulated instant at which the event comes due.
    pub at: SimTime,
    /// What happens.
    pub kind: InjectionKind,
}

/// A named, classed injection plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectionPlan {
    /// Stable plan name.
    pub name: String,
    /// The paper class of the injected condition — the control plan is
    /// [`FaultClass::EnvironmentIndependent`] with no events at all.
    pub class: FaultClass,
    /// The application defect (corpus slug) armed alongside the plan. The
    /// perturbation alone is harmless to a robust application; the study's
    /// failures need a code defect meeting an environment condition.
    pub companion_defect: String,
    /// Events in schedule order.
    pub events: Vec<InjectionEvent>,
}

/// Jittered event time for slot `i`: deterministic, strictly increasing in
/// `i`, inside the campaign's pre-trigger window (50–350 ms — every event
/// lands while the workload's leading benign requests are being served at
/// 100 ms apiece, so schedules never race the triggers they set up).
fn slot(rng: &mut Xoshiro256StarStar, i: u64) -> SimTime {
    SimTime::ZERO + Duration::from_millis(50 + 60 * i + rng.below(20))
}

/// How long self-healing perturbations last before their repair deadline.
const HEAL_AFTER: Duration = Duration::from_secs(2);

/// The standard eight-plan suite, a pure function of `seed`.
///
/// Three nontransient plans (fd leak ramp, fd exhaustion, disk full), four
/// transient ones (DNS timeout, DNS latency, packet loss, entropy
/// starvation + scheduler jitter riding together would hide one kind, so
/// jitter gets its own plan), and one environment-independent control with
/// no events. Each plan's event times and seeds come from
/// `split_seed(seed, plan_index)`, so the suite replays byte-identically
/// and plans stay independent of each other.
pub fn standard_plans(seed: u64) -> Vec<InjectionPlan> {
    let mut plans = Vec::with_capacity(8);
    let rng_for = |i: u64| Xoshiro256StarStar::seed_from(split_seed(seed, i));

    let mut rng = rng_for(0);
    plans.push(InjectionPlan {
        name: "fd-leak-ramp".to_owned(),
        class: FaultClass::EnvDependentNonTransient,
        companion_defect: "apache-edn-02".to_owned(),
        events: (0..4)
            .map(|i| InjectionEvent {
                at: slot(&mut rng, i),
                kind: InjectionKind::FdLeakRamp { per_event: 5 },
            })
            .collect(),
    });

    let mut rng = rng_for(1);
    plans.push(InjectionPlan {
        name: "fd-exhaustion".to_owned(),
        class: FaultClass::EnvDependentNonTransient,
        companion_defect: "apache-edn-02".to_owned(),
        events: vec![InjectionEvent { at: slot(&mut rng, 1), kind: InjectionKind::FdExhaustion }],
    });

    let mut rng = rng_for(2);
    plans.push(InjectionPlan {
        name: "disk-full".to_owned(),
        class: FaultClass::EnvDependentNonTransient,
        companion_defect: "apache-edn-05".to_owned(),
        events: vec![InjectionEvent { at: slot(&mut rng, 2), kind: InjectionKind::DiskFull }],
    });

    let mut rng = rng_for(3);
    plans.push(InjectionPlan {
        name: "dns-timeout".to_owned(),
        class: FaultClass::EnvDependentTransient,
        companion_defect: "apache-edt-01".to_owned(),
        events: vec![InjectionEvent {
            at: slot(&mut rng, 3),
            kind: InjectionKind::DnsTimeout { heal_after: HEAL_AFTER },
        }],
    });

    let mut rng = rng_for(4);
    plans.push(InjectionPlan {
        name: "dns-latency".to_owned(),
        class: FaultClass::EnvDependentTransient,
        companion_defect: "apache-edt-05".to_owned(),
        events: vec![InjectionEvent {
            at: slot(&mut rng, 3),
            kind: InjectionKind::DnsLatencySpike { heal_after: HEAL_AFTER },
        }],
    });

    let mut rng = rng_for(5);
    plans.push(InjectionPlan {
        name: "packet-loss".to_owned(),
        class: FaultClass::EnvDependentTransient,
        companion_defect: "apache-edt-06".to_owned(),
        events: vec![InjectionEvent {
            at: slot(&mut rng, 3),
            kind: InjectionKind::PacketLossBurst { heal_after: HEAL_AFTER },
        }],
    });

    let mut rng = rng_for(6);
    plans.push(InjectionPlan {
        name: "entropy-starvation".to_owned(),
        class: FaultClass::EnvDependentTransient,
        companion_defect: "apache-edt-07".to_owned(),
        events: vec![InjectionEvent {
            at: slot(&mut rng, 3),
            kind: InjectionKind::EntropyStarvation,
        }],
    });

    let mut rng = rng_for(7);
    plans.push(InjectionPlan {
        name: "scheduler-jitter".to_owned(),
        class: FaultClass::EnvDependentTransient,
        companion_defect: "apache-edt-03".to_owned(),
        events: (0..3)
            .map(|i| InjectionEvent {
                at: slot(&mut rng, i),
                kind: InjectionKind::SchedulerJitter { seed: rng.next_u64() },
            })
            .collect(),
    });

    // The control: a deterministic application defect and an untouched
    // environment. If anything "survives" this plan, the harness — not the
    // paper — is wrong.
    plans.push(InjectionPlan {
        name: "ei-control".to_owned(),
        class: FaultClass::EnvironmentIndependent,
        companion_defect: "apache-ei-26".to_owned(),
        events: Vec::new(),
    });

    plans
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_suite_shape() {
        let plans = standard_plans(1);
        assert_eq!(plans.len(), 9);
        let nontransient =
            plans.iter().filter(|p| p.class == FaultClass::EnvDependentNonTransient).count();
        let transient =
            plans.iter().filter(|p| p.class == FaultClass::EnvDependentTransient).count();
        let control =
            plans.iter().filter(|p| p.class == FaultClass::EnvironmentIndependent).count();
        assert_eq!((nontransient, transient, control), (3, 5, 1));
        // Names are unique.
        let mut names: Vec<_> = plans.iter().map(|p| p.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), plans.len());
    }

    #[test]
    fn plans_are_a_pure_function_of_the_seed() {
        assert_eq!(standard_plans(9), standard_plans(9));
        assert_ne!(standard_plans(9), standard_plans(10), "seed reaches the schedules");
    }

    #[test]
    fn event_times_fit_the_pre_trigger_window_in_order() {
        for plan in standard_plans(3) {
            let mut prev = SimTime::ZERO;
            for ev in &plan.events {
                assert!(ev.at > prev, "{}: schedule out of order", plan.name);
                assert!(
                    ev.at <= SimTime::ZERO + Duration::from_millis(350),
                    "{}: event past the benign warm-up window",
                    plan.name
                );
                prev = ev.at;
            }
        }
    }

    #[test]
    fn control_plan_has_no_events() {
        let plans = standard_plans(5);
        let control = plans.iter().find(|p| p.name == "ei-control").unwrap();
        assert!(control.events.is_empty());
    }

    #[test]
    fn kind_classes_match_healing_behavior() {
        let mut env = Environment::builder().seed(1).fd_limit(8).build();
        let owner = env.register_owner();
        // A transient kind heals with time alone.
        InjectionKind::DnsTimeout { heal_after: Duration::from_secs(1) }.apply(&mut env, owner);
        assert_eq!(env.dns.health_at(env.now()), DnsHealth::Erroring);
        env.advance(Duration::from_secs(2));
        assert_eq!(env.dns.health_at(env.now()), DnsHealth::Healthy);
        // A nontransient kind does not.
        InjectionKind::FdExhaustion.apply(&mut env, owner);
        env.advance(Duration::from_secs(3600));
        assert!(env.fds.is_exhausted(), "descriptor exhaustion never self-heals");
        env.scrub();
        assert!(!env.fds.is_exhausted(), "only the scrub clears it");
    }

    #[test]
    fn fd_leak_ramp_steps_toward_exhaustion() {
        let mut env = Environment::builder().seed(1).fd_limit(16).build();
        let owner = env.register_owner();
        let ramp = InjectionKind::FdLeakRamp { per_event: 5 };
        for step in 1..=3 {
            ramp.apply(&mut env, owner);
            assert_eq!(env.fds.in_use(), (5 * step).min(16));
        }
        assert!(!env.fds.is_exhausted());
        ramp.apply(&mut env, owner);
        assert!(env.fds.is_exhausted(), "fourth step saturates without panicking");
    }
}
