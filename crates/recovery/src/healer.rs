//! The profile-guided self-healer: a meta-strategy that picks its
//! recovery action per attempt from an observed failure profile.
//!
//! Runtime-profile self-healing (Fuad et al.) instruments an application,
//! watches how its failures actually behave, and picks the cheapest
//! repair that historically worked. Here the profile is a
//! [`FailureProfile`] distilled from an instrumented metrics registry —
//! typically a short microreboot probe run of the same fault plan — and
//! the healer's decision rules are a pure function of that snapshot plus
//! the attempt number, so the whole campaign stays deterministic:
//!
//! 1. Empty profile (nothing observed): behave exactly like
//!    [`RestartRetry`] — no evidence, no cleverness.
//! 2. Requests were lost even after full reboot escalation
//!    ([`FailureProfile::lost`] > 0): the defect is environment-
//!    independent and retrying is futile — retry once for the transient
//!    slice, then discard the request obliviously.
//! 3. Reboots were observed and they worked (`reboots > 0`, `lost == 0`):
//!    the failure lives in volatile state — scrub it in place, the
//!    cheapest repair that historically sufficed.
//! 4. Otherwise: plain generic restart-retry within the budget.

use crate::scrub::scrub_or_restart;
use crate::strategy::RecoveryStrategy;
use crate::RestartRetry;
use faultstudy_apps::{Application, Request, Response, Text};
use faultstudy_env::Environment;
use faultstudy_obs::MetricsRegistry;

/// An observed failure signature, distilled from an instrumented run's
/// metrics registry.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FailureProfile {
    /// Requests lost after full microreboot escalation (`micro.lost`) —
    /// the signature of an environment-independent defect.
    pub lost: u64,
    /// Component, subtree, and process reboots observed (`micro.reboot*`).
    pub reboots: u64,
    /// Circuit-breaker trips observed (`supervisor.breaker.trips`).
    pub breaker_trips: u64,
    /// Watchdog fires observed (`supervisor.watchdog`) — hangs.
    pub watchdog_fires: u64,
    /// Median observed time-to-recovery in simulated nanoseconds, if any
    /// recovery was observed (`recovery.ttr`).
    pub ttr_p50: Option<u64>,
}

impl FailureProfile {
    /// The empty profile: nothing observed, the healer stays a plain
    /// restart-retry.
    pub fn empty() -> FailureProfile {
        FailureProfile::default()
    }

    /// Distills a profile from an instrumented registry, summing each
    /// signal over every label so the profile does not depend on which
    /// strategy or component names produced it.
    pub fn from_registry(registry: &MetricsRegistry) -> FailureProfile {
        let sum_prefix = |prefix: &str| -> u64 {
            registry.counters().filter(|(key, _)| key.starts_with(prefix)).map(|(_, v)| v).sum()
        };
        let ttr_p50 = registry
            .histograms()
            .filter(|(key, _)| key.starts_with("recovery.ttr{"))
            .filter_map(|(_, h)| h.p50())
            .min();
        FailureProfile {
            lost: sum_prefix("micro.lost{"),
            reboots: sum_prefix("micro.reboot{")
                + sum_prefix("micro.reboot.subtree{")
                + sum_prefix("micro.reboot.process{"),
            breaker_trips: sum_prefix("supervisor.breaker.trips{"),
            watchdog_fires: sum_prefix("supervisor.watchdog{"),
            ttr_p50,
        }
    }

    /// Whether nothing was observed at all.
    pub(crate) fn is_empty(&self) -> bool {
        *self == FailureProfile::default()
    }
}

/// What the healer decided to do with one failed attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum HealAction {
    Retry,
    Scrub,
    Discard,
}

/// The profile-guided meta-strategy.
///
/// # Example
///
/// ```
/// use faultstudy_recovery::{FailureProfile, ProfileHealer, RecoveryStrategy};
///
/// let s = ProfileHealer::new(3, FailureProfile::empty());
/// assert_eq!(s.name(), "healer");
/// ```
#[derive(Debug)]
pub struct ProfileHealer {
    restart: RestartRetry,
    profile: FailureProfile,
    pending_discard: bool,
}

impl ProfileHealer {
    /// A healer with a retry budget of `retries`, guided by `profile`.
    /// With the empty profile it is byte-for-byte
    /// [`RestartRetry::new(retries)`](RestartRetry::new).
    pub fn new(retries: u32, profile: FailureProfile) -> ProfileHealer {
        ProfileHealer { restart: RestartRetry::new(retries), profile, pending_discard: false }
    }

    /// The decision rules, a pure function of (profile, attempt).
    fn action(&self, attempt: u32) -> HealAction {
        if self.profile.is_empty() {
            return HealAction::Retry;
        }
        if self.profile.lost > 0 {
            // Reboot escalation still lost requests: retrying cannot win.
            // One retry covers the transient slice of the mix, then the
            // request is discarded obliviously.
            return if attempt > 1 { HealAction::Discard } else { HealAction::Retry };
        }
        if self.profile.reboots > 0 {
            // Reboots resolved everything that failed: the fault lives in
            // state that is legitimate to discard — scrub it in place.
            return HealAction::Scrub;
        }
        HealAction::Retry
    }
}

impl RecoveryStrategy for ProfileHealer {
    fn name(&self) -> &'static str {
        "healer"
    }

    fn is_generic(&self) -> bool {
        // The scrub arm uses the application's crash-only partition.
        false
    }

    fn on_start(&mut self, app: &mut dyn Application, env: &mut Environment) {
        self.restart.on_start(app, env);
    }

    fn on_success(&mut self, req: &Request, app: &mut dyn Application, env: &mut Environment) {
        self.restart.on_success(req, app, env);
    }

    fn on_failure(
        &mut self,
        app: &mut dyn Application,
        env: &mut Environment,
        attempt: u32,
    ) -> bool {
        match self.action(attempt) {
            HealAction::Discard => {
                self.pending_discard = true;
                false
            }
            HealAction::Scrub => scrub_or_restart(&self.restart, app, env, attempt),
            HealAction::Retry => self.restart.on_failure(app, env, attempt),
        }
    }

    fn manufacture(
        &mut self,
        req: &Request,
        _app: &mut dyn Application,
        _env: &mut Environment,
    ) -> Option<Response> {
        std::mem::take(&mut self.pending_discard)
            .then(|| Response::Denied(Text::new("discarded by healer: ", &req.body, "")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::supervisor::run_workload;
    use crate::RestartRetry;
    use faultstudy_apps::MiniWeb;

    fn ei_profile() -> FailureProfile {
        FailureProfile { lost: 2, reboots: 3, ..FailureProfile::default() }
    }

    fn leak_profile() -> FailureProfile {
        FailureProfile { reboots: 4, ..FailureProfile::default() }
    }

    #[test]
    fn empty_profile_degenerates_into_restart_retry() {
        let scenario = |strategy: &mut dyn RecoveryStrategy| {
            let mut env = Environment::builder().seed(7).proc_slots(6).build();
            let mut app = MiniWeb::new(&mut env);
            app.inject("apache-ei-01", &mut env).unwrap();
            let workload = vec![
                Request::new("GET /before"),
                app.trigger_request("apache-ei-01").unwrap(),
                Request::new("GET /after"),
            ];
            let run = run_workload(&mut app, &mut env, &workload, strategy);
            (run, env.now())
        };
        let baseline = scenario(&mut RestartRetry::new(3));
        let healer = scenario(&mut ProfileHealer::new(3, FailureProfile::empty()));
        assert_eq!(healer, baseline);
    }

    #[test]
    fn lost_requests_in_the_profile_turn_into_oblivious_discards() {
        let mut env = Environment::builder().seed(7).proc_slots(6).build();
        let mut app = MiniWeb::new(&mut env);
        app.inject("apache-ei-01", &mut env).unwrap();
        let workload = vec![app.trigger_request("apache-ei-01").unwrap()];
        let mut healer = ProfileHealer::new(3, ei_profile());
        let run = run_workload(&mut app, &mut env, &workload, &mut healer);
        assert!(run.survived, "the EI fault is discarded, not retried to death");
        assert_eq!(run.failures, 2, "exactly one exploratory retry");
    }

    #[test]
    fn the_discard_substitute_renders_the_request_body() {
        let mut env = Environment::builder().seed(7).build();
        let mut app = MiniWeb::new(&mut env);
        // A literal body stays borrowed; a `PROBE` trigger's body is owned.
        let probe = app.trigger_request("apache-ei-17").unwrap();
        let cases = [
            (Request::new("GET /a"), "discarded by healer: GET /a"),
            (probe, "discarded by healer: PROBE apache-ei-17"),
        ];
        for (req, discarded) in cases {
            let mut healer = ProfileHealer::new(3, ei_profile());
            assert!(!healer.on_failure(&mut app, &mut env, 2), "the second failure discards");
            let substitute = healer.manufacture(&req, &mut app, &mut env);
            assert_eq!(substitute, Some(Response::Denied(discarded.into())));
        }
    }

    #[test]
    fn reboot_heavy_profile_scrubs_in_place() {
        let mut env = Environment::builder().seed(7).proc_slots(6).build();
        let mut app = MiniWeb::new(&mut env);
        app.arm_defect("apache-edn-01").unwrap();
        let burst = app.trigger_request("apache-edn-01").unwrap();
        let workload: Vec<Request> = (0..6).map(|_| burst.clone()).collect();
        let mut healer = ProfileHealer::new(3, leak_profile());
        let run = run_workload(&mut app, &mut env, &workload, &mut healer);
        assert!(run.survived, "scrubbing drops the leaked units");
        assert_eq!(run.completed, 6);
    }

    #[test]
    fn profile_from_registry_sums_every_label() {
        let mut reg = MetricsRegistry::new();
        reg.incr("micro.lost", "web-worker-pool", 1);
        reg.incr("micro.lost", "web-cache", 2);
        reg.incr("micro.reboot", "web-worker-pool", 3);
        reg.incr("micro.reboot.process", "de-editor-buffer", 1);
        reg.incr("supervisor.watchdog", "microreboot", 2);
        reg.incr("unrelated.counter", "x", 99);
        let p = FailureProfile::from_registry(&reg);
        assert_eq!(p.lost, 3);
        assert_eq!(p.reboots, 4);
        assert_eq!(p.watchdog_fires, 2);
        assert_eq!(p.breaker_trips, 0);
        assert_eq!(p.ttr_p50, None);
        assert!(!p.is_empty());
        assert_eq!(FailureProfile::from_registry(&MetricsRegistry::new()), FailureProfile::empty());
    }
}
