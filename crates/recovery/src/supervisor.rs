//! The supervisor: drives a workload against an application under a
//! recovery strategy and reports whether the work survived.
//!
//! Two entry points share one loop:
//!
//! - [`run_workload`] — the paper's bare survival experiment: retry until
//!   the strategy gives up, no supervisor policy of its own.
//! - [`run_workload_supervised`] — the hardened harness around the same
//!   loop: a watchdog deadline that detects hung attempts in simulated
//!   time, bounded exponential backoff between retries, a circuit breaker
//!   that trips to graceful degradation instead of burning the whole retry
//!   budget, and an explicit, policy-gated environment-scrubbing step —
//!   the only way non-transient conditions may be cleared. An optional
//!   [`EnvHook`] runs before every attempt, which is how a fault-injection
//!   plan perturbs the environment on its own schedule.
//!
//! With the [`SupervisorConfig::permissive`] configuration the hardened
//! loop degenerates byte-for-byte into the bare one: every policy is
//! disabled and the simulation is untouched.

use crate::backoff::BackoffPolicy;
use crate::breaker::CircuitBreaker;
use crate::strategy::RecoveryStrategy;
use faultstudy_apps::{AppFailure, Application, Request};
use faultstudy_env::Environment;
use faultstudy_obs::Span;
use faultstudy_sim::time::Duration;

/// Outcome of supervising one workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkloadRun {
    /// Requests that were eventually served.
    pub completed: usize,
    /// Requests in the workload.
    pub total: usize,
    /// Fault manifestations observed (first failures and failed retries).
    pub failures: u32,
    /// Recovery actions the strategy performed.
    pub recoveries: u32,
    /// Whether the whole workload was eventually served. This is the
    /// paper's survival criterion: every requested task must execute — "we
    /// do not assume a user will generously avoid the fault trigger" (§7).
    pub survived: bool,
    /// Reason of the final failure when not survived; always `None` on a
    /// surviving run, even if transient failures were recovered along the
    /// way.
    pub last_failure: Option<String>,
}

/// An environment perturbation source consulted before every attempt.
///
/// The supervisor owns *when* the hook runs; the hook owns *what* changes.
/// A fault-injection plan implements this to apply its scheduled events as
/// simulated time reaches them, without the supervisor knowing anything
/// about injection.
pub trait EnvHook {
    /// Called immediately before each request attempt, after the attempt's
    /// service time has been charged to the clock.
    fn pre_attempt(&mut self, env: &mut Environment);
}

/// Policy knobs of the hardened supervisor.
///
/// Every knob has a neutral setting under which the hardened loop is
/// byte-identical to [`run_workload`]; [`SupervisorConfig::permissive`]
/// selects all of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisorConfig {
    /// Hang-detection deadline. A hung attempt costs this much simulated
    /// time before the watchdog declares it failed and counts the fire;
    /// `None` detects hangs for free (the bare loop's behavior).
    pub watchdog: Option<Duration>,
    /// Delay schedule between retries.
    pub backoff: BackoffPolicy,
    /// Circuit-breaker threshold in consecutive recovered failures;
    /// 0 disables the breaker.
    pub breaker_threshold: u32,
    /// Scrub the environment after every Nth consecutive failed attempt of
    /// a request; 0 never scrubs. Scrubbing is the *only* way the
    /// supervisor clears non-transient conditions, which is why it is a
    /// config gate and not a default (§6: such repairs are operator
    /// actions, outside any generic mechanism).
    pub scrub_every: u32,
    /// Simulated service time charged before every attempt. The bare loop
    /// charges nothing; an injection campaign needs requests to consume
    /// time so scheduled events can come due between them.
    pub request_takes: Duration,
}

impl SupervisorConfig {
    /// The configuration under which [`run_workload_supervised`] reproduces
    /// [`run_workload`] exactly: no watchdog cost, no backoff, breaker
    /// disabled, never scrubs, requests are instantaneous.
    pub fn permissive() -> SupervisorConfig {
        SupervisorConfig {
            watchdog: None,
            backoff: BackoffPolicy::none(),
            breaker_threshold: 0,
            scrub_every: 0,
            request_takes: Duration::ZERO,
        }
    }
}

/// Outcome of one hardened supervision: the plain [`WorkloadRun`] plus the
/// supervisor's own event counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SupervisedRun {
    /// The underlying workload outcome.
    pub run: WorkloadRun,
    /// Hung attempts detected by the watchdog deadline.
    pub watchdog_fires: u32,
    /// Circuit-breaker trips (at most one per run: a trip degrades).
    pub breaker_trips: u32,
    /// Environment scrubs performed between retries.
    pub scrubs: u32,
    /// Requests shed unattempted after the breaker degraded the run.
    pub shed: usize,
    /// Total simulated time spent in backoff delays.
    pub backoff_total: Duration,
}

/// Runs `workload` against `app` under `strategy` with the bare,
/// policy-free loop.
///
/// Each request is attempted until it succeeds or the strategy gives up.
/// Retries clear the request's one-shot [`Request::timing_event`]: the
/// event came from the environment's timing, and recovery replays the
/// request, not the environment.
///
/// # Example
///
/// ```
/// use faultstudy_apps::{Application, MiniWeb, Request};
/// use faultstudy_env::Environment;
/// use faultstudy_recovery::{run_workload, RestartRetry};
///
/// let mut env = Environment::builder().seed(1).build();
/// let mut app = MiniWeb::new(&mut env);
/// let workload = vec![Request::new("GET /a"), Request::new("GET /b")];
/// let mut strategy = RestartRetry::new(3);
/// let run = run_workload(&mut app, &mut env, &workload, &mut strategy);
/// assert!(run.survived);
/// assert_eq!(run.completed, 2);
/// ```
pub fn run_workload(
    app: &mut dyn Application,
    env: &mut Environment,
    workload: &[Request],
    strategy: &mut dyn RecoveryStrategy,
) -> WorkloadRun {
    run_workload_supervised(app, env, workload, strategy, &SupervisorConfig::permissive(), None).run
}

/// Outcome of supervising one request through [`RequestSupervisor::serve`].
///
/// `failed_attempts` counts the attempts that manifested a fault before
/// the terminal event (0 on a clean first-try success).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeOutcome {
    /// The request was eventually served.
    Served {
        /// Failed attempts preceding the success.
        failed_attempts: u32,
        /// Whether the serving answer was a graceful denial rather than a
        /// success — the traffic engine's goodput excludes denials, while
        /// availability counts them as answered.
        denied: bool,
    },
    /// The strategy gave up; the request is lost.
    Abandoned {
        /// Failed attempts, including the final one.
        failed_attempts: u32,
    },
    /// The circuit breaker tripped while recovering this request: the
    /// request is lost and the supervisor is degraded — every later
    /// request is [`ServeOutcome::Shed`] without an attempt.
    Degraded {
        /// Failed attempts, including the one that tripped the breaker.
        failed_attempts: u32,
    },
    /// Shed unattempted because the supervisor had already degraded.
    Shed,
}

/// The hardened per-request supervision loop, reusable one request at a
/// time.
///
/// [`run_workload_supervised`] drives a fixed request slice through it;
/// the traffic engine drives it from an open-loop arrival queue instead,
/// one [`RequestSupervisor::serve`] call per arriving request. Both paths
/// share this struct, so policy semantics (watchdog, backoff, breaker,
/// scrub) cannot drift between the rep-driven and queue-driven harnesses.
#[derive(Debug)]
pub struct RequestSupervisor {
    breaker: CircuitBreaker,
    degraded: bool,
    watchdog_fires: u32,
    breaker_trips: u32,
    scrubs: u32,
    backoff_total: Duration,
    failures: u32,
    recoveries: u32,
    /// The latest failed attempt's failure, kept unrendered: its reason is
    /// a [`Text`](faultstudy_apps::Text) of pieces. Only a defeated run
    /// renders it, once, into [`WorkloadRun::last_failure`]; the reasons of
    /// recovered failures are dropped unread.
    last_failure: Option<AppFailure>,
}

impl RequestSupervisor {
    /// Opens a supervised session: gives `strategy` its start-of-workload
    /// hook (checkpointing strategies take their initial checkpoint here)
    /// and arms the circuit breaker from `config`.
    pub fn begin(
        app: &mut dyn Application,
        env: &mut Environment,
        strategy: &mut dyn RecoveryStrategy,
        config: &SupervisorConfig,
    ) -> RequestSupervisor {
        strategy.on_start(app, env);
        RequestSupervisor {
            breaker: CircuitBreaker::new(config.breaker_threshold),
            degraded: false,
            watchdog_fires: 0,
            breaker_trips: 0,
            scrubs: 0,
            backoff_total: Duration::ZERO,
            failures: 0,
            recoveries: 0,
            last_failure: None,
        }
    }

    /// Attempts `original` until it is served, the strategy gives up, or
    /// the breaker trips, applying the watchdog/backoff/scrub policies of
    /// `config` and consulting `hook` before every attempt.
    pub fn serve(
        &mut self,
        app: &mut dyn Application,
        env: &mut Environment,
        original: &Request,
        strategy: &mut dyn RecoveryStrategy,
        config: &SupervisorConfig,
        hook: &mut Option<&mut dyn EnvHook>,
    ) -> ServeOutcome {
        if self.degraded {
            return ServeOutcome::Shed;
        }
        // Retries replay the request without its one-shot timing event; the
        // request is only cloned when that distinction exists, so the happy
        // path stays allocation-free.
        let mut retry_req: Option<Request> = None;
        let mut attempt = 0u32;
        // Opened (in simulated time) at a request's first failure; closed
        // when the request finally succeeds. The span covers every retry,
        // so its length is the user-visible time-to-recovery.
        let mut ttr: Option<Span> = None;
        loop {
            env.advance(config.request_takes);
            if let Some(h) = hook.as_deref_mut() {
                h.pre_attempt(env);
            }
            let req = retry_req.as_ref().unwrap_or(original);
            match app.handle(req, env) {
                Ok(resp) => {
                    let denied = !resp.is_ok();
                    strategy.on_success(req, app, env);
                    self.breaker.record_success();
                    if let Some(span) = ttr {
                        let now = env.now();
                        env.metrics.record_span("recovery.ttr", strategy.name(), span, now);
                        env.metrics.record("recovery.retries", strategy.name(), u64::from(attempt));
                        record_oracle_violations(&*app, env, strategy.name());
                    }
                    return ServeOutcome::Served { failed_attempts: attempt, denied };
                }
                Err(failure) => {
                    self.failures += 1;
                    self.last_failure = Some(failure);
                    attempt += 1;
                    ttr.get_or_insert_with(|| Span::begin(env.now()));
                    // A hang is not observable as a return value in the
                    // real world: the watchdog's deadline is what converts
                    // it into a detected failure, and the detection costs
                    // the full deadline in simulated time.
                    if matches!(self.last_failure, Some(AppFailure::Hang(_))) {
                        if let Some(deadline) = config.watchdog {
                            env.advance(deadline);
                            self.watchdog_fires += 1;
                            env.metrics.incr("supervisor.watchdog", strategy.name(), 1);
                        }
                    }
                    if !strategy.on_failure_for(req, app, env, attempt) {
                        // The strategy declined to retry. A failure-oblivious
                        // strategy gets a last chance to substitute an answer
                        // and keep the stream alive: a `Denied` substitute is
                        // a visible discard, an `Ok` one a silent manufactured
                        // value — the supervisor counts each kind so the
                        // campaign can price the rescue.
                        if let Some(resp) = strategy.manufacture(req, app, env) {
                            let denied = !resp.is_ok();
                            let kind = if denied {
                                "oblivious.discarded"
                            } else {
                                "oblivious.manufactured"
                            };
                            env.metrics.incr(kind, strategy.name(), 1);
                            self.breaker.record_success();
                            if let Some(span) = ttr {
                                let now = env.now();
                                env.metrics.record_span("recovery.ttr", strategy.name(), span, now);
                                env.metrics.record(
                                    "recovery.retries",
                                    strategy.name(),
                                    u64::from(attempt),
                                );
                            }
                            record_oracle_violations(&*app, env, strategy.name());
                            return ServeOutcome::Served { failed_attempts: attempt, denied };
                        }
                        return ServeOutcome::Abandoned { failed_attempts: attempt };
                    }
                    self.recoveries += 1;
                    if self.breaker.record_failure() {
                        // Graceful degradation: the last checkpoint stands
                        // and later requests are shed, not attempted.
                        self.breaker_trips += 1;
                        env.metrics.incr("supervisor.breaker.trips", strategy.name(), 1);
                        self.degraded = true;
                        return ServeOutcome::Degraded { failed_attempts: attempt };
                    }
                    if config.scrub_every > 0 && attempt.is_multiple_of(config.scrub_every) {
                        env.scrub();
                        self.scrubs += 1;
                        env.metrics.incr("supervisor.scrubs", strategy.name(), 1);
                    }
                    let delay = config.backoff.delay(attempt);
                    if delay > Duration::ZERO {
                        env.advance(delay);
                        self.backoff_total = self.backoff_total + delay;
                        env.metrics.record_duration("supervisor.backoff", strategy.name(), delay);
                    }
                    // The retry replays the request without its one-shot
                    // environmental timing event.
                    if original.timing_event && retry_req.is_none() {
                        let mut replay = original.clone();
                        replay.timing_event = false;
                        retry_req = Some(replay);
                    }
                }
            }
        }
    }

    /// Hung attempts detected by the watchdog deadline so far.
    pub fn watchdog_fires(&self) -> u32 {
        self.watchdog_fires
    }

    /// Circuit-breaker trips so far (0 or 1).
    pub(crate) fn breaker_trips(&self) -> u32 {
        self.breaker_trips
    }

    /// Environment scrubs performed between retries so far.
    pub(crate) fn scrubs(&self) -> u32 {
        self.scrubs
    }

    /// Total simulated time spent in backoff delays so far.
    pub(crate) fn backoff_total(&self) -> Duration {
        self.backoff_total
    }

    /// Fault manifestations observed (first failures and failed retries).
    pub fn failures(&self) -> u32 {
        self.failures
    }

    /// Recovery actions the strategy performed.
    pub fn recoveries(&self) -> u32 {
        self.recoveries
    }
}

/// Evaluates the application's correctness oracle after a recovery and
/// records each violation under `oracle.violations` labelled by strategy.
///
/// Gated on metrics being enabled — the oracle is read-only over app and
/// environment and never advances the clock, so the simulation itself is
/// byte-identical whether or not it runs; the gate only keeps the
/// uninstrumented hot path free of the state walk.
fn record_oracle_violations(app: &dyn Application, env: &mut Environment, strategy: &'static str) {
    if !env.metrics.is_enabled() {
        return;
    }
    let violations = app.check_oracle(env);
    if !violations.is_empty() {
        env.metrics.incr("oracle.violations", strategy, violations.len() as u64);
    }
}

/// Runs `workload` under `strategy` with the hardened supervisor policies
/// of `config`, consulting `hook` before every attempt.
///
/// Watchdog fires, breaker trips, scrubs, and backoff delays are recorded
/// through the environment's metrics sink (as `supervisor.*` keys labelled
/// by strategy), all in simulated time, so instrumentation never perturbs
/// the run.
pub fn run_workload_supervised(
    app: &mut dyn Application,
    env: &mut Environment,
    workload: &[Request],
    strategy: &mut dyn RecoveryStrategy,
    config: &SupervisorConfig,
    mut hook: Option<&mut dyn EnvHook>,
) -> SupervisedRun {
    let mut sup = RequestSupervisor::begin(app, env, strategy, config);
    let mut out = SupervisedRun {
        run: WorkloadRun {
            completed: 0,
            total: workload.len(),
            failures: 0,
            recoveries: 0,
            survived: true,
            last_failure: None,
        },
        watchdog_fires: 0,
        breaker_trips: 0,
        scrubs: 0,
        shed: 0,
        backoff_total: Duration::ZERO,
    };
    for (index, original) in workload.iter().enumerate() {
        match sup.serve(app, env, original, strategy, config, &mut hook) {
            ServeOutcome::Served { .. } => out.run.completed += 1,
            ServeOutcome::Abandoned { .. } => {
                out.run.survived = false;
                break;
            }
            ServeOutcome::Degraded { .. } => {
                // §7's survival criterion: shed work was requested and
                // never executed, so the run is honestly not survived.
                out.run.survived = false;
                out.shed = workload.len() - index - 1;
                break;
            }
            ServeOutcome::Shed => unreachable!("loop breaks at the degrading request"),
        }
    }
    out.watchdog_fires = sup.watchdog_fires();
    out.breaker_trips = sup.breaker_trips();
    out.scrubs = sup.scrubs();
    out.backoff_total = sup.backoff_total();
    out.run.failures = sup.failures();
    out.run.recoveries = sup.recoveries();
    if !out.run.survived {
        // Recovered transients are not "the final failure": a surviving
        // run's contract is that every request was eventually served, so
        // only a defeated run reports one.
        out.run.last_failure = sup.last_failure.map(|f| f.to_string());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NoRecovery, ProgressiveRetry, RestartRetry};
    use faultstudy_apps::MiniWeb;

    fn setup() -> (Environment, MiniWeb) {
        let mut env = Environment::builder().seed(7).proc_slots(6).build();
        let app = MiniWeb::new(&mut env);
        (env, app)
    }

    fn hardened() -> SupervisorConfig {
        SupervisorConfig {
            watchdog: Some(Duration::from_secs(4)),
            backoff: BackoffPolicy::new(Duration::from_millis(50), Duration::from_secs(2), 3),
            breaker_threshold: 4,
            scrub_every: 0,
            request_takes: Duration::from_millis(100),
        }
    }

    #[test]
    fn healthy_workload_completes_without_recoveries() {
        let (mut env, mut app) = setup();
        let workload: Vec<Request> =
            (0..5).map(|i| Request::new(format!("GET /page{i}"))).collect();
        let run = run_workload(&mut app, &mut env, &workload, &mut RestartRetry::new(2));
        assert!(run.survived);
        assert_eq!(run.completed, 5);
        assert_eq!(run.failures, 0);
        assert_eq!(run.recoveries, 0);
        assert!(run.last_failure.is_none());
    }

    #[test]
    fn deterministic_fault_defeats_generic_recovery() {
        let (mut env, mut app) = setup();
        app.inject("apache-ei-01", &mut env).unwrap();
        let workload = vec![app.trigger_request("apache-ei-01").unwrap()];
        let run = run_workload(&mut app, &mut env, &workload, &mut RestartRetry::new(3));
        assert!(!run.survived);
        assert_eq!(run.failures, 4, "initial failure plus three failed retries");
        assert_eq!(run.recoveries, 3);
        assert!(run.last_failure.unwrap().contains("hash"));
    }

    #[test]
    fn transient_fault_survives_generic_recovery() {
        let (mut env, mut app) = setup();
        app.inject("apache-edt-02", &mut env).unwrap();
        let workload = vec![app.trigger_request("apache-edt-02").unwrap()];
        let run = run_workload(&mut app, &mut env, &workload, &mut RestartRetry::new(3));
        assert!(run.survived);
        assert_eq!(run.recoveries, 1, "one restart cleared the hung children");
        assert!(run.last_failure.is_none(), "surviving runs report no final failure");
    }

    #[test]
    fn no_recovery_fails_on_first_fault() {
        let (mut env, mut app) = setup();
        app.inject("apache-edt-02", &mut env).unwrap();
        let workload = vec![app.trigger_request("apache-edt-02").unwrap()];
        let run = run_workload(&mut app, &mut env, &workload, &mut NoRecovery);
        assert!(!run.survived);
        assert_eq!(run.failures, 1);
        assert_eq!(run.completed, 0);
    }

    #[test]
    fn remaining_workload_continues_after_recovery() {
        let (mut env, mut app) = setup();
        app.inject("apache-edt-07", &mut env).unwrap();
        let mut workload = vec![
            Request::new("GET /before"),
            app.trigger_request("apache-edt-07").unwrap(),
            Request::new("GET /after"),
        ];
        workload[0].timing_event = false;
        let run = run_workload(&mut app, &mut env, &workload, &mut ProgressiveRetry::new(5));
        assert!(run.survived);
        assert_eq!(run.completed, 3);
        assert!(run.last_failure.is_none(), "surviving runs report no final failure");
    }

    #[test]
    fn instrumented_run_records_ttr_and_retries() {
        let mut env = Environment::builder().seed(7).proc_slots(6).metrics(true).build();
        let mut app = MiniWeb::new(&mut env);
        app.inject("apache-edt-02", &mut env).unwrap();
        let workload = vec![app.trigger_request("apache-edt-02").unwrap()];
        let run = run_workload(&mut app, &mut env, &workload, &mut RestartRetry::new(3));
        assert!(run.survived);
        let reg = env.metrics.take().unwrap();
        let ttr = reg.histogram("recovery.ttr", "restart").expect("ttr recorded");
        assert_eq!(ttr.count(), 1);
        assert!(ttr.max().unwrap() > 0, "recovery consumed simulated time");
        let retries = reg.histogram("recovery.retries", "restart").unwrap();
        assert_eq!(retries.max(), Some(1));
    }

    #[test]
    fn uninstrumented_run_is_identical_to_instrumented() {
        let run_with = |metrics: bool| {
            let mut env = Environment::builder().seed(7).proc_slots(6).metrics(metrics).build();
            let mut app = MiniWeb::new(&mut env);
            app.inject("apache-edt-07", &mut env).unwrap();
            let workload = vec![
                Request::new("GET /a"),
                app.trigger_request("apache-edt-07").unwrap(),
                Request::new("GET /b"),
            ];
            (run_workload(&mut app, &mut env, &workload, &mut ProgressiveRetry::new(5)), env.now())
        };
        assert_eq!(run_with(false), run_with(true), "recording must not perturb the simulation");
    }

    #[test]
    fn empty_workload_trivially_survives() {
        let (mut env, mut app) = setup();
        let run = run_workload(&mut app, &mut env, &[], &mut NoRecovery);
        assert!(run.survived);
        assert_eq!(run.total, 0);
    }

    // --- hardened supervisor ---

    #[test]
    fn permissive_supervision_reproduces_the_bare_loop_exactly() {
        let scenario = |supervised: bool| {
            let mut env = Environment::builder().seed(7).proc_slots(6).build();
            let mut app = MiniWeb::new(&mut env);
            app.inject("apache-edt-07", &mut env).unwrap();
            let workload = vec![
                Request::new("GET /a"),
                app.trigger_request("apache-edt-07").unwrap(),
                Request::new("GET /b"),
            ];
            let mut strategy = RestartRetry::new(3);
            let run = if supervised {
                run_workload_supervised(
                    &mut app,
                    &mut env,
                    &workload,
                    &mut strategy,
                    &SupervisorConfig::permissive(),
                    None,
                )
                .run
            } else {
                run_workload(&mut app, &mut env, &workload, &mut strategy)
            };
            (run, env.now())
        };
        assert_eq!(scenario(true), scenario(false));
    }

    #[test]
    fn watchdog_detects_hangs_and_charges_the_deadline() {
        let (mut env, mut app) = setup();
        app.inject("apache-edt-05", &mut env).unwrap(); // slow DNS: hangs
        let workload = vec![app.trigger_request("apache-edt-05").unwrap()];
        let out = run_workload_supervised(
            &mut app,
            &mut env,
            &workload,
            &mut RestartRetry::new(3),
            &hardened(),
            None,
        );
        assert!(out.run.survived, "DNS healed while the watchdog waited");
        assert!(out.watchdog_fires >= 1);
        assert!(env.now() >= faultstudy_sim::time::SimTime::from_secs(4), "deadline was charged");
    }

    #[test]
    fn breaker_trips_and_sheds_the_remaining_workload() {
        let (mut env, mut app) = setup();
        app.inject("apache-ei-01", &mut env).unwrap();
        let mut workload = vec![app.trigger_request("apache-ei-01").unwrap()];
        workload.push(Request::new("GET /never-reached"));
        workload.push(Request::new("GET /never-reached-either"));
        let mut config = hardened();
        config.breaker_threshold = 2;
        let out = run_workload_supervised(
            &mut app,
            &mut env,
            &workload,
            &mut ProgressiveRetry::new(5),
            &config,
            None,
        );
        assert!(!out.run.survived);
        assert_eq!(out.breaker_trips, 1);
        assert_eq!(out.run.recoveries, 2, "degraded before burning the budget of 5");
        assert_eq!(out.shed, 2, "remaining requests shed, not attempted");
        assert_eq!(out.run.completed, 0);
    }

    #[test]
    fn scrubbing_clears_nontransient_conditions_between_retries() {
        let run_with = |scrub_every: u32| {
            let (mut env, mut app) = setup();
            app.inject("apache-edn-02", &mut env).unwrap(); // fd exhaustion
            let workload = vec![app.trigger_request("apache-edn-02").unwrap()];
            let mut config = hardened();
            config.scrub_every = scrub_every;
            run_workload_supervised(
                &mut app,
                &mut env,
                &workload,
                &mut RestartRetry::new(3),
                &config,
                None,
            )
        };
        let without = run_with(0);
        assert!(!without.run.survived, "fd exhaustion defeats generic recovery");
        assert_eq!(without.scrubs, 0);
        let with = run_with(1);
        assert!(with.run.survived, "the scrub closed the leaked descriptors");
        assert!(with.scrubs >= 1);
    }

    #[test]
    fn backoff_advances_simulated_time_deterministically() {
        let once = || {
            let (mut env, mut app) = setup();
            app.inject("apache-ei-01", &mut env).unwrap();
            let workload = vec![app.trigger_request("apache-ei-01").unwrap()];
            let out = run_workload_supervised(
                &mut app,
                &mut env,
                &workload,
                &mut RestartRetry::new(3),
                &hardened(),
                None,
            );
            (out, env.now())
        };
        let (a, now_a) = once();
        let (b, now_b) = once();
        assert_eq!(a, b);
        assert_eq!(now_a, now_b);
        assert!(a.backoff_total > Duration::ZERO);
    }

    #[test]
    fn supervisor_events_are_recorded_through_metrics() {
        let mut env = Environment::builder().seed(7).proc_slots(6).metrics(true).build();
        let mut app = MiniWeb::new(&mut env);
        app.inject("apache-edn-02", &mut env).unwrap();
        let workload = vec![app.trigger_request("apache-edn-02").unwrap()];
        let mut config = hardened();
        config.scrub_every = 1;
        let out = run_workload_supervised(
            &mut app,
            &mut env,
            &workload,
            &mut RestartRetry::new(3),
            &config,
            None,
        );
        assert!(out.run.survived);
        let reg = env.metrics.take().unwrap();
        assert_eq!(reg.counter("supervisor.scrubs", "restart"), u64::from(out.scrubs));
        assert!(reg.histogram("supervisor.backoff", "restart").is_some());
    }
}
