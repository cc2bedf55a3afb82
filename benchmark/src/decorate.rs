//! Timing decorators around the application and recovery-strategy trait
//! objects, and the healthy single-application units they decorate.
//!
//! A decorated unit runs through the public `run_open_loop` exactly as an
//! undecorated one does; the decorators only forward each call inside a
//! span. Comparing the two runs' ledgers proves the wrapping changed
//! nothing, and the spans split the unit's wall time between the
//! application, the strategy and the engine under real interleaving.

use crate::trace::Tracer;
use faultstudy_apps::{
    spawn_app, AppFailure, AppState, Application, InjectError, Request, Response,
};
use faultstudy_core::taxonomy::AppKind;
use faultstudy_env::{Environment, OwnerId};
use faultstudy_micro::CrashOnly;
use faultstudy_recovery::{BackoffPolicy, RecoveryStrategy, RestartRetry, SupervisorConfig};
use faultstudy_sim::rng::split_seed;
use faultstudy_sim::time::{Duration, SimTime};
use faultstudy_traffic::{run_open_loop, ArrivalKind, TrafficParams, UnitStats};
use std::cell::Cell;
use std::fmt;
use std::time::Instant;

/// An [`Application`] that forwards every call and times `handle`.
pub struct TimedApp<'a> {
    inner: &'a mut dyn Application,
    tracer: &'a Tracer,
    unit: u32,
    attempts: &'a Cell<u32>,
}

impl<'a> TimedApp<'a> {
    /// Wraps `inner`; `attempts` numbers its `handle` calls within `unit`
    /// and is shared with the strategy decorator of the same unit.
    pub fn new(
        inner: &'a mut dyn Application,
        tracer: &'a Tracer,
        unit: u32,
        attempts: &'a Cell<u32>,
    ) -> TimedApp<'a> {
        TimedApp { inner, tracer, unit, attempts }
    }
}

impl Application for TimedApp<'_> {
    fn kind(&self) -> AppKind {
        self.inner.kind()
    }

    fn owner(&self) -> OwnerId {
        self.inner.owner()
    }

    fn handle(&mut self, req: &Request, env: &mut Environment) -> Result<Response, AppFailure> {
        let attempt = self.attempts.get() + 1;
        self.attempts.set(attempt);
        let inner = &mut *self.inner;
        self.tracer.span("apps.handle", self.unit, attempt, || inner.handle(req, env))
    }

    fn snapshot(&self) -> AppState {
        self.inner.snapshot()
    }

    fn restore(&mut self, state: &AppState) {
        self.inner.restore(state)
    }

    fn inject(&mut self, slug: &str, env: &mut Environment) -> Result<(), InjectError> {
        self.inner.inject(slug, env)
    }

    fn arm_defect(&mut self, slug: &str) -> Result<(), InjectError> {
        self.inner.arm_defect(slug)
    }

    fn trigger_request(&self, slug: &str) -> Option<Request> {
        self.inner.trigger_request(slug)
    }

    fn benign_request(&self) -> Request {
        self.inner.benign_request()
    }

    fn rejuvenate_request(&self) -> Option<Request> {
        self.inner.rejuvenate_request()
    }

    fn cold_start(&mut self, env: &mut Environment) {
        self.inner.cold_start(env)
    }

    fn as_crash_only(&mut self) -> Option<&mut dyn CrashOnly> {
        self.inner.as_crash_only()
    }

    fn check_oracle(&self, env: &Environment) -> Vec<String> {
        self.inner.check_oracle(env)
    }
}

/// A [`RecoveryStrategy`] that forwards every hook inside a span.
pub struct TimedStrategy<'a> {
    inner: &'a mut dyn RecoveryStrategy,
    tracer: &'a Tracer,
    unit: u32,
    attempts: &'a Cell<u32>,
}

impl<'a> TimedStrategy<'a> {
    /// Wraps `inner`; hook spans carry the number of the application call
    /// they follow.
    pub fn new(
        inner: &'a mut dyn RecoveryStrategy,
        tracer: &'a Tracer,
        unit: u32,
        attempts: &'a Cell<u32>,
    ) -> TimedStrategy<'a> {
        TimedStrategy { inner, tracer, unit, attempts }
    }
}

impl fmt::Debug for TimedStrategy<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TimedStrategy").field("inner", &self.inner).finish()
    }
}

impl RecoveryStrategy for TimedStrategy<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn is_generic(&self) -> bool {
        self.inner.is_generic()
    }

    fn on_start(&mut self, app: &mut dyn Application, env: &mut Environment) {
        let (tracer, unit, attempt) = (self.tracer, self.unit, self.attempts.get());
        let inner = &mut *self.inner;
        tracer.span("recovery.on_start", unit, attempt, || inner.on_start(app, env))
    }

    fn on_success(&mut self, req: &Request, app: &mut dyn Application, env: &mut Environment) {
        let (tracer, unit, attempt) = (self.tracer, self.unit, self.attempts.get());
        let inner = &mut *self.inner;
        tracer.span("recovery.on_success", unit, attempt, || inner.on_success(req, app, env))
    }

    fn on_failure(
        &mut self,
        app: &mut dyn Application,
        env: &mut Environment,
        attempt: u32,
    ) -> bool {
        let (tracer, unit, call) = (self.tracer, self.unit, self.attempts.get());
        let inner = &mut *self.inner;
        tracer.span("recovery.on_failure", unit, call, || inner.on_failure(app, env, attempt))
    }

    fn on_failure_for(
        &mut self,
        req: &Request,
        app: &mut dyn Application,
        env: &mut Environment,
        attempt: u32,
    ) -> bool {
        let (tracer, unit, call) = (self.tracer, self.unit, self.attempts.get());
        let inner = &mut *self.inner;
        tracer.span("recovery.on_failure", unit, call, || {
            inner.on_failure_for(req, app, env, attempt)
        })
    }

    fn manufacture(
        &mut self,
        req: &Request,
        app: &mut dyn Application,
        env: &mut Environment,
    ) -> Option<Response> {
        let (tracer, unit, attempt) = (self.tracer, self.unit, self.attempts.get());
        let inner = &mut *self.inner;
        tracer.span("recovery.manufacture", unit, attempt, || inner.manufacture(req, app, env))
    }
}

/// Requests every application answers on a healthy environment: the
/// traffic campaign's per-application mixes without the fault triggers.
pub fn healthy_mix(kind: AppKind) -> Vec<Request> {
    let bodies: &[&str] = match kind {
        AppKind::Apache => &[
            "GET /index.html",
            "GET /index.html",
            "GET /file",
            "AUTH admin",
            "RESOLVE remote.example",
            "SSL",
            "BIND",
            "KEEPALIVE 4",
        ],
        AppKind::Gnome => &[
            "CLICK clock",
            "CLICK desktop-background",
            "OPEN desktop/readme.txt",
            "OPEN-DISPLAY",
            "PLAY-SOUND",
            "LAUNCH",
            "FORMULA (1+2)",
        ],
        AppKind::Mysql => &["PING", "PING", "CONNECT", "UNLOCK TABLES", "FLUSH TABLES"],
    };
    bodies.iter().map(|&b| Request::new(b)).collect()
}

/// The environment budgets every harness campaign builds its units with.
pub fn standard_env(seed: u64) -> Environment {
    Environment::builder()
        .seed(seed)
        .fd_limit(16)
        .proc_slots(8)
        .fs_capacity(256 * 1024)
        .max_file_size(64 * 1024)
        .build()
}

/// The traffic campaign's supervision policy: 500 µs of service per
/// request, a 4 s watchdog and 50 ms–2 s backoff, breaker off.
pub fn traffic_config(backoff_seed: u64) -> SupervisorConfig {
    SupervisorConfig {
        watchdog: Some(Duration::from_secs(4)),
        backoff: BackoffPolicy::new(
            Duration::from_millis(50),
            Duration::from_secs(2),
            backoff_seed,
        ),
        breaker_threshold: 0,
        scrub_every: 0,
        request_takes: Duration::from_micros(500),
    }
}

/// What one healthy unit produced.
#[derive(Debug, Clone, PartialEq)]
pub struct UnitRun {
    /// The unit's request ledger.
    pub stats: UnitStats,
    /// Simulated time when the unit ended.
    pub end: SimTime,
    /// Wall-clock nanoseconds `run_open_loop` took.
    pub wall_ns: u64,
}

impl UnitRun {
    /// Whether two runs produced the same simulation (wall time aside).
    pub fn same_simulation(&self, other: &UnitRun) -> bool {
        self.stats == other.stats && self.end == other.end
    }
}

/// One healthy single-application unit of `requests` Poisson requests
/// under restart-retry, served through the public `run_open_loop`. With a
/// tracer the application and strategy run inside the timing decorators,
/// and the whole call is a `traffic.run_open_loop` span numbered `unit`.
pub fn healthy_unit(
    kind: AppKind,
    requests: u64,
    seed: u64,
    tracer: Option<(&Tracer, u32)>,
) -> UnitRun {
    let mut env = standard_env(split_seed(seed, 0));
    let mut app = spawn_app(kind, &mut env);
    let mix = healthy_mix(kind);
    let mut strategy = RestartRetry::new(3);
    let config = traffic_config(split_seed(seed, 1));
    let params = TrafficParams::standard(ArrivalKind::Poisson, requests);
    let (arrival_seed, session_seed) = (split_seed(seed, 2), split_seed(seed, 3));
    let start = Instant::now();
    let stats = match tracer {
        None => run_open_loop(
            app.as_mut(),
            &mut env,
            &mut strategy,
            &config,
            None,
            &mix,
            &params,
            arrival_seed,
            session_seed,
        ),
        Some((tracer, unit)) => {
            let attempts = Cell::new(0);
            let mut app = TimedApp::new(app.as_mut(), tracer, unit, &attempts);
            let mut strategy = TimedStrategy::new(&mut strategy, tracer, unit, &attempts);
            tracer.span("traffic.run_open_loop", unit, 0, || {
                run_open_loop(
                    &mut app,
                    &mut env,
                    &mut strategy,
                    &config,
                    None,
                    &mix,
                    &params,
                    arrival_seed,
                    session_seed,
                )
            })
        }
    };
    let wall_ns = start.elapsed().as_nanos() as u64;
    UnitRun { stats, end: env.now(), wall_ns }
}
