//! The open-loop engine: [`drive_open_loop`] drains an event queue full
//! of arrivals through a server. [`run_open_loop`] serves each request
//! through the per-request supervisor; the service graph
//! (`faultstudy-graph`) serves each one as a chain across its tiers.
//!
//! Open-loop means arrivals never wait for the server: session starts
//! are scheduled by the arrival process regardless of how far behind the
//! serving clock is, so overload shows up as queueing delay in the
//! latency distribution instead of silently throttling offered load —
//! the property closed-loop benchmarks notoriously get wrong. Requests
//! are synchronous in simulated time: when the simulated clock has been
//! pushed past an arrival's timestamp by earlier service, recovery
//! stalls, or backoff, the difference is exactly the request's queueing
//! delay and is charged to its latency.

use crate::arrival::ArrivalProcess;
use crate::params::TrafficParams;
use faultstudy_apps::{Application, Request};
use faultstudy_env::Environment;
use faultstudy_obs::Histogram;
use faultstudy_recovery::{
    EnvHook, RecoveryStrategy, RequestSupervisor, ServeOutcome, SupervisorConfig,
};
use faultstudy_sim::rng::SplitSeedStream;
use faultstudy_sim::time::Duration;
use faultstudy_sim::wheel::TimingWheel;
use serde::{Deserialize, Serialize};

use crate::session::Session;

/// Per-unit traffic outcome: the request ledger and latency histogram a
/// campaign folds into its (fault class × strategy) SLO accounting.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UnitStats {
    /// Requests the arrival schedule offered.
    pub offered: u64,
    /// Requests answered successfully.
    pub ok: u64,
    /// Requests answered with a graceful denial.
    pub denied: u64,
    /// Requests lost: the strategy gave up or the breaker shed them.
    pub dropped: u64,
    /// Fault manifestations across all attempts.
    pub failures: u64,
    /// Recovery actions the strategy performed.
    pub recoveries: u64,
    /// Answered requests whose latency exceeded the SLO threshold.
    pub slo_violations: u64,
    /// Hung attempts detected by the watchdog.
    pub watchdog_fires: u64,
    /// Per-request latency in nanoseconds of simulated time (answered
    /// requests only; queueing + service + recovery + backoff).
    pub latency: Histogram,
    /// Simulated time consumed by the unit, in nanoseconds.
    pub sim_nanos: u64,
}

impl Default for UnitStats {
    fn default() -> UnitStats {
        UnitStats::new()
    }
}

impl UnitStats {
    /// An empty ledger.
    pub fn new() -> UnitStats {
        UnitStats {
            offered: 0,
            ok: 0,
            denied: 0,
            dropped: 0,
            failures: 0,
            recoveries: 0,
            slo_violations: 0,
            watchdog_fires: 0,
            latency: Histogram::new(),
            sim_nanos: 0,
        }
    }

    /// Requests that received any answer (success or graceful denial).
    pub fn answered(&self) -> u64 {
        self.ok + self.denied
    }

    /// Fraction of offered requests that were answered, in [0, 1].
    pub fn availability(&self) -> f64 {
        if self.offered == 0 {
            return 1.0;
        }
        self.answered() as f64 / self.offered as f64
    }

    /// Successfully served requests per simulated second.
    pub fn goodput_per_sec(&self) -> f64 {
        if self.sim_nanos == 0 {
            return 0.0;
        }
        self.ok as f64 * 1e9 / self.sim_nanos as f64
    }

    /// Folds `other` into `self` (ledgers add, histograms merge).
    pub fn absorb(&mut self, other: &UnitStats) {
        self.offered += other.offered;
        self.ok += other.ok;
        self.denied += other.denied;
        self.dropped += other.dropped;
        self.failures += other.failures;
        self.recoveries += other.recoveries;
        self.slo_violations += other.slo_violations;
        self.watchdog_fires += other.watchdog_fires;
        self.latency.merge_from(&other.latency);
        self.sim_nanos += other.sim_nanos;
    }
}

/// How the server answered one request of the open loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Answer {
    /// An answer reached the user: a success, or a graceful denial.
    Served {
        /// Whether the answer was a graceful denial.
        denied: bool,
    },
    /// No answer reached the user: the request is lost.
    Dropped,
}

/// Queue payload: what to do when simulated time reaches the event.
#[derive(Debug, Clone, Copy)]
enum Event {
    /// A new user session arrives (open-loop: scheduled by the arrival
    /// process, independent of server progress).
    SessionStart,
    /// An existing session issues its next request after think time.
    Next(u32),
    /// The server's periodic tick.
    Tick,
}

/// The open-loop driver: offers exactly `params.requests` requests drawn
/// from `mix` to a server and ledgers how each was answered.
///
/// Sessions arrive on the event queue from an [`ArrivalProcess`] seeded
/// by `arrival_seed`, each with its randomness drawn from
/// `session_master`'s split-seed stream; they pick requests by index and
/// think between them. Session slots are slab-recycled and the queue's
/// heap keeps its buffer, so once both have grown to the unit's peak the
/// loop allocates nothing per request.
///
/// `serve(env, Some(request))` serves one request at the current instant
/// and returns its answer. With `tick` set to `Some(every)`,
/// `serve(env, None)` also runs every `every` of simulated time from the
/// start, for background work outside the offered load, and returns
/// `None`; ticks stop once every request has been offered.
///
/// The returned ledger leaves `failures`, `recoveries` and
/// `watchdog_fires` zero: the server counts those, and its caller fills
/// them in.
pub fn drive_open_loop<M>(
    env: &mut Environment,
    mix: &[M],
    params: &TrafficParams,
    arrival_seed: u64,
    session_master: u64,
    tick: Option<Duration>,
    mut serve: impl FnMut(&mut Environment, Option<&M>) -> Option<Answer>,
) -> UnitStats {
    assert!(!mix.is_empty(), "traffic needs a request mix");
    let mut stats = UnitStats::new();
    if params.requests == 0 {
        stats.sim_nanos = env.now().as_nanos();
        return stats;
    }
    let per_session = params.requests_per_session.max(1);
    let mut arrivals = ArrivalProcess::new(
        params.arrival,
        params.rate_per_sec / f64::from(per_session),
        arrival_seed,
    );
    let mut session_seeds = SplitSeedStream::new(session_master, 0);
    let mut wheel: TimingWheel<Event> = TimingWheel::new();
    let mut sessions: Vec<Session> = Vec::new();
    let mut free: Vec<u32> = Vec::new();
    // Requests already promised to spawned sessions; the last session is
    // truncated so the unit offers exactly `params.requests`.
    let mut allotted: u64 = 0;

    let start = env.now();
    let gap = arrivals.next_gap(start);
    wheel.schedule(start.saturating_add(gap), Event::SessionStart);
    if let Some(every) = tick {
        wheel.schedule(start.saturating_add(every), Event::Tick);
    }
    while let Some((at, event)) = wheel.pop() {
        // The event is due at `at`; if the serving clock is behind, the
        // server was idle and catches up. If it is ahead, a request
        // queues and the difference lands in its latency.
        if env.now() < at {
            env.advance(at.saturating_since(env.now()));
        }
        let sid = match event {
            Event::SessionStart => {
                let size = (params.requests - allotted).min(u64::from(per_session)) as u32;
                allotted += u64::from(size);
                if allotted < params.requests {
                    let gap = arrivals.next_gap(at);
                    wheel.schedule(at.saturating_add(gap), Event::SessionStart);
                }
                let session = Session::new(size, session_seeds.next_seed());
                match free.pop() {
                    Some(slot) => {
                        sessions[slot as usize] = session;
                        slot
                    }
                    None => {
                        sessions.push(session);
                        (sessions.len() - 1) as u32
                    }
                }
            }
            Event::Next(sid) => sid,
            Event::Tick => {
                serve(env, None);
                if let Some(every) = tick {
                    if stats.offered < params.requests {
                        wheel.schedule(at.saturating_add(every), Event::Tick);
                    }
                }
                continue;
            }
        };
        let session = &mut sessions[sid as usize];
        session.remaining -= 1;
        let pick = session.pick(mix.len());
        let answer = serve(env, Some(&mix[pick])).expect("every request gets an answer");
        stats.offered += 1;
        match answer {
            Answer::Served { denied } => {
                let latency = env.now().saturating_since(at);
                stats.latency.record(latency.as_nanos());
                if denied {
                    stats.denied += 1;
                } else {
                    stats.ok += 1;
                }
                if latency > params.slo {
                    stats.slo_violations += 1;
                }
            }
            Answer::Dropped => stats.dropped += 1,
        }
        let session = &mut sessions[sid as usize];
        if session.remaining > 0 {
            let think = session.think(params.think_mean);
            wheel.schedule(env.now().saturating_add(think), Event::Next(sid));
        } else {
            free.push(sid);
        }
    }
    stats.sim_nanos = env.now().as_nanos();
    debug_assert_eq!(stats.offered, params.requests);
    stats
}

/// Drives one unit of open-loop traffic against `app` under `strategy`,
/// returning the request ledger.
///
/// Every request is served through the per-request supervisor; the
/// arrivals, sessions and ledger are [`drive_open_loop`]'s. The request
/// mix is prepared once by the caller and picked from by index per
/// request. `arrival_seed` and `session_master` are independent
/// `split_seed` derivations of the unit's seed.
#[allow(clippy::too_many_arguments)]
pub fn run_open_loop(
    app: &mut dyn Application,
    env: &mut Environment,
    strategy: &mut dyn RecoveryStrategy,
    config: &SupervisorConfig,
    mut hook: Option<&mut dyn EnvHook>,
    mix: &[Request],
    params: &TrafficParams,
    arrival_seed: u64,
    session_master: u64,
) -> UnitStats {
    let mut sup = RequestSupervisor::begin(app, env, strategy, config);
    let mut stats =
        drive_open_loop(env, mix, params, arrival_seed, session_master, None, |env, req| {
            req.map(|req| match sup.serve(app, env, req, strategy, config, &mut hook) {
                ServeOutcome::Served { denied, .. } => Answer::Served { denied },
                ServeOutcome::Abandoned { .. }
                | ServeOutcome::Degraded { .. }
                | ServeOutcome::Shed => Answer::Dropped,
            })
        });
    stats.failures = u64::from(sup.failures());
    stats.recoveries = u64::from(sup.recoveries());
    stats.watchdog_fires = u64::from(sup.watchdog_fires());
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrival::ArrivalKind;
    use faultstudy_apps::MiniWeb;

    fn run(requests: u64, seed: u64) -> (UnitStats, u64) {
        let mut env = Environment::builder().seed(seed).build();
        let mut app = MiniWeb::new(&mut env);
        let mut strategy = faultstudy_recovery::RestartRetry::new(3);
        let config = SupervisorConfig::permissive();
        let mix = vec![Request::new("GET /index.html"), Request::new("AUTH admin")];
        let params = TrafficParams::standard(ArrivalKind::Poisson, requests);
        let stats =
            run_open_loop(&mut app, &mut env, &mut strategy, &config, None, &mix, &params, 1, 2);
        (stats, env.now().as_nanos())
    }

    #[test]
    fn healthy_traffic_answers_every_request() {
        let (stats, _) = run(500, 11);
        assert_eq!(stats.offered, 500);
        assert_eq!(stats.ok, 500);
        assert_eq!(stats.dropped, 0);
        assert_eq!(stats.latency.count(), 500);
        assert!(stats.sim_nanos > 0);
        assert!((stats.availability() - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn traffic_replays_byte_identically() {
        let (a, now_a) = run(300, 17);
        let (b, now_b) = run(300, 17);
        assert_eq!(a, b);
        assert_eq!(now_a, now_b);
    }

    #[test]
    fn zero_requests_is_a_quiet_unit() {
        let (stats, _) = run(0, 3);
        assert_eq!(stats.offered, 0);
        assert_eq!(stats.answered(), 0);
    }
}
