//! The open-loop driver's tick runs against the driver they replaced.
//!
//! `drive_open_loop` pops its tick once per run of ticks that no other
//! event separates and serves the whole run in one pass. The reference
//! below is the driver as it was before: it pops every tick through the
//! queue, catches the clock up to it, serves it and re-arms it from its
//! pop. One recording server runs under both; it must be shown the same
//! requests and ticks, in the same order and at the same clock readings,
//! and both must leave the same ledger and the same clock.
//!
//! `drive_open_loop` also tallies answered latencies per unit and builds
//! the unit's histogram once; the reference records each latency into the
//! histogram as it is answered, with or without a tick.

use faultstudy_env::Environment;
use faultstudy_sim::rng::SplitSeedStream;
use faultstudy_sim::time::{Duration, SimTime};
use faultstudy_sim::wheel::TimingWheel;
use faultstudy_traffic::{
    drive_open_loop, Answer, ArrivalKind, ArrivalProcess, Session, TrafficParams, UnitStats,
};

/// One thing the server was handed, in order.
#[derive(Debug, PartialEq)]
enum Seen {
    /// A request: its mix entry, and the clock when it was served.
    Request { entry: u32, now: SimTime },
    /// A tick, and the clock once caught up to its instant.
    Tick { now: SimTime },
}

/// A server whose requests sometimes stall for up to forty tick periods,
/// so ticks pile up overdue behind them as they do behind a recovery.
struct Recorder {
    every: Duration,
    seen: Vec<Seen>,
    requests: u64,
}

impl Recorder {
    fn new(every: Duration) -> Recorder {
        Recorder { every, seen: Vec::new(), requests: 0 }
    }

    fn request(&mut self, env: &mut Environment, entry: u32) -> Answer {
        self.seen.push(Seen::Request { entry, now: env.now() });
        self.requests += 1;
        if self.requests.is_multiple_of(7) {
            // Stall to a nanosecond before a later tick's instant (ticks
            // fall on multiples of the period), so a one-nanosecond think
            // time brings the session's next request due on that tick.
            let (now, every) = (env.now().as_nanos(), self.every.as_nanos());
            let until = (now / every + 1 + self.requests % 40) * every - 1;
            env.advance(Duration::from_nanos(until - now));
        } else {
            env.advance(Duration::from_micros(300));
        }
        match entry {
            0 | 1 => Answer::Served { denied: false },
            2 => Answer::Served { denied: true },
            _ => Answer::Dropped,
        }
    }

    /// A tick, the clock already caught up to its instant.
    fn tick(&mut self, env: &mut Environment) {
        self.seen.push(Seen::Tick { now: env.now() });
        env.advance(Duration::from_micros(100));
    }

    /// The server both drivers call.
    fn serve(&mut self, env: &mut Environment, request: Option<&u32>) -> Option<Answer> {
        match request {
            Some(&entry) => Some(self.request(env, entry)),
            None => {
                self.tick(env);
                None
            }
        }
    }

    /// Ticks served, and the runs they came in: the maximal stretches of
    /// ticks with no request between them.
    fn ticks_and_runs(&self) -> (u64, u64) {
        let (mut ticks, mut runs, mut in_run) = (0, 0, false);
        for seen in &self.seen {
            let tick = matches!(seen, Seen::Tick { .. });
            ticks += u64::from(tick);
            runs += u64::from(tick && !in_run);
            in_run = tick;
        }
        (ticks, runs)
    }
}

/// Queue payload of the reference driver.
#[derive(Clone, Copy)]
enum Event {
    SessionStart,
    Next(u32),
    Tick,
}

/// The driver as it was before tick runs: every tick pops through the
/// queue and is served alone, and each pop re-arms the next. Each answered
/// latency is recorded into the histogram as it is answered.
fn drive_tick_by_tick<M>(
    env: &mut Environment,
    mix: &[M],
    params: &TrafficParams,
    arrival_seed: u64,
    session_master: u64,
    tick: Option<Duration>,
    mut serve: impl FnMut(&mut Environment, Option<&M>) -> Option<Answer>,
) -> UnitStats {
    let mut stats = UnitStats::new();
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
    let mut allotted: u64 = 0;
    let start = env.now();
    let gap = arrivals.next_gap(start);
    wheel.schedule(start.saturating_add(gap), Event::SessionStart);
    if let Some(every) = tick {
        wheel.set_timer(start.saturating_add(every), Event::Tick);
    }
    while let Some((at, event)) = wheel.pop() {
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
                if stats.offered < params.requests {
                    let every = tick.expect("only an armed tick pops");
                    wheel.set_timer(at.saturating_add(every), Event::Tick);
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
    stats
}

/// Under every arrival curve, at three tick periods, two think times and
/// six seeds, the server is shown what the reference shows it, and both
/// leave the same ledger and clock. At the one-nanosecond think time,
/// requests often fall due exactly on a tick's instant, scheduled before
/// that tick was armed. Each run is one pop of the tick, and there are at
/// most as many runs as queue events (one per request) plus the trailing
/// tick; some runs hold many ticks.
#[test]
fn tick_runs_serve_the_ticks_the_queue_pops() {
    let mix = [0u32, 1, 2, 3];
    let (mut ticks_served, mut runs_served) = (0u64, 0u64);
    for arrival in ArrivalKind::ALL {
        for every in
            [Duration::from_millis(50), Duration::from_millis(7), Duration::from_micros(900)]
        {
            for (think_mean, seed) in [Duration::from_millis(200), Duration::from_nanos(1)]
                .into_iter()
                .flat_map(|think| (1..=6u64).map(move |seed| (think, seed)))
            {
                let params = TrafficParams { think_mean, ..TrafficParams::standard(arrival, 400) };
                let what = format!("{arrival:?}, every {every}, think {think_mean}, seed {seed}");

                let mut env = Environment::builder().seed(seed).build();
                let mut recorder = Recorder::new(every);
                let reference = drive_tick_by_tick(
                    &mut env,
                    &mix,
                    &params,
                    seed ^ 1,
                    seed ^ 2,
                    Some(every),
                    |env, req| recorder.serve(env, req),
                );
                let reference_now = env.now();
                let reference_seen = recorder.seen;

                let mut env = Environment::builder().seed(seed).build();
                let mut recorder = Recorder::new(every);
                let stats = drive_open_loop(
                    &mut env,
                    &mix,
                    &params,
                    seed ^ 1,
                    seed ^ 2,
                    Some(every),
                    |env, req| recorder.serve(env, req),
                );
                assert_eq!(stats, reference, "{what}");
                assert_eq!(env.now(), reference_now, "{what}");
                assert_eq!(recorder.seen, reference_seen, "{what}");
                let (ticks, runs) = recorder.ticks_and_runs();
                assert!(runs <= params.requests + 1, "{what}: {runs} runs");
                ticks_served += ticks;
                runs_served += runs;
            }
        }
    }
    assert!(ticks_served > 2 * runs_served, "{ticks_served} ticks in {runs_served} runs");
}

/// Under every arrival curve, with no tick and with one, the unit's latency
/// histogram is the one recording each answered latency builds, answered
/// by a server that sometimes stalls for up to forty periods.
#[test]
fn the_unit_histogram_records_every_answered_latency() {
    let mix = [0u32, 1, 2, 3];
    let every = Duration::from_millis(7);
    for arrival in ArrivalKind::ALL {
        for tick in [None, Some(every)] {
            for seed in 1..=4u64 {
                let params = TrafficParams::standard(arrival, 600);
                let what = format!("{arrival:?}, tick {tick:?}, seed {seed}");

                let mut env = Environment::builder().seed(seed).build();
                let mut recorder = Recorder::new(every);
                let serve = |env: &mut Environment, req: Option<&u32>| recorder.serve(env, req);
                let reference =
                    drive_tick_by_tick(&mut env, &mix, &params, seed ^ 1, seed ^ 2, tick, serve);

                let mut env = Environment::builder().seed(seed).build();
                let mut recorder = Recorder::new(every);
                let serve = |env: &mut Environment, req: Option<&u32>| recorder.serve(env, req);
                let stats =
                    drive_open_loop(&mut env, &mix, &params, seed ^ 1, seed ^ 2, tick, serve);
                assert_eq!(stats.latency, reference.latency, "{what}");
                assert_eq!(stats.latency.count(), stats.answered(), "{what}");
                assert!(stats.dropped > 0 && stats.answered() > 0, "{what}");
            }
        }
    }
}
