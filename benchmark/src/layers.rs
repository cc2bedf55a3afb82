//! Per-layer metrics of a traced run.
//!
//! The layers are the repository's crates. Each is measured three ways:
//! probes (loops over one public function with inputs drawn from the
//! workload seed, giving nanoseconds per operation), counts (read off the
//! workload's own report), and decorated healthy units (see
//! [`crate::decorate`]). Probe costs times counts give the attributed
//! share of a rep; the rest is reported as unattributed.

use crate::decorate::{healthy_mix, healthy_unit, standard_env, traffic_config};
use crate::stats::{lowest, median};
use crate::trace::{totals, SpanTotals, Tracer};
use crate::workload::{MiningArchive, Report, Workload};
use faultstudy_apps::{spawn_app, Request};
use faultstudy_core::taxonomy::AppKind;
use faultstudy_corpus::full_corpus;
use faultstudy_exec::{run_chunk_fold, ParallelSpec};
use faultstudy_graph::{Channel, NodeId, ServiceGraph};
use faultstudy_harness::experiment::{build_workload, run_prepared_experiment};
use faultstudy_harness::StrategyKind;
use faultstudy_mining::dedup::{dedup_indices_keyed, normalize_title};
use faultstudy_mining::KeywordQuery;
use faultstudy_obs::{Histogram, MetricsRegistry};
use faultstudy_recovery::{EnvHook, RequestSupervisor, RestartRetry};
use faultstudy_sim::rng::{split_seed, SplitSeedStream};
use faultstudy_sim::time::{Duration, SimTime};
use faultstudy_sim::wheel::TimingWheel;
use faultstudy_traffic::{ArrivalKind, ArrivalProcess, Session, TrafficParams, UnitStats};
use std::hint::black_box;
use std::time::Instant;

/// The shortest of `samples` runs of `f`'s wall time, divided by `ops`.
fn ns_per_op(samples: usize, ops: u64, mut f: impl FnMut()) -> f64 {
    let per_op: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_nanos() as f64 / ops.max(1) as f64
        })
        .collect();
    lowest(&per_op)
}

/// Nanoseconds per operation of one public function per layer.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Probes {
    /// `run_chunk_fold` dispatch and merge per unit, on up to 2 threads.
    pub fold_ns_per_unit: f64,
    /// `TimingWheel` schedule plus pop over a traffic unit's event stream.
    pub wheel_ns_per_event: f64,
    /// `ArrivalProcess::next_gap`.
    pub arrival_ns_per_draw: f64,
    /// `RequestSupervisor::serve` on healthy applications.
    pub serve_ns_per_req: f64,
    /// `run_prepared_experiment` over corpus × strategy.
    pub experiment_ns_per_sample: f64,
    /// `Application::check_oracle` on healthy applications.
    pub oracle_ns_per_call: f64,
    /// The graph's web tier handling one operator-console probe.
    pub console_ns_per_probe: f64,
    /// Faultless `Channel::send` + `Channel::recv`.
    pub channel_ns_per_msg: f64,
    /// `Histogram::record`.
    pub histogram_record_ns: f64,
    /// `Histogram::merge_from` of a latency-shaped histogram.
    pub histogram_merge_ns: f64,
    /// `MetricsRegistry::merge_from`, per key merged.
    pub registry_merge_ns_per_key: f64,
    /// `KeywordQuery::matches_segments` over MySQL archive rows.
    pub keyword_ns_per_report: f64,
    /// `normalize_title` over MySQL archive titles.
    pub normalize_ns_per_title: f64,
    /// `dedup_indices_keyed` over the Apache archive.
    pub dedup_ns_per_report: f64,
}

impl Probes {
    /// Runs every probe with inputs from `seed`, each loop at its
    /// full-scale length divided by `divisor`; `archives` are the mining
    /// workload's archives. Each probe loop is a span named after it.
    pub fn measure(seed: u64, divisor: u64, archives: &[MiningArchive], tracer: &Tracer) -> Probes {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get()).min(2);
        let ops = |full: u64| (full / divisor).max(1);
        let probe = |name, f: &mut dyn FnMut() -> f64| tracer.span(name, 0, 0, f);
        Probes {
            fold_ns_per_unit: probe("probe.exec.run_chunk_fold", &mut || {
                fold_ns_per_unit(ops(200_000) as usize, threads)
            }),
            wheel_ns_per_event: probe("probe.sim.TimingWheel", &mut || {
                wheel_ns_per_event(&traffic_event_stream(ops(5_300), split_seed(seed, 11)))
            }),
            arrival_ns_per_draw: probe("probe.traffic.ArrivalProcess", &mut || {
                arrival_ns_per_draw(ops(1_000_000), split_seed(seed, 12))
            }),
            serve_ns_per_req: probe("probe.recovery.RequestSupervisor::serve", &mut || {
                serve_ns_per_req(ops(20_000), split_seed(seed, 13))
            }),
            experiment_ns_per_sample: probe("probe.harness.run_prepared_experiment", &mut || {
                experiment_ns_per_sample(ops(10) as usize, split_seed(seed, 14))
            }),
            oracle_ns_per_call: probe("probe.apps.check_oracle", &mut || {
                oracle_ns_per_call(ops(100_000), split_seed(seed, 15))
            }),
            console_ns_per_probe: probe("probe.apps.console_probe", &mut || {
                console_ns_per_probe(ops(200_000), split_seed(seed, 19))
            }),
            channel_ns_per_msg: probe("probe.graph.Channel", &mut || {
                channel_ns_per_msg(ops(1_000_000))
            }),
            histogram_record_ns: probe("probe.obs.Histogram::record", &mut || {
                histogram_record_ns(ops(1_000_000), split_seed(seed, 16))
            }),
            histogram_merge_ns: probe("probe.obs.Histogram::merge_from", &mut || {
                histogram_merge_ns(ops(200_000), split_seed(seed, 17))
            }),
            registry_merge_ns_per_key: probe("probe.obs.MetricsRegistry::merge_from", &mut || {
                registry_merge_ns_per_key(ops(20_000), split_seed(seed, 18))
            }),
            keyword_ns_per_report: probe("probe.mining.KeywordQuery", &mut || {
                keyword_ns_per_report(&archives[2])
            }),
            normalize_ns_per_title: probe("probe.mining.normalize_title", &mut || {
                normalize_ns_per_title(&archives[2])
            }),
            dedup_ns_per_report: probe("probe.mining.dedup_indices_keyed", &mut || {
                dedup_ns_per_report(&archives[0])
            }),
        }
    }

    /// The fastest of several measurements of every probe.
    pub fn fastest(rounds: &[Probes]) -> Probes {
        let min = |f: fn(&Probes) -> f64| lowest(&rounds.iter().map(f).collect::<Vec<_>>());
        Probes {
            fold_ns_per_unit: min(|p| p.fold_ns_per_unit),
            wheel_ns_per_event: min(|p| p.wheel_ns_per_event),
            arrival_ns_per_draw: min(|p| p.arrival_ns_per_draw),
            serve_ns_per_req: min(|p| p.serve_ns_per_req),
            experiment_ns_per_sample: min(|p| p.experiment_ns_per_sample),
            oracle_ns_per_call: min(|p| p.oracle_ns_per_call),
            console_ns_per_probe: min(|p| p.console_ns_per_probe),
            channel_ns_per_msg: min(|p| p.channel_ns_per_msg),
            histogram_record_ns: min(|p| p.histogram_record_ns),
            histogram_merge_ns: min(|p| p.histogram_merge_ns),
            registry_merge_ns_per_key: min(|p| p.registry_merge_ns_per_key),
            keyword_ns_per_report: min(|p| p.keyword_ns_per_report),
            normalize_ns_per_title: min(|p| p.normalize_ns_per_title),
            dedup_ns_per_report: min(|p| p.dedup_ns_per_report),
        }
    }
}

fn fold_ns_per_unit(jobs: usize, threads: usize) -> f64 {
    // A constant-size accumulator shaped like the campaign's cell counts.
    ns_per_op(5, jobs as u64, || {
        let acc = run_chunk_fold(
            jobs,
            ParallelSpec::threads(threads),
            || [0u32; 21],
            |range, acc: &mut [u32; 21]| {
                for i in range {
                    acc[i % 21] += 1;
                }
            },
            |acc, later| {
                for (a, b) in acc.iter_mut().zip(later) {
                    *a += b;
                }
            },
        );
        black_box(acc);
    })
}

/// One wheel operation of a recorded event stream.
#[derive(Debug, Clone, Copy)]
enum WheelOp {
    Schedule(u64),
    Pop,
}

/// The schedule/pop sequence of one traffic unit of `requests`: sessions
/// of 8 arriving open-loop at 125/s, each request served in 500 µs, then
/// an exponential think time of 200 ms mean — the traffic engine's event
/// pattern without the application behind it.
fn traffic_event_stream(requests: u64, seed: u64) -> Vec<WheelOp> {
    const START: u32 = u32::MAX;
    let params = TrafficParams::standard(ArrivalKind::Poisson, requests);
    let per_session = params.requests_per_session;
    let mut arrivals = ArrivalProcess::new(
        ArrivalKind::Poisson,
        params.rate_per_sec / f64::from(per_session),
        split_seed(seed, 0),
    );
    let mut session_seeds = SplitSeedStream::new(split_seed(seed, 1), 0);
    let mut sessions: Vec<Session> = Vec::new();
    let mut wheel: TimingWheel<u32> = TimingWheel::new();
    let mut ops = Vec::new();
    let mut allotted = 0u64;
    let mut server = SimTime::ZERO;
    let first = SimTime::ZERO.saturating_add(arrivals.next_gap(SimTime::ZERO));
    ops.push(WheelOp::Schedule(first.as_nanos()));
    wheel.schedule(first, START);
    while let Some((at, id)) = wheel.pop() {
        ops.push(WheelOp::Pop);
        let sid = if id == START {
            let size = (requests - allotted).min(u64::from(per_session)) as u32;
            allotted += u64::from(size);
            if allotted < requests {
                let next = at.saturating_add(arrivals.next_gap(at));
                ops.push(WheelOp::Schedule(next.as_nanos()));
                wheel.schedule(next, START);
            }
            sessions.push(Session::new(size, session_seeds.next_seed()));
            sessions.len() - 1
        } else {
            id as usize
        };
        server = server.max(at).saturating_add(Duration::from_micros(500));
        let session = &mut sessions[sid];
        session.remaining -= 1;
        if session.remaining > 0 {
            let next = server.saturating_add(session.think(params.think_mean));
            ops.push(WheelOp::Schedule(next.as_nanos()));
            wheel.schedule(next, sid as u32);
        }
    }
    ops
}

fn wheel_ns_per_event(ops: &[WheelOp]) -> f64 {
    let events = ops.iter().filter(|op| matches!(op, WheelOp::Pop)).count() as u64;
    const ROUNDS: u64 = 20;
    ns_per_op(7, events * ROUNDS, || {
        for _ in 0..ROUNDS {
            let mut wheel: TimingWheel<u32> = TimingWheel::new();
            for op in ops {
                match *op {
                    WheelOp::Schedule(at) => wheel.schedule(SimTime::from_nanos(at), 0),
                    WheelOp::Pop => {
                        black_box(wheel.pop());
                    }
                }
            }
        }
    })
}

fn arrival_ns_per_draw(draws: u64, seed: u64) -> f64 {
    // Session starts: 1000 req/s in sessions of 8.
    let mut process = ArrivalProcess::new(ArrivalKind::Poisson, 125.0, seed);
    let mut now = SimTime::ZERO;
    ns_per_op(5, draws, || {
        for _ in 0..draws {
            now = now.saturating_add(process.next_gap(now));
        }
        black_box(now);
    })
}

fn serve_ns_per_req(requests: u64, seed: u64) -> f64 {
    let per_app: Vec<f64> = AppKind::ALL
        .iter()
        .enumerate()
        .map(|(i, &kind)| {
            let app_seed = split_seed(seed, i as u64);
            let mut env = standard_env(app_seed);
            let mut app = spawn_app(kind, &mut env);
            let mix = healthy_mix(kind);
            let mut strategy = RestartRetry::new(3);
            let config = traffic_config(split_seed(app_seed, 1));
            let mut sup = RequestSupervisor::begin(app.as_mut(), &mut env, &mut strategy, &config);
            let mut hook: Option<&mut dyn EnvHook> = None;
            let mut next = 0usize;
            ns_per_op(3, requests, || {
                for _ in 0..requests {
                    let req = &mix[next % mix.len()];
                    next += 1;
                    black_box(sup.serve(
                        app.as_mut(),
                        &mut env,
                        req,
                        &mut strategy,
                        &config,
                        &mut hook,
                    ));
                }
            })
        })
        .collect();
    per_app.iter().sum::<f64>() / per_app.len() as f64
}

fn experiment_ns_per_sample(rounds: usize, seed: u64) -> f64 {
    let corpus = full_corpus();
    let workloads: Vec<_> = corpus.iter().map(build_workload).collect();
    let samples = (rounds * corpus.len() * StrategyKind::ALL.len()) as u64;
    ns_per_op(5, samples, || {
        let mut seeds = SplitSeedStream::new(seed, 0);
        for _ in 0..rounds {
            for (fault, workload) in corpus.iter().zip(&workloads) {
                for strategy in StrategyKind::ALL {
                    black_box(run_prepared_experiment(
                        fault,
                        strategy,
                        seeds.next_seed(),
                        workload,
                    ));
                }
            }
        }
    })
}

fn oracle_ns_per_call(calls: u64, seed: u64) -> f64 {
    let per_app: Vec<f64> = AppKind::ALL
        .iter()
        .enumerate()
        .map(|(i, &kind)| {
            let mut env = standard_env(split_seed(seed, i as u64));
            let mut app = spawn_app(kind, &mut env);
            for req in healthy_mix(kind) {
                // Healthy requests only warm the state the oracle walks;
                // their answers do not matter here.
                let _ = app.handle(&req, &mut env);
            }
            ns_per_op(3, calls, || {
                for _ in 0..calls {
                    black_box(app.check_oracle(&env));
                }
            })
        })
        .collect();
    per_app.iter().sum::<f64>() / per_app.len() as f64
}

/// The graph engine's operator console sends this request to the web
/// tier every 50 ms of simulated time.
const CONSOLE_PROBE: &str = "PROBE console";

fn console_ns_per_probe(calls: u64, seed: u64) -> f64 {
    let mut env = standard_env(seed);
    let mut graph = ServiceGraph::new(&mut env);
    ns_per_op(5, calls, || {
        for _ in 0..calls {
            // The engine builds the request on every probe, so the probe
            // loop does too.
            let answer = graph.node(NodeId::Web).handle(&Request::new(CONSOLE_PROBE), &mut env);
            black_box(answer.is_ok());
        }
    })
}

fn channel_ns_per_msg(messages: u64) -> f64 {
    let mut channel = Channel::new("probe");
    ns_per_op(5, messages, || {
        for _ in 0..messages {
            let _ = black_box(channel.send("GET /index.html"));
            black_box(channel.recv());
        }
    })
}

/// Latency-shaped values: log-uniform over 2^19..2^31 ns (~0.5 ms–2 s).
fn latency_values(count: usize, seed: u64) -> Vec<u64> {
    let mut seeds = SplitSeedStream::new(seed, 0);
    (0..count)
        .map(|_| {
            let r = seeds.next_seed();
            let bits = 19 + (r % 12);
            (1u64 << bits) | ((r >> 32) & ((1u64 << bits) - 1))
        })
        .collect()
}

fn histogram_record_ns(records: u64, seed: u64) -> f64 {
    let values = latency_values(records as usize, seed);
    ns_per_op(7, records, || {
        let mut h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        black_box(h);
    })
}

fn histogram_merge_ns(merges: u64, seed: u64) -> f64 {
    let mut part = Histogram::new();
    for v in latency_values(1_000, seed) {
        part.record(v);
    }
    ns_per_op(5, merges, || {
        let mut acc = Histogram::new();
        for _ in 0..merges {
            acc.merge_from(&part);
        }
        black_box(acc);
    })
}

fn registry_merge_ns_per_key(merges: u64, seed: u64) -> f64 {
    // A unit-sized registry: counters and latency histograms under a few
    // dozen labels, as one campaign unit's environment records them.
    let mut part = MetricsRegistry::new();
    let values = latency_values(256, seed);
    for (i, &v) in values.iter().enumerate() {
        let label = format!("label-{}", i % 16);
        part.incr("probe.counter", &label, v % 7);
        part.incr("probe.other", &label, 1);
        part.record("probe.latency", &label, v);
    }
    let keys = (part.counters().count() + part.histograms().count()) as u64;
    ns_per_op(5, merges * keys, || {
        let mut acc = MetricsRegistry::new();
        for _ in 0..merges {
            acc.merge_from(&part);
        }
        black_box(acc);
    })
}

fn keyword_ns_per_report(mysql: &MiningArchive) -> f64 {
    let columns = mysql.archive.columns();
    let query = KeywordQuery::mysql();
    ns_per_op(3, columns.len() as u64, || {
        for i in 0..columns.len() {
            black_box(query.matches_segments(&columns.text_segments(i)));
        }
    })
}

fn normalize_ns_per_title(mysql: &MiningArchive) -> f64 {
    let columns = mysql.archive.columns();
    ns_per_op(3, columns.len() as u64, || {
        for i in 0..columns.len() {
            black_box(normalize_title(columns.title(i)));
        }
    })
}

fn dedup_ns_per_report(archive: &MiningArchive) -> f64 {
    const ROUNDS: usize = 8;
    let columns = archive.archive.columns();
    let norms: Vec<String> =
        (0..columns.len()).map(|i| normalize_title(columns.title(i))).collect();
    let key = |i: usize| (columns.id(i), columns.duplicate_of(i));
    let per_round: Vec<f64> = (0..5)
        .map(|_| {
            // Inputs are consumed by the call, so each round gets copies
            // made before its clock starts.
            let inputs: Vec<_> = (0..ROUNDS)
                .map(|_| ((0..columns.len()).collect::<Vec<_>>(), norms.clone()))
                .collect();
            let start = Instant::now();
            for (selected, norms) in inputs {
                black_box(dedup_indices_keyed(key, selected, norms));
            }
            start.elapsed().as_nanos() as f64 / (ROUNDS * columns.len()).max(1) as f64
        })
        .collect();
    lowest(&per_round)
}

/// The time split of healthy single-application units run through the
/// timing decorators.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Decorated {
    /// Self time of `Application::handle` per call, per application in
    /// `AppKind::ALL` order (web, desktop, db).
    pub handle_ns: [f64; 3],
    /// Self time of every recovery-strategy hook, per request.
    pub strategy_ns_per_req: f64,
    /// Undecorated unit wall time minus application and strategy self
    /// time, per request: the engine's own share.
    pub engine_self_ns_per_req: f64,
    /// Per unit compared, the checks it failed: a decorated run that
    /// diverged from the plain one, or a unit that was not healthy.
    pub unit_checks: Vec<Vec<String>>,
}

impl Decorated {
    /// The fastest of several measurements of every split, with every
    /// measurement's failed checks.
    pub fn fastest(rounds: &[Decorated]) -> Decorated {
        let min = |f: &dyn Fn(&Decorated) -> f64| lowest(&rounds.iter().map(f).collect::<Vec<_>>());
        Decorated {
            handle_ns: [0, 1, 2].map(|i| min(&|d| d.handle_ns[i])),
            strategy_ns_per_req: min(&|d| d.strategy_ns_per_req),
            engine_self_ns_per_req: min(&|d| d.engine_self_ns_per_req),
            unit_checks: rounds.iter().flat_map(|d| d.unit_checks.iter().cloned()).collect(),
        }
    }
}

/// Runs one healthy unit per application twice — plain, then decorated
/// under `tracer` as units `first_unit`, `first_unit + 1` and
/// `first_unit + 2` — and splits the decorated runs' time by layer.
pub fn decorated_units(requests: u64, seed: u64, first_unit: u32, tracer: &Tracer) -> Decorated {
    let mut out = Decorated::default();
    let mut plain_wall_ns = 0u64;
    let mut offered = 0u64;
    for (i, &kind) in AppKind::ALL.iter().enumerate() {
        let unit_seed = split_seed(seed, i as u64);
        let unit = first_unit + i as u32;
        let plain = healthy_unit(kind, requests, unit_seed, None);
        let decorated = healthy_unit(kind, requests, unit_seed, Some((tracer, unit)));
        let mut failed = Vec::new();
        if !plain.same_simulation(&decorated) {
            failed.push(format!("decorated {} unit diverged from the plain run", kind.name()));
        }
        if plain.stats.failures > 0 || plain.stats.dropped > 0 {
            failed.push(format!(
                "healthy {} unit met {} failures",
                kind.name(),
                plain.stats.failures
            ));
        }
        out.unit_checks.push(failed);
        plain_wall_ns += plain.wall_ns;
        offered += plain.stats.offered;
    }
    let spans = tracer.spans();
    // Each span's duration includes the tracer's own bookkeeping and one
    // clock read; an empty span measures exactly that, so it is taken off
    // every span before the time is split.
    let overhead_ns = empty_span_ns();
    let self_ns = |t: &SpanTotals| (t.self_ns as f64 - t.calls as f64 * overhead_ns).max(0.0);
    let (mut app_ns, mut strategy_ns) = (0.0, 0.0);
    for (i, slot) in out.handle_ns.iter_mut().enumerate() {
        let unit = first_unit + i as u32;
        let t = totals(&spans, |s| s.unit == unit);
        let handle = t.get("apps.handle").copied().unwrap_or_default();
        *slot = self_ns(&handle) / handle.calls.max(1) as f64;
        app_ns += self_ns(&handle);
        strategy_ns += t
            .iter()
            .filter(|(name, _)| name.starts_with("recovery."))
            .map(|(_, v)| self_ns(v))
            .sum::<f64>();
    }
    let per_req = |ns: f64| ns / offered.max(1) as f64;
    out.strategy_ns_per_req = per_req(strategy_ns);
    out.engine_self_ns_per_req = per_req((plain_wall_ns as f64 - app_ns - strategy_ns).max(0.0));
    out
}

/// The median duration of an empty span: what recording costs inside
/// the span it records.
fn empty_span_ns() -> f64 {
    let tracer = Tracer::on();
    for _ in 0..10_000 {
        tracer.span("empty", 0, 0, || ());
    }
    let durations: Vec<f64> = tracer.spans().iter().map(|s| s.duration_ns() as f64).collect();
    median(&durations)
}

/// Counts read off one rep's report. A count a workload's report does
/// not carry is 0.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counts {
    /// Campaign units (samples for `campaign`).
    pub units: u64,
    /// Simulated requests offered.
    pub requests: u64,
    /// Sessions started (one arrival draw each).
    pub sessions: u64,
    /// Events popped off the timing wheel.
    pub wheel_events: u64,
    /// Requests answered (each records one latency).
    pub answered: u64,
    /// Fault manifestations.
    pub failures: u64,
    /// Recovery actions.
    pub recoveries: u64,
    /// Hung attempts the watchdog detected.
    pub watchdog_fires: u64,
    /// Operator-console probes on the graph's ide → web edge.
    pub console_probes: u64,
    /// Graph db-tier invocations, retries included.
    pub db_seen: u64,
    /// Graph chains that needed the db tier.
    pub db_first: u64,
    /// Messages offered to graph channels.
    pub sends: u64,
    /// Messages lost on graph channels.
    pub lost: u64,
    /// Graph retransmits.
    pub retried: u64,
    /// Graph channel resets.
    pub resets: u64,
    /// Channel-plane recoveries.
    pub channel_recoveries: u64,
    /// Process-plane restarts.
    pub node_restarts: u64,
    /// Keys in the workload's metrics registry.
    pub registry_keys: u64,
    /// Raw MySQL archive messages.
    pub mysql_raw: u64,
    /// Mining survivors after each stage, summed over the archives.
    pub keyword_survivors: u64,
    /// After the high-impact filter.
    pub impact_survivors: u64,
    /// After the production-version filter.
    pub production_survivors: u64,
    /// After dedup.
    pub unique_survivors: u64,
}

impl Counts {
    /// Adds the request ledgers of a campaign's units. Every request is
    /// one wheel event, and every 8 requests of a unit one session.
    fn ledger<'a>(&mut self, units: impl Iterator<Item = &'a UnitStats>) {
        for s in units {
            self.units += 1;
            self.requests += s.offered;
            self.sessions += s.offered.div_ceil(8);
            self.answered += s.answered();
            self.failures += s.failures;
            self.recoveries += s.recoveries;
            self.watchdog_fires += s.watchdog_fires;
        }
        self.wheel_events = self.requests;
    }

    /// The counts `report` carries.
    pub fn of(report: &Report) -> Counts {
        let mut c = Counts::default();
        match report {
            Report::Traffic(r) => c.ledger(r.cells.iter().map(|cell| &cell.stats)),
            Report::Oblivious(r, registry) => {
                c.ledger(r.cells.iter().map(|cell| &cell.stats));
                c.registry_keys = (registry.counters().count()
                    + registry.gauges().count()
                    + registry.histograms().count()) as u64;
            }
            Report::Graph(r) => {
                c.ledger(r.cells.iter().map(|cell| &cell.stats.base));
                let g = r.graph_totals();
                let edges = [g.edges.client_web, g.edges.web_db, g.edges.ide_web];
                // Each console probe is one wheel event and two sends.
                c.console_probes = g.edges.ide_web.sends / 2;
                c.wheel_events += c.console_probes;
                c.db_seen = g.db_seen;
                c.db_first = g.db_first;
                c.sends = edges.iter().map(|e| e.sends).sum();
                c.lost = edges.iter().map(|e| e.lost).sum();
                c.retried = edges.iter().map(|e| e.retried).sum();
                c.resets = edges.iter().map(|e| e.resets).sum();
                c.channel_recoveries = g.channel_recoveries;
                c.node_restarts = g.node_restarts;
            }
            Report::Campaign(r) => {
                c.units = r.cells.iter().map(|cell| u64::from(cell.total)).sum();
            }
            Report::Mining(outcomes) => {
                for outcome in outcomes {
                    for stage in &outcome.funnel {
                        let n = stage.survivors as u64;
                        match stage.name.as_str() {
                            "keyword match" => c.keyword_survivors += n,
                            "high impact" => c.impact_survivors += n,
                            "production version" => c.production_survivors += n,
                            "unique bugs" => c.unique_survivors += n,
                            _ => {}
                        }
                    }
                    if outcome.app == AppKind::Mysql {
                        c.mysql_raw = outcome.raw_size() as u64;
                    }
                }
            }
        }
        c
    }

    /// Attempts per answered request: (answers + failed attempts) /
    /// answers; 0 when nothing was answered.
    pub fn attempts_per_answer(&self) -> f64 {
        if self.answered == 0 {
            0.0
        } else {
            (self.answered + self.failures) as f64 / self.answered as f64
        }
    }

    /// Db-tier invocations per chain that needed the db; 0 off the graph.
    pub fn db_amplification(&self) -> f64 {
        if self.db_first == 0 {
            0.0
        } else {
            self.db_seen as f64 / self.db_first as f64
        }
    }
}

/// One attributed piece of a rep: a probe cost times a count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Term {
    /// What the piece is, as `<probe> × <count>`.
    pub name: &'static str,
    /// Attributed nanoseconds per rep.
    pub ns: f64,
}

/// The pieces of one rep of `workload` the probes explain.
pub fn closure_terms(
    workload: Workload,
    c: &Counts,
    p: &Probes,
    d: &Decorated,
    render_ns: f64,
) -> Vec<Term> {
    let f = |n: u64| n as f64;
    let [web_ns, _de_ns, db_ns] = d.handle_ns;
    let mut terms = vec![Term { name: "harness.render", ns: render_ns }];
    let mut push = |name, ns| terms.push(Term { name, ns });
    match workload {
        Workload::Traffic | Workload::ObliviousMetrics => {
            push("sim.wheel × wheel_events", p.wheel_ns_per_event * f(c.wheel_events));
            push("traffic.arrival × sessions", p.arrival_ns_per_draw * f(c.sessions));
            push("recovery.serve × requests", p.serve_ns_per_req * f(c.requests));
            push("obs.histogram_record × answered", p.histogram_record_ns * f(c.answered));
            push("exec.fold × units", p.fold_ns_per_unit * f(c.units));
            push(
                "obs.registry_merge × keys × units",
                p.registry_merge_ns_per_key * f(c.registry_keys) * f(c.units),
            );
        }
        Workload::Graph => {
            // The operator console probes the web tier every 50 ms of
            // simulated time, through restart back-offs too, so a rep holds
            // several console probes per request. Each is one wheel event,
            // one send + recv and the web tier's handling of the probe.
            push("sim.wheel × wheel_events", p.wheel_ns_per_event * f(c.wheel_events));
            push("traffic.arrival × sessions", p.arrival_ns_per_draw * f(c.sessions));
            push("apps.handle.web × requests", web_ns * f(c.requests));
            push("apps.handle.db × db_seen", db_ns * f(c.db_seen));
            let request_sends = c.sends - 2 * c.console_probes;
            push("graph.channel × request sends", p.channel_ns_per_msg * f(request_sends));
            push("graph.channel × console probes", p.channel_ns_per_msg * f(c.console_probes));
            push("apps.console × console probes", p.console_ns_per_probe * f(c.console_probes));
            push("obs.histogram_record × answered", p.histogram_record_ns * f(c.answered));
            push("exec.fold × units", p.fold_ns_per_unit * f(c.units));
        }
        Workload::Campaign => {
            push("recovery.experiment × samples", p.experiment_ns_per_sample * f(c.units));
            push("exec.fold × samples", p.fold_ns_per_unit * f(c.units));
        }
        Workload::Mining => {
            push("mining.keyword × mysql_raw", p.keyword_ns_per_report * f(c.mysql_raw));
            push(
                "mining.normalize × production_survivors",
                p.normalize_ns_per_title * f(c.production_survivors),
            );
            push(
                "mining.dedup × production_survivors",
                p.dedup_ns_per_report * f(c.production_survivors),
            );
        }
    }
    terms
}
