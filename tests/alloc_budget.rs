//! Pins the heap cost of the request path and of one sampled-campaign step.
//!
//! - Every answer of each application's traffic mix, and a channel's send
//!   and recv of a borrowed body, allocate nothing: answers keep their
//!   text's pieces (`200 OK {path}` holds `/index.html` borrowed from the
//!   request). A service-graph chain's transfers consult only their
//!   channel's fault state and queue nothing.
//! - A checkpoint's snapshot and restore, and a refresh of a warm
//!   checkpoint in place and its restore, allocate nothing while the
//!   application holds no table data. Checkpoint strategies refresh their
//!   checkpoint after every served request, so a healthy open-loop unit of
//!   each mix under each of them, and a healthy service-graph unit,
//!   allocate only their own setup.
//! - A failed attempt of an owned trigger request copies the argument of
//!   its failure reason (the `PROBE` slug) out of the body; a unit whose
//!   mix carries such a trigger holds its allocations per failed attempt
//!   to a budget.
//! - One sampled-campaign experiment builds a fresh environment,
//!   application and strategy, so whatever it allocates is paid again for
//!   every sample that runs. `run_prepared_experiment`'s per-sample mean
//!   is held to a budget.
//! - A whole campaign runs only the first sample of each seed-blind
//!   `(fault, strategy)` pair and the first sample of each decision path
//!   of the race faults' pairs; the rest reuse a proven outcome and
//!   allocate nothing. A race's deciding read logs into the environment's
//!   inline log, and a memo hit replays the sample's seed on the stack,
//!   so neither allocates. The campaign's per-sample mean, set-up
//!   included, is held to a budget of its own.
//! - The §4 keyword stage allocates nothing per row once its query is
//!   compiled: each `KeywordQuery::matches_segments` is one
//!   `Automaton::scan_segments` of the query's own Shift-And automaton,
//!   which scans ASCII text in place, and the stage's arena pass
//!   allocates only its match-end and kept-row vectors.
//! - Generating an archive and rendering it into columns makes the same
//!   allocations at 44,000 and at 440,000 rows: a noise row is rendered
//!   through one reused report into an arena reserved once, so no row
//!   allocates and no column regrows.
//!
//! The counting allocator is the whole test binary's `#[global_allocator]`,
//! so it lives in a file of its own. It counts per thread: libtest's other
//! threads allocate into their own counters, never into the measured one.

use faultstudy::apps::{spawn_app, Request};
use faultstudy::core::taxonomy::{AppKind, FaultClass};
use faultstudy::corpus::{find, full_corpus, PopulationSpec, SyntheticPopulation};
use faultstudy::env::Environment;
use faultstudy::exec::ParallelSpec;
use faultstudy::graph::{
    run_graph, Channel, ChannelFaultKind, GraphFaultPlan, PlaneKind, ServiceGraph,
};
use faultstudy::harness::experiment::{
    build_workload, run_prepared, run_prepared_experiment, StrategyKind,
};
use faultstudy::harness::memo::DecisionMemo;
use faultstudy::harness::{Campaign, CampaignReport, CampaignSpec};
use faultstudy::mining::KeywordQuery;
use faultstudy::recovery::SupervisorConfig;
use faultstudy::sim::rng::split_seed;
use faultstudy::sim::sched::RaceGadget;
use faultstudy::sim::time::Duration;
use faultstudy::traffic::{run_open_loop, ArrivalKind, TrafficParams};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

/// Mean bytes requested per sampled-campaign experiment, at most (reads
/// 1,132; about 15% margin).
const BYTES_PER_SAMPLE: f64 = 1300.0;
/// Mean allocation calls per sampled-campaign experiment, at most (reads
/// 15.9; about 15% margin).
const ALLOCS_PER_SAMPLE: f64 = 18.5;
/// Mean bytes requested per sample of a whole campaign, at most (reads
/// 57.2; about 15% margin).
const BYTES_PER_CAMPAIGN_SAMPLE: f64 = 67.0;
/// Mean allocation calls per sample of a whole campaign, at most (reads
/// 0.817; about 15% margin).
const ALLOCS_PER_CAMPAIGN_SAMPLE: f64 = 0.94;
/// Mean allocation calls per offered request of a healthy graph unit, at
/// most: the unit's setup spread over its requests (reads 0.0077).
const ALLOCS_PER_GRAPH_REQUEST: f64 = 0.01;
/// Mean allocation calls per offered request of a healthy unit of an
/// application's mix under a checkpointing strategy, at most: the unit's
/// setup spread over its requests (reads 0.0063 to 0.0070; rollback recovery
/// adds its message log).
const ALLOCS_PER_MIX_REQUEST: f64 = 0.01;
/// Mean allocation calls per failed attempt of a unit whose mix carries an
/// owned `PROBE` trigger, at most: one copy of the slug per attempt, plus
/// the unit's setup spread over its failures (reads 1.010).
const ALLOCS_PER_FAILED_ATTEMPT: f64 = 1.05;

/// Allocations the keyword stage's arena pass may add going from the
/// 44,000-row to the 440,000-row MySQL archive: the extra doublings of its
/// match-end and kept-row vectors (reads 19 and 26).
const ARENA_PASS_EXTRA_ALLOCS: u64 = 8;

/// Each application's traffic-campaign mix without its fault triggers,
/// plus the operator console's probe on MiniWeb: literal answers and
/// formatted ones (`200 OK {path}`, `401 realm={realm}`, `resolved {host}`,
/// `served {n} pipelined requests`, `connected (unresolved {client})`,
/// `clicked {widget}`, `opened {path}`).
const MIXES: [(&str, AppKind, &[&str]); 3] = [
    (
        "MiniWeb",
        AppKind::Apache,
        &[
            "GET /index.html",
            "GET /file",
            "AUTH admin",
            "RESOLVE remote.example",
            "SSL",
            "BIND",
            "KEEPALIVE 4",
            "PROBE console",
        ],
    ),
    ("MiniDb", AppKind::Mysql, &["PING", "CONNECT", "UNLOCK TABLES", "FLUSH TABLES"]),
    (
        "MiniDe",
        AppKind::Gnome,
        &[
            "CLICK clock",
            "CLICK desktop-background",
            "OPEN desktop/readme.txt",
            "OPEN-DISPLAY",
            "PLAY-SOUND",
            "LAUNCH",
            "FORMULA (1+2)",
        ],
    ),
];

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting every allocation and reallocation made
/// on the calling thread.
struct Counting;

fn count(bytes: usize) {
    // `try_with` fails only while the thread's locals are being torn down;
    // those allocations are not the test's.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

// SAFETY: each method passes its caller's arguments unchanged to `System`,
// whose contract is the trait's own. Counting touches only `const`-initialised
// thread-locals, which never allocate and so never re-enter the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// This thread's `(allocations, bytes)` so far.
fn counters() -> (u64, u64) {
    (ALLOCS.with(Cell::get), BYTES.with(Cell::get))
}

/// The allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = counters().0;
    f();
    counters().0 - before
}

#[test]
fn every_mix_answer_and_wire_transfer_allocates_nothing() {
    const CALLS: u64 = 100;
    let mut counts = Vec::new();
    for (name, kind, bodies) in MIXES {
        let mut env = Environment::builder().seed(7).build();
        let mut app = spawn_app(kind, &mut env);
        for &body in bodies {
            let req = Request::new(body);
            // The first call pays for whatever is built once per process.
            black_box(app.handle(&req, &mut env)).expect("a healthy application answers");
            let n = allocations(|| {
                for _ in 0..CALLS {
                    let _ = black_box(app.handle(&req, &mut env));
                }
            });
            counts.push((format!("{name} {body:?}"), n));
        }
    }

    let mut channel = Channel::new("wire");
    let mut transfer = || {
        black_box(channel.send("GET /index.html")).expect("the channel has room");
        black_box(channel.recv()).expect("the message is delivered");
    };
    transfer();
    let n = allocations(|| (0..CALLS).for_each(|_| transfer()));
    counts.push(("Channel::send of a borrowed body, then recv".to_owned(), n));

    let allocating: Vec<String> = counts
        .iter()
        .filter(|(_, n)| *n > 0)
        .map(|(what, n)| format!("{what}: {n} allocations in {CALLS} calls"))
        .collect();
    assert!(allocating.is_empty(), "allocation-free paths allocated:\n{}", allocating.join("\n"));
}

#[test]
fn snapshot_and_restore_allocate_nothing() {
    const PAIRS: u64 = 100;
    let mut allocating = Vec::new();
    for (name, kind, bodies) in MIXES {
        let mut env = Environment::builder().seed(7).build();
        let mut app = spawn_app(kind, &mut env);
        if kind == AppKind::Apache {
            app.arm_defect("apache-edn-02").expect("MiniWeb knows its own defect");
        }
        let mut pair = || {
            let checkpoint = black_box(app.snapshot());
            app.restore(&checkpoint);
        };
        // The first pair pays for whatever is built once per process.
        pair();
        let n = allocations(|| (0..PAIRS).for_each(|_| pair()));
        if n > 0 {
            allocating.push(format!("{name}: {n} allocations in {PAIRS} snapshot + restore pairs"));
        }

        // A warm checkpoint, refreshed in place after a served request as a
        // strategy's `on_success` refreshes it, then restored.
        let mut warm = app.snapshot();
        let req = Request::new(bodies[0]);
        let mut refresh = || {
            black_box(app.handle(&req, &mut env)).expect("a healthy application answers");
            app.snapshot_into(&mut warm);
            app.restore(black_box(&warm));
        };
        refresh();
        let n = allocations(|| (0..PAIRS).for_each(|_| refresh()));
        if n > 0 {
            allocating
                .push(format!("{name}: {n} allocations in {PAIRS} snapshot_into + restore pairs"));
        }
    }
    assert!(allocating.is_empty(), "checkpoints allocated:\n{}", allocating.join("\n"));
}

/// Allocations per offered request, and per failed attempt, that one
/// open-loop unit of 4,000 requests under `strategy` (with the harness's
/// budgets) makes on a fresh `kind` with `defect` armed, drawing from
/// `bodies` and, if `defect` is armed, from its trigger request twice.
/// Counts only `run_open_loop`: building the environment, the application
/// and the strategy is paid once per unit, not once per request.
fn unit_allocations(
    strategy: StrategyKind,
    kind: AppKind,
    bodies: &[&'static str],
    defect: Option<&str>,
    seed: u64,
) -> (f64, f64) {
    let mut env = Environment::builder().seed(split_seed(seed, 0)).build();
    let mut app = spawn_app(kind, &mut env);
    let mut mix: Vec<Request> = bodies.iter().map(|&body| Request::new(body)).collect();
    if let Some(slug) = defect {
        app.arm_defect(slug).expect("the application knows its own defect");
        let trigger = app.trigger_request(slug).expect("every defect has a trigger");
        mix.extend([trigger.clone(), trigger]);
    }
    let mut strategy = strategy.build();
    let config = SupervisorConfig::permissive();
    let params = TrafficParams::standard(ArrivalKind::Poisson, 4_000);
    let mut stats = None;
    let allocs = allocations(|| {
        stats = Some(run_open_loop(
            app.as_mut(),
            &mut env,
            strategy.as_mut(),
            &config,
            None,
            &mix,
            &params,
            split_seed(seed, 1),
            split_seed(seed, 2),
        ));
    });
    let stats = stats.expect("the unit ran");
    if defect.is_none() {
        assert_eq!((stats.dropped, stats.failures), (0, 0), "{kind:?} under {strategy:?}");
    }
    (allocs as f64 / stats.offered as f64, allocs as f64 / stats.failures as f64)
}

#[test]
fn a_healthy_unit_of_each_mix_allocates_only_its_setup() {
    let mut over = Vec::new();
    for strategy in [
        StrategyKind::Restart,
        StrategyKind::Rollback,
        StrategyKind::ProcessPair,
        StrategyKind::Progressive,
        StrategyKind::Rejuvenation,
    ] {
        for (name, kind, bodies) in MIXES {
            // The first unit pays for whatever is built once per process.
            unit_allocations(strategy, kind, bodies, None, 1);
            let (allocs, _) = unit_allocations(strategy, kind, bodies, None, 7);
            if allocs > ALLOCS_PER_MIX_REQUEST {
                over.push(format!(
                    "{name} under {strategy}: {allocs:.4} allocations per offered request"
                ));
            }
        }
    }
    assert!(
        over.is_empty(),
        "healthy units of each mix exceed the budget of {ALLOCS_PER_MIX_REQUEST}:\n{}",
        over.join("\n")
    );
}

#[test]
fn a_failed_attempt_stays_within_its_allocation_budget() {
    let (_, kind, bodies) = MIXES[0];
    // An environment-independent defect reached through `PROBE`: every
    // attempt of its owned trigger fails, and every retry restores.
    unit_allocations(StrategyKind::Restart, kind, bodies, Some("apache-ei-17"), 1);
    let (_, allocs) =
        unit_allocations(StrategyKind::Restart, kind, bodies, Some("apache-ei-17"), 7);
    assert!(
        allocs <= ALLOCS_PER_FAILED_ATTEMPT,
        "a unit with an owned PROBE trigger makes {allocs:.3} allocations per failed attempt; \
         the budget is {ALLOCS_PER_FAILED_ATTEMPT}"
    );
}

#[test]
fn a_healthy_graph_unit_stays_within_its_allocation_budget() {
    // Counts only `run_graph`: building the environment, the graph and
    // the plan is paid once per unit, not once per request.
    let unit = |seed: u64, requests: u64| {
        let mut env = Environment::builder().seed(split_seed(seed, 0)).build();
        let mut graph = ServiceGraph::new(&mut env);
        let control = GraphFaultPlan {
            name: "control".to_owned(),
            class: FaultClass::EnvDependentTransient,
            kind: ChannelFaultKind::S1SenderPageFault,
            events: Vec::new(),
        };
        let params = TrafficParams::standard(ArrivalKind::Poisson, requests);
        let mut offered = 0;
        let allocs = allocations(|| {
            let stats = run_graph(
                &mut env,
                &mut graph,
                &control,
                PlaneKind::Channel,
                3,
                &params,
                split_seed(seed, 1),
                split_seed(seed, 2),
                split_seed(seed, 3),
            );
            assert_eq!(stats.base.dropped, 0, "a healthy graph answers every request");
            offered = stats.base.offered;
        });
        allocs as f64 / offered as f64
    };
    // The first unit pays for whatever is built once per process.
    unit(1, 4_000);

    let allocs = unit(7, 4_000);
    assert!(
        allocs <= ALLOCS_PER_GRAPH_REQUEST,
        "a healthy graph unit makes {allocs:.4} allocations per offered request; \
         the budget is {ALLOCS_PER_GRAPH_REQUEST}"
    );
}

#[test]
fn one_campaign_sample_stays_within_its_allocation_budget() {
    let corpus = full_corpus();
    let workloads: Vec<_> = corpus.iter().map(build_workload).collect();
    let pass = |seed: u64| {
        for (fault, workload) in corpus.iter().zip(&workloads) {
            for strategy in StrategyKind::ALL {
                std::hint::black_box(run_prepared_experiment(fault, strategy, seed, workload));
            }
        }
    };
    // The first pass pays for whatever is built once per process; only
    // the steady state is budgeted.
    pass(0);

    let (allocs_before, bytes_before) = counters();
    let seeds = 1..=3;
    for seed in seeds.clone() {
        pass(seed);
    }
    let (allocs_after, bytes_after) = counters();

    let samples = (seeds.count() * corpus.len() * StrategyKind::ALL.len()) as f64;
    let allocs = (allocs_after - allocs_before) as f64 / samples;
    let bytes = (bytes_after - bytes_before) as f64 / samples;
    assert!(
        allocs <= ALLOCS_PER_SAMPLE && bytes <= BYTES_PER_SAMPLE,
        "one campaign sample makes {allocs:.1} allocations of {bytes:.0} bytes on average; \
         the budget is {ALLOCS_PER_SAMPLE} allocations and {BYTES_PER_SAMPLE} bytes"
    );
}

#[test]
fn a_deciding_read_and_a_memo_hit_allocate_nothing() {
    let gadget = RaceGadget::default();
    let mut env = Environment::builder().seed(5).build();
    // Twice the log's capacity: the reads past it only mark it opaque.
    let reads = allocations(|| {
        for _ in 0..16 {
            env.advance(Duration::from_millis(1));
            black_box(env.race(gadget)).ok();
        }
    });
    assert_eq!(reads, 0, "deciding reads allocate");

    let fault = find("mysql-edt-01").expect("a race fault");
    let workload = build_workload(&fault);
    let memo = DecisionMemo::default();
    let seeds = 0..256;
    for seed in seeds.clone() {
        if memo.lookup(seed).is_none() {
            let (out, _, reads) =
                run_prepared(&fault, StrategyKind::Progressive, seed, &workload, false);
            memo.insert(&reads, out);
        }
    }
    let mut hits = 0;
    let lookups = allocations(|| {
        for seed in seeds {
            hits += usize::from(black_box(memo.lookup(seed)).is_some());
        }
    });
    assert_eq!(hits, 256, "every path is recorded");
    assert_eq!(lookups, 0, "memo hits allocate");
}

#[test]
fn a_whole_campaign_stays_within_its_allocation_budget() {
    const SAMPLES: u32 = 20_000;
    let run = |seed: u64| {
        let spec = CampaignSpec { samples: SAMPLES, seed };
        black_box(CampaignReport::run(spec, ParallelSpec::SEQUENTIAL));
    };
    // The first run pays for whatever is built once per process.
    run(1);

    let (allocs_before, bytes_before) = counters();
    run(7);
    let (allocs_after, bytes_after) = counters();

    let allocs = (allocs_after - allocs_before) as f64 / f64::from(SAMPLES);
    let bytes = (bytes_after - bytes_before) as f64 / f64::from(SAMPLES);
    assert!(
        allocs <= ALLOCS_PER_CAMPAIGN_SAMPLE && bytes <= BYTES_PER_CAMPAIGN_SAMPLE,
        "a {SAMPLES}-sample campaign makes {allocs:.2} allocations of {bytes:.0} bytes per \
         sample; the budget is {ALLOCS_PER_CAMPAIGN_SAMPLE} allocations and \
         {BYTES_PER_CAMPAIGN_SAMPLE} bytes"
    );
}

#[test]
fn the_keyword_stage_allocates_nothing() {
    let population =
        SyntheticPopulation::generate(&PopulationSpec::paper_scale(AppKind::Mysql, 2000));
    let columns = population.to_columns();
    let mysql = KeywordQuery::mysql();
    let mut counts = Vec::new();
    let n = allocations(|| {
        for i in 0..columns.len() {
            black_box(mysql.matches_segments(&columns.text_segments(i)));
        }
    });
    counts.push((format!("the §4 query over {} archive rows", columns.len()), n));

    // The §4 query's 25 bytes compile to Shift-And.
    let text = ["Server CRASHED under load", "", "mysqld died unexpectedly: a race condition"];
    counts.push((
        "the §4 query".to_owned(),
        allocations(|| assert!(black_box(mysql.matches_segments(&text)))),
    ));

    let allocating: Vec<String> = counts
        .iter()
        .filter(|(_, n)| *n > 0)
        .map(|(what, n)| format!("{what}: {n} allocations"))
        .collect();
    assert!(allocating.is_empty(), "allocation-free scans allocated:\n{}", allocating.join("\n"));

    // The stage's arena pass allocates only its match-end and kept-row
    // vectors, whose doublings grow with the log of the matches: the
    // tenfold archive may add a few doublings, never a row's allocation.
    let arena_pass = |archive_size: usize| {
        let spec =
            PopulationSpec { archive_size, ..PopulationSpec::paper_scale(AppKind::Mysql, 2000) };
        let columns = SyntheticPopulation::generate(&spec).to_columns();
        allocations(|| {
            black_box(mysql.matching_rows(&columns, ParallelSpec::SEQUENTIAL));
        })
    };
    let paper = arena_pass(44_000);
    let tenfold = arena_pass(440_000);
    assert!(
        tenfold <= paper + ARENA_PASS_EXTRA_ALLOCS,
        "the keyword stage's arena pass makes {paper} allocations over 44,000 rows and \
         {tenfold} over 440,000; at most {ARENA_PASS_EXTRA_ALLOCS} more are its vectors' \
         doublings"
    );
}

#[test]
fn generating_an_archive_allocates_nothing_per_row() {
    let build = |archive_size: usize| {
        let spec =
            PopulationSpec { archive_size, ..PopulationSpec::paper_scale(AppKind::Mysql, 2000) };
        allocations(|| {
            black_box(SyntheticPopulation::generate(&spec).to_columns());
        })
    };
    // The first build pays for whatever is built once per process.
    build(1_000);
    let paper = build(44_000);
    let tenfold = build(440_000);
    assert_eq!(
        paper, tenfold,
        "generating and flattening the MySQL archive makes {paper} allocations at 44,000 rows \
         and {tenfold} at 440,000; a row or a regrown column allocates"
    );
}
