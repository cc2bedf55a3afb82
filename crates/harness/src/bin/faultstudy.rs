//! The `faultstudy` CLI: regenerates every table and figure of the paper.
//!
//! ```text
//! faultstudy <command> [--seed N] [--threads N] [--samples N]
//!            [--requests N] [--arrival poisson|bursty|diurnal] [--json]
//!
//! commands:
//!   tables     Tables 1-3: per-application fault classification
//!   figures    Figures 1-3: fault distributions over releases/time
//!   summary    the §5.4 discussion numbers
//!   mine       the §4 selection funnels at paper scale
//!   recover    the end-to-end recovery matrix (§5.4/§8 future work)
//!   campaign   randomized (fault, strategy, seed) sampling in distribution
//!   inject     plan-driven environment injection x strategy x scrub
//!   traffic    open-loop traffic with per-request SLO accounting
//!   micro      microreboot vs whole-process restart under traffic
//!   graph      the distributed IPC fault plane: per-channel recovery vs
//!              process supervision on the three-tier service graph
//!   oblivious  failure-oblivious recovery priced by correctness oracles
//!   metrics    deterministic observability: TTR histograms + stage timings
//!   verify     CI self-check: exits non-zero if a guarantee fails
//!   lee-iyer   the §7 reconciliation with \[Lee93\]
//!   experiments the paper-vs-measured report (EXPERIMENTS.md)
//!   all        the report commands (tables through lee-iyer), in order;
//!              with --json, one object keyed by command
//! ```
//!
//! Every command exits zero on success and non-zero with a message on
//! stderr when it cannot produce its output or a checked guarantee fails.

use faultstudy_core::taxonomy::AppKind;
use faultstudy_core::timeline::{by_month, by_release};
use faultstudy_corpus::paper_study;
use faultstudy_exec::MAX_THREADS;
use faultstudy_harness::{
    funnel_violations, paper_scale_funnels, Campaign, CampaignReport, CampaignSpec, GraphReport,
    InjectReport, InjectSpec, LoadSpec, MicroReport, ObliviousReport, ParallelSpec, RecoveryMatrix,
    TrafficReport,
};
use faultstudy_report::{
    render_discussion, render_release_figure, render_table, render_time_figure,
    TandemReconciliation,
};
use faultstudy_traffic::ArrivalKind;
use std::process::ExitCode;

struct Options {
    seed: u64,
    json: bool,
    /// Worker threads for the recovery matrix, every campaign and mining;
    /// `AUTO` = available parallelism. Results are byte-identical for every
    /// value.
    parallel: ParallelSpec,
    /// Sample count for the `campaign` subcommand. The streaming fold's
    /// state does not grow with this value (one accumulator per chunk in
    /// flight), so multi-million sample stress runs are just slower, not
    /// bigger.
    samples: u32,
    /// Total requests the open-loop campaigns (`traffic`, `micro`,
    /// `oblivious`, `graph`) offer across their units. All of it is
    /// simulated time, so millions of requests are seconds of wall clock.
    requests: u64,
    /// Arrival process of the open-loop campaigns.
    arrival: ArrivalKind,
}

impl Default for Options {
    fn default() -> Options {
        Options {
            seed: 2000,
            json: false,
            parallel: ParallelSpec::AUTO,
            samples: 500,
            requests: 20_000,
            arrival: ArrivalKind::Poisson,
        }
    }
}

impl Options {
    /// The load every open-loop campaign offers.
    fn load(&self) -> LoadSpec {
        LoadSpec { seed: self.seed, requests: self.requests, arrival: self.arrival }
    }
}

/// A command's result. In `--json` mode a command returns the one
/// document it prints, so that `all --json` can print six as one object;
/// in text mode it prints as it goes and returns none.
struct Done {
    /// The document `--json` prints.
    json: Option<serde_json::Value>,
    /// Whether the command's checked guarantees held.
    ok: bool,
}

impl Done {
    /// A text-mode result.
    fn printed(ok: bool) -> Done {
        Done { json: None, ok }
    }

    /// `value` as the command's `--json` document.
    fn json(value: &impl serde::Serialize, ok: bool) -> Done {
        Done { json: Some(serde_json::to_value(value)), ok }
    }
}

/// A command that runs under its options.
type Command = fn(&Options) -> Done;

/// The report commands `all` runs, in order: each one's name, which keys
/// its document in `all --json`, and the command.
const REPORTS: [(&str, Command); 6] = [
    ("tables", tables),
    ("figures", figures),
    ("summary", summary),
    ("mine", mine),
    ("recover", |opts| run_campaign::<RecoveryMatrix>(opts.seed, opts)),
    ("lee-iyer", lee_iyer),
];

/// Serializes `value` to pretty JSON on stdout; on failure, reports on
/// stderr instead of panicking. Returns whether the output was produced.
fn print_json(what: &str, value: &serde_json::Value) -> bool {
    match serde_json::to_string_pretty(value) {
        Ok(text) => {
            println!("{text}");
            true
        }
        Err(err) => {
            eprintln!("faultstudy: cannot serialize {what}: {err}");
            false
        }
    }
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(command) = args.next() else {
        eprintln!("usage: faultstudy <tables|figures|summary|mine|recover|campaign|inject|traffic|micro|graph|oblivious|metrics|verify|lee-iyer|experiments|all> [--seed N] [--threads N] [--samples N] [--requests N] [--arrival poisson|bursty|diurnal] [--json]");
        return ExitCode::FAILURE;
    };
    let mut opts = Options::default();
    let mut rest = args;
    while let Some(arg) = rest.next() {
        match arg.as_str() {
            "--json" => opts.json = true,
            "--seed" => match rest.next().and_then(|v| v.parse().ok()) {
                Some(v) => opts.seed = v,
                None => {
                    eprintln!("--seed requires an integer value");
                    return ExitCode::FAILURE;
                }
            },
            "--threads" => match rest.next().and_then(|v| v.parse().ok()) {
                Some(v) if v <= MAX_THREADS => opts.parallel = ParallelSpec::threads(v),
                _ => {
                    eprintln!("--threads requires an integer value from 0 (auto) to {MAX_THREADS}");
                    return ExitCode::FAILURE;
                }
            },
            "--samples" => match rest.next().and_then(|v| v.parse().ok()) {
                Some(v) if v > 0 => opts.samples = v,
                _ => {
                    eprintln!("--samples requires a positive integer value");
                    return ExitCode::FAILURE;
                }
            },
            "--requests" => match rest.next().and_then(|v| v.parse().ok()) {
                Some(v) if v > 0 => opts.requests = v,
                _ => {
                    eprintln!("--requests requires a positive integer value");
                    return ExitCode::FAILURE;
                }
            },
            "--arrival" => match rest.next().as_deref().and_then(ArrivalKind::parse) {
                Some(kind) => opts.arrival = kind,
                None => {
                    eprintln!("--arrival requires one of: poisson, bursty, diurnal");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("unknown argument: {other}");
                return ExitCode::FAILURE;
            }
        }
    }
    let done = match command.as_str() {
        "experiments" => {
            print!("{}", faultstudy_harness::experiments_markdown(opts.seed));
            Done::printed(true)
        }
        "campaign" => run_campaign::<CampaignReport>(
            CampaignSpec { samples: opts.samples, seed: opts.seed },
            &opts,
        ),
        "inject" => run_campaign::<InjectReport>(InjectSpec { seed: opts.seed }, &opts),
        "traffic" => run_campaign::<TrafficReport>(opts.load(), &opts),
        "micro" => run_campaign::<MicroReport>(opts.load(), &opts),
        "graph" => run_campaign::<GraphReport>(opts.load(), &opts),
        "oblivious" => run_campaign::<ObliviousReport>(opts.load(), &opts),
        "metrics" => metrics(&opts),
        "verify" => Done::printed(verify(&opts)),
        "all" => {
            // Run every report even if one fails, then report the worst.
            let mut ok = true;
            let mut documents = Vec::new();
            for (name, report) in REPORTS {
                let done = report(&opts);
                ok &= done.ok;
                documents.extend(done.json.map(|json| (name.into(), json)));
            }
            let json = opts.json.then_some(serde_json::Value::Map(documents));
            Done { json, ok }
        }
        other => match REPORTS.iter().find(|(name, _)| *name == other) {
            Some((_, report)) => report(&opts),
            None => {
                eprintln!("unknown command: {other}");
                Done::printed(false)
            }
        },
    };
    let printed = done.json.is_none_or(|json| print_json(&command, &json));
    if done.ok && printed {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn tables(opts: &Options) -> Done {
    let study = paper_study();
    if opts.json {
        let per_app: Vec<_> = AppKind::ALL
            .iter()
            .map(|&app| {
                serde_json::json!({
                    "app": app.name(),
                    "table": app.table_number(),
                    "counts": study.table(app),
                })
            })
            .collect();
        return Done::json(&per_app, true);
    }
    for app in AppKind::ALL {
        println!("{}", render_table(&study, app));
    }
    Done::printed(true)
}

fn figures(opts: &Options) -> Done {
    let study = paper_study();
    if opts.json {
        let value = serde_json::json!({
            "figure1": by_release(&study, AppKind::Apache),
            "figure2": by_month(&study, AppKind::Gnome),
            "figure3": by_release(&study, AppKind::Mysql),
        });
        return Done::json(&value, true);
    }
    println!("{}", render_release_figure(&by_release(&study, AppKind::Apache)));
    println!("{}", render_time_figure(&by_month(&study, AppKind::Gnome)));
    println!("{}", render_release_figure(&by_release(&study, AppKind::Mysql)));
    Done::printed(true)
}

fn summary(opts: &Options) -> Done {
    let discussion = paper_study().discussion();
    if opts.json {
        return Done::json(&discussion, true);
    }
    println!("{}", render_discussion(&discussion));
    Done::printed(true)
}

/// Prints the three funnels, reports each broken term of their §4
/// contract on stderr, and says whether there were none, in every output
/// mode.
fn mine(opts: &Options) -> Done {
    let (runs, _) = paper_scale_funnels(opts.seed, opts.parallel, false);
    if !opts.json {
        for run in &runs {
            println!("{}", run.outcome);
            println!("  {}", run.quality);
        }
    }
    let anomalies = funnel_violations(&runs);
    for anomaly in &anomalies {
        eprintln!("faultstudy: mine: ANOMALY: {anomaly}");
    }
    Done { json: opts.json.then(|| serde_json::to_value(&runs)), ok: anomalies.is_empty() }
}

/// CI-style self-check: re-runs the headline experiments and exits
/// non-zero if any of the paper's guarantees fails to reproduce.
fn verify(opts: &Options) -> bool {
    let mut problems: Vec<String> = Vec::new();

    let study = paper_study();
    if study.total() != 139 {
        problems.push(format!("corpus has {} faults, expected 139", study.total()));
    }
    problems.extend(RecoveryMatrix::run(opts.seed, opts.parallel).violations());
    let spec = CampaignSpec { samples: 200, seed: opts.seed };
    let campaign = CampaignReport::run(spec, opts.parallel);
    let injection = InjectReport::run(InjectSpec { seed: opts.seed }, opts.parallel);
    problems.extend(campaign_problems(&campaign, &injection));
    problems.extend(funnel_violations(&paper_scale_funnels(opts.seed, opts.parallel, false).0));
    if problems.is_empty() {
        println!("verify: all guarantees reproduced at seed {}", opts.seed);
        true
    } else {
        for p in &problems {
            eprintln!("verify: FAILED: {p}");
        }
        false
    }
}

/// What `verify` checks in the sampled and the injection campaign: each
/// report's `violations()` (its anomalies, plus the sampled campaign's
/// ledger laws), and that injection exercised every hardening mechanism.
fn campaign_problems(campaign: &CampaignReport, injection: &InjectReport) -> Vec<String> {
    let mut problems = campaign.violations();
    problems.extend(injection.violations());
    if injection.watchdog_fires() == 0 || injection.breaker_trips() == 0 || injection.scrubs() == 0
    {
        problems.push(format!(
            "injection hardening idle: {} watchdog fires, {} breaker trips, {} scrubs",
            injection.watchdog_fires(),
            injection.breaker_trips(),
            injection.scrubs()
        ));
    }
    problems
}

/// The observability surface: time-to-recovery distributions per strategy
/// from an instrumented matrix run, the supervisor's hardening counters
/// from an instrumented injection campaign, plus the mining pipeline's
/// per-stage timings, all measured in simulated time and byte-identical
/// for every seed and thread count.
fn metrics(opts: &Options) -> Done {
    use faultstudy_harness::StrategyKind;
    use faultstudy_sim::time::Duration;

    let (matrix, mut registry) = RecoveryMatrix::run_instrumented(opts.seed, opts.parallel);
    let (_, mining) = paper_scale_funnels(opts.seed, opts.parallel, true);
    registry.merge_from(&mining);
    let (_, injection) =
        InjectReport::run_instrumented(InjectSpec { seed: opts.seed }, opts.parallel);
    registry.merge_from(&injection);

    if opts.json {
        let mut ttr: Vec<(std::borrow::Cow<'static, str>, serde_json::Value)> = Vec::new();
        for strategy in StrategyKind::ALL {
            if let Some(h) = registry.histogram("recovery.ttr", strategy.name()) {
                ttr.push((
                    strategy.name().into(),
                    serde_json::json!({
                        "n": h.count(),
                        "p50_ns": h.p50(),
                        "p90_ns": h.p90(),
                        "p99_ns": h.p99(),
                        "p999_ns": h.p999(),
                        "max_ns": h.max(),
                    }),
                ));
            }
        }
        let mut supervisor: Vec<(std::borrow::Cow<'static, str>, serde_json::Value)> = Vec::new();
        for strategy in StrategyKind::ALL {
            supervisor.push((
                strategy.name().into(),
                serde_json::json!({
                    "watchdog_fires": registry.counter("supervisor.watchdog", strategy.name()),
                    "breaker_trips": registry.counter("supervisor.breaker.trips", strategy.name()),
                    "scrubs": registry.counter("supervisor.scrubs", strategy.name()),
                }),
            ));
        }
        let mut stages: Vec<(std::borrow::Cow<'static, str>, serde_json::Value)> = Vec::new();
        for (key, reports) in registry.counters() {
            let Some(label) = key.strip_prefix("mining.stage.reports{") else { continue };
            let label = label.trim_end_matches('}');
            stages.push((
                label.to_owned().into(),
                serde_json::json!({
                    "reports": reports,
                    "nanos": registry.counter("mining.stage.nanos", label),
                    "reports_per_sec": registry.gauge("mining.stage.rps", label),
                }),
            ));
        }
        let value = serde_json::json!({
            "seed": opts.seed,
            "time_to_recovery": serde_json::Value::Map(ttr),
            "supervisor": serde_json::Value::Map(supervisor),
            "mining_stages": serde_json::Value::Map(stages),
            "registry": registry,
        });
        return Done::json(&value, true);
    }

    print!("{}", matrix.render_with_ttr(&registry));
    println!("supervisor hardening (injection campaign at seed {}):", opts.seed);
    println!("{:<16} {:>10} {:>10} {:>8}", "strategy", "watchdog", "breaker", "scrubs");
    for strategy in StrategyKind::ALL {
        println!(
            "{:<16} {:>10} {:>10} {:>8}",
            strategy.name(),
            registry.counter("supervisor.watchdog", strategy.name()),
            registry.counter("supervisor.breaker.trips", strategy.name()),
            registry.counter("supervisor.scrubs", strategy.name()),
        );
    }
    println!();
    println!("mining stage timings (simulated cost model):");
    println!("{:<32} {:>10} {:>12} {:>14}", "app/stage", "reports", "time", "reports/s");
    let stages: Vec<String> = registry
        .counters()
        .filter_map(|(k, _)| {
            k.strip_prefix("mining.stage.reports{").map(|l| l.trim_end_matches('}').to_owned())
        })
        .collect();
    for label in stages {
        let reports = registry.counter("mining.stage.reports", &label);
        let nanos = registry.counter("mining.stage.nanos", &label);
        let rps = registry.gauge("mining.stage.rps", &label).unwrap_or(0);
        println!(
            "{:<32} {:>10} {:>12} {:>14}",
            label,
            reports,
            Duration::from_nanos(nanos).to_string(),
            rps
        );
    }
    Done::printed(true)
}

/// The one arm behind `recover` and every campaign subcommand: runs the
/// campaign `spec` describes and reports it.
fn run_campaign<C: Campaign>(spec: C::Spec, opts: &Options) -> Done {
    report_campaign(&C::run(spec, opts.parallel), opts)
}

/// Prints `report` as text or returns it as JSON, reports each violation
/// on stderr, and says whether there were none — so a violated class
/// contract, or an underpowered run that could not check one, exits
/// non-zero in every output mode.
fn report_campaign<C: Campaign>(report: &C, opts: &Options) -> Done {
    if !opts.json {
        print!("{}", report.text());
    }
    let anomalies = report.violations();
    for anomaly in &anomalies {
        eprintln!("faultstudy: {}: ANOMALY: {anomaly}", C::NAME);
    }
    Done { json: opts.json.then(|| serde_json::to_value(report)), ok: anomalies.is_empty() }
}

fn lee_iyer(opts: &Options) -> Done {
    let r = TandemReconciliation::default();
    if opts.json {
        return Done::json(&r, true);
    }
    println!("{r}");
    Done::printed(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use faultstudy_core::taxonomy::FaultClass;
    use faultstudy_harness::{campaign::CampaignCell, StrategyKind};

    #[test]
    fn campaign_anomalies_fail_the_shared_path() {
        let cell = CampaignCell {
            class: FaultClass::EnvironmentIndependent,
            strategy: StrategyKind::Restart,
            survived: 1,
            total: 1,
        };
        let report = CampaignReport {
            spec: CampaignSpec { samples: 1, seed: 1 },
            cells: vec![cell],
            anomalies: vec!["apache-ei-01 survived restart at seed 1".to_owned()],
        };
        let clean = CampaignReport { anomalies: Vec::new(), ..report.clone() };
        for json in [false, true] {
            let opts = Options { json, ..Options::default() };
            assert!(!report_campaign(&report, &opts).ok, "an anomaly must fail (json: {json})");
            assert!(report_campaign(&clean, &opts).ok, "no anomaly must pass (json: {json})");
        }
    }

    #[test]
    fn verify_holds_the_sampled_campaign_to_its_ledger_laws() {
        let injection = InjectReport::run(InjectSpec { seed: 2000 }, ParallelSpec::SEQUENTIAL);
        let spec = CampaignSpec { samples: 200, seed: 2000 };
        let campaign = CampaignReport::run(spec, ParallelSpec::SEQUENTIAL);
        assert_eq!(campaign_problems(&campaign, &injection), Vec::<String>::new());
        // No anomaly, but the cells hold one sample of the two drawn.
        let short = CampaignReport {
            spec: CampaignSpec { samples: 2, seed: 1 },
            cells: vec![CampaignCell {
                class: FaultClass::EnvDependentTransient,
                strategy: StrategyKind::Restart,
                survived: 1,
                total: 1,
            }],
            anomalies: Vec::new(),
        };
        assert_eq!(campaign_problems(&short, &injection), ["cells hold 1 of 2 samples"]);
    }
}
