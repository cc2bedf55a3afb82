//! The five workloads: their inputs, one repetition ("rep") each, and the
//! checks every rep's output must pass.
//!
//! A rep is one library call plus rendering its report with `Display` —
//! what `faultstudy <cmd>` does, minus stdout and the appended recovery
//! matrix. Inside a rep the simulated traffic is open-loop in simulated
//! time; the benchmark itself is a closed loop of back-to-back reps.

use crate::digest::fnv1a;
use crate::trace::Tracer;
use faultstudy_core::taxonomy::AppKind;
use faultstudy_corpus::{PopulationSpec, SyntheticPopulation};
use faultstudy_exec::ParallelSpec;
use faultstudy_harness::{
    CampaignReport, CampaignSpec, GraphReport, GraphSpec, ObliviousReport, ObliviousSpec,
    TrafficReport, TrafficSpec,
};
use faultstudy_mining::{Archive, PipelineOutcome, PrecisionRecall, SelectionPipeline};
use faultstudy_obs::MetricsRegistry;
use faultstudy_sim::rng::split_seed;
use faultstudy_traffic::{ArrivalKind, UnitStats};
use std::collections::BTreeMap;

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The single-application serving path: 189 large traffic units.
    Traffic,
    /// Every request crosses the three-tier service graph's channels.
    Graph,
    /// The paper's sampled recovery experiment: many tiny units.
    Campaign,
    /// The oblivious-recovery family with the metrics registry written.
    ObliviousMetrics,
    /// The §4 mining funnels over three generated archives.
    Mining,
}

impl Workload {
    /// Every workload, in presentation order.
    pub const ALL: [Workload; 5] = [
        Workload::Traffic,
        Workload::Graph,
        Workload::Campaign,
        Workload::ObliviousMetrics,
        Workload::Mining,
    ];

    /// The workload's name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Traffic => "traffic",
            Workload::Graph => "graph",
            Workload::Campaign => "campaign",
            Workload::ObliviousMetrics => "oblivious_metrics",
            Workload::Mining => "mining",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The library call one rep makes, as a span name.
    fn call(self) -> &'static str {
        match self {
            Workload::Traffic => "harness.TrafficReport::run_with",
            Workload::Graph => "harness.GraphReport::run_with",
            Workload::Campaign => "harness.CampaignReport::run_with",
            Workload::ObliviousMetrics => "harness.ObliviousReport::run_instrumented",
            Workload::Mining => "mining.SelectionPipeline::run_with",
        }
    }

    /// The rep size: requests (traffic, graph, oblivious_metrics),
    /// samples (campaign) or MySQL archive messages (mining). Smoke sizes
    /// are the smallest at which every campaign contract held at each of
    /// seeds 1–40: ~100 requests per traffic and oblivious unit, 50 per
    /// graph unit.
    fn size(self, scale: Scale) -> u64 {
        match (self, scale) {
            // 189 units of ~5.3k requests; the size BENCH_traffic.json used.
            (Workload::Traffic, Scale::Full) => 1_000_000,
            (Workload::Traffic, Scale::Smoke) => 18_900,
            (Workload::Graph, Scale::Full) => 600_000,
            (Workload::Graph, Scale::Smoke) => 3_600,
            (Workload::Campaign, Scale::Full) => 200_000,
            (Workload::Campaign, Scale::Smoke) => 300,
            (Workload::ObliviousMetrics, Scale::Full) => 600_000,
            (Workload::ObliviousMetrics, Scale::Smoke) => 15_000,
            // Ten times the paper's 44,000 messages: at paper scale a rep
            // takes ~9 ms, too short to time against the clock's noise.
            (Workload::Mining, Scale::Full) => 440_000,
            (Workload::Mining, Scale::Smoke) => 2_000,
        }
    }
}

/// How large the workloads run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the benchmark's figures are measured at.
    Full,
    /// Tiny sizes that check the whole path in well under a second.
    Smoke,
}

/// What one workload runs: which, from which seed, and how large.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Spec {
    /// The workload.
    pub workload: Workload,
    /// Seed every input is derived from.
    pub seed: u64,
    /// Requests, samples or MySQL archive messages per rep.
    pub size: u64,
}

impl Spec {
    /// The workload's spec at `scale`.
    pub fn new(workload: Workload, seed: u64, scale: Scale) -> Spec {
        Spec { workload, seed, size: workload.size(scale) }
    }
}

/// One generated archive with the generator's ground truth.
#[derive(Debug)]
pub struct MiningArchive {
    /// The archive the funnel reads.
    pub archive: Archive,
    /// Report id → curated fault slug.
    pub ground_truth: BTreeMap<u64, String>,
}

/// Unique bugs the §4 funnel must select per application (Apache, GNOME,
/// MySQL).
const PAPER_UNIQUE: [usize; 3] = [50, 45, 44];

/// Generates the three mining archives: Apache and GNOME at paper scale,
/// MySQL at `mysql_size` messages, each from its own derivation of `seed`.
pub fn mining_archives(seed: u64, mysql_size: u64) -> Vec<MiningArchive> {
    AppKind::ALL
        .iter()
        .enumerate()
        .map(|(i, &app)| {
            let mut spec = PopulationSpec::paper_scale(app, split_seed(seed, i as u64));
            if app == AppKind::Mysql {
                spec.archive_size = mysql_size as usize;
            }
            let population = SyntheticPopulation::generate(&spec);
            let archive = Archive::from_columns(app, population.to_columns());
            MiningArchive { archive, ground_truth: population.ground_truth }
        })
        .collect()
}

/// A workload's generated inputs: everything a rep needs besides its
/// thread count.
#[derive(Debug)]
pub struct Inputs {
    /// The spec the inputs were generated from.
    pub spec: Spec,
    /// The mining archives (empty for the simulation workloads, whose
    /// library calls derive their plans from the seed themselves).
    pub archives: Vec<MiningArchive>,
}

impl Inputs {
    /// Generates the inputs of `spec`.
    pub fn generate(spec: Spec) -> Inputs {
        let archives = match spec.workload {
            Workload::Mining => mining_archives(spec.seed, spec.size),
            _ => Vec::new(),
        };
        Inputs { spec, archives }
    }

    /// Items one rep processes: simulated requests, campaign samples, or
    /// archive reports.
    pub fn items(&self) -> u64 {
        match self.spec.workload {
            Workload::Mining => self.archives.iter().map(|a| a.archive.len() as u64).sum(),
            _ => self.spec.size,
        }
    }

    /// One rep on `threads` worker threads: the library call, then the
    /// report rendered, each in a span when `tracer` records.
    pub fn rep(&self, threads: usize, tracer: &Tracer) -> Rep {
        let parallel = ParallelSpec::threads(threads);
        let Spec { workload, seed, size } = self.spec;
        let report = tracer.child(workload.call(), || match workload {
            Workload::Traffic => Report::Traffic(TrafficReport::run_with(
                TrafficSpec { seed, requests: size, arrival: ArrivalKind::Poisson },
                parallel,
            )),
            Workload::Graph => Report::Graph(GraphReport::run_with(
                GraphSpec { seed, requests: size, arrival: ArrivalKind::Poisson },
                parallel,
            )),
            Workload::Campaign => Report::Campaign(CampaignReport::run_with(
                CampaignSpec { samples: size as u32, seed },
                parallel,
            )),
            Workload::ObliviousMetrics => {
                let (report, registry) = ObliviousReport::run_instrumented(
                    ObliviousSpec { seed, requests: size, arrival: ArrivalKind::Poisson },
                    parallel,
                );
                Report::Oblivious(report, registry)
            }
            Workload::Mining => Report::Mining(
                self.archives
                    .iter()
                    .map(|a| {
                        SelectionPipeline::for_app(a.archive.app()).run_with(&a.archive, parallel)
                    })
                    .collect(),
            ),
        });
        let text = tracer.child("harness.render", || report.render());
        Rep { report, text }
    }
}

/// The report one rep produced.
#[derive(Debug)]
pub enum Report {
    /// `TrafficReport::run_with`.
    Traffic(TrafficReport),
    /// `GraphReport::run_with`.
    Graph(GraphReport),
    /// `CampaignReport::run_with`.
    Campaign(CampaignReport),
    /// `ObliviousReport::run_instrumented`: the report and its registry.
    Oblivious(ObliviousReport, MetricsRegistry),
    /// One funnel outcome per archive, in `AppKind::ALL` order.
    Mining(Vec<PipelineOutcome>),
}

impl Report {
    fn render(&self) -> String {
        match self {
            Report::Traffic(r) => r.to_string(),
            Report::Graph(r) => r.to_string(),
            Report::Campaign(r) => r.to_string(),
            Report::Oblivious(r, _) => r.to_string(),
            Report::Mining(outcomes) => {
                outcomes.iter().map(|o| format!("{o}\n")).collect::<String>()
            }
        }
    }

    /// The report's serialized form, registry included.
    fn json(&self) -> Vec<String> {
        let encoded = match self {
            Report::Traffic(r) => vec![serde_json::to_string(r)],
            Report::Graph(r) => vec![serde_json::to_string(r)],
            Report::Campaign(r) => vec![serde_json::to_string(r)],
            Report::Oblivious(r, registry) => {
                vec![serde_json::to_string(r), serde_json::to_string(registry)]
            }
            Report::Mining(outcomes) => vec![serde_json::to_string(outcomes)],
        };
        encoded.into_iter().map(|json| json.expect("reports serialize")).collect()
    }
}

/// One rep's output: the report and its rendered text.
#[derive(Debug)]
pub struct Rep {
    /// The library call's result.
    pub report: Report,
    /// The report rendered with `Display`.
    pub text: String,
}

/// Checks that a rep's ledger conserves requests: everything offered was
/// asked for, and was answered or dropped.
fn check_ledger(what: &str, t: &UnitStats, requested: u64, failed: &mut Vec<String>) {
    if t.offered != requested {
        failed.push(format!("{what}: offered {} of {requested} requested", t.offered));
    }
    if t.offered != t.answered() + t.dropped {
        failed.push(format!(
            "{what}: offered {} != answered {} + dropped {}",
            t.offered,
            t.answered(),
            t.dropped
        ));
    }
}

impl Rep {
    /// Digest of the serialized report and its rendered text: equal
    /// digests mean byte-identical output.
    pub fn digest(&self) -> u64 {
        let json = self.report.json();
        let mut parts: Vec<&[u8]> = json.iter().map(|j| j.as_bytes()).collect();
        parts.push(self.text.as_bytes());
        fnv1a(&parts)
    }

    /// Every check the rep fails (empty when the output is correct).
    /// Dropped simulated requests are results, not failures; a failure is
    /// a report that breaks its campaign's contract or ledger laws.
    pub fn failed_checks(&self, inputs: &Inputs) -> Vec<String> {
        let size = inputs.spec.size;
        let mut failed = Vec::new();
        match &self.report {
            Report::Traffic(r) => {
                failed.extend(r.anomalies());
                check_ledger("traffic", &r.totals(), size, &mut failed);
            }
            Report::Graph(r) => {
                failed.extend(r.anomalies());
                check_ledger("graph", &r.totals(), size, &mut failed);
            }
            Report::Campaign(r) => {
                failed.extend(r.anomalies.iter().cloned());
                let total: u64 = r.cells.iter().map(|c| u64::from(c.total)).sum();
                if total != size {
                    failed.push(format!("campaign: cells hold {total} of {size} samples"));
                }
                if r.cells.iter().any(|c| c.survived > c.total) {
                    failed.push("campaign: a cell survived more samples than it drew".to_owned());
                }
            }
            Report::Oblivious(r, registry) => {
                failed.extend(r.anomalies.iter().cloned());
                let totals = r.totals();
                check_ledger("oblivious", &totals, size, &mut failed);
                let ledgered: u64 = registry
                    .counters()
                    .filter(|(key, _)| key.starts_with("oblivious.offered{"))
                    .map(|(_, v)| v)
                    .sum();
                if ledgered != totals.offered {
                    failed.push(format!(
                        "oblivious: registry ledgers {ledgered} of {} offered",
                        totals.offered
                    ));
                }
            }
            Report::Mining(outcomes) => {
                for ((outcome, input), unique) in
                    outcomes.iter().zip(&inputs.archives).zip(PAPER_UNIQUE)
                {
                    let app = outcome.app;
                    if outcome.unique_bugs() != unique {
                        failed.push(format!(
                            "mining {app}: {} unique, want {unique}",
                            outcome.unique_bugs()
                        ));
                    }
                    if outcome.raw_size() != input.archive.len() {
                        failed.push(format!("mining {app}: funnel lost the raw count"));
                    }
                    let quality = PrecisionRecall::measure(&outcome.selected, &input.ground_truth);
                    if quality.precision() != 1.0 || quality.recall() != 1.0 {
                        failed.push(format!("mining {app}: {quality}"));
                    }
                }
                if outcomes.len() != PAPER_UNIQUE.len() {
                    failed.push(format!("mining: {} funnels, want 3", outcomes.len()));
                }
            }
        }
        failed
    }
}
