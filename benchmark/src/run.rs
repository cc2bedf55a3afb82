//! The timed run and the traced run of one workload.
//!
//! The timed run (`--trace 0`) measures the end-to-end metrics with
//! tracing off, in fresh child processes ("slices") run one after another.
//! Each slice generates the inputs and produces its first, cold report —
//! the set-up a user waits for — then times back-to-back reps on one
//! worker thread for its share of the budget. The reference loop runs
//! before the set-up and after every rep, and each timing is scaled by the
//! loop's time on either side of it (see [`crate::reference`]). The
//! traced run (`--trace 1`) runs in one process: rounds of untraced and
//! traced reps, probes and decorated units, reported as per-layer metrics.

use crate::layers::{closure_terms, decorated_units, Counts, Decorated, Probes, Term};
use crate::provenance::Provenance;
use crate::reference::{reference_s, scaled};
use crate::stats::{highest, lowest, Summary};
use crate::trace::{totals, Span, Tracer};
use crate::workload::{mining_archives, Inputs, Rep, Scale, Spec, Workload};
use crate::{END_TO_END, PER_LAYER};
use serde_json::Value;
use std::borrow::Cow;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

/// What to run.
#[derive(Debug, Clone, PartialEq)]
pub struct Config {
    /// The workload.
    pub workload: Workload,
    /// Seed every input is derived from.
    pub seed: u64,
    /// Measurement budget in wall seconds.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Full-size or smoke-size workloads.
    pub scale: Scale,
}

/// Reps each untraced phase of a traced-run round runs, however short
/// its budget.
const MIN_REPS: usize = 2;

/// Slices a timed run is cut into. The memory layout a process happens to
/// get moves its speed by a few per cent, so reps are pooled from several
/// fresh processes, and each gives one set-up sample.
fn slices(scale: Scale) -> usize {
    match scale {
        Scale::Full => 5,
        Scale::Smoke => 2,
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The metric's name, as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
    /// Every sample, in measurement order.
    pub samples: Vec<f64>,
    /// The samples' median, quartiles and count.
    pub summary: Summary,
}

fn metric(table: &[(&'static str, &'static str)], name: &'static str, samples: Vec<f64>) -> Metric {
    let unit = table
        .iter()
        .find(|(n, _)| *n == name)
        .map(|&(_, unit)| unit)
        .unwrap_or_else(|| panic!("{name} is not a declared metric"));
    Metric { name, unit, summary: Summary::of(&samples), samples }
}

/// Correctness bookkeeping: every checked output counts as attempted;
/// one that fails any check counts as failed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Checks {
    /// Outputs checked.
    pub attempted: u64,
    /// Outputs that failed a check.
    pub failed: u64,
    /// What failed, one line each.
    pub messages: Vec<String>,
    /// The digest every rep must reproduce: the first rep's.
    pub digest: Option<u64>,
}

impl Checks {
    /// Records one checked output and the checks it failed.
    pub fn record(&mut self, failures: Vec<String>) {
        self.attempted += 1;
        if !failures.is_empty() {
            self.failed += 1;
            self.messages.extend(failures);
        }
    }

    /// Checks one rep, including that its digest matches every earlier
    /// rep's, at any thread count.
    pub fn rep(&mut self, rep: &Rep, inputs: &Inputs, threads: usize) {
        let mut failures = rep.failed_checks(inputs);
        let digest = rep.digest();
        match self.digest {
            None => self.digest = Some(digest),
            Some(d) if d != digest => failures
                .push(format!("digest {digest:016x} at {threads} threads differs from {d:016x}")),
            Some(_) => {}
        }
        self.record(failures);
    }

    /// Merges the checks of a slice process, then checks that its digest
    /// matches the other slices': output is byte-identical across
    /// processes too.
    pub fn absorb(&mut self, slice: Checks) {
        self.attempted += slice.attempted;
        self.failed += slice.failed;
        self.messages.extend(slice.messages);
        match (self.digest, slice.digest) {
            (None, digest) => self.digest = digest,
            (Some(mine), Some(theirs)) if mine != theirs => self.record(vec![format!(
                "digest {theirs:016x} of one process differs from {mine:016x} of another"
            )]),
            _ => {}
        }
    }
}

/// The result of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// What ran.
    pub config: Config,
    /// Every metric of the run, in declaration order.
    pub metrics: Vec<Metric>,
    /// Correctness of every checked output.
    pub checks: Checks,
    /// Where the run measured.
    pub provenance: Provenance,
    /// Items per wall second of every timed rep, in order, unscaled.
    pub rep_rates: Vec<f64>,
    /// Seconds of every pass of the reference loop (timed run only).
    pub reference_s: Vec<f64>,
    /// The pieces of a rep the probes explain (traced run only).
    pub closure: Vec<Term>,
    /// The span file written (traced run only).
    pub trace_file: Option<PathBuf>,
}

impl Outcome {
    /// Whether every checked output passed.
    pub fn correct(&self) -> bool {
        self.checks.failed == 0 && self.checks.attempted > 0
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, each metric as its median with its unit.
    pub fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let value = Value::Map(vec![
                    (Cow::from("value"), Value::F64(m.summary.median)),
                    (Cow::from("unit"), Value::Str(m.unit.to_owned())),
                ]);
                (Cow::from(m.name), value)
            })
            .collect();
        let line = Value::Map(vec![
            (Cow::from("correct"), Value::Bool(self.correct())),
            (Cow::from("attempted"), Value::U64(self.checks.attempted)),
            (Cow::from("failed"), Value::U64(self.checks.failed)),
            (Cow::from("metrics"), Value::Map(metrics)),
        ]);
        serde_json::to_string(&line).expect("result serializes")
    }

    /// The full record: provenance, digest, failed checks and every
    /// metric with its quartiles and sample count.
    pub fn to_json(&self) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let s = m.summary;
                let value = Value::Map(vec![
                    (Cow::from("median"), Value::F64(s.median)),
                    (Cow::from("q1"), Value::F64(s.q1)),
                    (Cow::from("q3"), Value::F64(s.q3)),
                    (Cow::from("n"), Value::U64(s.n as u64)),
                    (Cow::from("unit"), Value::Str(m.unit.to_owned())),
                    (
                        Cow::from("samples"),
                        Value::Seq(m.samples.iter().map(|&v| Value::F64(v)).collect()),
                    ),
                ]);
                (Cow::from(m.name), value)
            })
            .collect();
        let closure = self
            .closure
            .iter()
            .map(|t| {
                Value::Map(vec![
                    (Cow::from("term"), Value::Str(t.name.to_owned())),
                    (Cow::from("ns_per_rep"), Value::F64(t.ns)),
                ])
            })
            .collect();
        Value::Map(vec![
            (Cow::from("workload"), Value::Str(self.config.workload.name().to_owned())),
            (Cow::from("trace"), Value::Bool(self.config.trace)),
            (Cow::from("seconds"), Value::F64(self.config.seconds)),
            (Cow::from("provenance"), self.provenance.to_json()),
            (
                Cow::from("digest"),
                self.checks.digest.map_or(Value::Null, |d| Value::Str(format!("{d:016x}"))),
            ),
            (Cow::from("correct"), Value::Bool(self.correct())),
            (Cow::from("attempted"), Value::U64(self.checks.attempted)),
            (Cow::from("failed"), Value::U64(self.checks.failed)),
            (
                Cow::from("failed_checks"),
                Value::Seq(self.checks.messages.iter().cloned().map(Value::Str).collect()),
            ),
            (
                Cow::from("rep_rates"),
                Value::Seq(self.rep_rates.iter().map(|&r| Value::F64(r)).collect()),
            ),
            (
                Cow::from("reference_s"),
                Value::Seq(self.reference_s.iter().map(|&r| Value::F64(r)).collect()),
            ),
            (Cow::from("metrics"), Value::Map(metrics)),
            (Cow::from("closure"), Value::Seq(closure)),
        ])
    }
}

/// Runs `config`: the traced run when it asks for one, else the timed run.
pub fn run(config: &Config) -> Outcome {
    if config.trace {
        traced_run(config)
    } else {
        timed_run(config)
    }
}

/// Back-to-back reps on `threads` workers until `budget` has passed and
/// at least `min_reps` ran, each checked; returns items per second of
/// every rep. With `reference`, a pass of the reference loop follows each
/// rep and its time is pushed there.
fn timed_reps(
    inputs: &Inputs,
    threads: usize,
    budget: Duration,
    min_reps: usize,
    checks: &mut Checks,
    mut reference: Option<&mut Vec<f64>>,
) -> Vec<f64> {
    let items = inputs.items() as f64;
    let off = Tracer::off();
    let mut rates = Vec::new();
    let phase = Instant::now();
    while rates.len() < min_reps || phase.elapsed() < budget {
        let start = Instant::now();
        let rep = inputs.rep(threads, &off);
        let secs = start.elapsed().as_secs_f64();
        rates.push(items / black_box(secs));
        if let Some(passes) = reference.as_deref_mut() {
            passes.push(reference_s());
        }
        checks.rep(&rep, inputs, threads);
    }
    rates
}

/// The process's peak resident set (`VmHWM`) in megabytes.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib * 1024.0 / 1e6)
}

/// What one slice process measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Slice {
    /// Wall seconds to the slice's first report: input generation plus
    /// one cold rep.
    pub setup_s: f64,
    /// Items per wall second of every timed rep.
    pub rates: Vec<f64>,
    /// Seconds of every reference pass: one before the set-up, then one
    /// after the cold rep and after each timed rep.
    pub reference_s: Vec<f64>,
    /// Peak resident set after the timed reps, in megabytes.
    pub rss_mb: f64,
    /// Every output the slice checked.
    pub checks: Checks,
}

impl Slice {
    /// Runs slice `index` of a timed run in this process, timing reps for
    /// `seconds`. Slice 0 then checks that a rep on 2 worker threads
    /// reproduces the digest.
    pub fn run(config: &Config, index: usize) -> Slice {
        let mut reference = vec![reference_s()];
        let started = Instant::now();
        let inputs = Inputs::generate(Spec::new(config.workload, config.seed, config.scale));
        let off = Tracer::off();
        let first = inputs.rep(1, &off);
        let setup_s = started.elapsed().as_secs_f64();
        reference.push(reference_s());
        let mut checks = Checks::default();
        checks.rep(&first, &inputs, 1);
        drop(first);
        let budget = Duration::from_secs_f64(config.seconds);
        let rates = timed_reps(&inputs, 1, budget, 1, &mut checks, Some(&mut reference));
        let rss_mb = peak_rss_mb();
        if index == 0 {
            checks.rep(&inputs.rep(2, &off), &inputs, 2);
        }
        Slice { setup_s, rates, reference_s: reference, rss_mb, checks }
    }

    /// The reference time around step `i` (0 the set-up, then each timed
    /// rep): the mean of the passes just before and just after it.
    fn reference_around(&self, i: usize) -> f64 {
        (self.reference_s[i] + self.reference_s[i + 1]) / 2.0
    }

    /// The set-up time scaled to the nominal host speed.
    pub fn scaled_setup_s(&self) -> f64 {
        scaled(self.setup_s, self.reference_around(0))
    }

    /// Every timed rep's rate scaled to the nominal host speed.
    pub fn scaled_rates(&self) -> Vec<f64> {
        let rates = self.rates.iter().enumerate();
        rates.map(|(i, &rate)| rate / scaled(1.0, self.reference_around(i + 1))).collect()
    }

    /// The slice as the one JSON line its process prints.
    pub fn to_json(&self) -> Value {
        let floats = |v: &[f64]| Value::Seq(v.iter().map(|&x| Value::F64(x)).collect());
        let c = &self.checks;
        Value::Map(vec![
            (Cow::from("setup_s"), Value::F64(self.setup_s)),
            (Cow::from("rates"), floats(&self.rates)),
            (Cow::from("reference_s"), floats(&self.reference_s)),
            (Cow::from("rss_mb"), Value::F64(self.rss_mb)),
            (Cow::from("attempted"), Value::U64(c.attempted)),
            (Cow::from("failed"), Value::U64(c.failed)),
            (
                Cow::from("messages"),
                Value::Seq(c.messages.iter().cloned().map(Value::Str).collect()),
            ),
            (Cow::from("digest"), c.digest.map_or(Value::Null, Value::U64)),
        ])
    }

    /// Reads a slice back from its JSON line.
    pub fn from_json(v: &Value) -> Option<Slice> {
        let floats = |key: &str| match v.get(key) {
            Some(Value::Seq(values)) => {
                values.iter().map(Value::as_f64).collect::<Option<Vec<_>>>()
            }
            _ => None,
        };
        let Some(Value::Seq(messages)) = v.get("messages") else { return None };
        let (rates, reference_s) = (floats("rates")?, floats("reference_s")?);
        if reference_s.len() != rates.len() + 2 {
            return None;
        }
        Some(Slice {
            setup_s: v.get("setup_s")?.as_f64()?,
            rates,
            reference_s,
            rss_mb: v.get("rss_mb")?.as_f64()?,
            checks: Checks {
                attempted: v.get("attempted")?.as_u64()?,
                failed: v.get("failed")?.as_u64()?,
                messages: messages
                    .iter()
                    .map(|m| m.as_str().map(str::to_owned))
                    .collect::<Option<_>>()?,
                digest: v.get("digest")?.as_u64(),
            },
        })
    }
}

/// Runs slice `index` in a child process of this executable.
fn spawn_slice(config: &Config, index: usize, seconds: f64) -> Result<Slice, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = Command::new(exe);
    command.args(["--slice", &index.to_string(), "--workload", config.workload.name()]);
    command.args(["--seed", &config.seed.to_string(), "--seconds", &seconds.to_string()]);
    if config.scale == Scale::Smoke {
        command.arg("--smoke");
    }
    let out = command.output().map_err(|e| format!("slice {index}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or("");
    match serde_json::from_str::<Value>(line).ok().as_ref().and_then(Slice::from_json) {
        Some(slice) if out.status.success() => Ok(slice),
        _ => Err(format!(
            "slice {index} failed ({}): {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        )),
    }
}

fn timed_run(config: &Config) -> Outcome {
    let count = slices(config.scale);
    let seconds = config.seconds / count as f64;
    let mut checks = Checks::default();
    let (mut setup, mut scaled_rates, mut rss) = (Vec::new(), Vec::new(), Vec::new());
    let (mut rates, mut reference) = (Vec::new(), Vec::new());
    for index in 0..count {
        match spawn_slice(config, index, seconds) {
            Ok(slice) => {
                setup.push(slice.scaled_setup_s());
                scaled_rates.extend(slice.scaled_rates());
                rss.push(slice.rss_mb);
                rates.extend(slice.rates);
                reference.extend(slice.reference_s);
                checks.absorb(slice.checks);
            }
            Err(message) => checks.record(vec![message]),
        }
    }
    Outcome {
        config: config.clone(),
        rep_rates: rates,
        reference_s: reference,
        metrics: vec![
            metric(&END_TO_END, "throughput", scaled_rates),
            metric(&END_TO_END, "setup_s", setup),
            metric(&END_TO_END, "peak_rss_mb", rss),
        ],
        checks,
        provenance: Provenance::collect(config.seed),
        closure: Vec::new(),
        trace_file: None,
    }
}

/// Rounds of a traced run. Each round times untraced reps on 1 and on 2
/// threads, traced reps, the probes and the decorated units back to back.
/// Every per-layer cost is the fastest over the rounds, so both sides of a
/// ratio are taken from the same stretch of time, and a burst of load from
/// elsewhere on the host that covers one round does not move the result.
const ROUNDS: u32 = 3;

/// Traced reps per round.
const TRACED_REPS: u32 = 2;

/// Requests of each decorated healthy unit.
fn decorated_requests(scale: Scale) -> u64 {
    match scale {
        Scale::Full => 4_000,
        Scale::Smoke => 200,
    }
}

fn traced_run(config: &Config) -> Outcome {
    let mut checks = Checks::default();
    let spec = Spec::new(config.workload, config.seed, config.scale);
    let started = Instant::now();
    let inputs = Inputs::generate(spec);
    let generate_s = started.elapsed().as_secs_f64();
    checks.rep(&inputs.rep(1, &Tracer::off()), &inputs, 1);

    // Probes read the mining workload's archives; other workloads
    // generate them here, which also times the corpus layer.
    let tracer = Tracer::on();
    let generated;
    let (archives, corpus_s) = if config.workload == Workload::Mining {
        (&inputs.archives, generate_s)
    } else {
        let started = Instant::now();
        generated = tracer.span("probe.corpus.generate", 0, 0, || {
            mining_archives(
                config.seed,
                Spec::new(Workload::Mining, config.seed, config.scale).size,
            )
        });
        (&generated, started.elapsed().as_secs_f64())
    };
    let divisor = match config.scale {
        Scale::Full => 1,
        Scale::Smoke => 100,
    };

    let budget = Duration::from_secs_f64(config.seconds);
    let requests = decorated_requests(config.scale);
    let (mut one_thread, mut two_threads) = (Vec::new(), Vec::new());
    let (mut probe_rounds, mut decorated_rounds) = (Vec::new(), Vec::new());
    let mut last = None;
    for round in 0..ROUNDS {
        one_thread.extend(timed_reps(&inputs, 1, budget / 10, MIN_REPS, &mut checks, None));
        two_threads.extend(timed_reps(&inputs, 2, budget / 15, MIN_REPS, &mut checks, None));
        for i in 0..TRACED_REPS {
            let unit = round * TRACED_REPS + i;
            let rep = tracer.span("bench.rep", unit, 0, || inputs.rep(1, &tracer));
            checks.rep(&rep, &inputs, 1);
            last = Some(rep);
        }
        probe_rounds.push(Probes::measure(config.seed, divisor, archives, &tracer));
        decorated_rounds.push(decorated_units(requests, config.seed, 1 + 3 * round, &tracer));
    }
    let rep = last.expect("at least one traced rep");
    let probes = Probes::fastest(&probe_rounds);
    let decorated = Decorated::fastest(&decorated_rounds);
    for failed in &decorated.unit_checks {
        checks.record(failed.clone());
    }
    let rate_1t = highest(&one_thread);
    let rep_ns = inputs.items() as f64 / rate_1t * 1e9;

    let spans = tracer.spans();
    let traced_rep_ns: Vec<f64> =
        spans.iter().filter(|s| s.name == "bench.rep").map(|s| s.duration_ns() as f64).collect();
    let span_totals = totals(&spans, |_| true);
    // Mean nanoseconds per span of one name.
    let span_ns = |name: &str| {
        span_totals.get(name).map_or(0.0, |t| t.total_ns as f64 / t.calls.max(1) as f64)
    };
    let render_ns = span_ns("harness.render");
    let counts = Counts::of(&rep.report);
    let closure = closure_terms(config.workload, &counts, &probes, &decorated, render_ns);
    let attributed: f64 = closure.iter().map(|t| t.ns).sum();

    let c = &counts;
    let [web, de, db] = decorated.handle_ns;
    let keep_ratio =
        if c.mysql_raw == 0 { 0.0 } else { c.keyword_survivors as f64 / c.mysql_raw as f64 };
    let values: Vec<(&'static str, f64)> = vec![
        ("exec.fold_ns_per_unit", probes.fold_ns_per_unit),
        ("exec.efficiency_2t", highest(&two_threads) / (2.0 * rate_1t)),
        ("sim.wheel_ns_per_event", probes.wheel_ns_per_event),
        ("sim.wheel_events", c.wheel_events as f64),
        ("traffic.arrival_ns_per_draw", probes.arrival_ns_per_draw),
        ("traffic.engine_self_ns_per_req", decorated.engine_self_ns_per_req),
        ("recovery.serve_ns_per_req", probes.serve_ns_per_req),
        ("recovery.strategy_ns_per_req", decorated.strategy_ns_per_req),
        ("recovery.experiment_ns_per_sample", probes.experiment_ns_per_sample),
        ("recovery.failures", c.failures as f64),
        ("recovery.recoveries", c.recoveries as f64),
        ("recovery.watchdog_fires", c.watchdog_fires as f64),
        ("recovery.attempts_per_answer", c.attempts_per_answer()),
        ("apps.handle_ns_per_req.web", web),
        ("apps.handle_ns_per_req.db", db),
        ("apps.handle_ns_per_req.de", de),
        ("apps.oracle_ns_per_call", probes.oracle_ns_per_call),
        ("apps.console_ns_per_probe", probes.console_ns_per_probe),
        ("graph.channel_ns_per_msg", probes.channel_ns_per_msg),
        ("graph.sends", c.sends as f64),
        ("graph.lost", c.lost as f64),
        ("graph.retried", c.retried as f64),
        ("graph.resets", c.resets as f64),
        ("graph.channel_recoveries", c.channel_recoveries as f64),
        ("graph.node_restarts", c.node_restarts as f64),
        ("graph.db_amplification", c.db_amplification()),
        ("obs.histogram_record_ns", probes.histogram_record_ns),
        ("obs.histogram_merge_ns", probes.histogram_merge_ns),
        ("obs.registry_merge_ns", probes.registry_merge_ns_per_key),
        ("obs.registry_keys", c.registry_keys as f64),
        ("mining.keyword_ns_per_report", probes.keyword_ns_per_report),
        ("mining.normalize_ns_per_title", probes.normalize_ns_per_title),
        ("mining.dedup_ns_per_report", probes.dedup_ns_per_report),
        ("mining.keyword_survivors", c.keyword_survivors as f64),
        ("mining.impact_survivors", c.impact_survivors as f64),
        ("mining.production_survivors", c.production_survivors as f64),
        ("mining.unique_survivors", c.unique_survivors as f64),
        ("mining.keyword_keep_ratio", keep_ratio),
        ("corpus.generate_s", corpus_s),
        ("harness.render_s", render_ns / 1e9),
        ("closure.unattributed_share", 1.0 - attributed / rep_ns),
        ("trace.overhead", lowest(&traced_rep_ns) / rep_ns - 1.0),
    ];
    let metrics = values.into_iter().map(|(name, v)| metric(&PER_LAYER, name, vec![v])).collect();
    let mut outcome = Outcome {
        config: config.clone(),
        metrics,
        checks,
        provenance: Provenance::collect(config.seed),
        rep_rates: one_thread,
        reference_s: Vec::new(),
        closure,
        trace_file: None,
    };
    outcome.trace_file = write_trace(&outcome, &spans);
    outcome
}

/// The directory span files go to: `benchmark/` under the cargo target
/// directory (`CARGO_TARGET_DIR`, else `target`).
fn trace_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    Path::new(&target).join("benchmark")
}

fn span_json(span: &Span) -> String {
    let parent = span.parent.map_or_else(|| "null".to_owned(), |p| p.to_string());
    format!(
        "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"unit\":{},\"attempt\":{}}}",
        span.name, span.start_ns, span.end_ns, span.unit, span.attempt
    )
}

/// Writes `trace-<workload>.json`: the run's record, then one span per
/// line. A write failure is reported on stderr and the run goes on.
fn write_trace(outcome: &Outcome, spans: &[Span]) -> Option<PathBuf> {
    let dir = trace_dir();
    let path = dir.join(format!("trace-{}.json", outcome.config.workload.name()));
    let Value::Map(entries) = outcome.to_json() else { unreachable!("the record is an object") };
    let mut text = String::from("{\n");
    for (key, value) in &entries {
        let value = serde_json::to_string(value).expect("record serializes");
        text.push_str(&format!("  \"{key}\": {value},\n"));
    }
    text.push_str("  \"spans\": [\n");
    let lines: Vec<String> = spans.iter().map(|s| format!("    {}", span_json(s))).collect();
    text.push_str(&lines.join(",\n"));
    text.push_str("\n  ]\n}\n");
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, text)) {
        Ok(()) => Some(path),
        Err(e) => {
            eprintln!("benchmark: cannot write {}: {e}", path.display());
            None
        }
    }
}
