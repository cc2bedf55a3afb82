//! The benchmark's command line.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--out PATH] [--smoke]
//! ```
//!
//! With `--workload` the named workload runs in this process and the last
//! line of standard output is its result as one JSON object. Without it,
//! every workload runs in a child process of its own, so set-up time and
//! memory are per workload, and the last line combines their results.

use faultstudy_benchmark::reference::NOMINAL_S;
use faultstudy_benchmark::run::{run, Config, Outcome, Slice};
use faultstudy_benchmark::stats::median;
use faultstudy_benchmark::workload::{Scale, Workload};
use serde_json::Value;
use std::borrow::Cow;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

const USAGE: &str = "usage: benchmark [--workload NAME] [--seed N] [--seconds S] \
                     [--trace [0|1]] [--out PATH] [--smoke]";

/// The parsed command line.
#[derive(Debug)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    smoke: bool,
    /// Set in the child processes of a timed run: which slice to measure.
    slice: Option<usize>,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 2000,
        seconds: 10.0,
        trace: false,
        out: None,
        smoke: false,
        slice: None,
    };
    let mut args = args.by_ref().peekable();
    while let Some(flag) = args.next() {
        let mut value = |what: &str| args.next().ok_or_else(|| format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                parsed.workload = Some(Workload::parse(&name).ok_or_else(|| {
                    format!("unknown workload {name:?}; expected one of {}", names.join(", "))
                })?);
            }
            "--seed" => {
                let text = value("an integer")?;
                parsed.seed = text.parse().map_err(|_| format!("--seed {text:?} is not a u64"))?;
            }
            "--seconds" => {
                let text = value("a number")?;
                parsed.seconds = match text.parse::<f64>() {
                    Ok(s) if s.is_finite() && s > 0.0 && s <= 3600.0 => s,
                    _ => return Err(format!("--seconds {text:?} is not in (0, 3600]")),
                };
            }
            "--trace" => {
                parsed.trace = match args.peek().map(String::as_str) {
                    Some("0") => {
                        args.next();
                        false
                    }
                    Some("1") => {
                        args.next();
                        true
                    }
                    _ => true,
                };
            }
            "--out" => parsed.out = Some(PathBuf::from(value("a path")?)),
            "--smoke" => parsed.smoke = true,
            "--slice" => {
                let text = value("a slice index")?;
                parsed.slice =
                    Some(text.parse().map_err(|_| format!("--slice {text:?} is not an index"))?);
            }
            "-h" | "--help" => return Err(USAGE.to_owned()),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    Ok(parsed)
}

/// Prints the run's metrics by name with their units, then its result line.
fn report(outcome: &Outcome) {
    let c = &outcome.config;
    let p = &outcome.provenance;
    println!(
        "benchmark {} (seed {}, {} s budget, trace {})",
        c.workload.name(),
        c.seed,
        c.seconds,
        u8::from(c.trace)
    );
    println!(
        "provenance: commit {} | available_parallelism {} | cpu {} | {}",
        p.commit, p.parallelism, p.cpu, p.rustc
    );
    if let Some(digest) = outcome.checks.digest {
        println!(
            "digest {digest:016x}: every checked rep byte-identical ({} reps timed)",
            outcome.rep_rates.len()
        );
    }
    if !outcome.reference_s.is_empty() {
        println!(
            "host speed: reference loop median {:.2} ms (nominal {:.2} ms); \
             unscaled throughput median {:.0} items/s",
            median(&outcome.reference_s) * 1e3,
            NOMINAL_S * 1e3,
            median(&outcome.rep_rates)
        );
    }
    println!("  {:<36} {:>16} {:>16} {:>16} {:>5}  unit", "metric", "median", "q1", "q3", "n");
    for m in &outcome.metrics {
        let s = m.summary;
        println!(
            "  {:<36} {:>16.6} {:>16.6} {:>16.6} {:>5}  {}",
            m.name, s.median, s.q1, s.q3, s.n, m.unit
        );
    }
    let checks = &outcome.checks;
    let error_rate =
        if checks.attempted == 0 { 1.0 } else { checks.failed as f64 / checks.attempted as f64 };
    println!(
        "  error_rate {error_rate} ({} of {} checked outputs failed)",
        checks.failed, checks.attempted
    );
    for message in &checks.messages {
        println!("  FAILED: {message}");
    }
    if !outcome.closure.is_empty() {
        println!("  closure (ns per rep the probes explain):");
        for term in &outcome.closure {
            println!("    {:<48} {:>16.0}", term.name, term.ns);
        }
    }
    if let Some(path) = &outcome.trace_file {
        println!("  spans: {}", path.display());
    }
    println!("{}", outcome.result_line());
}

/// Runs every workload in a child process of this executable and prints
/// one line combining their results, metrics keyed `<workload>.<metric>`.
fn run_all(args: &Args) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut metrics = Vec::new();
    let mut per_workload = Vec::new();
    for workload in Workload::ALL {
        let mut command = Command::new(&exe);
        command.args([
            "--workload",
            workload.name(),
            "--seed",
            &args.seed.to_string(),
            "--seconds",
            &args.seconds.to_string(),
            "--trace",
            if args.trace { "1" } else { "0" },
        ]);
        if args.smoke {
            command.arg("--smoke");
        }
        let out = command.output().map_err(|e| format!("{}: {e}", workload.name()))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let lines: Vec<&str> = stdout.lines().collect();
        let (last, body) =
            lines.split_last().ok_or_else(|| format!("{}: no output", workload.name()))?;
        for line in body {
            println!("{line}");
        }
        let result: Value = serde_json::from_str(last)
            .map_err(|e| format!("{}: unreadable result: {e}", workload.name()))?;
        correct &= matches!(result.get("correct"), Some(Value::Bool(true)));
        attempted += result.get("attempted").and_then(Value::as_u64).unwrap_or(0);
        failed += result.get("failed").and_then(Value::as_u64).unwrap_or(1);
        if let Some(Value::Map(entries)) = result.get("metrics") {
            for (name, value) in entries {
                metrics.push((Cow::from(format!("{}.{name}", workload.name())), value.clone()));
            }
        }
        per_workload.push((Cow::from(workload.name()), result));
    }
    let line = Value::Map(vec![
        (Cow::from("correct"), Value::Bool(correct)),
        (Cow::from("attempted"), Value::U64(attempted.max(1))),
        (Cow::from("failed"), Value::U64(failed)),
        (Cow::from("metrics"), Value::Map(metrics)),
    ]);
    if let Some(path) = &args.out {
        let doc =
            serde_json::to_string_pretty(&Value::Map(per_workload)).map_err(|e| e.to_string())?;
        std::fs::write(path, doc + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(line)
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("benchmark: {message}");
            return ExitCode::from(2);
        }
    };
    let scale = if args.smoke { Scale::Smoke } else { Scale::Full };

    let Some(workload) = args.workload else {
        if args.slice.is_some() {
            eprintln!("benchmark: --slice needs --workload");
            return ExitCode::from(2);
        }
        return match run_all(&args) {
            Ok(line) => {
                let ok = matches!(line.get("correct"), Some(Value::Bool(true)));
                println!("{}", serde_json::to_string(&line).expect("result serializes"));
                if ok {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            }
            Err(message) => {
                eprintln!("benchmark: {message}");
                ExitCode::FAILURE
            }
        };
    };

    let config =
        Config { workload, seed: args.seed, seconds: args.seconds, trace: args.trace, scale };
    if let Some(index) = args.slice {
        let slice = Slice::run(&config, index);
        println!("{}", serde_json::to_string(&slice.to_json()).expect("slice serializes"));
        return ExitCode::SUCCESS;
    }
    let outcome = run(&config);
    if let Some(path) = &args.out {
        let doc = serde_json::to_string_pretty(&outcome.to_json()).expect("record serializes");
        if let Err(e) = std::fs::write(path, doc + "\n") {
            eprintln!("benchmark: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    report(&outcome);
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
