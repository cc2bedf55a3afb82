//! Where and from what a result was measured.

use serde_json::Value;
use std::borrow::Cow;
use std::path::Path;
use std::process::Command;

/// The commit, host and toolchain a result belongs to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Provenance {
    /// `git rev-parse HEAD` of the working directory, with `+dirty` when
    /// tracked files differ from it, or `unknown` outside a checkout.
    pub commit: String,
    /// `std::thread::available_parallelism`.
    pub parallelism: usize,
    /// The CPU model from `/proc/cpuinfo`, or `unknown`.
    pub cpu: String,
    /// `rustc -V`, or `unknown`.
    pub rustc: String,
    /// The workload seed.
    pub seed: u64,
}

/// Standard output of `program args`, trimmed, if it ran and succeeded.
fn output_of(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
}

/// The commit of the checkout rooted at the working directory. Only a
/// `.git` right here counts, so a copy of the sources that sits inside
/// some other repository reports `unknown` rather than that repository's
/// commit.
fn commit() -> String {
    if !Path::new(".git").exists() {
        return "unknown".to_owned();
    }
    let Some(head) = output_of("git", &["rev-parse", "HEAD"]) else {
        return "unknown".to_owned();
    };
    match output_of("git", &["status", "--porcelain", "--untracked-files=no"]) {
        Some(changes) if changes.is_empty() => head,
        _ => format!("{head}+dirty"),
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|line| line.strip_prefix("model name"))
                .and_then(|rest| rest.split_once(':'))
                .map(|(_, model)| model.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

impl Provenance {
    /// Collects the provenance of a run with `seed`.
    pub fn collect(seed: u64) -> Provenance {
        Provenance {
            commit: commit(),
            parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu: cpu_model(),
            rustc: output_of("rustc", &["-V"]).unwrap_or_else(|| "unknown".to_owned()),
            seed,
        }
    }

    /// The provenance as a JSON object.
    pub fn to_json(&self) -> Value {
        Value::Map(vec![
            (Cow::from("commit"), Value::Str(self.commit.clone())),
            (Cow::from("available_parallelism"), Value::U64(self.parallelism as u64)),
            (Cow::from("cpu"), Value::Str(self.cpu.clone())),
            (Cow::from("rustc"), Value::Str(self.rustc.clone())),
            (Cow::from("seed"), Value::U64(self.seed)),
        ])
    }
}
