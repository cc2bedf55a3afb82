//! End-to-end tests of the `faultstudy` CLI binary.

use std::process::Command;

fn run(args: &[&str]) -> (String, String, bool) {
    let out =
        Command::new(env!("CARGO_BIN_EXE_faultstudy")).args(args).output().expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn tables_command_prints_all_three_tables() {
    let (stdout, _, ok) = run(&["tables"]);
    assert!(ok);
    for needle in ["Table 1", "Table 2", "Table 3", "Apache", "GNOME", "MySQL", "36", "39", "38"] {
        assert!(stdout.contains(needle), "missing {needle}");
    }
}

#[test]
fn figures_command_prints_all_three_figures() {
    let (stdout, _, ok) = run(&["figures"]);
    assert!(ok);
    for needle in ["Figure 1", "Figure 2", "Figure 3", "1.3.9", "1999-07", "3.23.0"] {
        assert!(stdout.contains(needle), "missing {needle}");
    }
}

#[test]
fn summary_command_prints_discussion() {
    let (stdout, _, ok) = run(&["summary"]);
    assert!(ok);
    assert!(stdout.contains("139 faults"));
    assert!(stdout.contains("72%-87%"));
}

#[test]
fn mine_command_prints_funnels() {
    let (stdout, stderr, ok) = run(&["mine", "--seed", "5"]);
    assert!(ok);
    assert!(stderr.is_empty(), "the §4 contract holds: {stderr}");
    assert!(stdout.contains("5220 (raw archive)"));
    assert!(stdout.contains("44 (unique bugs)"));
    assert!(stdout.contains("precision 1.000"));
}

#[test]
fn recover_command_prints_matrix() {
    let (stdout, _, ok) = run(&["recover", "--seed", "2000"]);
    assert!(ok);
    assert!(stdout.contains("Recovery matrix (seed 2000)"));
    assert!(stdout.contains("0/113"), "EI column");
    assert!(stdout.contains("app-specific"));
}

#[test]
fn campaign_command_prints_sampled_cells() {
    let (stdout, _, ok) = run(&["campaign", "--seed", "5"]);
    assert!(ok);
    assert!(stdout.contains("500 samples"));
    assert!(stdout.contains("no anomalies"));
    assert!(stdout.contains("environment-independent"));
}

#[test]
fn experiments_command_emits_markdown_without_mismatches() {
    let (stdout, _, ok) = run(&["experiments", "--seed", "2000"]);
    assert!(ok);
    assert!(stdout.starts_with("# EXPERIMENTS"));
    assert!(stdout.contains("## E9"));
    assert!(!stdout.contains("MISMATCH"), "paper-vs-measured mismatch in CLI output");
}

#[test]
fn lee_iyer_command_prints_reconciliation() {
    let (stdout, _, ok) = run(&["lee-iyer"]);
    assert!(ok);
    assert!(stdout.contains("82.0"));
    assert!(stdout.contains("29.0"));
}

#[test]
fn json_output_parses() {
    for cmd in ["tables", "summary", "lee-iyer"] {
        let (stdout, _, ok) = run(&[cmd, "--json"]);
        assert!(ok, "{cmd}");
        let value: serde_json::Value =
            serde_json::from_str(&stdout).unwrap_or_else(|e| panic!("{cmd}: {e}"));
        assert!(!value.is_null(), "{cmd}");
    }
}

#[test]
fn campaign_commands_pass_at_adequate_sizes() {
    for args in [
        &["recover"][..],
        &["campaign"],
        &["inject", "--threads", "2"],
        &["traffic", "--seed", "3", "--requests", "3780"],
        &["micro", "--requests", "6000"],
        &["oblivious", "--requests", "6000", "--threads", "2"],
        &["graph", "--requests", "7200"],
    ] {
        let (stdout, stderr, ok) = run(args);
        assert!(ok, "{args:?}: {stderr}");
        assert!(stderr.is_empty(), "{args:?}: {stderr}");
        assert!(!stdout.is_empty(), "{args:?}");
    }
}

#[test]
fn underpowered_campaigns_exit_nonzero() {
    // Before the shared anomaly exit path, micro and traffic always
    // exited zero — even on runs too small to check any contract.
    for args in [
        ["micro", "--requests", "10"],
        ["traffic", "--requests", "60"],
        ["oblivious", "--requests", "150"],
        ["graph", "--requests", "10"],
    ] {
        let (_, stderr, ok) = run(&args);
        assert!(!ok, "an unchecked {} contract must fail the command", args[0]);
        assert!(stderr.contains(&format!("faultstudy: {}: ANOMALY", args[0])), "{stderr}");
    }
}

#[test]
fn oblivious_command_prints_the_cost_matrix() {
    let (stdout, stderr, ok) = run(&["oblivious", "--requests", "6000"]);
    assert!(ok, "oblivious: {stderr}");
    assert!(stdout.contains("Oblivious-recovery campaign"));
    assert!(stdout.contains("oracle violations"));
    assert!(stdout.contains("manufactured"));
    assert!(stdout.contains("no anomalies"));
}

#[test]
fn verify_command_passes_and_reports() {
    let (stdout, _, ok) = run(&["verify", "--seed", "2000"]);
    assert!(ok, "verify must succeed on the shipped configuration");
    assert!(stdout.contains("all guarantees reproduced"));
}

#[test]
fn bad_usage_fails_cleanly() {
    let (_, stderr, ok) = run(&[]);
    assert!(!ok);
    assert!(stderr.contains("usage"));
    let (_, stderr, ok) = run(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("unknown command"));
    let (_, stderr, ok) = run(&["tables", "--seed"]);
    assert!(!ok);
    assert!(stderr.contains("--seed requires"));
    let (_, stderr, ok) = run(&["tables", "--bogus"]);
    assert!(!ok);
    assert!(stderr.contains("unknown argument"));
    // Rejected while parsing, so no worker thread is ever started.
    let (stdout, stderr, ok) = run(&["mine", "--threads", "100000"]);
    assert!(!ok);
    assert!(stdout.is_empty());
    assert!(stderr.contains("--threads requires"), "{stderr}");
}
