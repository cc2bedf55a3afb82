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

/// FNV-1a-64 of `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Each report command's stdout at seed 2000, in text and in `--json`,
/// hashes to the digest pinned beside it, so output that changes across
/// commits fails here. A change that alters a report on purpose updates
/// the digest and says why.
#[test]
fn report_commands_keep_their_bytes() {
    for (cmd, text, json) in [
        ("tables", 0x0b36_b24c_3d0b_0241, 0x7ea6_3e09_3cdb_c1c9),
        ("figures", 0x92cd_8dec_83e7_cb1e, 0xc4d6_0d21_7e0b_4d27),
        ("summary", 0xe021_2567_477c_5972, 0x67f5_be63_150e_0a2a),
        ("mine", 0xaabb_1fa9_4d61_3836, 0x6ec2_dcc5_45a4_bdb2),
        ("metrics", 0xf94e_463c_8d7b_b056, 0x9892_18cf_50be_2056),
        ("lee-iyer", 0x393f_1b6a_d04c_6b03, 0xa3e1_8239_2442_873b),
    ] {
        for (json_flag, digest) in [(None, text), (Some("--json"), json)] {
            let args: Vec<&str> = [cmd, "--seed", "2000"].into_iter().chain(json_flag).collect();
            let (stdout, stderr, ok) = run(&args);
            assert!(ok && stderr.is_empty(), "{args:?}: {stderr}");
            let got = fnv1a(stdout.as_bytes());
            assert_eq!(got, digest, "{args:?}: digest {got:#018x} differs from the pinned one");
        }
    }
}

/// Every command with a `--json` form prints one JSON document. The
/// campaigns run at sizes too small to keep their contracts, so they exit
/// non-zero, but they still print their report. `all --json` prints one
/// object that holds each report command's document under its name.
#[test]
fn json_output_parses() {
    let parse = |args: &[&str]| {
        let (stdout, stderr, _) = run(args);
        let value: serde_json::Value =
            serde_json::from_str(&stdout).unwrap_or_else(|e| panic!("{args:?}: {e}: {stderr}"));
        assert!(!value.is_null(), "{args:?}");
        value
    };
    let all = parse(&["all", "--json"]);
    let commands = ["tables", "figures", "summary", "mine", "recover", "lee-iyer"];
    for cmd in commands {
        assert_eq!(all.get(cmd), Some(&parse(&[cmd, "--json"])), "all --json: {cmd}");
    }
    let serde_json::Value::Map(entries) = &all else { panic!("all --json: not an object") };
    let keys: Vec<&str> = entries.iter().map(|(key, _)| key.as_ref()).collect();
    assert_eq!(keys, commands, "all --json: one key per report command, in order");
    for args in [
        &["metrics"][..],
        &["campaign", "--samples", "20"],
        &["inject"],
        &["traffic", "--requests", "60"],
        &["micro", "--requests", "10"],
        &["graph", "--requests", "10"],
        &["oblivious", "--requests", "150"],
    ] {
        parse(&[args, &["--json"]].concat());
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
