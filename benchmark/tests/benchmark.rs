//! The benchmark's own checks, on smoke-size workloads so they stay fast
//! in a debug build.

use faultstudy_benchmark::decorate::healthy_unit;
use faultstudy_benchmark::trace::Tracer;
use faultstudy_benchmark::workload::{Inputs, Scale, Spec, Workload};
use faultstudy_benchmark::{END_TO_END, PER_LAYER};
use faultstudy_core::taxonomy::AppKind;
use serde_json::Value;
use std::process::Command;

#[test]
fn decorated_units_match_undecorated_ones() {
    for kind in AppKind::ALL {
        for seed in [1, 2000] {
            let plain = healthy_unit(kind, 300, seed, None);
            let tracer = Tracer::on();
            let decorated = healthy_unit(kind, 300, seed, Some((&tracer, 1)));
            assert_eq!(plain.stats, decorated.stats, "{kind:?} seed {seed}");
            assert_eq!(plain.end, decorated.end, "{kind:?} seed {seed}");
            assert_eq!(
                (plain.stats.offered, plain.stats.failures),
                (300, 0),
                "{kind:?} is healthy"
            );
            let handles = tracer.spans().iter().filter(|s| s.name == "apps.handle").count();
            assert_eq!(handles, 300, "{kind:?}: one handle span per request");
        }
    }
}

#[test]
fn every_workload_digest_is_thread_invariant() {
    for workload in Workload::ALL {
        let inputs = Inputs::generate(Spec::new(workload, 2000, Scale::Smoke));
        let off = Tracer::off();
        let one = inputs.rep(1, &off);
        let two = inputs.rep(2, &off);
        assert_eq!(one.failed_checks(&inputs), Vec::<String>::new(), "{}", workload.name());
        assert_eq!(one.digest(), two.digest(), "{}", workload.name());
    }
}

/// `(name, unit)` of every metric `BENCHMARK.json` lists under `key`.
fn declared(doc: &Value, key: &str) -> Vec<(String, String)> {
    let Some(Value::Seq(metrics)) = doc.get(key) else { panic!("{key} is a list") };
    metrics
        .iter()
        .map(|m| {
            let field =
                |f: &str| m.get(f).and_then(Value::as_str).expect("name and unit").to_owned();
            (field("name"), field("unit"))
        })
        .collect()
}

fn owned(table: &[(&str, &str)]) -> Vec<(String, String)> {
    table.iter().map(|&(n, u)| (n.to_owned(), u.to_owned())).collect()
}

#[test]
fn the_bin_emits_exactly_the_declared_workloads_and_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc: Value = serde_json::from_str(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
        .expect("BENCHMARK.json parses");
    let Some(Value::Seq(workloads)) = doc.get("workloads") else { panic!("workloads is a list") };
    let names: Vec<&str> = workloads.iter().filter_map(|w| w.get("name")?.as_str()).collect();
    assert_eq!(names, Workload::ALL.map(Workload::name));
    assert_eq!(declared(&doc, "end_to_end"), owned(&END_TO_END));
    assert_eq!(declared(&doc, "per_layer"), owned(&PER_LAYER));

    for workload in Workload::ALL {
        for (trace, expected) in [("0", owned(&END_TO_END)), ("1", owned(&PER_LAYER))] {
            let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
                .args(["--workload", workload.name(), "--seed", "2000", "--seconds", "0.05"])
                .args(["--trace", trace, "--smoke"])
                .output()
                .expect("the benchmark runs");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(out.status.success(), "{} trace {trace}: {stdout}", workload.name());
            let line: Value = serde_json::from_str(stdout.lines().last().expect("a result line"))
                .expect("the last line is JSON");
            let Value::Map(keys) = &line else { panic!("the result is an object") };
            let keys: Vec<&str> = keys.iter().map(|(k, _)| k.as_ref()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(line.get("correct"), Some(&Value::Bool(true)));
            assert_eq!(line.get("failed").and_then(Value::as_u64), Some(0));
            let Some(Value::Map(metrics)) = line.get("metrics") else { panic!("metrics") };
            let emitted: Vec<(String, String)> = metrics
                .iter()
                .map(|(name, m)| {
                    assert!(m.get("value").and_then(Value::as_f64).is_some(), "{name} has a value");
                    (
                        name.to_string(),
                        m.get("unit").and_then(Value::as_str).unwrap_or("").to_owned(),
                    )
                })
                .collect();
            assert_eq!(emitted, expected, "{} trace {trace}", workload.name());
        }
    }
}
