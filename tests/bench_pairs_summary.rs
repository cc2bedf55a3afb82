//! `tools/pairs-summary.awk`, the summary `make bench-pairs` prints,
//! against the benchmark's own order statistics.
//!
//! A speed claim passes when the change's median beats the base's by more
//! than the spread between the base's quartiles, so the summary must cut
//! its quartiles exactly as the benchmark does. The benchmark's
//! `stats.rs` is compiled in here as the reference, and the summary's
//! medians, quartiles, ratios, win counts, verdicts and digest verdict
//! are checked against it for sets of one to twelve pairs, including the
//! cases that file's own tests take from Python. Crafted pair sets pin
//! each verdict, `gain`, `unresolved`, `worse` and `same`, at its edges,
//! under the bounds `BENCHMARK.json` declares.

use std::io::Write;
use std::process::{Command, Stdio};

#[allow(dead_code)]
#[path = "../benchmark/src/stats.rs"]
mod stats;

use stats::Summary;

/// The metrics in the order the summary prints them, each with the
/// decimals it prints and whether higher wins.
const METRICS: [(&str, i32, bool); 4] = [
    ("throughput", 0, true),
    ("unscaled", 0, true),
    ("setup_s", 4, false),
    ("peak_rss_mb", 2, false),
];

/// `BENCHMARK.json`'s bound on the end-to-end metric `name`.
fn bound(name: &str) -> f64 {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/BENCHMARK.json"))
        .expect("BENCHMARK.json is readable");
    let json: serde_json::Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let Some(serde_json::Value::Seq(metrics)) = json.get("end_to_end") else {
        panic!("BENCHMARK.json has an end_to_end list");
    };
    let named = |m: &&serde_json::Value| matches!(m.get("name"), Some(serde_json::Value::Str(n)) if n == name);
    let metric = metrics.iter().find(named).expect("the metric is declared");
    metric.get("bound").and_then(serde_json::Value::as_f64).expect("a numeric bound")
}

/// Each printed metric's bound: the unscaled throughput takes the
/// throughput's.
fn bounds() -> [f64; 4] {
    [bound("throughput"), bound("throughput"), bound("setup_s"), bound("peak_rss_mb")]
}

/// One pair: both sides' four metrics and digests.
struct Pair {
    base: [f64; 4],
    change: [f64; 4],
    base_digest: &'static str,
    change_digest: &'static str,
}

/// Runs the summary over `pairs`: its stdout and whether it exited 0.
fn summarize(pairs: &[Pair]) -> (String, bool) {
    let mut input = String::new();
    for (i, p) in pairs.iter().enumerate() {
        let [b0, b1, b2, b3] = p.base;
        let [c0, c1, c2, c3] = p.change;
        let first = if i % 2 == 0 { "base" } else { "change" };
        input += &format!(
            "{} {first} {b0} {b1} {b2} {b3} {} {c0} {c1} {c2} {c3} {}\n",
            i + 1,
            p.base_digest,
            p.change_digest
        );
    }
    let [throughput, _, setup_s, peak_rss_mb] = bounds();
    let mut child = Command::new("awk")
        .arg("-v")
        .arg(format!("throughput_bound={throughput}"))
        .arg("-v")
        .arg(format!("setup_s_bound={setup_s}"))
        .arg("-v")
        .arg(format!("peak_rss_mb_bound={peak_rss_mb}"))
        .arg("-f")
        .arg(concat!(env!("CARGO_MANIFEST_DIR"), "/tools/pairs-summary.awk"))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("awk runs");
    child.stdin.take().expect("stdin").write_all(input.as_bytes()).expect("input written");
    let out = child.wait_with_output().expect("awk finishes");
    (String::from_utf8(out.stdout).expect("utf-8"), out.status.success())
}

/// Parses `median (q1-q3)` as two whitespace-separated fields.
fn parse_summary(median: &str, quartiles: &str) -> [f64; 3] {
    let (q1, q3) =
        quartiles.trim_start_matches('(').trim_end_matches(')').split_once('-').expect("q1-q3");
    [q1, median, q3].map(|v| v.parse().expect("a number"))
}

/// The verdict on one metric: `gain` when the change won at least 9 in 10
/// of the pairs and its median beats the base's by more than the base's
/// interquartile range; otherwise `unresolved` when that range is wider
/// than `bound` times the base's median, `worse` when the change's median
/// is worse than the base's by more than `bound`, `same` otherwise.
fn verdict(base: Summary, change: Summary, won: usize, higher: bool, bound: f64) -> &'static str {
    let better = if higher { change.median - base.median } else { base.median - change.median };
    if won * 10 >= base.n * 9 && better > base.q3 - base.q1 {
        "gain"
    } else if base.q3 - base.q1 > bound * base.median {
        "unresolved"
    } else if better < -bound * base.median {
        "worse"
    } else {
        "same"
    }
}

/// Checks the summary's output for `pairs` against `Summary::of`, and
/// returns each metric's verdict.
fn check(pairs: &[Pair]) -> [String; 4] {
    let what = format!("{} pairs", pairs.len());
    let (out, ok) = summarize(pairs);
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(lines.len(), 6, "{what}: {out}");
    let mut verdicts: [String; 4] = Default::default();
    for (k, &(name, decimals, higher)) in METRICS.iter().enumerate() {
        let fields: Vec<&str> = lines[1 + k].split_whitespace().collect();
        assert_eq!(fields.len(), 8, "{what}: {}", lines[1 + k]);
        assert_eq!(fields[0], name, "{what}");
        let base = Summary::of(&pairs.iter().map(|p| p.base[k]).collect::<Vec<_>>());
        let change = Summary::of(&pairs.iter().map(|p| p.change[k]).collect::<Vec<_>>());
        let tolerance = 0.5 * 10f64.powi(-decimals) + 1e-9;
        for (printed, want, side) in [
            (parse_summary(fields[1], fields[2]), base, "base"),
            (parse_summary(fields[3], fields[4]), change, "change"),
        ] {
            for (got, want) in printed.into_iter().zip([want.q1, want.median, want.q3]) {
                assert!(
                    (got - want).abs() <= tolerance,
                    "{what}, {name}, {side}: printed {got}, the benchmark cuts {want}"
                );
            }
        }
        let ratio: f64 = fields[5].trim_start_matches('x').parse().expect("a ratio");
        let want_ratio = change.median / base.median;
        assert!((ratio - want_ratio).abs() <= 0.0005 + 1e-9, "{what}, {name}: ratio {ratio}");
        let won = pairs
            .iter()
            .filter(|p| if higher { p.change[k] > p.base[k] } else { p.change[k] < p.base[k] })
            .count();
        assert_eq!(fields[6], format!("{won}/{}", pairs.len()), "{what}, {name}");
        let want = verdict(base, change, won, higher, bounds()[k]);
        assert_eq!(fields[7], want, "{what}, {name}: {}", lines[1 + k]);
        verdicts[k] = fields[7].to_owned();
    }
    let same = pairs.iter().filter(|p| p.base_digest == p.change_digest).count();
    assert_eq!(lines[5], format!("digests equal in {same} of {} pairs", pairs.len()), "{what}");
    assert_eq!(ok, same == pairs.len(), "{what}: exits 0 only when every digest matches");
    verdicts
}

/// A pair whose sides differ only in `setup_s`.
fn setup_pair(base: f64, change: f64) -> Pair {
    Pair {
        base: [2.0e6, 1.5e6, base, 4.5],
        change: [2.0e6, 1.5e6, change, 4.5],
        base_digest: "d",
        change_digest: "d",
    }
}

/// The cases `stats.rs` checks against Python's `statistics.quantiles`,
/// as `setup_s` columns: 1..10 (2.75, 5.5, 8.25), [2, 1] (0.75, 1.5,
/// 2.25), [4, 1, 3] (median 3) and a single value.
#[test]
fn the_summary_cuts_the_python_cases_as_the_benchmark_does() {
    let ten = [10.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0];
    let pairs: Vec<Pair> = ten.iter().map(|&v| setup_pair(v, 11.0 - v)).collect();
    check(&pairs);
    let (out, _) = summarize(&pairs);
    assert!(out.contains("5.5000 (2.7500-8.2500)"), "{out}");
    check(&[setup_pair(2.0, 1.0), setup_pair(1.0, 2.0)]);
    let (out, _) = summarize(&[setup_pair(2.0, 1.0), setup_pair(1.0, 2.0)]);
    assert!(out.contains("1.5000 (0.7500-2.2500)"), "{out}");
    check(&[setup_pair(4.0, 1.0), setup_pair(1.0, 1.0), setup_pair(3.0, 3.0)]);
    check(&[setup_pair(7.0, 7.0)]);
}

/// Benchmark-like figures for one to twelve pairs, a digest mismatch in
/// some sets: the summary agrees with the benchmark's summary on every
/// metric.
#[test]
fn the_summary_agrees_with_the_benchmark_on_every_metric() {
    let mut state = 0x2545_f491_4f6c_dd1d_u64;
    let mut draw = |lo: f64, hi: f64| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        lo + (hi - lo) * (state >> 11) as f64 / (1u64 << 53) as f64
    };
    for n in 1..=12 {
        for round in 0..4 {
            let pairs: Vec<Pair> = (0..n)
                .map(|i| Pair {
                    base: [draw(1.6e6, 2.8e6), draw(1.2e6, 2.6e6), draw(0.1, 0.3), draw(4.3, 4.7)],
                    change: [
                        draw(1.6e6, 5.0e6),
                        draw(1.2e6, 4.5e6),
                        draw(0.1, 0.3),
                        draw(4.3, 4.7),
                    ],
                    base_digest: "0123abcd",
                    change_digest: if round == 3 && i == n / 2 { "4567ef01" } else { "0123abcd" },
                })
                .collect();
            check(&pairs);
        }
    }
}

/// Ten pairs whose throughput reads `base[i]` and `change[i]`; every other
/// metric is equal on both sides.
fn throughput_pairs(base: [f64; 10], change: [f64; 10]) -> Vec<Pair> {
    base.iter()
        .zip(change)
        .map(|(&b, c)| Pair {
            base: [b, 1.5e6, 0.2, 4.5],
            change: [c, 1.5e6, 0.2, 4.5],
            base_digest: "d",
            change_digest: "d",
        })
        .collect()
}

/// Ten base throughputs with median 5.5M whose interquartile range is
/// `spread` times the median: 5.5M + spread * (i - 5.5) * 1M for i in
/// 1..=10, whose quartiles fall at 2.75 and 8.25.
fn base_with_spread(spread: f64) -> [f64; 10] {
    std::array::from_fn(|i| 5.5e6 + spread * (i as f64 + 1.0 - 5.5) * 1e6)
}

/// Crafted pair files pin each verdict at its edges.
#[test]
fn each_verdict_holds_at_its_edges() {
    let throughput =
        |base: [f64; 10], change: [f64; 10]| check(&throughput_pairs(base, change))[0].clone();
    let drop = bound("throughput");

    // A wide base: 1..=10 (millions), median 5.5, quartiles 2.75 and
    // 8.25, so its interquartile range of 5.5 is far past the bound.
    let wide = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0].map(|v| v * 1e6);
    let shifted = |base: [f64; 10], by: f64| base.map(|v| v + by);
    // Ten wins and a median 6.0 higher, past the 5.5 range: a gain.
    assert_eq!(throughput(wide, shifted(wide, 6e6)), "gain");
    // Ten wins, but the median moves only 5.0: not past the range, and a
    // range that wide cannot tell a change from noise.
    assert_eq!(throughput(wide, shifted(wide, 5e6)), "unresolved");
    // Nine wins of ten still gain; eight do not.
    let mut nine = shifted(wide, 6e6);
    nine[0] = wide[0];
    assert_eq!(throughput(wide, nine), "gain");
    let mut eight = nine;
    eight[1] = wide[1];
    assert_eq!(throughput(wide, eight), "unresolved");
    // Even a median halved is unresolved over so wide a base.
    assert_eq!(throughput(wide, wide.map(|v| v * 0.5)), "unresolved");

    // The new edge: a base range just inside the bound times the median
    // resolves an unchanged change as the same, just past it does not.
    let inside = base_with_spread(drop - 1e-6);
    assert_eq!(throughput(inside, inside), "same");
    let past = base_with_spread(drop + 1e-6);
    assert_eq!(throughput(past, past), "unresolved");

    // A narrow base: median 5.5M, range 0.55M, a tenth of the median.
    let narrow = base_with_spread(0.1);
    assert_eq!(throughput(narrow, shifted(narrow, 0.56e6)), "gain");
    assert_eq!(throughput(narrow, shifted(narrow, 0.54e6)), "same");
    // A median 20% below the base's is inside the 0.2 bound; past it is
    // worse, though no pair needs to lose by much for that.
    assert_eq!(throughput(narrow, narrow.map(|v| v * (1.0 - drop) + 1.0)), "same");
    assert_eq!(throughput(narrow, narrow.map(|v| v * (1.0 - drop) - 1.0)), "worse");

    // Lower is better for setup_s and peak RSS: a rise past the bound is
    // worse, a fall by more than the range in every pair a gain.
    let setup = |base: &dyn Fn(u32) -> f64, change: f64| {
        let pairs: Vec<Pair> = (1..=10).map(|i| setup_pair(base(i), change)).collect();
        check(&pairs)[2].clone()
    };
    // Base setup_s 0.051..=0.060: median 0.0555, range 0.0055.
    let narrow = |i: u32| 0.05 + f64::from(i) * 0.001;
    let rise = bound("setup_s");
    assert_eq!(setup(&narrow, 0.0555 * (1.0 + rise) + 1e-6), "worse");
    assert_eq!(setup(&narrow, 0.0555 * (1.0 + rise) - 1e-6), "same");
    assert_eq!(setup(&narrow, 0.0505), "same", "0.005 better in every pair, not past the range");
    assert_eq!(setup(&narrow, 0.0495), "gain", "0.006 better in every pair, past the range");
    // Base setup_s 0.01..=0.10: median 0.055, range 0.055, wider than the
    // bound, so neither a rise past the bound nor a fall short of the
    // range resolves.
    let wide = |i: u32| f64::from(i) * 0.01;
    assert_eq!(setup(&wide, 0.055 * (1.0 + rise) + 1e-6), "unresolved");
    assert_eq!(setup(&wide, 0.001), "unresolved", "0.054 better, not past the range");
    // Base setup_s 1.01..=1.10 falling to 0.01 in every pair: a gain.
    assert_eq!(setup(&|i| wide(i) + 1.0, 0.01), "gain");
    let peak = |change: f64| {
        let pairs: Vec<Pair> = (0..10)
            .map(|i| Pair {
                base: [2.0e6, 1.5e6, 0.2, 4.0 + f64::from(i) * 0.01],
                change: [2.0e6, 1.5e6, 0.2, change],
                base_digest: "d",
                change_digest: "d",
            })
            .collect();
        check(&pairs)[3].clone()
    };
    assert_eq!(peak(4.045 * (1.0 + bound("peak_rss_mb")) + 1e-6), "worse");
    assert_eq!(peak(4.045 * (1.0 + bound("peak_rss_mb")) - 1e-6), "same");
}
