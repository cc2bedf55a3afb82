//! Property tests for the observability layer: the merge discipline that
//! makes instrumented parallel runs byte-identical at any thread count.

use faultstudy_obs::{bucket_hi, bucket_index, bucket_lo, Histogram, MetricsRegistry, Tally};
use proptest::prelude::*;

fn hist_of(values: &[u64]) -> Histogram {
    let mut h = Histogram::new();
    for &v in values {
        h.record(v);
    }
    h
}

/// A sample stream that often holds 0, `u64::MAX` (two of which saturate
/// the sum) and small latency-like values, besides arbitrary ones.
fn samples() -> impl Strategy<Value = Vec<u64>> {
    let sample = (0u8..4, any::<u64>()).prop_map(|(kind, v)| match kind {
        0 => 0,
        1 => u64::MAX,
        2 => v % 1_000_000,
        _ => v,
    });
    prop::collection::vec(sample, 0..120)
}

proptest! {
    /// A tally converts into the histogram that records each of its
    /// samples one at a time.
    #[test]
    fn a_tally_converts_into_the_recorded_histogram(values in samples()) {
        let mut tally = Tally::new();
        for &v in &values {
            tally.record(v);
        }
        prop_assert_eq!(tally.histogram(), hist_of(&values), "{:?}", values);
    }

    /// Histogram merge is commutative: a ∪ b == b ∪ a.
    #[test]
    fn histogram_merge_is_commutative(
        a in prop::collection::vec(0u64..u64::MAX, 0..40),
        b in prop::collection::vec(0u64..u64::MAX, 0..40),
    ) {
        let (ha, hb) = (hist_of(&a), hist_of(&b));
        let mut ab = ha.clone();
        ab.merge_from(&hb);
        let mut ba = hb.clone();
        ba.merge_from(&ha);
        prop_assert_eq!(ab, ba);
    }

    /// Histogram merge is associative: (a ∪ b) ∪ c == a ∪ (b ∪ c).
    #[test]
    fn histogram_merge_is_associative(
        a in prop::collection::vec(0u64..u64::MAX, 0..30),
        b in prop::collection::vec(0u64..u64::MAX, 0..30),
        c in prop::collection::vec(0u64..u64::MAX, 0..30),
    ) {
        let (ha, hb, hc) = (hist_of(&a), hist_of(&b), hist_of(&c));
        let mut left = ha.clone();
        left.merge_from(&hb);
        left.merge_from(&hc);
        let mut bc = hb.clone();
        bc.merge_from(&hc);
        let mut right = ha.clone();
        right.merge_from(&bc);
        prop_assert_eq!(left, right);
    }

    /// Merging any contiguous partition of a sample stream in index order
    /// reproduces the histogram of the unpartitioned stream — the exact
    /// shape of `run_indexed` chunking at different thread counts.
    #[test]
    fn partitioned_merge_equals_sequential(
        values in prop::collection::vec(0u64..u64::MAX, 1..80),
        parts in 1usize..8,
    ) {
        let whole = hist_of(&values);
        let chunk = values.len().div_ceil(parts);
        let mut merged = Histogram::new();
        for part in values.chunks(chunk) {
            merged.merge_from(&hist_of(part));
        }
        prop_assert_eq!(merged, whole);
    }

    /// Every value lands in the bucket whose bounds contain it.
    #[test]
    fn bucket_bounds_contain_their_values(v in 0u64..u64::MAX) {
        let i = bucket_index(v);
        prop_assert!(bucket_lo(i) <= v, "lo({i}) > {v}");
        prop_assert!(v <= bucket_hi(i), "{v} > hi({i})");
    }

    /// Quantiles stay within the observed [min, max] and are monotone in
    /// the requested rank.
    #[test]
    fn quantiles_are_bounded_and_monotone(
        values in prop::collection::vec(0u64..u64::MAX, 1..60),
    ) {
        let h = hist_of(&values);
        let (min, max) = (h.min().unwrap(), h.max().unwrap());
        let p50 = h.p50().unwrap();
        let p90 = h.p90().unwrap();
        prop_assert!(min <= p50 && p50 <= max);
        prop_assert!(p50 <= p90 && p90 <= max);
    }

    /// Registry merge in index order is invariant under the chunking: the
    /// same per-sample registries merged as 1, 2, or 8 "workers" agree.
    #[test]
    fn registry_merge_is_chunking_invariant(
        samples in prop::collection::vec((0u64..1000, 0u64..1_000_000), 1..40),
    ) {
        let per_sample: Vec<MetricsRegistry> = samples
            .iter()
            .map(|&(count, value)| {
                let mut r = MetricsRegistry::new();
                r.incr("events", "worker", count);
                r.record("latency", "worker", value);
                r
            })
            .collect();
        let reference = MetricsRegistry::merged_in_index_order(per_sample.clone());
        for workers in [1usize, 2, 8] {
            let chunk = per_sample.len().div_ceil(workers);
            // Each "worker" pre-merges its contiguous chunk, then chunks
            // merge in chunk order — exactly run_indexed's shape.
            let chunked = per_sample
                .chunks(chunk)
                .map(|part| MetricsRegistry::merged_in_index_order(part.to_vec()));
            let merged = MetricsRegistry::merged_in_index_order(chunked);
            prop_assert_eq!(&merged, &reference, "workers={}", workers);
        }
    }

    /// A registry's JSON text (the `--json` export path) parses back to
    /// the tree it was written from: the text loses nothing.
    #[test]
    fn registry_json_is_lossless(
        counts in prop::collection::vec(0u64..1_000_000, 1..20),
    ) {
        let mut r = MetricsRegistry::new();
        for (i, &c) in counts.iter().enumerate() {
            r.incr("count", if i % 2 == 0 { "even" } else { "odd" }, c);
            r.record("value", "all", c);
        }
        r.set_gauge("last", "", counts.len() as i64);
        let json = serde_json::to_string(&r).expect("registry serializes");
        let parsed: serde_json::Value = serde_json::from_str(&json).expect("parses");
        prop_assert_eq!(parsed, serde_json::to_value(&r));
    }
}
