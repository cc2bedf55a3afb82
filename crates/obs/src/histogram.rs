//! A fixed-bucket histogram whose merge is exact and order-independent.
//!
//! Buckets are the base-2 orders of magnitude of a `u64`: bucket 0 holds
//! the value `0` and bucket `i` (1 ≤ i ≤ 64) holds `2^(i-1) ..= 2^i - 1`.
//! The boundaries are compile-time constants, so two histograms built on
//! different threads, machines, or runs always share the same shape and
//! their merge is a plain element-wise sum — associative, commutative, and
//! byte-identical no matter how samples were partitioned.
//!
//! Quantiles are approximated from the bucket counts (clamped to the exact
//! observed `min`/`max`), using only integer arithmetic so a quantile is a
//! pure function of the recorded multiset.
//!
//! A [`Tally`] counts samples over the same buckets in a dense array, for a
//! loop that records many samples into one histogram: it converts into the
//! [`Histogram`] that recording each sample would have built, once, when
//! the loop ends.

use serde::Serialize;
use std::fmt;

/// Number of fixed buckets: one for zero plus one per base-2 order.
pub const BUCKETS: usize = 65;

/// Bucket index of `value`: 0 for zero, else `65 - leading_zeros`.
pub const fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

/// Smallest value the bucket holds.
pub const fn bucket_lo(index: usize) -> u64 {
    if index == 0 {
        0
    } else {
        1u64 << (index - 1)
    }
}

/// Largest value the bucket holds.
pub const fn bucket_hi(index: usize) -> u64 {
    if index == 0 {
        0
    } else if index >= 64 {
        u64::MAX
    } else {
        (1u64 << index) - 1
    }
}

/// A mergeable fixed-bucket histogram of `u64` samples.
///
/// # Example
///
/// ```
/// use faultstudy_obs::Histogram;
///
/// let mut h = Histogram::new();
/// for v in [1, 2, 3, 100] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 4);
/// assert_eq!(h.max(), Some(100));
/// assert!(h.p50().unwrap() <= 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Histogram {
    /// Non-empty buckets only, as `(bucket index, count)` pairs sorted by
    /// index. Distributions here are narrow (a handful of base-2 orders),
    /// so the sparse form keeps an empty histogram allocation-free and a
    /// typical one a few pairs — the representation is still canonical
    /// (no zero-count pairs, sorted), so derived equality is exact.
    buckets: Vec<(u8, u64)>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram { buckets: Vec::new(), count: 0, sum: 0, min: u64::MAX, max: 0 }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        let idx = bucket_index(value) as u8;
        match self.buckets.binary_search_by_key(&idx, |&(i, _)| i) {
            Ok(pos) => self.buckets[pos].1 += 1,
            Err(pos) => self.buckets.insert(pos, (idx, 1)),
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Smallest recorded sample, `None` when empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded sample, `None` when empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// The `num/den` quantile (e.g. `1/2` for the median), approximated as
    /// the upper bound of the bucket holding the sample of that rank and
    /// clamped to the exact observed `[min, max]`. `None` when empty.
    ///
    /// # Panics
    ///
    /// Panics if `den` is zero or `num > den`.
    pub(crate) fn quantile(&self, num: u64, den: u64) -> Option<u64> {
        assert!(den > 0 && num <= den, "quantile must be in [0, 1]");
        if self.count == 0 {
            return None;
        }
        if num == 0 {
            // q0 is the observed minimum exactly. Falling through would
            // clamp the rank to 1 and report the first bucket's *upper*
            // bound, overstating the minimum by up to 2x.
            return Some(self.min);
        }
        // Rank of the requested sample, 1-based: ceil(count * num / den),
        // at least 1. Pure integer arithmetic keeps this deterministic.
        let rank = ((self.count as u128 * num as u128).div_ceil(den as u128) as u64).max(1);
        let mut cumulative = 0u64;
        for &(i, c) in &self.buckets {
            cumulative += c;
            if cumulative >= rank {
                return Some(bucket_hi(i as usize).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Median approximation.
    pub fn p50(&self) -> Option<u64> {
        self.quantile(1, 2)
    }

    /// 90th-percentile approximation.
    pub fn p90(&self) -> Option<u64> {
        self.quantile(9, 10)
    }

    /// 99th-percentile approximation.
    pub fn p99(&self) -> Option<u64> {
        self.quantile(99, 100)
    }

    /// 99.9th-percentile approximation: the traffic engine's tail-latency
    /// SLO quantile.
    pub fn p999(&self) -> Option<u64> {
        self.quantile(999, 1000)
    }

    /// Adds every sample of `other` into `self`. Element-wise over the
    /// shared fixed buckets, so merging is associative and commutative.
    pub fn merge_from(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        for &(idx, c) in &other.buckets {
            match self.buckets.binary_search_by_key(&idx, |&(i, _)| i) {
                Ok(pos) => self.buckets[pos].1 += c,
                Err(pos) => self.buckets.insert(pos, (idx, c)),
            }
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// The samples of one histogram still being recorded, one count per bucket.
///
/// Where [`Histogram::record`] searches its sparse buckets and inserts into
/// them, [`Tally::record`] adds to one fixed slot, so a loop that records
/// every answered request tallies here and converts once, with
/// [`Tally::histogram`].
///
/// # Example
///
/// ```
/// use faultstudy_obs::{Histogram, Tally};
///
/// let (mut tally, mut histogram) = (Tally::new(), Histogram::new());
/// for v in [1, 2, 3, 100] {
///     tally.record(v);
///     histogram.record(v);
/// }
/// assert_eq!(tally.histogram(), histogram);
/// ```
#[derive(Debug)]
pub struct Tally {
    counts: [u64; BUCKETS],
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Tally {
    fn default() -> Self {
        Tally::new()
    }
}

impl Tally {
    /// An empty tally.
    pub fn new() -> Tally {
        Tally { counts: [0; BUCKETS], sum: 0, min: u64::MAX, max: 0 }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.counts[bucket_index(value)] += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// The histogram of the tallied samples: equal to recording each of
    /// them into a [`Histogram`], in any order. Allocates its buckets
    /// once, and not at all when nothing was tallied.
    pub fn histogram(&self) -> Histogram {
        let mut buckets = Vec::with_capacity(self.counts.iter().filter(|&&c| c > 0).count());
        for (index, &count) in self.counts.iter().enumerate() {
            if count > 0 {
                buckets.push((index as u8, count));
            }
        }
        Histogram {
            buckets,
            count: self.counts.iter().sum(),
            sum: self.sum,
            min: self.min,
            max: self.max,
        }
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.count == 0 {
            return f.write_str("n=0");
        }
        write!(
            f,
            "n={} p50={} p90={} max={}",
            self.count,
            self.p50().expect("nonempty"),
            self.p90().expect("nonempty"),
            self.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_exact() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(7), 3);
        assert_eq!(bucket_index(8), 4);
        assert_eq!(bucket_index(u64::MAX), 64);
        for i in 1..BUCKETS {
            assert_eq!(bucket_index(bucket_lo(i)), i, "lo of bucket {i}");
            assert_eq!(bucket_index(bucket_hi(i)), i, "hi of bucket {i}");
        }
        assert_eq!(bucket_lo(0), 0);
        assert_eq!(bucket_hi(0), 0);
        assert_eq!(bucket_hi(64), u64::MAX);
    }

    #[test]
    fn empty_histogram_reports_none() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.p50(), None);
        assert_eq!(h.p90(), None);
        assert_eq!(h.to_string(), "n=0");
    }

    #[test]
    fn single_value_quantiles_are_exact() {
        let mut h = Histogram::new();
        h.record(5);
        // Bucket [4, 7] clamps to the observed min/max of 5.
        assert_eq!(h.p50(), Some(5));
        assert_eq!(h.p90(), Some(5));
        assert_eq!(h.min(), Some(5));
    }

    #[test]
    fn quantiles_walk_the_buckets() {
        let mut h = Histogram::new();
        for _ in 0..9 {
            h.record(1);
        }
        h.record(1000);
        assert_eq!(h.p50(), Some(1));
        assert_eq!(h.p90(), Some(1), "rank 9 of 10 is still a 1");
        assert_eq!(h.quantile(95, 100), Some(1000), "rank 10 reaches the outlier");
        assert_eq!(h.quantile(0, 1), Some(1), "q0 is the first sample's bucket");
        assert_eq!(h.quantile(1, 1), Some(1000));
    }

    #[test]
    fn q0_reports_the_observed_min_exactly() {
        // 5 and 6 share bucket [4, 7]. The old rank-clamping path returned
        // the bucket's upper bound clamped to [min, max] — 6, overstating
        // the minimum. q0 must be the exact observed min.
        let mut h = Histogram::new();
        h.record(5);
        h.record(6);
        assert_eq!(h.quantile(0, 4), Some(5));
        assert_eq!(h.quantile(0, 1), Some(5));
        assert_eq!(h.min(), h.quantile(0, 1));
    }

    #[test]
    fn merge_matches_sequential_recording() {
        let values = [0u64, 1, 3, 9, 81, 6561, u64::MAX];
        let mut whole = Histogram::new();
        let mut left = Histogram::new();
        let mut right = Histogram::new();
        for (i, &v) in values.iter().enumerate() {
            whole.record(v);
            if i % 2 == 0 { &mut left } else { &mut right }.record(v);
        }
        let mut merged = left.clone();
        merged.merge_from(&right);
        assert_eq!(merged, whole);
    }

    #[test]
    fn a_tally_converts_into_the_recorded_histogram() {
        let values = [0u64, 0, 1, 3, 9, 81, 6561, u64::MAX, u64::MAX, 7, 1 << 40];
        for n in 0..=values.len() {
            let (mut tally, mut recorded) = (Tally::new(), Histogram::new());
            for &v in &values[..n] {
                tally.record(v);
                recorded.record(v);
            }
            assert_eq!(tally.histogram(), recorded, "the first {n} values");
        }
        assert_eq!(Tally::new().histogram().buckets.capacity(), 0, "an empty tally allocates");
    }

    #[test]
    #[should_panic(expected = "quantile must be in [0, 1]")]
    fn quantile_rejects_improper_fractions() {
        let _ = Histogram::new().quantile(3, 2);
    }
}
