//! Order statistics for the benchmark's samples.

/// Median and quartiles of a sample set, with its size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// The median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Number of samples.
    pub n: usize,
}

impl Summary {
    /// Summarizes `samples`; an empty set summarizes to zeros with `n = 0`.
    pub fn of(samples: &[f64]) -> Summary {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        match n {
            0 => Summary { median: 0.0, q1: 0.0, q3: 0.0, n },
            1 => Summary { median: sorted[0], q1: sorted[0], q3: sorted[0], n },
            _ => {
                let [q1, median, q3] = quartiles(&sorted);
                Summary { median, q1, q3, n }
            }
        }
    }
}

/// The three cut points of `sorted` (at least two values), computed as
/// Python's `statistics.quantiles(data, n=4)` does with its default
/// exclusive method, so a spread computed from these matches one computed
/// in Python from the same samples.
fn quartiles(sorted: &[f64]) -> [f64; 3] {
    let len = sorted.len() as i64;
    let m = len + 1;
    let mut cuts = [0.0; 3];
    for (slot, i) in cuts.iter_mut().zip(1..4i64) {
        // Clamping can leave `delta` outside 0..4: the exclusive method
        // then extrapolates past the extreme samples, as Python does.
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m - j * 4) as f64;
        let (lo, hi) = (sorted[(j - 1) as usize], sorted[j as usize]);
        *slot = (lo * (4.0 - delta) + hi * delta) / 4.0;
    }
    cuts
}

/// The median of `samples` (0 for an empty set).
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).median
}

/// The smallest of `samples` (infinity for an empty set). Load from
/// elsewhere on the host only ever lengthens a timing, so the shortest of
/// several is the steadiest estimate of what the code itself costs.
pub fn lowest(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The largest of `samples` (0 for an empty set): the fastest of several
/// rates, for the reason [`lowest`] gives.
pub fn highest(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let s = Summary::of(&[10.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[2.0, 1.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        assert_eq!(Summary::of(&[4.0, 1.0, 3.0]).median, 3.0);
    }

    #[test]
    fn degenerate_sets() {
        assert_eq!(Summary::of(&[]).n, 0);
        let one = Summary::of(&[7.0]);
        assert_eq!((one.q1, one.median, one.q3, one.n), (7.0, 7.0, 7.0, 1));
    }
}
