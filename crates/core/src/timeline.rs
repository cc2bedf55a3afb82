//! Fault distributions over releases and over time (Figures 1–3).
//!
//! Figure 1 (Apache) and Figure 3 (MySQL) show faults per software release,
//! stacked by class; Figure 2 (GNOME) shows faults per time period, because
//! GNOME's modules release independently (§5.2). The paper reads two
//! properties off the release figures: the proportion of environment-
//! independent faults stays about the same across releases, and the total
//! number of reports grows with newer releases (more users). The helpers
//! here compute exactly those properties so tests and benches can assert
//! the reproduced shapes.

use crate::report::YearMonth;
use crate::study::{ClassCounts, Study};
use crate::taxonomy::{AppKind, FaultClass};
use serde::Serialize;
use std::collections::BTreeMap;

/// One bar of a per-release figure.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct ReleaseBucket {
    /// Position of the release in the application's release order.
    pub release_idx: u8,
    /// Release label.
    pub release: &'static str,
    /// Stacked class counts for the bar.
    pub counts: ClassCounts,
}

/// A per-release fault distribution (Figures 1 and 3).
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct ReleaseSeries {
    /// The application plotted.
    pub app: AppKind,
    /// Bars ordered oldest release first.
    pub buckets: Vec<ReleaseBucket>,
}

/// A per-month fault distribution (Figure 2).
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct TimeSeries {
    /// The application plotted.
    pub app: AppKind,
    /// Bars in month order, contiguous from first to last report.
    pub buckets: Vec<(YearMonth, ClassCounts)>,
}

/// Groups `app`'s faults by release (Figures 1 and 3).
///
/// # Example
///
/// ```
/// use faultstudy_core::report::YearMonth;
/// use faultstudy_core::study::{ClassifiedFault, Study};
/// use faultstudy_core::taxonomy::{AppKind, FaultClass};
/// use faultstudy_core::timeline::by_release;
///
/// let study = Study::from_faults(vec![ClassifiedFault {
///     app: AppKind::Mysql,
///     class: FaultClass::EnvironmentIndependent,
///     release_idx: 2,
///     release: "3.22",
///     filed: YearMonth::new(1999, 2),
/// }]);
/// let series = by_release(&study, AppKind::Mysql);
/// assert_eq!(series.buckets.len(), 1);
/// assert_eq!(series.buckets[0].release, "3.22");
/// ```
pub fn by_release(study: &Study, app: AppKind) -> ReleaseSeries {
    let mut map: BTreeMap<u8, (&'static str, ClassCounts)> = BTreeMap::new();
    for f in study.faults_of(app) {
        map.entry(f.release_idx).or_insert((f.release, ClassCounts::default())).1.bump(f.class);
    }
    ReleaseSeries {
        app,
        buckets: map
            .into_iter()
            .map(|(release_idx, (release, counts))| ReleaseBucket { release_idx, release, counts })
            .collect(),
    }
}

/// Groups `app`'s faults by calendar month, padding interior gaps with
/// empty buckets so the series is contiguous (Figure 2).
pub fn by_month(study: &Study, app: AppKind) -> TimeSeries {
    let mut map: BTreeMap<u32, ClassCounts> = BTreeMap::new();
    let mut first: Option<YearMonth> = None;
    let mut last: Option<YearMonth> = None;
    for f in study.faults_of(app) {
        map.entry(f.filed.index()).or_default().bump(f.class);
        first = Some(first.map_or(f.filed, |cur: YearMonth| cur.min(f.filed)));
        last = Some(last.map_or(f.filed, |cur: YearMonth| cur.max(f.filed)));
    }
    let mut buckets = Vec::new();
    if let (Some(first), Some(last)) = (first, last) {
        let mut ym = first;
        while ym <= last {
            buckets.push((ym, map.get(&ym.index()).copied().unwrap_or_default()));
            ym = ym.plus_months(1);
        }
    }
    TimeSeries { app, buckets }
}

/// The environment-independent share (0–1) of each bucket with at least
/// `min_total` faults. Used to check the paper's "relative proportion …
/// stays about the same" property.
pub fn ei_shares(counts: impl IntoIterator<Item = ClassCounts>, min_total: u32) -> Vec<f64> {
    counts
        .into_iter()
        .filter(|c| c.total() >= min_total.max(1))
        .map(|c| f64::from(c.get(FaultClass::EnvironmentIndependent)) / f64::from(c.total()))
        .collect()
}

/// Maximum absolute deviation of the values from their mean; `0.0` for
/// fewer than two values. A small spread over release buckets reproduces
/// the paper's proportion-stability observation.
pub fn max_deviation(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let mean = values.iter().sum::<f64>() / values.len() as f64;
    values.iter().map(|v| (v - mean).abs()).fold(0.0, f64::max)
}

/// Whether totals grow (non-strictly) from the first to the last bucket,
/// judged by comparing the first and last halves' sums — the paper's
/// "total number of bugs reported increases with newer releases" property,
/// robust to a dip in the middle.
pub fn totals_grow(counts: &[ClassCounts]) -> bool {
    if counts.len() < 2 {
        return true;
    }
    let half = counts.len() / 2;
    let first: u32 = counts[..half].iter().map(ClassCounts::total).sum();
    let second: u32 = counts[counts.len() - half..].iter().map(ClassCounts::total).sum();
    second >= first
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::study::ClassifiedFault;

    const RELEASES: [&str; 2] = ["r0", "r1"];

    fn fault(app: AppKind, class: FaultClass, idx: u8, ym: YearMonth) -> ClassifiedFault {
        let release = RELEASES[usize::from(idx)];
        ClassifiedFault { app, class, release_idx: idx, release, filed: ym }
    }

    fn jan(m: u8) -> YearMonth {
        YearMonth::new(1999, m)
    }

    #[test]
    fn by_release_groups_and_orders() {
        let study = Study::from_faults(vec![
            fault(AppKind::Apache, FaultClass::EnvironmentIndependent, 1, jan(1)),
            fault(AppKind::Apache, FaultClass::EnvDependentTransient, 0, jan(1)),
            fault(AppKind::Apache, FaultClass::EnvironmentIndependent, 1, jan(2)),
            fault(AppKind::Gnome, FaultClass::EnvironmentIndependent, 0, jan(1)),
        ]);
        let s = by_release(&study, AppKind::Apache);
        assert_eq!(s.buckets.len(), 2);
        assert_eq!(s.buckets[0].release_idx, 0);
        assert_eq!(s.buckets[0].counts.transient, 1);
        assert_eq!(s.buckets[1].counts.independent, 2);
        // Gnome fault not included.
        assert_eq!(s.buckets.iter().map(|b| b.counts.total()).sum::<u32>(), 3);
    }

    #[test]
    fn by_month_pads_gaps() {
        let study = Study::from_faults(vec![
            fault(AppKind::Gnome, FaultClass::EnvironmentIndependent, 0, jan(1)),
            fault(AppKind::Gnome, FaultClass::EnvironmentIndependent, 0, jan(4)),
        ]);
        let s = by_month(&study, AppKind::Gnome);
        assert_eq!(s.buckets.len(), 4, "jan..apr inclusive");
        assert_eq!(s.buckets[1].1.total(), 0);
        assert_eq!(s.buckets[2].1.total(), 0);
        assert_eq!(s.buckets[0].0, jan(1));
        assert_eq!(s.buckets[3].0, jan(4));
    }

    #[test]
    fn by_month_empty_app_is_empty_series() {
        let study = Study::from_faults(Vec::new());
        assert!(by_month(&study, AppKind::Mysql).buckets.is_empty());
        assert!(by_release(&study, AppKind::Mysql).buckets.is_empty());
    }

    #[test]
    fn ei_shares_filters_small_buckets() {
        let mut big = ClassCounts::default();
        for _ in 0..8 {
            big.bump(FaultClass::EnvironmentIndependent);
        }
        big.bump(FaultClass::EnvDependentTransient);
        let mut small = ClassCounts::default();
        small.bump(FaultClass::EnvDependentTransient);
        let shares = ei_shares([big, small], 3);
        assert_eq!(shares.len(), 1);
        assert!((shares[0] - 8.0 / 9.0).abs() < 1e-9);
    }

    #[test]
    fn max_deviation_behaviour() {
        assert_eq!(max_deviation(&[]), 0.0);
        assert_eq!(max_deviation(&[0.5]), 0.0);
        assert!((max_deviation(&[0.4, 0.6]) - 0.1).abs() < 1e-9);
        assert!(max_deviation(&[0.7, 0.7, 0.7]) < 1e-12);
    }

    #[test]
    fn totals_grow_compares_halves() {
        let mk = |n: u32| {
            let mut c = ClassCounts::default();
            for _ in 0..n {
                c.bump(FaultClass::EnvironmentIndependent);
            }
            c
        };
        assert!(totals_grow(&[mk(1), mk(2), mk(5)]));
        assert!(totals_grow(&[mk(2), mk(1), mk(4)]), "robust to a dip");
        assert!(!totals_grow(&[mk(9), mk(1), mk(1)]));
        assert!(totals_grow(&[mk(3)]), "singleton trivially grows");
    }
}
