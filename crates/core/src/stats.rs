//! Statistical support: Pearson's chi-square test of homogeneity.
//!
//! The paper reads Figures 1 and 3 by eye: "the relative proportion of
//! environment-independent bugs stays about the same even for new releases
//! of the software". This module makes that claim quantitative: a
//! chi-square test of homogeneity over the per-release class counts, with
//! the null hypothesis that every release draws from the same class
//! distribution. A *non*-significant statistic supports the paper's
//! reading.

use crate::study::ClassCounts;
use crate::taxonomy::FaultClass;

/// Upper 5% critical values of the chi-square distribution for 1–12
/// degrees of freedom (Abramowitz & Stegun, table 26.8).
const CHI2_CRIT_05: [f64; 12] =
    [3.841, 5.991, 7.815, 9.488, 11.070, 12.592, 14.067, 15.507, 16.919, 18.307, 19.675, 21.026];

/// Result of a chi-square homogeneity test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Chi2Test {
    /// The test statistic.
    pub statistic: f64,
    /// Degrees of freedom: `(rows - 1) * (cols - 1)` over non-empty
    /// rows/columns.
    pub dof: u32,
    /// The 5% critical value for `dof` (infinite when `dof` is 0 or out of
    /// the table, making the test trivially non-significant).
    pub critical_05: f64,
}

impl Chi2Test {
    /// Whether the null hypothesis (same distribution everywhere) is
    /// rejected at the 5% level.
    pub fn significant_at_05(&self) -> bool {
        self.statistic > self.critical_05
    }
}

/// Tests whether per-bucket class counts are homogeneous — i.e. whether
/// the class mix is plausibly the same in every release/month bucket.
///
/// Buckets and classes with zero marginal totals are dropped (they carry
/// no information and would divide by zero).
///
/// # Example
///
/// ```
/// use faultstudy_core::stats::chi2_homogeneity;
/// use faultstudy_core::study::ClassCounts;
/// use faultstudy_core::taxonomy::FaultClass;
///
/// let mut a = ClassCounts::default();
/// let mut b = ClassCounts::default();
/// for _ in 0..8 { a.bump(FaultClass::EnvironmentIndependent); }
/// a.bump(FaultClass::EnvDependentTransient);
/// for _ in 0..16 { b.bump(FaultClass::EnvironmentIndependent); }
/// b.bump(FaultClass::EnvDependentTransient);
/// b.bump(FaultClass::EnvDependentTransient);
/// let test = chi2_homogeneity(&[a, b]);
/// assert!(!test.significant_at_05(), "same mix, different sizes");
/// ```
pub fn chi2_homogeneity(buckets: &[ClassCounts]) -> Chi2Test {
    // Keep non-empty rows.
    let rows: Vec<&ClassCounts> = buckets.iter().filter(|b| b.total() > 0).collect();
    // Keep classes with a non-zero grand total.
    let cols: Vec<FaultClass> = FaultClass::ALL
        .into_iter()
        .filter(|c| rows.iter().map(|r| r.get(*c)).sum::<u32>() > 0)
        .collect();
    if rows.len() < 2 || cols.len() < 2 {
        return Chi2Test { statistic: 0.0, dof: 0, critical_05: f64::INFINITY };
    }
    let grand: f64 = rows.iter().map(|r| f64::from(r.total())).sum();
    let col_totals: Vec<f64> =
        cols.iter().map(|c| rows.iter().map(|r| f64::from(r.get(*c))).sum()).collect();
    let mut statistic = 0.0;
    for row in &rows {
        let row_total = f64::from(row.total());
        for (c, col_total) in cols.iter().zip(&col_totals) {
            let expected = row_total * col_total / grand;
            let observed = f64::from(row.get(*c));
            statistic += (observed - expected).powi(2) / expected;
        }
    }
    let dof = (rows.len() as u32 - 1) * (cols.len() as u32 - 1);
    let critical_05 = CHI2_CRIT_05.get(dof as usize - 1).copied().unwrap_or(f64::INFINITY);
    Chi2Test { statistic, dof, critical_05 }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts(ei: u32, edn: u32, edt: u32) -> ClassCounts {
        let mut c = ClassCounts::default();
        for _ in 0..ei {
            c.bump(FaultClass::EnvironmentIndependent);
        }
        for _ in 0..edn {
            c.bump(FaultClass::EnvDependentNonTransient);
        }
        for _ in 0..edt {
            c.bump(FaultClass::EnvDependentTransient);
        }
        c
    }

    #[test]
    fn identical_distributions_score_zero() {
        let t = chi2_homogeneity(&[counts(10, 2, 2), counts(10, 2, 2)]);
        assert!(t.statistic < 1e-9);
        assert_eq!(t.dof, 2);
        assert!(!t.significant_at_05());
    }

    #[test]
    fn scaled_distributions_score_zero() {
        // Homogeneity is about proportions, not magnitudes.
        let t = chi2_homogeneity(&[counts(5, 1, 1), counts(20, 4, 4)]);
        assert!(t.statistic < 1e-9);
        assert!(!t.significant_at_05());
    }

    #[test]
    fn wildly_different_distributions_are_significant() {
        let t = chi2_homogeneity(&[counts(40, 0, 0), counts(0, 0, 40)]);
        assert!(t.significant_at_05(), "{t:?}");
    }

    #[test]
    fn degenerate_inputs_are_trivially_nonsignificant() {
        assert!(!chi2_homogeneity(&[]).significant_at_05());
        assert!(!chi2_homogeneity(&[counts(5, 1, 1)]).significant_at_05());
        // One class only: no degrees of freedom.
        let t = chi2_homogeneity(&[counts(5, 0, 0), counts(9, 0, 0)]);
        assert_eq!(t.dof, 0);
        assert!(!t.significant_at_05());
        // Empty buckets are ignored.
        let t = chi2_homogeneity(&[counts(0, 0, 0), counts(5, 1, 1), counts(10, 2, 2)]);
        assert_eq!(t.dof, 2);
    }

    #[test]
    fn dof_accounts_for_missing_classes() {
        // Two classes present, three buckets: dof = (3-1)*(2-1) = 2.
        let t = chi2_homogeneity(&[counts(5, 0, 1), counts(6, 0, 1), counts(7, 0, 2)]);
        assert_eq!(t.dof, 2);
    }

    #[test]
    fn paper_figures_are_homogeneous() {
        // The actual claim: Apache's and MySQL's per-release class mixes
        // pass the homogeneity test at the 5% level.
        use crate::taxonomy::AppKind;
        use crate::timeline::by_release;
        let study = faultstudy_corpus_smoke::study();
        for app in [AppKind::Apache, AppKind::Mysql] {
            let buckets: Vec<ClassCounts> =
                by_release(&study, app).buckets.iter().map(|b| b.counts).collect();
            let t = chi2_homogeneity(&buckets);
            assert!(
                !t.significant_at_05(),
                "{app}: class mix should be homogeneous across releases: {t:?}"
            );
        }
    }

    /// Minimal stand-in for the corpus (core cannot depend on
    /// faultstudy-corpus); uses the exact per-release counts the corpus
    /// encodes.
    mod faultstudy_corpus_smoke {
        use super::counts;
        use crate::report::YearMonth;
        use crate::study::{ClassifiedFault, Study};
        use crate::taxonomy::{AppKind, FaultClass};

        pub(crate) fn study() -> Study {
            let apache = [
                (0u8, counts(4, 1, 1)),
                (1, counts(7, 1, 2)),
                (2, counts(11, 2, 2)),
                (3, counts(14, 3, 2)),
            ];
            let mysql = [
                (0u8, counts(4, 1, 0)),
                (1, counts(7, 1, 0)),
                (2, counts(10, 1, 1)),
                (3, counts(13, 1, 1)),
                (4, counts(4, 0, 0)),
            ];
            const RELEASES: [&str; 5] = ["r0", "r1", "r2", "r3", "r4"];
            let mut faults = Vec::new();
            let mut emit = |app: AppKind, spec: &[(u8, crate::study::ClassCounts)]| {
                for (idx, c) in spec {
                    for class in FaultClass::ALL {
                        for _ in 0..c.get(class) {
                            faults.push(ClassifiedFault {
                                app,
                                class,
                                release_idx: *idx,
                                release: RELEASES[usize::from(*idx)],
                                filed: YearMonth::new(1999, 1),
                            });
                        }
                    }
                }
            };
            emit(AppKind::Apache, &apache);
            emit(AppKind::Mysql, &mysql);
            Study::from_faults(faults)
        }
    }
}
