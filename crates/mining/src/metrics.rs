//! Selection-quality metrics against synthetic ground truth.

use faultstudy_core::report::BugReport;
use serde::Serialize;
use std::collections::BTreeMap;
use std::collections::BTreeSet;
use std::fmt;

/// Precision and recall of a selection, measured at the *fault* level: a
/// curated fault counts as recalled if any report describing it (primary or
/// duplicate) was selected, and a selected report counts as precise if it
/// describes some curated fault.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct PrecisionRecall {
    /// Selected reports describing a real fault.
    pub true_positives: usize,
    /// Selected reports describing no real fault.
    pub false_positives: usize,
    /// Distinct real faults with at least one selected report.
    pub faults_recalled: usize,
    /// Distinct real faults in the ground truth.
    pub faults_total: usize,
}

impl PrecisionRecall {
    /// Measures `selected` against `ground_truth` (report id → fault slug).
    pub fn measure(
        selected: &[BugReport],
        ground_truth: &BTreeMap<u64, String>,
    ) -> PrecisionRecall {
        let mut true_positives = 0;
        let mut false_positives = 0;
        let mut recalled: BTreeSet<&str> = BTreeSet::new();
        for r in selected {
            match ground_truth.get(&r.id) {
                Some(slug) => {
                    true_positives += 1;
                    recalled.insert(slug);
                }
                None => false_positives += 1,
            }
        }
        let faults_total = ground_truth.values().collect::<BTreeSet<_>>().len();
        PrecisionRecall {
            true_positives,
            false_positives,
            faults_recalled: recalled.len(),
            faults_total,
        }
    }

    /// Fraction of selected reports that describe a real fault (1.0 when
    /// nothing was selected).
    pub fn precision(&self) -> f64 {
        let selected = self.true_positives + self.false_positives;
        if selected == 0 {
            1.0
        } else {
            self.true_positives as f64 / selected as f64
        }
    }

    /// Fraction of real faults recalled (1.0 when there were none).
    pub fn recall(&self) -> f64 {
        if self.faults_total == 0 {
            1.0
        } else {
            self.faults_recalled as f64 / self.faults_total as f64
        }
    }
}

impl fmt::Display for PrecisionRecall {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "precision {:.3} ({} tp, {} fp), recall {:.3} ({}/{} faults)",
            self.precision(),
            self.true_positives,
            self.false_positives,
            self.recall(),
            self.faults_recalled,
            self.faults_total
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faultstudy_core::taxonomy::{AppKind, Severity};

    fn report(id: u64) -> BugReport {
        BugReport::builder(AppKind::Mysql, id).severity(Severity::Severe).build()
    }

    fn truth() -> BTreeMap<u64, String> {
        [(1, "f-a"), (2, "f-a"), (3, "f-b")].into_iter().map(|(id, s)| (id, s.to_owned())).collect()
    }

    #[test]
    fn perfect_selection() {
        let pr = PrecisionRecall::measure(&[report(1), report(3)], &truth());
        assert_eq!(pr.precision(), 1.0);
        assert_eq!(pr.recall(), 1.0);
        assert_eq!(pr.faults_total, 2);
    }

    #[test]
    fn partial_recall_and_precision() {
        let pr = PrecisionRecall::measure(&[report(1), report(99)], &truth());
        assert_eq!(pr.true_positives, 1);
        assert_eq!(pr.false_positives, 1);
        assert_eq!(pr.precision(), 0.5);
        assert_eq!(pr.recall(), 0.5, "f-b missed");
    }

    #[test]
    fn duplicate_selection_counts_fault_once() {
        let pr = PrecisionRecall::measure(&[report(1), report(2)], &truth());
        assert_eq!(pr.faults_recalled, 1);
        assert_eq!(pr.true_positives, 2);
    }

    #[test]
    fn empty_cases() {
        let pr = PrecisionRecall::measure(&[], &truth());
        assert_eq!(pr.precision(), 1.0);
        assert_eq!(pr.recall(), 0.0);
        let pr = PrecisionRecall::measure(&[], &BTreeMap::new());
        assert_eq!(pr.recall(), 1.0);
    }

    #[test]
    fn display_includes_counts() {
        let pr = PrecisionRecall::measure(&[report(1)], &truth());
        let s = pr.to_string();
        assert!(s.contains("1 tp"));
        assert!(s.contains("/2 faults"));
    }
}
