//! The §7 related-work comparison: timing/synchronization fault fractions
//! across field studies.
//!
//! The paper argues its transient fraction is consistent with prior work:
//! Sullivan & Chillarege found 5–13% timing/synchronization faults in MVS,
//! DB2, and IMS [Sullivan91, Sullivan92]; Lee & Iyer found 14% in Tandem
//! GUARDIAN \[Lee93\]; this study finds 9% across its three applications
//! (12 of 139). This module renders that comparison and checks the
//! consistency claim.

use std::fmt;

/// One study's timing/synchronization (≈ transient) fault fraction.
#[derive(Debug, Clone, PartialEq)]
pub struct StudyPoint {
    /// Citation label.
    pub study: String,
    /// Software examined.
    pub subject: String,
    /// Low end of the reported fraction, percent.
    pub low_pct: f64,
    /// High end of the reported fraction, percent.
    pub high_pct: f64,
}

impl StudyPoint {
    fn new(study: &str, subject: &str, low_pct: f64, high_pct: f64) -> StudyPoint {
        StudyPoint { study: study.to_owned(), subject: subject.to_owned(), low_pct, high_pct }
    }

    /// Whether `pct` is within (or overlaps) the study's reported range,
    /// with a one-point tolerance for rounding.
    pub fn consistent_with(&self, pct: f64) -> bool {
        pct >= self.low_pct - 1.0 && pct <= self.high_pct + 1.0
    }
}

/// The comparison table of §7.
#[derive(Debug, Clone, PartialEq)]
pub struct RelatedWork {
    /// Prior studies' points.
    pub prior: Vec<StudyPoint>,
    /// This paper's measured transient percentage.
    pub this_study_pct: f64,
}

impl RelatedWork {
    /// The published numbers: Sullivan & Chillarege 5–13%, Lee & Iyer 14%,
    /// and this study's transient percentage (pass the measured value,
    /// normally 12/139 ≈ 8.6%).
    pub fn paper(this_study_pct: f64) -> RelatedWork {
        RelatedWork {
            prior: vec![
                StudyPoint::new("[Sullivan91/92]", "MVS, DB2, IMS", 5.0, 13.0),
                StudyPoint::new("[Lee93]", "Tandem GUARDIAN", 14.0, 14.0),
            ],
            this_study_pct,
        }
    }

    /// §7's claim: every prior study's range is within a factor of ~1.6 of
    /// this study's number, i.e. "most faults in released software are
    /// non-transient" holds everywhere.
    pub fn all_agree_faults_are_mostly_nontransient(&self) -> bool {
        self.this_study_pct < 20.0 && self.prior.iter().all(|p| p.high_pct < 20.0)
    }
}

impl fmt::Display for RelatedWork {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Timing/synchronization (transient) fault fractions across studies:")?;
        for p in &self.prior {
            if (p.low_pct - p.high_pct).abs() < f64::EPSILON {
                writeln!(f, "  {:<16} {:<18} {:>5.1}%", p.study, p.subject, p.low_pct)?;
            } else {
                writeln!(
                    f,
                    "  {:<16} {:<18} {:>4.1}%-{:.1}%",
                    p.study, p.subject, p.low_pct, p.high_pct
                )?;
            }
        }
        writeln!(
            f,
            "  {:<16} {:<18} {:>5.1}%",
            "this study", "Apache/GNOME/MySQL", self.this_study_pct
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_comparison_is_internally_consistent() {
        let rw = RelatedWork::paper(12.0 / 139.0 * 100.0);
        assert!(rw.all_agree_faults_are_mostly_nontransient());
        // This study's number sits inside Sullivan & Chillarege's range.
        assert!(rw.prior[0].consistent_with(rw.this_study_pct));
    }

    #[test]
    fn consistency_tolerance() {
        let p = StudyPoint::new("x", "y", 5.0, 13.0);
        assert!(p.consistent_with(5.0));
        assert!(p.consistent_with(13.9), "one point of rounding slack");
        assert!(!p.consistent_with(20.0));
        assert!(!p.consistent_with(2.0));
    }

    #[test]
    fn a_hypothetical_heisenbug_majority_would_break_the_claim() {
        // If most faults were transient (the [Gray86] hypothesis), the
        // cross-study agreement check fails — the paper's refutation.
        let rw = RelatedWork { this_study_pct: 60.0, ..RelatedWork::paper(9.0) };
        assert!(!rw.all_agree_faults_are_mostly_nontransient());
    }

    #[test]
    fn display_lists_all_rows() {
        let text = RelatedWork::paper(8.6).to_string();
        assert!(text.contains("Sullivan"));
        assert!(text.contains("Lee93"));
        assert!(text.contains("this study"));
        assert!(text.contains("Tandem"));
    }
}
