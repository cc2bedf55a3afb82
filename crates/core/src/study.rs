//! Study aggregation: Tables 1–3 and the §5.4 discussion numbers.

use crate::report::YearMonth;
use crate::taxonomy::{AppKind, FaultClass};
use serde::Serialize;
use std::collections::BTreeMap;
use std::fmt;

/// One classified fault, carrying just the metadata the tables and figures
/// need.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassifiedFault {
    /// Application the fault belongs to.
    pub app: AppKind,
    /// Assigned fault class.
    pub class: FaultClass,
    /// Index of the release the fault was reported against, ordered oldest
    /// to newest within the application (drives Figures 1 and 3).
    pub release_idx: u8,
    /// Human-readable release label, borrowed from the corpus's release
    /// tables.
    pub release: &'static str,
    /// Month the fault was reported (drives Figure 2).
    pub filed: YearMonth,
}

/// Per-application class counts — one row group of Tables 1–3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub struct ClassCounts {
    /// Environment-independent faults.
    pub independent: u32,
    /// Environment-dependent-nontransient faults.
    pub nontransient: u32,
    /// Environment-dependent-transient faults.
    pub transient: u32,
}

impl ClassCounts {
    /// Total faults counted.
    pub fn total(&self) -> u32 {
        self.independent + self.nontransient + self.transient
    }

    /// Count for one class.
    pub fn get(&self, class: FaultClass) -> u32 {
        match class {
            FaultClass::EnvironmentIndependent => self.independent,
            FaultClass::EnvDependentNonTransient => self.nontransient,
            FaultClass::EnvDependentTransient => self.transient,
        }
    }

    /// Adds one fault of `class`.
    pub fn bump(&mut self, class: FaultClass) {
        match class {
            FaultClass::EnvironmentIndependent => self.independent += 1,
            FaultClass::EnvDependentNonTransient => self.nontransient += 1,
            FaultClass::EnvDependentTransient => self.transient += 1,
        }
    }

    /// Percentage of total for one class (0 when empty).
    pub fn percent(&self, class: FaultClass) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            f64::from(self.get(class)) * 100.0 / f64::from(total)
        }
    }
}

impl fmt::Display for ClassCounts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "EI {} / EDN {} / EDT {} (total {})",
            self.independent,
            self.nontransient,
            self.transient,
            self.total()
        )
    }
}

/// The §5.4 discussion numbers.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Discussion {
    /// Total faults across all applications (the paper: 139).
    pub total: u32,
    /// Environment-dependent-nontransient count and percentage
    /// (the paper: 14, 10%).
    pub nontransient: (u32, f64),
    /// Environment-dependent-transient count and percentage
    /// (the paper: 12, 9%).
    pub transient: (u32, f64),
    /// Min and max per-application environment-independent percentage
    /// (the paper: 72–87%).
    pub independent_range: (f64, f64),
}

/// A whole study: classified faults aggregated per application.
///
/// # Example
///
/// ```
/// use faultstudy_core::report::YearMonth;
/// use faultstudy_core::study::{ClassifiedFault, Study};
/// use faultstudy_core::taxonomy::{AppKind, FaultClass};
///
/// let faults = vec![ClassifiedFault {
///     app: AppKind::Apache,
///     class: FaultClass::EnvironmentIndependent,
///     release_idx: 0,
///     release: "1.2",
///     filed: YearMonth::new(1998, 7),
/// }];
/// let study = Study::from_faults(faults);
/// assert_eq!(study.total(), 1);
/// assert_eq!(study.table(AppKind::Apache).independent, 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Study {
    per_app: BTreeMap<AppKind, ClassCounts>,
    faults: Vec<ClassifiedFault>,
}

impl Study {
    /// Builds a study from classified faults.
    pub fn from_faults(faults: impl IntoIterator<Item = ClassifiedFault>) -> Study {
        let faults: Vec<ClassifiedFault> = faults.into_iter().collect();
        let mut per_app: BTreeMap<AppKind, ClassCounts> = BTreeMap::new();
        for f in &faults {
            per_app.entry(f.app).or_default().bump(f.class);
        }
        Study { per_app, faults }
    }

    /// The class counts for one application — the body of its table.
    pub fn table(&self, app: AppKind) -> ClassCounts {
        self.per_app.get(&app).copied().unwrap_or_default()
    }

    /// Counts summed over all applications.
    pub fn combined(&self) -> ClassCounts {
        let mut out = ClassCounts::default();
        for counts in self.per_app.values() {
            out.independent += counts.independent;
            out.nontransient += counts.nontransient;
            out.transient += counts.transient;
        }
        out
    }

    /// Total faults in the study.
    pub fn total(&self) -> u32 {
        self.combined().total()
    }

    /// Faults belonging to `app`.
    pub(crate) fn faults_of(&self, app: AppKind) -> impl Iterator<Item = &ClassifiedFault> {
        self.faults.iter().filter(move |f| f.app == app)
    }

    /// Computes the §5.4 discussion numbers.
    pub fn discussion(&self) -> Discussion {
        let combined = self.combined();
        let total = combined.total();
        let pct = |n: u32| if total == 0 { 0.0 } else { f64::from(n) * 100.0 / f64::from(total) };
        let mut min_ei = f64::MAX;
        let mut max_ei = f64::MIN;
        for counts in self.per_app.values() {
            if counts.total() > 0 {
                let p = counts.percent(FaultClass::EnvironmentIndependent);
                min_ei = min_ei.min(p);
                max_ei = max_ei.max(p);
            }
        }
        if self.per_app.values().all(|c| c.total() == 0) {
            min_ei = 0.0;
            max_ei = 0.0;
        }
        Discussion {
            total,
            nontransient: (combined.nontransient, pct(combined.nontransient)),
            transient: (combined.transient, pct(combined.transient)),
            independent_range: (min_ei, max_ei),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fault(app: AppKind, class: FaultClass) -> ClassifiedFault {
        ClassifiedFault {
            app,
            class,
            release_idx: 0,
            release: "r0",
            filed: YearMonth::new(1999, 1),
        }
    }

    fn paper_shaped_study() -> Study {
        // Tables 1-3 of the paper: Apache 36/7/7, GNOME 39/3/3, MySQL 38/4/2.
        let mut faults = Vec::new();
        let spec =
            [(AppKind::Apache, 36, 7, 7), (AppKind::Gnome, 39, 3, 3), (AppKind::Mysql, 38, 4, 2)];
        for (app, ei, edn, edt) in spec {
            for _ in 0..ei {
                faults.push(fault(app, FaultClass::EnvironmentIndependent));
            }
            for _ in 0..edn {
                faults.push(fault(app, FaultClass::EnvDependentNonTransient));
            }
            for _ in 0..edt {
                faults.push(fault(app, FaultClass::EnvDependentTransient));
            }
        }
        Study::from_faults(faults)
    }

    #[test]
    fn tables_match_paper() {
        let s = paper_shaped_study();
        let t1 = s.table(AppKind::Apache);
        assert_eq!((t1.independent, t1.nontransient, t1.transient), (36, 7, 7));
        let t2 = s.table(AppKind::Gnome);
        assert_eq!((t2.independent, t2.nontransient, t2.transient), (39, 3, 3));
        let t3 = s.table(AppKind::Mysql);
        assert_eq!((t3.independent, t3.nontransient, t3.transient), (38, 4, 2));
    }

    #[test]
    fn discussion_matches_section_5_4() {
        let d = paper_shaped_study().discussion();
        assert_eq!(d.total, 139);
        assert_eq!(d.nontransient.0, 14);
        assert_eq!(d.transient.0, 12);
        // "14 (10%)" and "12 (9%)"
        assert_eq!(d.nontransient.1.round() as i64, 10);
        assert_eq!(d.transient.1.round() as i64, 9);
        // "72-87% of the faults are independent of the operating environment"
        assert_eq!(d.independent_range.0.floor() as i64, 72);
        assert_eq!(d.independent_range.1.floor() as i64, 86); // 39/45 = 86.7%
        assert_eq!(d.independent_range.1.round() as i64, 87);
    }

    #[test]
    fn empty_study_is_all_zeroes() {
        let s = Study::from_faults(Vec::new());
        assert_eq!(s.total(), 0);
        assert_eq!(s.table(AppKind::Apache), ClassCounts::default());
        let d = s.discussion();
        assert_eq!(d.total, 0);
        assert_eq!(d.independent_range, (0.0, 0.0));
        assert_eq!(d.transient.1, 0.0);
    }

    #[test]
    fn percent_and_display() {
        let mut c = ClassCounts::default();
        for _ in 0..3 {
            c.bump(FaultClass::EnvironmentIndependent);
        }
        c.bump(FaultClass::EnvDependentTransient);
        assert_eq!(c.percent(FaultClass::EnvironmentIndependent), 75.0);
        assert_eq!(c.percent(FaultClass::EnvDependentTransient), 25.0);
        assert_eq!(c.percent(FaultClass::EnvDependentNonTransient), 0.0);
        assert_eq!(c.to_string(), "EI 3 / EDN 0 / EDT 1 (total 4)");
    }

    #[test]
    fn faults_of_filters_by_app() {
        let s = paper_shaped_study();
        assert_eq!(s.faults_of(AppKind::Apache).count(), 50);
        assert_eq!(s.faults_of(AppKind::Gnome).count(), 45);
        assert_eq!(s.faults_of(AppKind::Mysql).count(), 44);
        assert_eq!(s.faults.len(), 139);
    }

    #[test]
    fn combined_sums_apps() {
        let s = paper_shaped_study();
        let c = s.combined();
        assert_eq!(c.independent, 113);
        assert_eq!(c.nontransient, 14);
        assert_eq!(c.transient, 12);
    }
}
