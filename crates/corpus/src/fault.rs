//! The curated-fault model.
//!
//! Each [`CuratedFault`] is one of the 139 faults of the paper's study,
//! encoded with the application, the triggering environmental condition (if
//! any), release/date metadata matching the shapes of Figures 1–3, and
//! enough text to synthesize a realistic [`BugReport`] whose evidence
//! round-trips through the `faultstudy-core` classifier.

use crate::releases_of;
use faultstudy_core::report::{BugReport, ReportSource, Status, YearMonth};
use faultstudy_core::study::ClassifiedFault;
use faultstudy_core::taxonomy::{AppKind, FaultClass, Severity};
use faultstudy_env::condition::ConditionKind;
use std::fmt;

/// One fault of the curated 139-fault corpus: a row of its application's
/// static table, so it borrows every text from the binary and copies
/// freely.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CuratedFault {
    /// Stable identifier, e.g. `"apache-edt-03"`.
    pub(crate) slug: &'static str,
    /// The application the fault occurred in.
    pub(crate) app: AppKind,
    /// One-line summary (the report title).
    pub(crate) title: &'static str,
    /// Trigger/How-To-Repeat material. For environment-dependent faults
    /// this contains the paper's trigger phrase, which the lexicon
    /// recognises.
    pub(crate) detail: &'static str,
    /// The triggering condition; `None` for environment-independent faults.
    pub(crate) trigger: Option<ConditionKind>,
    /// Index into the application's release table.
    pub(crate) release_idx: u8,
    /// Filing date as `(year, month)`.
    pub(crate) filed: (u16, u8),
}

impl CuratedFault {
    /// Stable identifier, e.g. `"mysql-ei-04"`.
    pub fn slug(&self) -> &'static str {
        self.slug
    }

    /// The application the fault occurred in.
    pub fn app(&self) -> AppKind {
        self.app
    }

    /// One-line summary.
    pub fn title(&self) -> &'static str {
        self.title
    }

    /// Trigger/mechanism description.
    pub fn detail(&self) -> &'static str {
        self.detail
    }

    /// The triggering environmental condition, `None` for
    /// environment-independent faults.
    pub fn trigger(&self) -> Option<ConditionKind> {
        self.trigger
    }

    /// The fault's class, derived from the trigger through the normative
    /// taxonomy rule.
    pub fn class(&self) -> FaultClass {
        FaultClass::from_condition(self.trigger)
    }

    /// How many times the trigger request must be issued for the fault to
    /// manifest. Resource-leak triggers need repetition — each request leaks
    /// a little until the pool is gone — while every other trigger (and
    /// every environment-independent fault) fires on the first attempt.
    pub fn trigger_reps(&self) -> usize {
        match self.trigger {
            Some(ConditionKind::ResourceLeak) => 3,
            _ => 1,
        }
    }

    /// Release the fault was reported against.
    pub fn release(&self) -> &'static str {
        releases_of(self.app)[self.release_idx as usize]
    }

    /// Month the fault was reported.
    fn filed(&self) -> YearMonth {
        YearMonth::new(self.filed.0, self.filed.1)
    }

    /// The fault as a [`ClassifiedFault`] for study aggregation.
    pub fn as_classified(&self) -> ClassifiedFault {
        ClassifiedFault {
            app: self.app,
            class: self.class(),
            release_idx: self.release_idx,
            release: self.release(),
            filed: self.filed(),
        }
    }

    /// Synthesizes the bug report this fault would have appeared as in the
    /// archive, with `id` as the archive id. The report text carries the
    /// fault's trigger phrase (environment-dependent) or a deterministic
    /// reproduction cue (environment-independent), so extracting evidence
    /// from the synthesized report and classifying it reproduces
    /// [`CuratedFault::class`]; the integration tests check this for the
    /// whole corpus.
    pub fn report(&self, id: u64) -> BugReport {
        let source = match self.app {
            AppKind::Apache => ReportSource::Tracker,
            AppKind::Gnome => ReportSource::Debbugs,
            AppKind::Mysql => ReportSource::MailingList,
        };
        let how_to_repeat = if self.trigger.is_none() {
            format!("{} Happens every time the operation is attempted.", self.detail)
        } else {
            self.detail.to_owned()
        };
        BugReport::builder(self.app, id)
            .title(self.title)
            .body(format!("{} fails in production: {}", self.app, self.title))
            .how_to_repeat(how_to_repeat)
            .developer_notes("confirmed against the released build".to_owned())
            .severity(Severity::Critical)
            .status(Status::Fixed)
            .version(self.release(), true)
            .filed(self.filed())
            .source(source)
            .build()
    }
}

impl fmt::Display for CuratedFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}: {}", self.slug, self.app, self.title)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A MySQL fault reported against the second release, 3.22.16.
    fn sample() -> CuratedFault {
        CuratedFault {
            slug: "test-edn-01",
            app: AppKind::Mysql,
            title: "server cannot write",
            detail: "operations fail once the full file system condition is reached",
            trigger: Some(ConditionKind::FileSystemFull),
            release_idx: 1,
            filed: (1999, 3),
        }
    }

    #[test]
    fn release_label_comes_from_the_apps_release_table() {
        let f = sample();
        assert_eq!(f.release(), "3.22.16");
        assert_eq!(CuratedFault { app: AppKind::Apache, ..f }.release(), "1.3.0");
        assert_eq!(f.app(), AppKind::Mysql);
        assert_eq!(f.slug(), "test-edn-01");
    }

    #[test]
    fn class_derives_from_trigger() {
        assert_eq!(sample().class(), FaultClass::EnvDependentNonTransient);
        let f = CuratedFault { trigger: None, ..sample() };
        assert_eq!(f.class(), FaultClass::EnvironmentIndependent);
    }

    #[test]
    fn trigger_reps_follow_the_condition() {
        let f = CuratedFault { trigger: Some(ConditionKind::ResourceLeak), ..sample() };
        assert_eq!(f.trigger_reps(), 3, "leaks need repetition to drain the pool");
        assert_eq!(sample().trigger_reps(), 1);
        assert_eq!(CuratedFault { trigger: None, ..sample() }.trigger_reps(), 1);
    }

    #[test]
    fn as_classified_copies_metadata() {
        let f = CuratedFault { app: AppKind::Apache, ..sample() };
        let c = f.as_classified();
        assert_eq!(c.app, AppKind::Apache);
        assert_eq!(c.class, FaultClass::EnvDependentNonTransient);
        assert_eq!(c.release, "1.3.0");
        assert_eq!(c.release_idx, 1);
        assert_eq!(c.filed, YearMonth::new(1999, 3));
    }

    #[test]
    fn synthesized_report_classifies_back_to_corpus_class() {
        use faultstudy_core::classify::Classifier;
        let f = sample();
        let verdict = Classifier::default().classify_report(&f.report(1));
        assert_eq!(verdict.class, f.class());
    }

    #[test]
    fn ei_report_carries_deterministic_cue() {
        let f = CuratedFault {
            app: AppKind::Apache,
            trigger: None,
            detail: "crashes parsing the request.",
            ..sample()
        };
        let r = f.report(2);
        assert!(r.how_to_repeat.contains("every time"));
        assert!(r.passes_selection());
    }
}
