//! The curated-fault model.
//!
//! Each [`CuratedFault`] is one of the 139 faults of the paper's study,
//! encoded with the application, the triggering environmental condition (if
//! any), release/date metadata matching the shapes of Figures 1–3, and
//! enough text to synthesize a realistic [`BugReport`] whose evidence
//! round-trips through the `faultstudy-core` classifier.

use faultstudy_core::report::{BugReport, ReportSource, Status, YearMonth};
use faultstudy_core::study::ClassifiedFault;
use faultstudy_core::taxonomy::{AppKind, FaultClass, Severity};
use faultstudy_env::condition::ConditionKind;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Compact static form of one corpus entry, used by the per-app tables.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Entry {
    /// Stable identifier, e.g. `"apache-edt-03"`.
    pub slug: &'static str,
    /// One-line summary (the report title).
    pub title: &'static str,
    /// Trigger/How-To-Repeat material. For environment-dependent entries
    /// this contains the paper's trigger phrase, which the lexicon
    /// recognises.
    pub detail: &'static str,
    /// The triggering condition; `None` for environment-independent faults.
    pub trigger: Option<ConditionKind>,
    /// Index into the application's release table.
    pub release_idx: u8,
    /// Filing date as `(year, month)`.
    pub filed: (u16, u8),
}

/// One fault of the curated 139-fault corpus.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CuratedFault {
    slug: String,
    app: AppKind,
    title: String,
    detail: String,
    trigger: Option<ConditionKind>,
    release_idx: u8,
    release: String,
    filed: YearMonth,
}

impl CuratedFault {
    pub(crate) fn from_entry(app: AppKind, releases: &[&str], e: &Entry) -> CuratedFault {
        CuratedFault {
            slug: e.slug.to_owned(),
            app,
            title: e.title.to_owned(),
            detail: e.detail.to_owned(),
            trigger: e.trigger,
            release_idx: e.release_idx,
            release: releases[e.release_idx as usize].to_owned(),
            filed: YearMonth::new(e.filed.0, e.filed.1),
        }
    }

    /// Stable identifier, e.g. `"mysql-ei-04"`.
    pub fn slug(&self) -> &str {
        &self.slug
    }

    /// The application the fault occurred in.
    pub fn app(&self) -> AppKind {
        self.app
    }

    /// One-line summary.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Trigger/mechanism description.
    pub fn detail(&self) -> &str {
        &self.detail
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
    pub fn release(&self) -> &str {
        &self.release
    }

    /// The fault as a [`ClassifiedFault`] for study aggregation.
    pub fn as_classified(&self) -> ClassifiedFault {
        ClassifiedFault {
            app: self.app,
            class: self.class(),
            release_idx: self.release_idx,
            release: self.release.clone(),
            filed: self.filed,
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
            self.detail.clone()
        };
        BugReport::builder(self.app, id)
            .title(self.title.clone())
            .body(format!("{} fails in production: {}", self.app, self.title))
            .how_to_repeat(how_to_repeat)
            .developer_notes("confirmed against the released build".to_owned())
            .severity(Severity::Critical)
            .status(Status::Fixed)
            .version(self.release.clone(), true)
            .filed(self.filed)
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

    fn sample_entry() -> Entry {
        Entry {
            slug: "test-edn-01",
            title: "server cannot write",
            detail: "operations fail once the full file system condition is reached",
            trigger: Some(ConditionKind::FileSystemFull),
            release_idx: 1,
            filed: (1999, 3),
        }
    }

    #[test]
    fn from_entry_resolves_release_label() {
        let f = CuratedFault::from_entry(AppKind::Mysql, &["3.21", "3.22"], &sample_entry());
        assert_eq!(f.release(), "3.22");
        assert_eq!(f.app(), AppKind::Mysql);
        assert_eq!(f.slug(), "test-edn-01");
    }

    #[test]
    fn class_derives_from_trigger() {
        let f = CuratedFault::from_entry(AppKind::Mysql, &["a", "b"], &sample_entry());
        assert_eq!(f.class(), FaultClass::EnvDependentNonTransient);
        let mut e = sample_entry();
        e.trigger = None;
        let f = CuratedFault::from_entry(AppKind::Mysql, &["a", "b"], &e);
        assert_eq!(f.class(), FaultClass::EnvironmentIndependent);
    }

    #[test]
    fn trigger_reps_follow_the_condition() {
        let mut e = sample_entry();
        e.trigger = Some(ConditionKind::ResourceLeak);
        let f = CuratedFault::from_entry(AppKind::Apache, &["a", "b"], &e);
        assert_eq!(f.trigger_reps(), 3, "leaks need repetition to drain the pool");
        assert_eq!(
            CuratedFault::from_entry(AppKind::Apache, &["a", "b"], &sample_entry()).trigger_reps(),
            1
        );
        e.trigger = None;
        let f = CuratedFault::from_entry(AppKind::Apache, &["a", "b"], &e);
        assert_eq!(f.trigger_reps(), 1);
    }

    #[test]
    fn as_classified_copies_metadata() {
        let f = CuratedFault::from_entry(AppKind::Apache, &["1.2", "1.3"], &sample_entry());
        let c = f.as_classified();
        assert_eq!(c.app, AppKind::Apache);
        assert_eq!(c.class, FaultClass::EnvDependentNonTransient);
        assert_eq!(c.release, "1.3");
        assert_eq!(c.release_idx, 1);
        assert_eq!(c.filed, YearMonth::new(1999, 3));
    }

    #[test]
    fn synthesized_report_classifies_back_to_corpus_class() {
        use faultstudy_core::classify::Classifier;
        let f = CuratedFault::from_entry(AppKind::Mysql, &["a", "b"], &sample_entry());
        let verdict = Classifier::default().classify_report(&f.report(1));
        assert_eq!(verdict.class, f.class());
    }

    #[test]
    fn ei_report_carries_deterministic_cue() {
        let mut e = sample_entry();
        e.trigger = None;
        e.detail = "crashes parsing the request.";
        let f = CuratedFault::from_entry(AppKind::Apache, &["a", "b"], &e);
        let r = f.report(2);
        assert!(r.how_to_repeat.contains("every time"));
        assert!(r.passes_selection());
    }
}
