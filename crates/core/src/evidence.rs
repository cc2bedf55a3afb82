//! Structured classification evidence extracted from bug reports.
//!
//! The paper classifies "using information contained in the bug reports and
//! source code" — chiefly the How-To-Repeat field and the developers'
//! comments on whether they could repeat the failure (§4). [`Evidence`] is
//! that information in structured form: the environmental conditions the
//! text names, whether reproduction is reported as deterministic, and
//! whether the reporter observed success on retry.

use crate::lexicon::conditions_in_lowercase;
use crate::report::BugReport;
use faultstudy_env::condition::ConditionKind;

/// Cues that a failure reproduces deterministically.
const DETERMINISTIC_CUES: &[&str] = &[
    "every time",
    "each time",
    "always crashes",
    "always fails",
    "always dies",
    "100% reproducible",
    "fully reproducible",
    "reproducible",
    "repeatable",
    "whenever",
];

/// Cues that reproduction is flaky or impossible.
const NONDETERMINISTIC_CUES: &[&str] = &[
    "sometimes",
    "occasionally",
    "intermittent",
    "at random",
    "randomly",
    "once in a while",
    "cannot reproduce",
    "could not reproduce",
    "can't reproduce",
    "not reproducible",
    "hard to reproduce",
    "unable to repeat",
];

/// Cues that the operation succeeded when simply retried.
const RETRY_SUCCESS_CUES: &[&str] = &[
    "works on a retry",
    "works on retry",
    "works after retry",
    "succeeds on retry",
    "second attempt works",
    "worked the second time",
    "works after restarting",
];

/// The structured facts a classifier needs about one fault.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Evidence {
    /// Environmental conditions the report names, sorted and deduplicated.
    pub conditions: Vec<ConditionKind>,
    /// `Some(true)` if the text claims deterministic reproduction,
    /// `Some(false)` if it claims flaky/impossible reproduction, `None` if
    /// it is silent.
    pub deterministic_repro: Option<bool>,
    /// Whether the reporter observed the operation succeed on a plain retry.
    pub retry_succeeded: bool,
}

impl Evidence {
    /// Extracts evidence from a report's [`full_text`](BugReport::full_text).
    ///
    /// # Example
    ///
    /// ```
    /// use faultstudy_core::evidence::Evidence;
    /// use faultstudy_core::report::BugReport;
    /// use faultstudy_core::taxonomy::AppKind;
    ///
    /// let r = BugReport::builder(AppKind::Apache, 1)
    ///     .how_to_repeat("fails whenever the file system is full")
    ///     .build();
    /// let ev = Evidence::extract(&r);
    /// assert_eq!(ev.conditions.len(), 1);
    /// assert_eq!(ev.deterministic_repro, Some(true));
    /// ```
    pub fn extract(report: &BugReport) -> Evidence {
        Evidence::from_text(&report.full_text())
    }

    /// Extracts evidence from raw text, such as a message that is not yet
    /// a full [`BugReport`]: the text is lowercased, and each lexicon rule
    /// pattern and each cue is one `contains` on it.
    pub fn from_text(text: &str) -> Evidence {
        let lower = text.to_lowercase();
        let conditions = conditions_in_lowercase(&lower);
        // Nondeterministic cues dominate: "crashes sometimes, reproducible
        // under load" is a flaky report.
        let deterministic_repro = if NONDETERMINISTIC_CUES.iter().any(|c| lower.contains(c)) {
            Some(false)
        } else if DETERMINISTIC_CUES.iter().any(|c| lower.contains(c)) {
            Some(true)
        } else {
            None
        };
        let retry_succeeded = RETRY_SUCCESS_CUES.iter().any(|c| lower.contains(c));
        Evidence { conditions, deterministic_repro, retry_succeeded }
    }

    /// Evidence naming exactly the given conditions and nothing else;
    /// convenient for constructing evidence programmatically.
    pub fn of_conditions(conditions: impl IntoIterator<Item = ConditionKind>) -> Evidence {
        let mut conditions: Vec<ConditionKind> = conditions.into_iter().collect();
        conditions.sort_unstable();
        conditions.dedup();
        Evidence { conditions, ..Evidence::default() }
    }

    /// Whether the evidence names any environmental condition.
    pub(crate) fn names_conditions(&self) -> bool {
        !self.conditions.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::taxonomy::AppKind;

    #[test]
    fn deterministic_cue_detected() {
        let ev = Evidence::from_text("the server dies every time I send SIGHUP");
        assert_eq!(ev.deterministic_repro, Some(true));
        assert!(!ev.retry_succeeded);
    }

    #[test]
    fn nondeterministic_cue_detected_and_dominates() {
        let ev = Evidence::from_text("sometimes reproducible under heavy load");
        assert_eq!(ev.deterministic_repro, Some(false));
    }

    #[test]
    fn silence_yields_none() {
        let ev = Evidence::from_text("the server crashed");
        assert_eq!(ev.deterministic_repro, None);
    }

    #[test]
    fn retry_success_detected() {
        let ev = Evidence::from_text("unknown failure which works on a retry");
        assert!(ev.retry_succeeded);
        // The lexicon also maps this phrase to UnknownTransient.
        assert_eq!(ev.conditions, vec![ConditionKind::UnknownTransient]);
    }

    #[test]
    fn extract_reads_every_report_field() {
        let r = BugReport::builder(AppKind::Gnome, 2)
            .title("panel freeze")
            .body("desktop hangs")
            .how_to_repeat("open two applets")
            .developer_notes("race condition between the applet request and its removal")
            .build();
        let ev = Evidence::extract(&r);
        assert_eq!(ev.conditions, vec![ConditionKind::RaceCondition]);
    }

    #[test]
    fn of_conditions_sorts_and_dedups() {
        let ev = Evidence::of_conditions([
            ConditionKind::RaceCondition,
            ConditionKind::FdExhaustion,
            ConditionKind::RaceCondition,
        ]);
        assert_eq!(ev.conditions, vec![ConditionKind::FdExhaustion, ConditionKind::RaceCondition]);
        assert!(ev.names_conditions());
        assert!(!Evidence::default().names_conditions());
    }
}
