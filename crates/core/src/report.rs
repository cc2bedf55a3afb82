//! The bug-report data model of §4.
//!
//! The paper's primary data source is "the on-line bug reports that are
//! maintained for open-source software", each containing symptoms, results,
//! the environment and workload inducing the fault, the fix, and — "a key
//! field in all the bug reports we study" — the **How-To-Repeat** field.
//! [`BugReport`] carries all of those, plus the selection metadata
//! (severity, production version, duplicate link) that the §4 funnel
//! filters on.

use crate::taxonomy::{AppKind, Severity};
use serde::Serialize;
use std::fmt;

/// Where a report came from (§4 uses three different archive styles).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum ReportSource {
    /// A structured bug tracker (Apache's bugs.apache.org).
    Tracker,
    /// A debbugs-style tracker plus CVS history (GNOME).
    Debbugs,
    /// A mailing-list archive searched by keyword (MySQL).
    MailingList,
}

impl fmt::Display for ReportSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ReportSource::Tracker => "bug tracker",
            ReportSource::Debbugs => "debbugs",
            ReportSource::MailingList => "mailing list",
        };
        f.write_str(s)
    }
}

/// Lifecycle status of a report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum Status {
    /// Newly filed, unconfirmed.
    Open,
    /// Confirmed by a developer.
    Confirmed,
    /// Fixed in the source tree.
    Fixed,
    /// Closed without a fix (works-for-me, invalid, …).
    Closed,
}

/// A calendar month, the granularity of the GNOME timeline (Figure 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub struct YearMonth {
    /// Four-digit year.
    pub year: u16,
    /// Month, 1–12.
    pub month: u8,
}

impl YearMonth {
    /// Creates a year-month.
    ///
    /// # Panics
    ///
    /// Panics if `month` is outside 1–12.
    pub fn new(year: u16, month: u8) -> Self {
        assert!((1..=12).contains(&month), "month must be 1-12, got {month}");
        YearMonth { year, month }
    }

    /// Months elapsed since year 0, for bucket arithmetic.
    pub fn index(self) -> u32 {
        u32::from(self.year) * 12 + u32::from(self.month) - 1
    }

    /// The month `n` months after `self`.
    pub fn plus_months(self, n: u32) -> YearMonth {
        let idx = self.index() + n;
        YearMonth { year: (idx / 12) as u16, month: (idx % 12 + 1) as u8 }
    }
}

impl fmt::Display for YearMonth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:04}-{:02}", self.year, self.month)
    }
}

/// One bug report as mined from an archive.
///
/// Construct with [`BugReport::builder`]; the only mandatory inputs are the
/// application and the report id.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct BugReport {
    /// Application the report is filed against.
    pub app: AppKind,
    /// Archive-assigned identifier.
    pub id: u64,
    /// One-line summary.
    pub title: String,
    /// Free-form problem description (symptoms, results).
    pub body: String,
    /// The "How-To-Repeat" field: workload and environment that induce the
    /// fault. The paper's key classification input.
    pub how_to_repeat: String,
    /// Developer comments, including how the bug was fixed and whether the
    /// failure could be repeated on the development machines.
    pub developer_notes: String,
    /// Reporter-assigned severity.
    pub severity: Severity,
    /// Lifecycle status.
    pub status: Status,
    /// Version string the report was filed against.
    pub version: String,
    /// Whether that version is a production (non-beta) release. The §4
    /// funnel keeps only production-version reports.
    pub on_production_version: bool,
    /// When the report was filed.
    pub filed: YearMonth,
    /// Where the report came from.
    pub source: ReportSource,
    /// If this report duplicates an earlier one, the earlier id.
    pub duplicate_of: Option<u64>,
}

impl BugReport {
    /// Starts building a report for `app` with archive id `id`.
    pub fn builder(app: AppKind, id: u64) -> BugReportBuilder {
        BugReportBuilder {
            report: BugReport {
                app,
                id,
                title: String::new(),
                body: String::new(),
                how_to_repeat: String::new(),
                developer_notes: String::new(),
                severity: Severity::Major,
                status: Status::Open,
                version: String::new(),
                on_production_version: true,
                filed: YearMonth::new(1999, 1),
                source: ReportSource::Tracker,
                duplicate_of: None,
            },
        }
    }

    /// All searchable text of the report, concatenated in field order.
    /// The §4 keyword search and the evidence extractor operate on this.
    pub fn full_text(&self) -> String {
        let mut s = String::with_capacity(
            self.title.len()
                + self.body.len()
                + self.how_to_repeat.len()
                + self.developer_notes.len()
                + 3,
        );
        s.push_str(&self.title);
        s.push('\n');
        s.push_str(&self.body);
        s.push('\n');
        s.push_str(&self.how_to_repeat);
        s.push('\n');
        s.push_str(&self.developer_notes);
        s
    }

    /// Bytes of text in the five text fields: what the report adds to a
    /// [`ReportColumns`](crate::flat::ReportColumns) arena.
    pub fn text_len(&self) -> usize {
        self.title.len()
            + self.body.len()
            + self.how_to_repeat.len()
            + self.developer_notes.len()
            + self.version.len()
    }

    /// Whether the §4 selection keeps this report: high impact, filed
    /// against a production version, and not a duplicate.
    pub fn passes_selection(&self) -> bool {
        self.severity.is_high_impact() && self.on_production_version && self.duplicate_of.is_none()
    }
}

/// Builder for [`BugReport`] (C-BUILDER).
#[derive(Debug, Clone)]
pub struct BugReportBuilder {
    report: BugReport,
}

impl BugReportBuilder {
    /// Sets the one-line summary.
    pub fn title(mut self, t: impl Into<String>) -> Self {
        self.report.title = t.into();
        self
    }

    /// Sets the problem description.
    pub fn body(mut self, b: impl Into<String>) -> Self {
        self.report.body = b.into();
        self
    }

    /// Sets the How-To-Repeat field.
    pub fn how_to_repeat(mut self, h: impl Into<String>) -> Self {
        self.report.how_to_repeat = h.into();
        self
    }

    /// Sets the developer comments / fix description.
    pub fn developer_notes(mut self, n: impl Into<String>) -> Self {
        self.report.developer_notes = n.into();
        self
    }

    /// Sets the severity.
    pub fn severity(mut self, s: Severity) -> Self {
        self.report.severity = s;
        self
    }

    /// Sets the lifecycle status.
    pub fn status(mut self, s: Status) -> Self {
        self.report.status = s;
        self
    }

    /// Sets the version string and whether it is a production release.
    pub fn version(mut self, v: impl Into<String>, production: bool) -> Self {
        self.report.version = v.into();
        self.report.on_production_version = production;
        self
    }

    /// Sets the filing month.
    pub fn filed(mut self, ym: YearMonth) -> Self {
        self.report.filed = ym;
        self
    }

    /// Sets the archive style.
    pub fn source(mut self, s: ReportSource) -> Self {
        self.report.source = s;
        self
    }

    /// Marks this report as a duplicate of `id`.
    pub fn duplicate_of(mut self, id: u64) -> Self {
        self.report.duplicate_of = Some(id);
        self
    }

    /// Finishes the report.
    pub fn build(self) -> BugReport {
        self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> BugReportBuilder {
        BugReport::builder(AppKind::Mysql, 7).title("server crashed").severity(Severity::Critical)
    }

    #[test]
    fn builder_fills_fields() {
        let r = base()
            .body("segfault in optimizer")
            .how_to_repeat("OPTIMIZE TABLE t")
            .developer_notes("missing initialization; fixed in 3.22.21")
            .status(Status::Fixed)
            .version("3.22.20", true)
            .filed(YearMonth::new(1999, 4))
            .source(ReportSource::MailingList)
            .build();
        assert_eq!(r.app, AppKind::Mysql);
        assert_eq!(r.id, 7);
        assert_eq!(r.version, "3.22.20");
        assert_eq!(r.status, Status::Fixed);
        assert_eq!(r.source, ReportSource::MailingList);
        assert!(r.passes_selection());
    }

    #[test]
    fn full_text_concatenates_every_field() {
        let r = base().body("BODY").how_to_repeat("REPEAT").developer_notes("NOTES").build();
        let t = r.full_text();
        for needle in ["server crashed", "BODY", "REPEAT", "NOTES"] {
            assert!(t.contains(needle), "missing {needle}");
        }
    }

    #[test]
    fn selection_rejects_low_impact_beta_and_duplicates() {
        assert!(!base().severity(Severity::Minor).build().passes_selection());
        assert!(!base().version("2.0b1", false).build().passes_selection());
        assert!(!base().duplicate_of(3).build().passes_selection());
        assert!(base().build().passes_selection());
    }

    #[test]
    fn year_month_ordering_and_arithmetic() {
        let a = YearMonth::new(1998, 12);
        let b = YearMonth::new(1999, 1);
        assert!(a < b);
        assert_eq!(a.plus_months(1), b);
        assert_eq!(b.plus_months(12), YearMonth::new(2000, 1));
        assert_eq!(b.index() - a.index(), 1);
        assert_eq!(b.to_string(), "1999-01");
    }

    #[test]
    #[should_panic(expected = "month must be 1-12")]
    fn bad_month_rejected() {
        YearMonth::new(1999, 13);
    }

    #[test]
    fn source_display() {
        assert_eq!(ReportSource::Tracker.to_string(), "bug tracker");
        assert_eq!(ReportSource::MailingList.to_string(), "mailing list");
    }
}
