//! The in-memory bug archive.

use faultstudy_core::flat::ReportColumns;
use faultstudy_core::report::BugReport;
use faultstudy_core::taxonomy::AppKind;

/// A bug archive: the raw input to the §4 funnel.
///
/// Apache's tracker, GNOME's debbugs, and MySQL's mailing list differ in
/// how their entries were produced, but by the time the funnel sees them
/// each entry is one row of a [`ReportColumns`]; the per-app differences
/// live in the pipeline configuration instead (MySQL's pipeline starts
/// with the keyword search, the trackers' do not).
///
/// Storage is struct-of-arrays: every text field lives in one contiguous
/// arena addressed by `(offset, len)` spans, and fixed-width metadata
/// (severity, production flag, …) sits in dense parallel columns. The
/// funnel's flag filters therefore stream over plain arrays, and the
/// keyword scan walks the arena without per-report pointer chasing —
/// paper-scale archives (44,000 MySQL messages) fit in a handful of
/// allocations instead of five per report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Archive {
    app: AppKind,
    columns: ReportColumns,
}

impl Archive {
    /// Flattens `reports` into the archive of `app`.
    pub fn new(app: AppKind, reports: Vec<BugReport>) -> Archive {
        Archive { app, columns: ReportColumns::from_reports(&reports) }
    }

    /// Wraps already-flattened columns as the archive of `app`.
    pub fn from_columns(app: AppKind, columns: ReportColumns) -> Archive {
        Archive { app, columns }
    }

    /// The application this archive covers.
    pub fn app(&self) -> AppKind {
        self.app
    }

    /// Number of raw entries.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// Whether the archive is empty.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// The underlying column storage.
    pub fn columns(&self) -> &ReportColumns {
        &self.columns
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faultstudy_core::taxonomy::Severity;

    fn report(id: u64) -> BugReport {
        BugReport::builder(AppKind::Apache, id)
            .title(format!("bug {id}"))
            .severity(Severity::Severe)
            .build()
    }

    #[test]
    fn construction_and_access() {
        let a = Archive::new(AppKind::Apache, vec![report(1), report(2)]);
        assert_eq!(a.app(), AppKind::Apache);
        assert_eq!(a.len(), 2);
        assert!(!a.is_empty());
        assert_eq!(a.columns().title(1), "bug 2");
    }

    #[test]
    fn empty_archive() {
        let a = Archive::new(AppKind::Mysql, Vec::new());
        assert!(a.is_empty());
        assert_eq!(a.len(), 0);
    }

    #[test]
    fn flattening_preserves_every_report() {
        let reports = vec![report(1), report(2), report(3)];
        let a = Archive::new(AppKind::Apache, reports.clone());
        let back: Vec<BugReport> = a.columns().iter().map(|r| r.materialize()).collect();
        assert_eq!(back, reports);
    }
}
