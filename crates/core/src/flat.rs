//! Flat, cache-friendly storage for bug-report collections.
//!
//! A materialized `Vec<BugReport>` scatters every title, body,
//! how-to-repeat, note, and version string into its own heap allocation;
//! scanning a paper-scale archive (44,000 MySQL messages) then chases
//! five pointers per report and touches as many allocator headers.
//! [`ReportColumns`] stores the same data struct-of-arrays: one
//! contiguous UTF-8 arena holds every text field back to back in archive
//! order, each field is a column of [`Span`]s — `(offset, len)` pairs
//! into the arena — and the fixed-width metadata (severity, production
//! flag, filing month, …) lives in plain parallel columns. Funnel
//! predicates that only look at one column (the §4 high-impact and
//! production-version filters) walk a dense array instead of striding
//! through whole reports.
//!
//! [`ReportColumns::push`] lays rows out in *arena order*: a row's fields
//! back to back in [`BugReport`] field order (title, body, how-to-repeat,
//! developer notes, version), each row straight after the one before.
//! `push` is the only way a row enters a column set, so every column set
//! is in arena order: the [`ReportColumns::row_range`]s of its rows tile
//! the arena. The §4 keyword stage relies on it: it scans
//! [`ReportColumns::arena`] in one sequential pass, then maps each match
//! to the row whose range holds it.
//!
//! The layout is lossless: [`ReportColumns::materialize`] reconstructs
//! the exact [`BugReport`] that was pushed.

use crate::report::{BugReport, ReportSource, Status, YearMonth};
use crate::taxonomy::{AppKind, Severity};
use std::ops::Range;

/// A byte range into the shared text arena of a [`ReportColumns`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    offset: u32,
    len: u32,
}

impl Span {
    fn slice<'a>(&self, arena: &'a str) -> &'a str {
        &arena[self.offset as usize..self.offset as usize + self.len as usize]
    }
}

/// Struct-of-arrays bug-report storage: a contiguous text arena plus one
/// column per field. Rows built by [`ReportColumns::push`] lie in arena
/// order (see the [module docs](self)).
///
/// # Example
///
/// ```
/// use faultstudy_core::flat::ReportColumns;
/// use faultstudy_core::report::BugReport;
/// use faultstudy_core::taxonomy::AppKind;
///
/// let report = BugReport::builder(AppKind::Mysql, 7).title("server crashed").build();
/// let mut columns = ReportColumns::new();
/// columns.push(&report);
/// assert_eq!(columns.title(0), "server crashed");
/// assert_eq!(columns.materialize(0), report);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReportColumns {
    /// Every text field of every report, back to back in push order.
    text: String,
    app: Vec<AppKind>,
    id: Vec<u64>,
    title: Vec<Span>,
    body: Vec<Span>,
    how_to_repeat: Vec<Span>,
    developer_notes: Vec<Span>,
    version: Vec<Span>,
    severity: Vec<Severity>,
    status: Vec<Status>,
    production: Vec<bool>,
    filed: Vec<YearMonth>,
    source: Vec<ReportSource>,
    duplicate_of: Vec<Option<u64>>,
}

impl ReportColumns {
    /// An empty column set.
    pub fn new() -> ReportColumns {
        ReportColumns::default()
    }

    /// An empty column set sized for `reports` rows and `text_bytes` of
    /// arena.
    pub fn with_capacity(reports: usize, text_bytes: usize) -> ReportColumns {
        ReportColumns {
            text: String::with_capacity(text_bytes),
            app: Vec::with_capacity(reports),
            id: Vec::with_capacity(reports),
            title: Vec::with_capacity(reports),
            body: Vec::with_capacity(reports),
            how_to_repeat: Vec::with_capacity(reports),
            developer_notes: Vec::with_capacity(reports),
            version: Vec::with_capacity(reports),
            severity: Vec::with_capacity(reports),
            status: Vec::with_capacity(reports),
            production: Vec::with_capacity(reports),
            filed: Vec::with_capacity(reports),
            source: Vec::with_capacity(reports),
            duplicate_of: Vec::with_capacity(reports),
        }
    }

    /// Flattens `reports` into columns, sizing the arena up front.
    pub fn from_reports<'a, I>(reports: I) -> ReportColumns
    where
        I: IntoIterator<Item = &'a BugReport>,
        I::IntoIter: Clone,
    {
        let iter = reports.into_iter();
        let (rows, bytes) = iter
            .clone()
            .fold((0usize, 0usize), |(rows, bytes), r| (rows + 1, bytes + r.text_len()));
        let mut columns = ReportColumns::with_capacity(rows, bytes);
        for report in iter {
            columns.push(report);
        }
        columns
    }

    /// Appends one report as a new row, copying its text into the arena.
    ///
    /// # Panics
    ///
    /// Panics if the arena would exceed `u32::MAX` bytes (spans are
    /// 32-bit).
    pub fn push(&mut self, report: &BugReport) {
        let title = self.intern(&report.title);
        let body = self.intern(&report.body);
        let how_to_repeat = self.intern(&report.how_to_repeat);
        let developer_notes = self.intern(&report.developer_notes);
        let version = self.intern(&report.version);
        self.app.push(report.app);
        self.id.push(report.id);
        self.title.push(title);
        self.body.push(body);
        self.how_to_repeat.push(how_to_repeat);
        self.developer_notes.push(developer_notes);
        self.version.push(version);
        self.severity.push(report.severity);
        self.status.push(report.status);
        self.production.push(report.on_production_version);
        self.filed.push(report.filed);
        self.source.push(report.source);
        self.duplicate_of.push(report.duplicate_of);
    }

    fn intern(&mut self, field: &str) -> Span {
        let offset = self.text.len();
        assert!(
            offset + field.len() <= u32::MAX as usize,
            "text arena exceeds the 32-bit span range"
        );
        self.text.push_str(field);
        Span { offset: offset as u32, len: field.len() as u32 }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.id.len()
    }

    /// Whether there are no rows.
    pub fn is_empty(&self) -> bool {
        self.id.is_empty()
    }

    /// The text arena: every text field of every row, back to back.
    pub fn arena(&self) -> &str {
        &self.text
    }

    /// The arena bytes of one row, from the first byte of its title to
    /// the last of its version. Row `index + 1`'s range starts where this
    /// one ends (see the [module docs](self)).
    pub fn row_range(&self, index: usize) -> Range<usize> {
        let version = self.version[index];
        self.title[index].offset as usize..version.offset as usize + version.len as usize
    }

    /// Iterates over all rows in archive order.
    pub fn iter(&self) -> impl Iterator<Item = ReportRow<'_>> {
        (0..self.len()).map(move |index| ReportRow { columns: self, index })
    }

    /// Archive-id column.
    pub fn id(&self, index: usize) -> u64 {
        self.id[index]
    }

    /// Title text of one row.
    pub fn title(&self, index: usize) -> &str {
        self.title[index].slice(&self.text)
    }

    /// Body text of one row.
    pub(crate) fn body(&self, index: usize) -> &str {
        self.body[index].slice(&self.text)
    }

    /// How-To-Repeat text of one row.
    pub(crate) fn how_to_repeat(&self, index: usize) -> &str {
        self.how_to_repeat[index].slice(&self.text)
    }

    /// Developer-notes text of one row.
    pub(crate) fn developer_notes(&self, index: usize) -> &str {
        self.developer_notes[index].slice(&self.text)
    }

    /// Version string of one row.
    pub(crate) fn version(&self, index: usize) -> &str {
        self.version[index].slice(&self.text)
    }

    /// Severity column.
    pub fn severity(&self, index: usize) -> Severity {
        self.severity[index]
    }

    /// Production-version column.
    pub fn production(&self, index: usize) -> bool {
        self.production[index]
    }

    /// Duplicate-link column.
    pub fn duplicate_of(&self, index: usize) -> Option<u64> {
        self.duplicate_of[index]
    }

    /// The searchable text of one row, in [`BugReport::full_text`] field
    /// order, as borrowed segments — the input shape of the shared
    /// automaton's segment scan.
    pub fn text_segments(&self, index: usize) -> [&str; 4] {
        [
            self.title(index),
            self.body(index),
            self.how_to_repeat(index),
            self.developer_notes(index),
        ]
    }

    /// Reconstructs the full owned report of one row.
    pub fn materialize(&self, index: usize) -> BugReport {
        BugReport {
            app: self.app[index],
            id: self.id[index],
            title: self.title(index).to_owned(),
            body: self.body(index).to_owned(),
            how_to_repeat: self.how_to_repeat(index).to_owned(),
            developer_notes: self.developer_notes(index).to_owned(),
            severity: self.severity[index],
            status: self.status[index],
            version: self.version(index).to_owned(),
            on_production_version: self.production[index],
            filed: self.filed[index],
            source: self.source[index],
            duplicate_of: self.duplicate_of[index],
        }
    }
}

/// A borrowed view of one [`ReportColumns`] row.
#[derive(Debug, Clone, Copy)]
pub struct ReportRow<'a> {
    columns: &'a ReportColumns,
    index: usize,
}

impl<'a> ReportRow<'a> {
    /// Archive-assigned identifier.
    pub fn id(&self) -> u64 {
        self.columns.id(self.index)
    }

    /// Searchable text segments in `full_text` order.
    pub fn text_segments(&self) -> [&'a str; 4] {
        self.columns.text_segments(self.index)
    }

    /// Reconstructs the full owned report.
    pub fn materialize(&self) -> BugReport {
        self.columns.materialize(self.index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(id: u64) -> BugReport {
        BugReport::builder(AppKind::Mysql, id)
            .title(format!("server crashed {id}"))
            .body("segfault in optimizer")
            .how_to_repeat("OPTIMIZE TABLE t")
            .developer_notes("missing initialization")
            .version("3.22.20", true)
            .severity(Severity::Critical)
            .status(Status::Fixed)
            .filed(YearMonth::new(1999, 4))
            .source(ReportSource::MailingList)
            .build()
    }

    #[test]
    fn roundtrip_is_lossless() {
        let reports = vec![sample(1), sample(2), {
            let mut r = sample(3);
            r.duplicate_of = Some(1);
            r.on_production_version = false;
            r
        }];
        let columns = ReportColumns::from_reports(&reports);
        assert_eq!(columns.len(), 3);
        for (i, r) in reports.iter().enumerate() {
            assert_eq!(&columns.materialize(i), r, "row {i}");
        }
    }

    #[test]
    fn arena_is_contiguous_and_sized_exactly() {
        let reports = vec![sample(1), sample(2)];
        let columns = ReportColumns::from_reports(&reports);
        let expected: usize = reports.iter().map(BugReport::text_len).sum();
        assert_eq!(columns.arena().len(), expected);
    }

    #[test]
    fn segments_match_full_text_field_order() {
        let r = sample(9);
        let columns = ReportColumns::from_reports(std::iter::once(&r));
        let segments = columns.text_segments(0);
        assert_eq!(segments.join("\n"), r.full_text());
    }

    #[test]
    fn rows_view_every_column() {
        let r = sample(5);
        let columns = ReportColumns::from_reports(std::iter::once(&r));
        assert_eq!(columns.iter().count(), 1);
        let row = columns.iter().next().expect("one row");
        assert_eq!(row.id(), 5);
        assert_eq!(row.text_segments(), columns.text_segments(0));
        assert_eq!(row.materialize(), r);
    }

    /// The layout the keyword stage assumes: each row's range starts
    /// where the one before ends, the last ends at the end of the arena,
    /// and every searchable field lies inside its own row's range.
    #[test]
    fn pushed_rows_tile_the_arena() {
        let reports = vec![sample(1), BugReport::builder(AppKind::Apache, 2).build(), sample(3)];
        let columns = ReportColumns::from_reports(&reports);
        let arena = columns.arena();
        let mut at = 0;
        for row in 0..columns.len() {
            let range = columns.row_range(row);
            assert_eq!(range.start, at, "row {row} starts where the one before ends");
            for segment in columns.text_segments(row) {
                let offset = segment.as_ptr() as usize - arena.as_ptr() as usize;
                assert!(range.start <= offset && offset + segment.len() <= range.end, "row {row}");
            }
            at = range.end;
        }
        assert_eq!(at, arena.len());
        assert_eq!(columns.row_range(0), 0..reports[0].text_len());
        assert_eq!(
            &arena[columns.row_range(2)],
            "server crashed 3segfault in optimizer\
            OPTIMIZE TABLE tmissing initialization3.22.20"
        );
    }

    #[test]
    fn empty_fields_are_empty_slices() {
        let r = BugReport::builder(AppKind::Apache, 1).build();
        let columns = ReportColumns::from_reports(std::iter::once(&r));
        assert_eq!(columns.title(0), "");
        assert_eq!(columns.body(0), "");
        assert_eq!(columns.version(0), "");
        assert_eq!(columns.materialize(0), r);
    }
}
