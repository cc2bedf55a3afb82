//! Keyword search over report text.
//!
//! §4: *"we use all the messages from the archives that matched one of the
//! following keywords: 'crash', 'segmentation', 'race', and 'died' (we
//! looked at a few hundred messages and found that these keywords were the
//! ones commonly used to describe serious bugs)"*.

use faultstudy_core::flat::ReportColumns;
use faultstudy_core::report::BugReport;
use faultstudy_exec::{run_chunk_fold, ParallelSpec};
use faultstudy_textscan::{Automaton, PatternSetBuilder};
use std::ops::Range;

/// The paper's §4 MySQL mailing-list search keywords ("we use all the
/// messages from the archives that matched one of the following
/// keywords").
pub const MYSQL_KEYWORDS: [&str; 4] = ["crash", "segmentation", "race", "died"];

/// A disjunctive, case-insensitive keyword query.
///
/// [`KeywordQuery::new`] compiles the keywords once into an [`Automaton`]
/// the query owns. Keywords whose bytes, plus one spacer between each
/// two, total at most 64, such as the paper's own query
/// ([`KeywordQuery::mysql`], 25 bytes), compile to the bit-parallel
/// Shift-And engine, and every match is one pass of it over the text with
/// zero per-report allocations: no `full_text` concatenation, no
/// `to_lowercase` copy. Longer lists take the naive path, one lowercase
/// copy of each field and one `contains` per keyword. Over a whole
/// archive, [`KeywordQuery::matching_rows`] scans the arena once and
/// checks only the rows it flags.
///
/// Equality compares the keywords.
///
/// # Example
///
/// ```
/// use faultstudy_mining::keywords::KeywordQuery;
///
/// let q = KeywordQuery::new(["crash", "died"]);
/// assert!(q.matches_text("the server CRASHED at noon"));
/// assert!(!q.matches_text("feature request: nicer prompt"));
/// ```
#[derive(Debug, Clone)]
pub struct KeywordQuery {
    keywords: Vec<String>,
    automaton: Automaton,
}

impl PartialEq for KeywordQuery {
    fn eq(&self, other: &KeywordQuery) -> bool {
        self.keywords == other.keywords
    }
}

impl Eq for KeywordQuery {}

impl KeywordQuery {
    /// Builds a query from keywords (stored lowercased) and compiles it.
    pub fn new<I, S>(keywords: I) -> KeywordQuery
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let keywords: Vec<String> =
            keywords.into_iter().map(|k| k.as_ref().to_lowercase()).collect();
        let mut builder = PatternSetBuilder::new();
        for keyword in &keywords {
            builder.add(keyword);
        }
        KeywordQuery { keywords, automaton: builder.build() }
    }

    /// The paper's MySQL query.
    pub fn mysql() -> KeywordQuery {
        KeywordQuery::new(MYSQL_KEYWORDS)
    }

    /// The keywords, lowercased.
    pub fn keywords(&self) -> &[String] {
        &self.keywords
    }

    /// Whether any keyword occurs in `text` (case-insensitive substring).
    pub fn matches_text(&self, text: &str) -> bool {
        !self.automaton.scan(text).is_empty()
    }

    /// Whether any keyword occurs anywhere in the report. Each field is
    /// scanned in place; the [`BugReport::full_text`] concatenation is
    /// never materialized.
    pub fn matches(&self, report: &BugReport) -> bool {
        self.matches_segments(&[
            &report.title,
            &report.body,
            &report.how_to_repeat,
            &report.developer_notes,
        ])
    }

    /// Whether any keyword occurs in any of the borrowed `segments` — the
    /// zero-copy form the arena-backed archive feeds straight from its
    /// span columns.
    pub fn matches_segments(&self, segments: &[&str]) -> bool {
        !self.automaton.scan_segments(segments).is_empty()
    }

    /// The rows of `columns` any keyword occurs in, ascending: the §4
    /// keyword stage, equal to keeping every row whose
    /// [`ReportColumns::text_segments`] [`Self::matches_segments`]
    /// accepts, at any thread count.
    ///
    /// Rows are taken in contiguous blocks, one per call in a sequential
    /// run and the executor's chunks otherwise. A block's arena text is
    /// scanned in one [`Automaton::match_ends`] pass, one forward sweep
    /// maps the rare match ends to the rows holding them, and only those
    /// rows are confirmed by [`Self::matches_segments`], which also drops
    /// a match that crosses a field or a row boundary or lies in the
    /// unscanned version field. The sweep relies on the rows' arena order,
    /// which every [`ReportColumns`] keeps (see its
    /// [module docs](faultstudy_core::flat)). A block the pass cannot vouch
    /// for takes the per-row scan instead: non-ASCII text, or a query too
    /// long for Shift-And or holding an empty keyword.
    pub fn matching_rows(&self, columns: &ReportColumns, parallel: ParallelSpec) -> Vec<usize> {
        run_chunk_fold(
            columns.len(),
            parallel,
            Vec::new,
            |rows, kept| self.match_block(columns, rows, kept),
            |all, mut part| all.append(&mut part),
        )
    }

    /// Appends the rows of the block `rows` that match to `kept`.
    fn match_block(&self, columns: &ReportColumns, rows: Range<usize>, kept: &mut Vec<usize>) {
        if rows.is_empty() {
            return;
        }
        let base = columns.row_range(rows.start).start;
        let block = &columns.arena()[base..columns.row_range(rows.end - 1).end];
        let Some(ends) = self.automaton.match_ends(block) else {
            kept.extend(rows.filter(|&row| self.matches_segments(&columns.text_segments(row))));
            return;
        };
        let (mut row, mut confirmed) = (rows.start, None);
        for end in ends {
            // The arena offset of the match's last byte, and the row
            // holding it: rows tile the block, so the sweep only moves on.
            let at = base + end - 1;
            while columns.row_range(row).end <= at {
                row += 1;
            }
            if confirmed != Some(row) {
                confirmed = Some(row);
                if self.matches_segments(&columns.text_segments(row)) {
                    kept.push(row);
                }
            }
        }
    }

    /// The pre-automaton reference implementation of
    /// [`Self::matches_text`]: one `to_lowercase` allocation plus one
    /// `contains` traversal per keyword. Ground truth for the
    /// differential tests.
    pub fn matches_text_naive(&self, text: &str) -> bool {
        let lower = text.to_lowercase();
        self.keywords.iter().any(|k| lower.contains(k))
    }

    /// The pre-automaton reference implementation of [`Self::matches`]:
    /// allocates the `full_text` concatenation, then lowercases it.
    pub fn matches_naive(&self, report: &BugReport) -> bool {
        self.matches_text_naive(&report.full_text())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faultstudy_core::taxonomy::AppKind;

    #[test]
    fn mysql_query_has_the_four_paper_keywords() {
        let q = KeywordQuery::mysql();
        assert_eq!(q.keywords(), ["crash", "segmentation", "race", "died"]);
        assert!(q.matches_text("Segmentation fault in mysqld"));
        assert!(!q.matches_text("the server stopped responding"));
    }

    #[test]
    fn substring_and_case_behaviour() {
        let q = KeywordQuery::mysql();
        assert!(q.matches_text("it Crashes every day"), "'crash' is a prefix of 'crashes'");
        assert!(q.matches_text("SEGMENTATION fault"));
        assert!(q.matches_text("the daemon died"));
        assert!(q.matches_text("looks like a race"));
        assert!(!q.matches_text("the server stopped responding")); // none of the four
        assert!(!q.matches_text(""));
    }

    #[test]
    fn matches_searches_all_report_fields() {
        let r = BugReport::builder(AppKind::Mysql, 1)
            .title("problem under load")
            .developer_notes("turned out to be a race in the lock manager")
            .build();
        assert!(KeywordQuery::mysql().matches(&r));
    }

    #[test]
    fn empty_query_matches_nothing() {
        let q = KeywordQuery::new(Vec::<String>::new());
        assert!(!q.matches_text("anything at all"));
    }

    #[test]
    fn custom_queries_match_only_their_keywords() {
        let q = KeywordQuery::new(["hang", "deadlock"]);
        assert!(!q.matches_text("the daemon crashed"), "only the query's own keywords match");
        assert!(q.matches_text("the UI DEADLOCKED"));
        assert!(!q.matches_text("all good"));
        let r = BugReport::builder(AppKind::Gnome, 2).body("panel hangs on startup").build();
        assert!(q.matches(&r));
    }

    #[test]
    fn fast_paths_agree_with_naive_reference() {
        let mysql = KeywordQuery::mysql();
        let custom = KeywordQuery::new(["hang", "crash"]);
        for text in [
            "it Crashes every day",
            "SEGMENTATION fault",
            "the server stopped responding",
            "",
            "networ\u{212A} died", // non-ASCII: fallback path
        ] {
            assert_eq!(mysql.matches_text(text), mysql.matches_text_naive(text), "{text:?}");
            assert_eq!(custom.matches_text(text), custom.matches_text_naive(text), "{text:?}");
        }
        let r = BugReport::builder(AppKind::Mysql, 3)
            .title("problem under load")
            .how_to_repeat("run the stress suite until it died")
            .build();
        assert_eq!(mysql.matches(&r), mysql.matches_naive(&r));
        assert_eq!(custom.matches(&r), custom.matches_naive(&r));
    }
}
