//! The keyword stage's arena pass keeps exactly the rows the per-row scan
//! keeps, at any thread count.

use faultstudy_core::flat::ReportColumns;
use faultstudy_core::report::BugReport;
use faultstudy_core::taxonomy::AppKind;
use faultstudy_corpus::{PopulationSpec, SyntheticPopulation};
use faultstudy_exec::ParallelSpec;
use faultstudy_mining::keywords::MYSQL_KEYWORDS;
use faultstudy_mining::KeywordQuery;
use faultstudy_textscan::PatternSetBuilder;

/// The rows whose four searchable fields `query` matches, one row at a
/// time: the stage before the arena pass.
fn per_row(query: &KeywordQuery, columns: &ReportColumns) -> Vec<usize> {
    (0..columns.len()).filter(|&i| query.matches_segments(&columns.text_segments(i))).collect()
}

fn assert_stage_equals_per_row(query: &KeywordQuery, columns: &ReportColumns, what: &str) {
    let expected = per_row(query, columns);
    for threads in [1, 2, 4] {
        assert_eq!(
            query.matching_rows(columns, ParallelSpec::threads(threads)),
            expected,
            "{what} at {threads} threads"
        );
    }
}

/// The layout the arena pass relies on: row `i`'s range ends where row
/// `i + 1`'s begins, the last row's range ends at the end of the arena,
/// and every searchable field lies inside its own row's range.
fn assert_rows_tile_the_arena(columns: &ReportColumns, what: &str) {
    let arena = columns.arena();
    let mut at = 0;
    for row in 0..columns.len() {
        let range = columns.row_range(row);
        assert_eq!(range.start, at, "{what}: row {row} starts where the one before ends");
        for segment in columns.text_segments(row) {
            let offset = segment.as_ptr() as usize - arena.as_ptr() as usize;
            assert!(
                range.start <= offset && offset + segment.len() <= range.end,
                "{what}: row {row}"
            );
        }
        at = range.end;
    }
    assert_eq!(at, arena.len(), "{what}: the last row ends at the end of the arena");
}

fn report(id: u64, fields: [&str; 5]) -> BugReport {
    let [title, body, how_to_repeat, developer_notes, version] = fields;
    BugReport::builder(AppKind::Mysql, id)
        .title(title)
        .body(body)
        .how_to_repeat(how_to_repeat)
        .developer_notes(developer_notes)
        .version(version, true)
        .build()
}

/// Rows whose arena text holds a keyword the per-row scan must not see,
/// between rows that hold one it must.
fn handcrafted() -> Vec<BugReport> {
    vec![
        // "crash" across the title and the body.
        report(1, ["the server cra", "shed at noon", "", "", "3.23.2"]),
        // "race" across two rows: the notes end one, the next title ends it.
        report(2, ["slow join", "", "", "looks like a ra", ""]),
        report(3, ["ce of two threads", "no keyword here", "", "", "3.23.2"]),
        // Only the version names a keyword.
        report(4, ["replication lag", "", "", "", "crash-3.23"]),
        report(5, ["SEGMENTATION FAULT", "IN THE OPTIMIZER", "", "", "3.22"]),
        // A keyword in a row whose other fields are empty.
        report(6, ["", "", "", "mysqld died", ""]),
        report(7, ["", "", "", "", ""]),
        report(8, ["question about my.cnf", "", "run it", "", "4.0"]),
        // "died" across the how-to-repeat and the notes.
        report(9, ["", "", "the server di", "ed twice", "4.0"]),
    ]
}

/// `push` is the only way a row enters a column set, so every column set
/// keeps the layout, whichever way it was built and at any size.
#[test]
fn rows_tile_the_arena() {
    assert_rows_tile_the_arena(&ReportColumns::new(), "no rows");
    assert_rows_tile_the_arena(&ReportColumns::from_reports(&handcrafted()), "handcrafted rows");
    for seed in [1, 7, 42, 2000] {
        for app in AppKind::ALL {
            let paper = PopulationSpec::paper_scale(app, seed);
            for archive_size in [100, 1_000, paper.archive_size] {
                let spec = PopulationSpec { archive_size, ..paper };
                let columns = SyntheticPopulation::generate(&spec).to_columns();
                let what = format!("{app} at seed {seed}, {archive_size} rows");
                assert_rows_tile_the_arena(&columns, &what);
                let reports: Vec<BugReport> = columns.iter().map(|row| row.materialize()).collect();
                assert_rows_tile_the_arena(&ReportColumns::from_reports(&reports), &what);
            }
        }
    }
}

#[test]
fn handcrafted_rows_keep_only_whole_field_matches() {
    let query = KeywordQuery::mysql();
    let columns = ReportColumns::from_reports(&handcrafted());
    assert_eq!(per_row(&query, &columns), [4, 5], "the uppercase row and the lone-notes row");

    // The arena pass meets every straddling keyword and the version's, so
    // the rows' own scans are what turn them away.
    let mut keywords = PatternSetBuilder::new();
    for keyword in MYSQL_KEYWORDS {
        keywords.add(keyword);
    }
    let ends = keywords.build().match_ends(columns.arena()).expect("an ASCII arena");
    let rows_with_ends: Vec<usize> = (0..columns.len())
        .filter(|&i| ends.iter().any(|&end| columns.row_range(i).contains(&(end - 1))))
        .collect();
    assert_eq!(rows_with_ends, [0, 2, 3, 4, 5, 8]);

    assert_stage_equals_per_row(&query, &columns, "handcrafted rows");
}

#[test]
fn a_non_ascii_row_sends_its_block_down_the_per_row_path() {
    let query = KeywordQuery::mysql();
    let mut reports = handcrafted();
    // The per-row scan lowercases a non-ASCII field as Unicode; the
    // bytewise pass cannot, so the whole block falls back.
    reports.insert(3, report(10, ["caf\u{e9} server cr\u{e2}sh", "", "", "it crashed", "4.0"]));
    let columns = ReportColumns::from_reports(&reports);
    assert_eq!(per_row(&query, &columns), [3, 5, 6]);
    assert_stage_equals_per_row(&query, &columns, "rows with a non-ASCII one");
}

#[test]
fn paper_scale_archives_keep_the_per_row_rows() {
    let query = KeywordQuery::mysql();
    for seed in [1, 7, 2000] {
        for app in AppKind::ALL {
            let columns =
                SyntheticPopulation::generate(&PopulationSpec::paper_scale(app, seed)).to_columns();
            assert_stage_equals_per_row(&query, &columns, &format!("{app} at seed {seed}"));
        }
    }
}

#[test]
fn queries_the_pass_cannot_vouch_for_take_the_per_row_path() {
    let columns =
        SyntheticPopulation::generate(&PopulationSpec::paper_scale(AppKind::Mysql, 7)).to_columns();
    // 71 bytes are too many for Shift-And and take the naive path; the
    // empty keyword matches every row.
    let long = KeywordQuery::new([
        "hang",
        "deadlock",
        "crash",
        "segmentation fault",
        "race condition",
        "died unexpectedly",
        "abort",
    ]);
    let with_empty = KeywordQuery::new(["crash", ""]);
    assert_stage_equals_per_row(&long, &columns, "a 71-byte query");
    assert_stage_equals_per_row(&with_empty, &columns, "a query with an empty keyword");
    assert_eq!(with_empty.matching_rows(&columns, ParallelSpec::SEQUENTIAL).len(), columns.len());
}
