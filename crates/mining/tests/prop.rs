//! Property tests for the mining pipeline.

use faultstudy_core::report::BugReport;
use faultstudy_core::taxonomy::{AppKind, Severity};
use faultstudy_mining::dedup::{dedup_indices_keyed, normalize_title};
use faultstudy_mining::{Archive, KeywordQuery, SelectionPipeline};
use proptest::prelude::*;

fn severity_strategy() -> impl Strategy<Value = Severity> {
    prop::sample::select(vec![
        Severity::Trivial,
        Severity::Minor,
        Severity::Major,
        Severity::Severe,
        Severity::Critical,
    ])
}

fn report_strategy() -> impl Strategy<Value = BugReport> {
    (1u64..10_000, "[a-z ]{0,30}", severity_strategy(), any::<bool>(), prop::option::of(1u64..100))
        .prop_map(|(id, title, severity, production, duplicate_of)| {
            let mut b = BugReport::builder(AppKind::Apache, id)
                .title(title)
                .severity(severity)
                .version("1.0", production);
            if let Some(d) = duplicate_of {
                b = b.duplicate_of(d);
            }
            b.build()
        })
}

proptest! {
    /// The funnel output is a subset of the archive and every survivor
    /// passes the §4 selection predicate.
    #[test]
    fn funnel_output_is_a_valid_subset(
        reports in prop::collection::vec(report_strategy(), 0..60)
    ) {
        let archive = Archive::new(AppKind::Apache, reports.clone());
        let out = SelectionPipeline::for_app(AppKind::Apache).run(&archive);
        prop_assert!(out.selected.len() <= reports.len());
        for r in &out.selected {
            prop_assert!(r.severity.is_high_impact());
            prop_assert!(r.on_production_version);
        }
        // Funnel counts never increase.
        let counts: Vec<usize> = out.funnel.iter().map(|s| s.survivors).collect();
        prop_assert!(counts.windows(2).all(|w| w[1] <= w[0]));
        prop_assert_eq!(counts[0], reports.len());
    }

    /// The pipeline is idempotent: running the funnel over its own output
    /// changes nothing.
    #[test]
    fn funnel_is_idempotent(reports in prop::collection::vec(report_strategy(), 0..60)) {
        let pipeline = SelectionPipeline::for_app(AppKind::Apache);
        let once = pipeline.run(&Archive::new(AppKind::Apache, reports));
        let twice = pipeline.run(&Archive::new(AppKind::Apache, once.selected.clone()));
        prop_assert_eq!(once.selected, twice.selected);
    }

    /// Keyword matching is stable under case changes of the text.
    #[test]
    fn keyword_match_is_case_stable(text in ".{0,80}") {
        let q = KeywordQuery::mysql();
        prop_assert_eq!(q.matches_text(&text), q.matches_text(&text.to_uppercase()));
        prop_assert_eq!(q.matches_text(&text), q.matches_text(&text.to_lowercase()));
    }

    /// Title normalization is idempotent.
    #[test]
    fn normalize_title_is_idempotent(title in ".{0,60}") {
        let once = normalize_title(&title);
        prop_assert_eq!(normalize_title(&once), once);
    }

    /// Dedup keeps at least one representative per distinct normalized
    /// title (for non-empty titles) and never more than the input count.
    #[test]
    fn dedup_keeps_one_per_distinct_title(
        titles in prop::collection::vec("[a-c]{1,4}", 1..40)
    ) {
        use std::collections::BTreeSet;
        let reports: Vec<BugReport> = titles
            .iter()
            .enumerate()
            .map(|(i, t)| {
                BugReport::builder(AppKind::Apache, i as u64)
                    .title(t.clone())
                    .severity(Severity::Severe)
                    .build()
            })
            .collect();
        let distinct: BTreeSet<String> =
            titles.iter().map(|t| normalize_title(t)).collect();
        let norms = reports.iter().map(|r| normalize_title(&r.title)).collect();
        let key = |i: usize| (reports[i].id, reports[i].duplicate_of);
        let kept = dedup_indices_keyed(key, (0..reports.len()).collect(), norms);
        prop_assert_eq!(kept.len(), distinct.len());
    }
}

/// A custom query of 71 keyword bytes: past the 64 the bit-parallel
/// engine holds.
const LONG_QUERY: [&str; 7] = [
    "hang",
    "deadlock",
    "crash",
    "segmentation fault",
    "race condition",
    "died unexpectedly",
    "abort",
];

/// Text woven from keyword fragments, near-misses, and filler.
fn keyword_text_strategy() -> impl Strategy<Value = String> {
    prop::collection::vec(
        prop::sample::select(vec![
            "crash".to_owned(),
            "CRASHED".to_owned(),
            "cras".to_owned(),
            "segmentation".to_owned(),
            "segment".to_owned(),
            "race".to_owned(),
            "embrace".to_owned(),
            "died".to_owned(),
            "die".to_owned(),
            "the server stopped".to_owned(),
            "Segmentation Fault".to_owned(),
            "race cond".to_owned(),
            "ition".to_owned(),
            "unexpectedly".to_owned(),
            "dead".to_owned(),
            "lock".to_owned(),
            " ".to_owned(),
            "\n".to_owned(),
            "ordinary words".to_owned(),
        ]),
        0..8,
    )
    .prop_map(|fragments| fragments.concat())
}

proptest! {
    /// The automaton-backed keyword match is bit-identical to the naive
    /// lowercase-and-`contains` implementation on woven and fully
    /// arbitrary text, on either text-scan path: the paper's MySQL query
    /// (25 bytes) and a 17-byte custom query compile to Shift-And, and a
    /// 71-byte custom query takes the naive path.
    #[test]
    fn keyword_match_agrees_with_naive(
        woven in keyword_text_strategy(),
        arbitrary in ".{0,100}",
    ) {
        let queries = [
            ("mysql", KeywordQuery::mysql()),
            ("custom", KeywordQuery::new(["hang", "deadlock", "crash"])),
            ("long", KeywordQuery::new(LONG_QUERY)),
        ];
        for text in [woven.as_str(), arbitrary.as_str()] {
            for (name, query) in &queries {
                prop_assert_eq!(
                    query.matches_text(text),
                    query.matches_text_naive(text),
                    "{} query on {:?}", name, text
                );
            }
        }
    }

    /// Report-level matching (field-by-field scan) agrees with the naive
    /// `full_text` concatenation scan.
    #[test]
    fn report_match_agrees_with_naive(
        title in keyword_text_strategy(),
        body in ".{0,60}",
        notes in keyword_text_strategy(),
    ) {
        let r = BugReport::builder(AppKind::Mysql, 1)
            .title(title)
            .body(body)
            .developer_notes(notes)
            .build();
        let mysql = KeywordQuery::mysql();
        prop_assert_eq!(mysql.matches(&r), mysql.matches_naive(&r));
    }
}
