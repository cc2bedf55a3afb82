//! Integration: the §4 selection funnels at paper scale.

use faultstudy::core::taxonomy::AppKind;
use faultstudy::corpus::{PopulationSpec, SyntheticPopulation};
use faultstudy::harness::funnel::{paper_scale_funnels, FunnelRun};
use faultstudy::harness::ParallelSpec;
use faultstudy::mining::{Archive, KeywordQuery, SelectionPipeline};

/// The Apache, GNOME and MySQL funnels at paper scale, in that order.
fn funnels(seed: u64) -> Vec<FunnelRun> {
    paper_scale_funnels(seed, ParallelSpec::AUTO, false).0
}

#[test]
fn funnels_reproduce_the_papers_counts() {
    let runs = funnels(2000);
    let expected =
        [(AppKind::Apache, 5220, 50), (AppKind::Gnome, 500, 45), (AppKind::Mysql, 44_000, 44)];
    for (run, (app, raw, unique)) in runs.iter().zip(expected) {
        assert_eq!(run.outcome.app, app);
        assert_eq!(run.outcome.raw_size(), raw, "{app}");
        assert_eq!(run.outcome.unique_bugs(), unique, "{app}");
    }
}

#[test]
fn funnels_achieve_perfect_precision_and_recall_on_synthetic_truth() {
    for run in funnels(17) {
        assert_eq!(run.quality.precision(), 1.0, "{}", run.outcome.app);
        assert_eq!(run.quality.recall(), 1.0, "{}", run.outcome.app);
        assert_eq!(run.quality.faults_recalled, run.outcome.unique_bugs());
    }
}

#[test]
fn mysql_keyword_stage_keeps_a_few_hundred_of_44000() {
    // "We looked at a few hundred messages" (§4).
    let run = &funnels(2000)[2];
    assert_eq!(run.outcome.app, AppKind::Mysql);
    let kept = run.outcome.funnel[1].survivors;
    assert!((100..2500).contains(&kept), "keyword stage kept {kept}, not 'a few hundred'");
}

#[test]
fn funnel_stages_never_grow() {
    for run in funnels(3) {
        let counts: Vec<usize> = run.outcome.funnel.iter().map(|s| s.survivors).collect();
        assert!(counts.windows(2).all(|w| w[1] <= w[0]), "{counts:?}");
    }
}

#[test]
fn funnels_are_deterministic_per_seed() {
    assert_eq!(funnels(8), funnels(8));
}

#[test]
fn selection_counts_are_stable_across_archive_seeds() {
    // Shuffling, duplicate counts, and noise vary with the seed; the set
    // of unique faults selected must not.
    for seed in [1, 2, 3, 4, 5] {
        let spec = PopulationSpec {
            app: AppKind::Apache,
            archive_size: 1000,
            max_duplicates_per_fault: 3,
            seed,
        };
        let population = SyntheticPopulation::generate(&spec);
        let archive = Archive::from_columns(AppKind::Apache, population.to_columns());
        let outcome = SelectionPipeline::for_app(AppKind::Apache).run(&archive);
        assert_eq!(outcome.unique_bugs(), 50, "seed {seed}");
    }
}

#[test]
fn single_keyword_pipelines_lose_recall() {
    // The paper chose four keywords; any single keyword misses faults
    // whose reports describe the symptom differently.
    let spec = PopulationSpec {
        app: AppKind::Mysql,
        archive_size: 2000,
        max_duplicates_per_fault: 0,
        seed: 9,
    };
    let population = SyntheticPopulation::generate(&spec);
    let archive = Archive::from_columns(AppKind::Mysql, population.to_columns());
    let full = SelectionPipeline::for_app(AppKind::Mysql).run(&archive).unique_bugs();
    assert_eq!(full, 44);
    let mut any_smaller = false;
    for kw in ["crash", "segmentation", "race", "died"] {
        let narrow = SelectionPipeline::with_keywords(Some(KeywordQuery::new([kw])));
        let n = narrow.run(&archive).unique_bugs();
        assert!(n <= full, "{kw}");
        any_smaller |= n < full;
    }
    assert!(any_smaller, "at least one single-keyword query must lose recall");
}

/// The §4 query's one-pass scan gives the naive per-keyword scan's
/// verdict on every report of the paper-scale MySQL archive.
#[test]
fn keyword_query_matches_the_naive_scan_on_the_paper_scale_archive() {
    let columns = SyntheticPopulation::generate(&PopulationSpec::paper_scale(AppKind::Mysql, 2000))
        .to_columns();
    assert_eq!(columns.len(), 44_000);
    let query = KeywordQuery::mysql();
    for row in columns.iter() {
        let r = &row.materialize();
        assert_eq!(query.matches(r), query.matches_naive(r), "keyword verdict on {}", r.id);
    }
}
