//! Integration: rendered artifacts contain the paper's numbers, and every
//! serializable result round-trips through JSON (the CLI's `--json` path).

use faultstudy::core::taxonomy::AppKind;
use faultstudy::core::timeline::{by_month, by_release};
use faultstudy::corpus::paper_study;
use faultstudy::harness::campaign::{CampaignReport, CampaignSpec};
use faultstudy::harness::{Campaign, ParallelSpec, RecoveryMatrix};
use faultstudy::report::{
    render_discussion, render_release_figure, render_table, render_time_figure, RelatedWork,
    TandemReconciliation,
};

#[test]
fn rendered_tables_quote_the_exact_counts() {
    let study = paper_study();
    let expected = [
        (AppKind::Apache, ["36", "7", "7", "50"]),
        (AppKind::Gnome, ["39", "3", "3", "45"]),
        (AppKind::Mysql, ["38", "4", "2", "44"]),
    ];
    for (app, numbers) in expected {
        let text = render_table(&study, app);
        for n in numbers {
            assert!(text.contains(n), "{app}: missing {n} in\n{text}");
        }
    }
}

#[test]
fn rendered_figures_have_one_bar_per_bucket() {
    let study = paper_study();
    let fig1 = render_release_figure(&by_release(&study, AppKind::Apache));
    assert_eq!(fig1.lines().filter(|l| l.contains('|')).count(), 4);
    let fig2 = render_time_figure(&by_month(&study, AppKind::Gnome));
    assert_eq!(fig2.lines().filter(|l| l.contains('|')).count(), 11);
    let fig3 = render_release_figure(&by_release(&study, AppKind::Mysql));
    assert_eq!(fig3.lines().filter(|l| l.contains('|')).count(), 5);
}

#[test]
fn discussion_renders_the_abstract_numbers() {
    let text = render_discussion(&paper_study().discussion());
    for needle in ["139", "14 (10%)", "12 (9%)", "72%-87%"] {
        assert!(text.contains(needle), "missing {needle}");
    }
}

#[test]
fn study_and_matrix_round_trip_through_json() {
    let study = paper_study();
    let json = serde_json::to_string(&study).expect("study serializes");
    let back: faultstudy::core::study::Study =
        serde_json::from_str(&json).expect("study deserializes");
    assert_eq!(back, study);

    let (matrix, _) = RecoveryMatrix::run(3, ParallelSpec::AUTO, false);
    let json = serde_json::to_string(&matrix).expect("matrix serializes");
    let back: RecoveryMatrix = serde_json::from_str(&json).expect("matrix deserializes");
    assert_eq!(back, matrix);

    let (campaign, _) =
        CampaignReport::run(CampaignSpec { samples: 20, seed: 1 }, ParallelSpec::AUTO, false);
    let json = serde_json::to_string(&campaign).expect("campaign serializes");
    let back: CampaignReport = serde_json::from_str(&json).expect("campaign deserializes");
    assert_eq!(back, campaign);

    let rec = TandemReconciliation::default();
    let json = serde_json::to_string(&rec).expect("reconciliation serializes");
    let back: TandemReconciliation = serde_json::from_str(&json).expect("deserializes");
    assert_eq!(back, rec);

    let rw = RelatedWork::paper(8.6);
    let json = serde_json::to_string(&rw).expect("related work serializes");
    let back: RelatedWork = serde_json::from_str(&json).expect("deserializes");
    assert_eq!(back, rw);
}

#[test]
fn corpus_faults_round_trip_through_json() {
    for fault in faultstudy::corpus::full_corpus().iter().take(10) {
        let json = serde_json::to_string(fault).expect("fault serializes");
        let back: faultstudy::corpus::CuratedFault =
            serde_json::from_str(&json).expect("fault deserializes");
        assert_eq!(&back, fault);
    }
}
