//! Integration: rendered artifacts contain the paper's numbers, and the
//! JSON text of the results the CLI prints with `--json` is lossless: it
//! parses back to the tree it was written from.

use faultstudy::core::taxonomy::AppKind;
use faultstudy::core::timeline::{by_month, by_release};
use faultstudy::corpus::paper_study;
use faultstudy::harness::campaign::{CampaignReport, CampaignSpec};
use faultstudy::harness::{Campaign, ParallelSpec, RecoveryMatrix};
use faultstudy::report::{
    render_discussion, render_release_figure, render_table, render_time_figure,
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

/// A float that lost digits, or a string that lost an escape, on the way
/// to text would parse back to a different tree.
#[test]
fn matrix_campaign_and_reconciliation_json_is_lossless() {
    let (matrix, _) = RecoveryMatrix::run(3, ParallelSpec::AUTO, false);
    let (campaign, _) =
        CampaignReport::run(CampaignSpec { samples: 20, seed: 1 }, ParallelSpec::AUTO, false);
    let reconciliation = TandemReconciliation::default();
    for (what, json, tree) in [
        ("matrix", serde_json::to_string(&matrix), serde_json::to_value(&matrix)),
        ("campaign", serde_json::to_string(&campaign), serde_json::to_value(&campaign)),
        (
            "reconciliation",
            serde_json::to_string(&reconciliation),
            serde_json::to_value(&reconciliation),
        ),
    ] {
        let parsed: serde_json::Value =
            serde_json::from_str(&json.expect("serializes")).expect("parses");
        assert_eq!(parsed, tree, "{what}");
    }
}
