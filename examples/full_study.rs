//! The entire paper in one run: tables, figures, discussion numbers,
//! funnels, the recovery matrix, and the Lee–Iyer reconciliation.
//!
//! Equivalent to `faultstudy all`; exists as an example so the sequence is
//! also exercised as documentation.
//!
//! ```sh
//! cargo run --release --example full_study
//! ```

use faultstudy::core::taxonomy::AppKind;
use faultstudy::core::timeline::{by_month, by_release, ei_shares, max_deviation, totals_grow};
use faultstudy::corpus::paper_study;
use faultstudy::harness::{paper_scale_funnels, Campaign, ParallelSpec, RecoveryMatrix};
use faultstudy::report::{
    render_discussion, render_release_figure, render_table, render_time_figure,
    TandemReconciliation,
};

fn main() {
    let study = paper_study();

    for app in AppKind::ALL {
        println!("{}", render_table(&study, app));
    }

    let fig1 = by_release(&study, AppKind::Apache);
    println!("{}", render_release_figure(&fig1));
    let fig2 = by_month(&study, AppKind::Gnome);
    println!("{}", render_time_figure(&fig2));
    let fig3 = by_release(&study, AppKind::Mysql);
    println!("{}", render_release_figure(&fig3));

    // The two properties the paper reads off the release figures.
    let shares = ei_shares(fig1.buckets.iter().map(|b| b.counts), 3);
    println!(
        "Apache environment-independent share per release deviates by at most {:.1} \
         percentage points (the paper: 'stays about the same').",
        max_deviation(&shares) * 100.0
    );
    let totals: Vec<_> = fig1.buckets.iter().map(|b| b.counts).collect();
    println!("Apache totals grow toward newer releases: {}", totals_grow(&totals));
    println!();

    println!("{}", render_discussion(&study.discussion()));

    for run in paper_scale_funnels(2000) {
        println!("{}", run.outcome);
    }
    println!();

    let (matrix, _) = RecoveryMatrix::run(2000, ParallelSpec::AUTO, false);
    println!("{matrix}");

    println!("{}", TandemReconciliation::default());
}
