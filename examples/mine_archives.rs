//! Reproduces the §4 selection funnels on synthetic archives with known
//! ground truth, and measures the selection quality the paper could not.
//!
//! ```sh
//! cargo run --example mine_archives
//! ```

use faultstudy::core::taxonomy::AppKind;
use faultstudy::corpus::{PopulationSpec, SyntheticPopulation};
use faultstudy::harness::{paper_scale_funnels, ParallelSpec};
use faultstudy::mining::{Archive, KeywordQuery, SelectionPipeline};

fn main() {
    println!("== paper-scale funnels (5220 / 500 / 44,000 raw entries) ==");
    for run in paper_scale_funnels(7, ParallelSpec::AUTO, false).0 {
        println!("{}", run.outcome);
        println!("  {}", run.quality);
    }

    println!();
    println!("== anatomy of the MySQL keyword search ==");
    let q = KeywordQuery::mysql();
    println!("keywords: {:?}", q.keywords());
    let spec = PopulationSpec {
        app: AppKind::Mysql,
        archive_size: 5000,
        max_duplicates_per_fault: 3,
        seed: 11,
    };
    let columns = SyntheticPopulation::generate(&spec).to_columns();
    let matches = columns.iter().filter(|r| q.matches_segments(&r.text_segments())).count();
    println!(
        "{} of {} messages match (the paper: 'a few hundred' of 44,000)",
        matches,
        columns.len()
    );

    println!();
    println!("== what a differently-tuned pipeline would have found ==");
    // Searching only for "crash" misses race reports that never say it.
    let narrow = SelectionPipeline::with_keywords(Some(KeywordQuery::new(["crash"])));
    let archive = Archive::from_columns(AppKind::Mysql, columns);
    let narrow_out = narrow.run(&archive);
    let full_out = SelectionPipeline::for_app(AppKind::Mysql).run(&archive);
    println!(
        "keywords ['crash'] select {} unique bugs; the paper's four keywords select {}",
        narrow_out.unique_bugs(),
        full_out.unique_bugs()
    );
}
