//! Cross-component determinism: every experiment artifact is a pure
//! function of its seed. This is the property that makes the reproduction
//! auditable — any reported number can be regenerated bit-for-bit.

use faultstudy::core::taxonomy::AppKind;
use faultstudy::corpus::{full_corpus, paper_study, PopulationSpec, SyntheticPopulation};
use faultstudy::harness::campaign::{CampaignReport, CampaignSpec};
use faultstudy::harness::experiment::{run_fault_experiment, StrategyKind};
use faultstudy::harness::{
    experiments_markdown, paper_scale_funnels, Campaign, ParallelSpec, RecoveryMatrix,
};

#[test]
fn corpus_and_study_are_constant() {
    assert_eq!(full_corpus(), full_corpus());
    assert_eq!(paper_study(), paper_study());
}

#[test]
fn populations_funnels_matrices_campaigns_reports_are_seed_pure() {
    let spec = PopulationSpec {
        app: AppKind::Gnome,
        archive_size: 250,
        max_duplicates_per_fault: 1,
        seed: 77,
    };
    assert_eq!(SyntheticPopulation::generate(&spec), SyntheticPopulation::generate(&spec));
    let funnels = || paper_scale_funnels(5, ParallelSpec::AUTO, false).0;
    assert_eq!(funnels(), funnels());
    let matrix = || RecoveryMatrix::run(5, ParallelSpec::AUTO, false);
    assert_eq!(matrix(), matrix());
    let campaign =
        || CampaignReport::run(CampaignSpec { samples: 40, seed: 5 }, ParallelSpec::AUTO, false);
    assert_eq!(campaign(), campaign());
    assert_eq!(experiments_markdown(5), experiments_markdown(5));
}

#[test]
fn committed_experiments_md_is_the_generators_output() {
    assert!(
        experiments_markdown(2000) == include_str!("../EXPERIMENTS.md"),
        "EXPERIMENTS.md differs from its generator; regenerate it with \
         `cargo run -p faultstudy-harness --bin faultstudy -- experiments --seed 2000 \
         > EXPERIMENTS.md`"
    );
}

#[test]
fn every_fault_strategy_pair_is_reproducible() {
    // A sweeping pointwise check across the full corpus for one strategy.
    for fault in full_corpus() {
        let a = run_fault_experiment(&fault, StrategyKind::Progressive, 31);
        let b = run_fault_experiment(&fault, StrategyKind::Progressive, 31);
        assert_eq!(a, b, "{}", fault.slug());
    }
}

#[test]
fn seeds_change_stochastic_outcomes_but_not_guarantees() {
    // Across seeds, race-fault outcomes may differ per attempt, but the
    // class-level guarantees hold; spot-check a race under a weak budget.
    let fault = faultstudy::corpus::find("gnome-edt-03").expect("exists");
    let outcomes: Vec<bool> = (0..24)
        .map(|seed| run_fault_experiment(&fault, StrategyKind::Restart, seed).survived)
        .collect();
    // With 3 retries and fresh interleavings the race usually clears;
    // at least some seeds must survive.
    assert!(outcomes.iter().any(|s| *s), "no seed survived the race");
    // And regardless of seed, the EI guarantee stands.
    let ei = faultstudy::corpus::find("gnome-ei-22").expect("exists");
    for seed in 0..8 {
        assert!(!run_fault_experiment(&ei, StrategyKind::Progressive, seed).survived);
    }
}
