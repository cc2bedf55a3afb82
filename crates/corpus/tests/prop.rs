//! Property tests for the corpus and the synthetic population generator.

use faultstudy_core::taxonomy::AppKind;
use faultstudy_corpus::{corpus_for, full_corpus, PopulationSpec, SyntheticPopulation};
use proptest::prelude::*;

fn app_strategy() -> impl Strategy<Value = AppKind> {
    prop::sample::select(AppKind::ALL.to_vec())
}

proptest! {
    /// Population generation respects the requested archive size and
    /// embeds every curated fault, for any feasible configuration.
    #[test]
    fn population_embeds_every_curated_fault(
        app in app_strategy(),
        extra in 0usize..400,
        dups in 0u32..4,
        seed in any::<u64>()
    ) {
        use std::collections::BTreeSet;
        let base = corpus_for(app).len();
        let spec = PopulationSpec {
            app,
            // Room for all primaries, all possible duplicates, and noise.
            archive_size: base * usize::try_from(dups + 1).expect("small") + extra,
            max_duplicates_per_fault: dups,
            seed,
        };
        let population = SyntheticPopulation::generate(&spec);
        let columns = population.to_columns();
        prop_assert_eq!(columns.len(), spec.archive_size);
        let slugs: BTreeSet<&str> =
            population.ground_truth.values().map(String::as_str).collect();
        prop_assert_eq!(slugs.len(), base, "every fault has at least its primary");
        // Ids are unique.
        let ids: BTreeSet<u64> = columns.iter().map(|r| r.id()).collect();
        prop_assert_eq!(ids.len(), columns.len());
    }

    /// Ground truth is sound: every tracked id exists in the archive and
    /// maps to a real corpus slug.
    #[test]
    fn ground_truth_is_sound(app in app_strategy(), seed in any::<u64>()) {
        let spec = PopulationSpec {
            app,
            archive_size: 300,
            max_duplicates_per_fault: 2,
            seed,
        };
        let population = SyntheticPopulation::generate(&spec);
        let ids: std::collections::BTreeSet<u64> =
            population.to_columns().iter().map(|r| r.id()).collect();
        for (id, slug) in &population.ground_truth {
            prop_assert!(ids.contains(id), "tracked id {id} missing from archive");
            prop_assert!(
                faultstudy_corpus::find(slug).is_some(),
                "unknown slug {slug}"
            );
        }
    }

    /// Synthesized corpus reports always pass the §4 selection and carry
    /// the right application tag.
    #[test]
    fn corpus_reports_are_selectable(idx in 0usize..139, id in 1u64..1_000_000) {
        let corpus = full_corpus();
        let fault = &corpus[idx];
        let report = fault.report(id);
        prop_assert!(report.passes_selection());
        prop_assert_eq!(report.app, fault.app());
        prop_assert_eq!(report.id, id);
        prop_assert!(!report.how_to_repeat.is_empty());
    }
}
