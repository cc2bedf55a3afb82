//! The curated 139-fault corpus of the DSN 2000 fault study, plus a
//! synthetic bug-population generator for exercising the mining pipeline.
//!
//! The corpus encodes every fault the paper reports: 50 for Apache
//! (Table 1), 45 for GNOME (Table 2), and 44 for MySQL (Table 3). All 26
//! environment-dependent faults carry the paper's own trigger descriptions;
//! the environment-independent faults include the paper's named examples
//! and plausible reconstructions for the remainder (the counts, classes,
//! releases, and dates are what the study's results depend on, and those
//! match the paper exactly — see `DESIGN.md` for the substitution note).
//!
//! # Example
//!
//! ```
//! use faultstudy_corpus::{corpus_for, full_corpus, paper_study};
//! use faultstudy_core::taxonomy::AppKind;
//!
//! assert_eq!(full_corpus().len(), 139);
//! assert_eq!(corpus_for(AppKind::Apache).len(), 50);
//! let study = paper_study();
//! assert_eq!(study.table(AppKind::Mysql).independent, 38);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod apache;
pub mod fault;
mod gnome;
mod mysql;
pub mod synthetic;

pub use fault::CuratedFault;
pub use synthetic::{PopulationSpec, SyntheticPopulation};

use faultstudy_core::study::Study;
use faultstudy_core::taxonomy::AppKind;

/// Every fault of the study, Apache first, then GNOME, then MySQL.
pub fn full_corpus() -> Vec<CuratedFault> {
    AppKind::ALL.map(table).concat()
}

/// The faults of one application, in corpus order.
pub fn corpus_for(app: AppKind) -> Vec<CuratedFault> {
    table(app).to_vec()
}

/// Looks up a fault by its stable slug (e.g. `"apache-edt-02"`).
pub fn find(slug: &str) -> Option<CuratedFault> {
    AppKind::ALL.iter().flat_map(|&app| table(app)).find(|f| f.slug() == slug).copied()
}

/// The static table of one application's faults.
fn table(app: AppKind) -> &'static [CuratedFault] {
    match app {
        AppKind::Apache => apache::ENTRIES,
        AppKind::Gnome => gnome::ENTRIES,
        AppKind::Mysql => mysql::ENTRIES,
    }
}

/// The release labels of one application, oldest first.
pub fn releases_of(app: AppKind) -> &'static [&'static str] {
    match app {
        AppKind::Apache => apache::RELEASES,
        AppKind::Gnome => gnome::RELEASES,
        AppKind::Mysql => mysql::RELEASES,
    }
}

/// The whole corpus aggregated into a [`Study`] — the input to Tables 1–3,
/// the §5.4 discussion, and Figures 1–3.
pub fn paper_study() -> Study {
    Study::from_faults(full_corpus().iter().map(CuratedFault::as_classified))
}

#[cfg(test)]
mod tests {
    use super::*;
    use faultstudy_core::taxonomy::FaultClass;

    #[test]
    fn corpus_has_exactly_the_paper_counts() {
        let study = paper_study();
        assert_eq!(study.total(), 139);
        let t1 = study.table(AppKind::Apache);
        assert_eq!((t1.independent, t1.nontransient, t1.transient), (36, 7, 7));
        let t2 = study.table(AppKind::Gnome);
        assert_eq!((t2.independent, t2.nontransient, t2.transient), (39, 3, 3));
        let t3 = study.table(AppKind::Mysql);
        assert_eq!((t3.independent, t3.nontransient, t3.transient), (38, 4, 2));
    }

    #[test]
    fn discussion_numbers_match_section_5_4() {
        let d = paper_study().discussion();
        assert_eq!(d.total, 139);
        assert_eq!(d.nontransient.0, 14);
        assert_eq!(d.transient.0, 12);
        assert!(d.independent_range.0 >= 72.0 && d.independent_range.0 < 73.0);
        assert!(d.independent_range.1 > 86.0 && d.independent_range.1 <= 87.0);
    }

    #[test]
    fn find_locates_known_slugs() {
        let f = find("apache-edt-07").expect("entropy fault exists");
        assert_eq!(f.app(), AppKind::Apache);
        assert_eq!(f.class(), FaultClass::EnvDependentTransient);
        assert!(find("no-such-slug").is_none());
    }

    #[test]
    fn slugs_are_globally_unique() {
        let corpus = full_corpus();
        let mut slugs: Vec<&str> = corpus.iter().map(|f| f.slug()).collect();
        slugs.sort_unstable();
        slugs.dedup();
        assert_eq!(slugs.len(), 139);
    }

    #[test]
    fn every_environment_dependent_fault_names_its_trigger() {
        for f in full_corpus() {
            match f.class() {
                FaultClass::EnvironmentIndependent => assert!(f.trigger().is_none(), "{f}"),
                _ => assert!(f.trigger().is_some(), "{f}"),
            }
        }
    }

    #[test]
    fn releases_of_matches_corpus_labels() {
        for app in AppKind::ALL {
            let labels = releases_of(app);
            for f in corpus_for(app) {
                assert!(labels.contains(&f.release()), "{f}");
            }
        }
    }
}
