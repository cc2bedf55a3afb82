//! Property tests for the taxonomy, extractor, and classifier.

use faultstudy_core::classify::{Classifier, RecoveryAssumptions};
use faultstudy_core::evidence::Evidence;
use faultstudy_core::lexicon::conditions_in;
use faultstudy_core::report::{BugReport, YearMonth};
use faultstudy_core::study::{ClassifiedFault, Study};
use faultstudy_core::taxonomy::{AppKind, FaultClass, Severity};
use faultstudy_env::condition::ConditionKind;
use proptest::prelude::*;

fn condition_strategy() -> impl Strategy<Value = ConditionKind> {
    prop::sample::select(ConditionKind::ALL.to_vec())
}

fn app_strategy() -> impl Strategy<Value = AppKind> {
    prop::sample::select(AppKind::ALL.to_vec())
}

fn class_strategy() -> impl Strategy<Value = FaultClass> {
    prop::sample::select(FaultClass::ALL.to_vec())
}

proptest! {
    /// Lexicon extraction is total, sorted, and deduplicated for any text.
    #[test]
    fn lexicon_output_is_canonical(text in ".{0,200}") {
        let found = conditions_in(&text);
        let mut canonical = found.clone();
        canonical.sort_unstable();
        canonical.dedup();
        prop_assert_eq!(found, canonical);
    }

    /// Extraction is case-insensitive.
    #[test]
    fn extraction_ignores_case(cond in condition_strategy()) {
        // Build a sentence from the condition's canonical trigger phrase.
        let phrase = match cond {
            ConditionKind::ResourceLeak => "an unknown resource leak",
            ConditionKind::FdExhaustion => "lack of file descriptors",
            ConditionKind::DiskCacheFull => "the disk cache gets full",
            ConditionKind::MaxFileSize => "greater than the maximum allowed file size",
            ConditionKind::FileSystemFull => "a full file system",
            ConditionKind::NetworkResourceExhausted => "network resource exhausted",
            ConditionKind::HardwareRemoved => "the pcmcia card",
            ConditionKind::HostnameChanged => "hostname was changed",
            ConditionKind::CorruptFileMetadata => "illegal value in the owner field",
            ConditionKind::ReverseDnsMissing => "reverse dns is not configured",
            ConditionKind::ProcessTableFull => "slots in the process table",
            ConditionKind::PortsHeldByChildren => "hung children hold ports",
            ConditionKind::DnsError => "dns returns an error",
            ConditionKind::DnsSlow => "slow dns response",
            ConditionKind::NetworkSlow => "slow network connection",
            ConditionKind::EntropyExhausted => "not enough entropy",
            ConditionKind::WorkloadTiming => "the user presses stop",
            ConditionKind::RaceCondition => "a race condition",
            ConditionKind::UnknownTransient => "works on a retry",
            // ConditionKind is non_exhaustive; future variants would need
            // their own phrase.
            _ => "a race condition",
        };
        let lower = conditions_in(&phrase.to_lowercase());
        let upper = conditions_in(&phrase.to_uppercase());
        prop_assert_eq!(&lower, &upper);
        prop_assert!(lower.contains(&cond), "{} not found in {:?}", cond, lower);
    }

    /// Classification never panics on arbitrary report text and always
    /// returns one of the three classes with a non-empty rationale.
    #[test]
    fn classifier_is_total_on_arbitrary_text(
        title in ".{0,80}",
        body in ".{0,200}",
        severity in prop::sample::select(vec![
            Severity::Trivial, Severity::Minor, Severity::Major,
            Severity::Severe, Severity::Critical,
        ])
    ) {
        let report = BugReport::builder(AppKind::Apache, 1)
            .title(title)
            .body(body)
            .severity(severity)
            .build();
        let verdict = Classifier::default().classify_report(&report);
        prop_assert!(FaultClass::ALL.contains(&verdict.class));
        prop_assert!(!verdict.rationale.is_empty());
    }

    /// More generous recovery assumptions never move a fault *toward*
    /// nontransient: the transient set grows monotonically.
    #[test]
    fn assumptions_are_monotone(conds in prop::collection::vec(condition_strategy(), 1..4)) {
        let base = Classifier::default();
        let generous = Classifier::with_assumptions(RecoveryAssumptions {
            storage_auto_grows: true,
            resources_garbage_collected: true,
        });
        let ev = Evidence::of_conditions(conds);
        let base_class = base.classify_evidence(&ev).class;
        let generous_class = generous.classify_evidence(&ev).class;
        if base_class == FaultClass::EnvDependentTransient {
            prop_assert_eq!(generous_class, FaultClass::EnvDependentTransient);
        }
        prop_assert_ne!(generous_class, FaultClass::EnvironmentIndependent);
    }

    /// Study aggregation is invariant under permutation of the fault list
    /// and counts every fault exactly once.
    #[test]
    fn study_is_permutation_invariant(
        spec in prop::collection::vec((app_strategy(), class_strategy()), 0..60),
        seed in any::<u64>()
    ) {
        let faults: Vec<ClassifiedFault> = spec
            .iter()
            .map(|(app, class)| ClassifiedFault {
                app: *app,
                class: *class,
                release_idx: 0,
                release: "r",
                filed: YearMonth::new(1999, 1),
            })
            .collect();
        let forward = Study::from_faults(faults.clone());
        let mut shuffled = faults;
        // Deterministic Fisher-Yates from the seed.
        let mut state = seed | 1;
        for i in (1..shuffled.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            shuffled.swap(i, j);
        }
        let backward = Study::from_faults(shuffled);
        prop_assert_eq!(forward.total(), spec.len() as u32);
        for app in AppKind::ALL {
            prop_assert_eq!(forward.table(app), backward.table(app));
        }
        let combined = forward.combined();
        prop_assert_eq!(
            combined.total(),
            AppKind::ALL.iter().map(|a| forward.table(*a).total()).sum::<u32>()
        );
    }

    /// Discussion percentages always sum consistently with the counts.
    #[test]
    fn discussion_percentages_are_coherent(
        spec in prop::collection::vec((app_strategy(), class_strategy()), 1..60)
    ) {
        let faults: Vec<ClassifiedFault> = spec
            .iter()
            .map(|(app, class)| ClassifiedFault {
                app: *app,
                class: *class,
                release_idx: 0,
                release: "r",
                filed: YearMonth::new(1999, 1),
            })
            .collect();
        let study = Study::from_faults(faults);
        let d = study.discussion();
        prop_assert!(d.nontransient.1 >= 0.0 && d.nontransient.1 <= 100.0);
        prop_assert!(d.transient.1 >= 0.0 && d.transient.1 <= 100.0);
        prop_assert!(d.independent_range.0 <= d.independent_range.1);
        let recomputed = f64::from(study.combined().nontransient) * 100.0 / f64::from(d.total);
        prop_assert!((d.nontransient.1 - recomputed).abs() < 1e-9);
    }

    /// YearMonth arithmetic: plus_months then index difference agrees.
    #[test]
    fn year_month_arithmetic(y in 1990u16..2030, m in 1u8..13, add in 0u32..200) {
        let start = YearMonth::new(y, m);
        let end = start.plus_months(add);
        prop_assert_eq!(end.index() - start.index(), add);
        prop_assert!((1..=12).contains(&end.month));
    }
}
