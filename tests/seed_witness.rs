//! The environment's seed witness over the whole corpus: the paper's
//! determinism claim measured per run instead of assumed.
//!
//! A run whose environment never read its seed (`seed_observed()` false)
//! would have executed identically under every seed, and the sampled
//! campaign reuses such a run's outcome for every later sample of its
//! `(fault, strategy)` pair. This suite runs every pair at several seeds,
//! plain and instrumented, and checks that:
//!
//! - each pair's verdict (seed-blind or seed-reading) is the same at
//!   every seed and with metrics on or off;
//! - a seed-blind pair's outcome and registry are the same at every seed;
//! - the seed-reading pairs are exactly the four race faults under every
//!   strategy, so every environment-independent and nontransient pair is
//!   seed-blind.

use faultstudy::core::taxonomy::FaultClass;
use faultstudy::corpus::full_corpus;
use faultstudy::harness::experiment::{build_workload, run_prepared, StrategyKind};
use std::collections::BTreeSet;

/// Environment seeds every pair runs at.
const SEEDS: [u64; 5] = [0, 7, 2000, 0x9e37_79b9_7f4a_7c15, u64::MAX];

/// The faults whose trigger runs a race gadget under the environment's
/// interleaving.
const RACE_FAULTS: [&str; 4] = ["gnome-edt-02", "gnome-edt-03", "mysql-edt-01", "mysql-edt-02"];

#[test]
fn only_the_race_faults_read_the_environment_seed() {
    let corpus = full_corpus();
    let mut seed_reading = BTreeSet::new();
    let mut blind_by_class = [0; FaultClass::ALL.len()];
    let mut pairs = 0;
    for fault in &corpus {
        let workload = build_workload(fault);
        for strategy in StrategyKind::ALL {
            pairs += 1;
            let pair = format!("{}/{}", fault.slug(), strategy.name());
            let plain = run_prepared(fault, strategy, SEEDS[0], &workload, false);
            let instrumented = run_prepared(fault, strategy, SEEDS[0], &workload, true);
            let observed = plain.2;
            for seed in SEEDS {
                for (metrics, reference) in [(false, &plain), (true, &instrumented)] {
                    let (out, registry, verdict) =
                        run_prepared(fault, strategy, seed, &workload, metrics);
                    assert_eq!(verdict, observed, "{pair}: the verdict moved at seed {seed}");
                    if !observed {
                        assert_eq!(out, reference.0, "{pair}: outcome at seed {seed}");
                        assert_eq!(registry, reference.1, "{pair}: registry at seed {seed}");
                    }
                }
            }
            if observed {
                seed_reading.insert((fault.slug().to_owned(), strategy));
            } else {
                blind_by_class[fault.class() as usize] += 1;
            }
        }
    }

    let expected: BTreeSet<_> = RACE_FAULTS
        .iter()
        .flat_map(|&slug| StrategyKind::ALL.map(|strategy| (slug.to_owned(), strategy)))
        .collect();
    assert_eq!(seed_reading, expected, "the seed-reading pairs are the race faults' pairs");
    assert_eq!(pairs, 973);
    assert_eq!(pairs - seed_reading.len(), 945, "seed-blind pairs");

    let class_pairs = |class: FaultClass| {
        corpus.iter().filter(|f| f.class() == class).count() * StrategyKind::ALL.len()
    };
    for class in [FaultClass::EnvironmentIndependent, FaultClass::EnvDependentNonTransient] {
        assert_eq!(blind_by_class[class as usize], class_pairs(class), "{class}: every pair blind");
    }
    let transient = FaultClass::EnvDependentTransient;
    assert_eq!(blind_by_class[transient as usize], class_pairs(transient) - expected.len());
}
