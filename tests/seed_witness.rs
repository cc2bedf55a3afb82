//! The environment's seed witness over the whole corpus: the paper's
//! determinism claim measured per run instead of assumed.
//!
//! A run whose environment read no seed (a blind `ReadLog`) would have
//! executed identically under every seed, and the sampled campaign reuses
//! such a run's outcome for every later sample of its `(fault, strategy)`
//! pair. A run whose every read decided a race (a complete `ReadLog`) is
//! the same under every seed that decides its races alike, and the
//! campaign reuses its outcome along that decision path (`DecisionMemo`).
//! This suite runs every pair at several seeds, plain and instrumented,
//! and checks that:
//!
//! - each pair's verdict (seed-blind or seed-reading) is the same at
//!   every seed and with metrics on or off, and no run's log is
//!   incomplete;
//! - a seed-blind pair's outcome and registry are the same at every seed;
//! - the seed-reading pairs are exactly the four race faults under every
//!   strategy, so every environment-independent and nontransient pair is
//!   seed-blind;
//! - a race pair's memo answers every seed with the outcome a run at that
//!   seed proves, and ends with one decision path per retry that can end
//!   the race plus one that exhausts the budget.

use faultstudy::core::taxonomy::FaultClass;
use faultstudy::corpus::{find, full_corpus};
use faultstudy::harness::experiment::{build_workload, run_prepared, StrategyKind};
use faultstudy::harness::memo::DecisionMemo;
use faultstudy::sim::rng::split_seed;
use std::collections::BTreeSet;

/// Environment seeds every pair runs at.
const SEEDS: [u64; 5] = [0, 7, 2000, 0x9e37_79b9_7f4a_7c15, u64::MAX];

/// The faults whose trigger runs a race gadget under the environment's
/// interleaving.
const RACE_FAULTS: [&str; 4] = ["gnome-edt-02", "gnome-edt-03", "mysql-edt-01", "mysql-edt-02"];

/// Each strategy's retry budget, as `StrategyKind::build` configures it.
const RETRY_BUDGETS: [(StrategyKind, usize); 7] = [
    (StrategyKind::None, 0),
    (StrategyKind::Restart, 3),
    (StrategyKind::ProcessPair, 3),
    (StrategyKind::Rollback, 3),
    (StrategyKind::Progressive, 5),
    (StrategyKind::Rejuvenation, 3),
    (StrategyKind::AppSpecific, 3),
];

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
            let observed = !plain.2.is_blind();
            for seed in SEEDS {
                for (metrics, reference) in [(false, &plain), (true, &instrumented)] {
                    let (out, registry, reads) =
                        run_prepared(fault, strategy, seed, &workload, metrics);
                    assert!(reads.is_complete(), "{pair}: a read went unlogged at seed {seed}");
                    let verdict = !reads.is_blind();
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

/// Every race pair at 256 environment seeds: a memo fed each run it
/// cannot answer answers every seed with the outcome a run there proves,
/// and ends with the retry budget plus one leaves. The first read sees
/// the seed injection forces, so it crashes at every seed; each retry
/// then survives or crashes the race, and the last one that crashes
/// exhausts the budget.
#[test]
fn a_race_pairs_memo_answers_as_its_runs_do() {
    let seeds: Vec<u64> = (0..256).map(|i| split_seed(0x5eed, i)).collect();
    let mut leaves = 0;
    for slug in RACE_FAULTS {
        let fault = find(slug).expect("a corpus fault");
        let workload = build_workload(&fault);
        for (strategy, budget) in RETRY_BUDGETS {
            let pair = format!("{slug}/{}", strategy.name());
            let memo = DecisionMemo::default();
            for &seed in &seeds {
                let (out, _, reads) = run_prepared(&fault, strategy, seed, &workload, false);
                assert!(reads.is_complete(), "{pair}: a read went unlogged at seed {seed}");
                assert!(reads.reads().count() <= budget + 1, "{pair}: seed {seed}");
                if memo.lookup(seed).is_none() {
                    memo.insert(&reads, out);
                }
                assert_eq!(memo.lookup(seed), Some(out), "{pair}: seed {seed}");
            }
            assert_eq!(memo.leaves(), budget + 1, "{pair}");
            leaves += memo.leaves();
        }
    }
    assert_eq!(leaves, 108, "108 leaves over the 28 race pairs");
}
