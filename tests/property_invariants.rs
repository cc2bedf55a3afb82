//! Property-based tests on cross-crate invariants.

use faultstudy::core::classify::Classifier;
use faultstudy::core::evidence::Evidence;
use faultstudy::core::taxonomy::FaultClass;
use faultstudy::env::condition::{ConditionKind, Persistence};
use faultstudy::env::fdtable::FdTable;
use faultstudy::env::fs::VirtualFs;
use faultstudy::env::Environment;
use faultstudy::env::OwnerId;
use faultstudy::mining::dedup::{dedup_indices_keyed, normalize_title};
use faultstudy::sim::rng::{DetRng, Xoshiro256StarStar};
use faultstudy_apps::{Application, MiniDb, Request};
use faultstudy_core::report::BugReport;
use faultstudy_core::taxonomy::{AppKind, Severity};
use proptest::prelude::*;

/// The reports the §4 funnel's dedup keeps of `reports`, in its order.
fn dedup(reports: &[BugReport]) -> Vec<BugReport> {
    let norms = reports.iter().map(|r| normalize_title(&r.title)).collect();
    let key = |i: usize| (reports[i].id, reports[i].duplicate_of);
    let kept = dedup_indices_keyed(key, (0..reports.len()).collect(), norms);
    kept.into_iter().map(|i| reports[i].clone()).collect()
}

fn condition_strategy() -> impl Strategy<Value = ConditionKind> {
    prop::sample::select(ConditionKind::ALL.to_vec())
}

proptest! {
    /// The classifier is total and agrees with the normative taxonomy rule
    /// for any non-empty set of named conditions.
    #[test]
    fn classifier_matches_taxonomy_on_condition_sets(
        conds in prop::collection::vec(condition_strategy(), 1..6)
    ) {
        let verdict = Classifier::default()
            .classify_evidence(&Evidence::of_conditions(conds.clone()));
        let any_persists =
            conds.iter().any(|c| c.persistence() == Persistence::Persists);
        let expected = if any_persists {
            FaultClass::EnvDependentNonTransient
        } else {
            FaultClass::EnvDependentTransient
        };
        prop_assert_eq!(verdict.class, expected);
    }

    /// Classification is invariant under permutation and duplication of
    /// the evidence conditions.
    #[test]
    fn classifier_is_order_and_multiplicity_insensitive(
        conds in prop::collection::vec(condition_strategy(), 1..5),
        dup_index in 0usize..5
    ) {
        let classifier = Classifier::default();
        let forward = classifier.classify_evidence(&Evidence::of_conditions(conds.clone()));
        let mut reversed: Vec<_> = conds.clone();
        reversed.reverse();
        if let Some(d) = reversed.get(dup_index % reversed.len()).copied() {
            reversed.push(d);
        }
        let backward = classifier.classify_evidence(&Evidence::of_conditions(reversed));
        prop_assert_eq!(forward.class, backward.class);
        prop_assert_eq!(forward.conditions, backward.conditions);
    }

    /// Filesystem accounting: used + free == capacity and used equals the
    /// sum of file sizes, under any sequence of writes/appends/removes.
    #[test]
    fn vfs_accounting_is_exact(
        ops in prop::collection::vec((0u8..3, 0u8..6, 0u64..800), 1..60)
    ) {
        let mut fs = VirtualFs::new(2048, 1024);
        for (op, file, size) in ops {
            let path = format!("f{file}");
            match op {
                0 => { let _ = fs.write(path, size); }
                1 => { let _ = fs.append(path, size); }
                _ => { let _ = fs.remove(&path); }
            }
            let sum: u64 = fs.iter().map(|(_, m)| m.size).sum();
            prop_assert_eq!(fs.used(), sum);
            prop_assert!(fs.used() <= fs.capacity());
            prop_assert_eq!(fs.free() + fs.used(), fs.capacity());
            prop_assert!(fs.iter().all(|(_, m)| m.size <= fs.max_file_size()));
        }
    }

    /// Descriptor table: never exceeds the limit, per-owner counts sum to
    /// the total, under arbitrary open/close traffic.
    #[test]
    fn fd_table_respects_its_limit(
        ops in prop::collection::vec((any::<bool>(), 0u32..4), 1..80)
    ) {
        let mut table = FdTable::new(16);
        let owners = [OwnerId(1), OwnerId(2), OwnerId(3), OwnerId(4)];
        let mut open = Vec::new();
        for (do_open, who) in ops {
            if do_open {
                if let Ok(fd) = table.open(owners[who as usize]) {
                    open.push(fd);
                }
            } else if let Some(fd) = open.pop() {
                prop_assert!(table.close(fd).is_ok());
            }
            prop_assert!(table.in_use() <= table.limit());
            let per_owner: u32 = owners.iter().map(|o| table.held_by(*o)).sum();
            prop_assert_eq!(per_owner, table.in_use());
            prop_assert_eq!(table.in_use() as usize, open.len());
        }
    }

    /// Checkpoint/restore is an exact state round-trip for any workload
    /// prefix of SQL operations.
    #[test]
    fn minidb_checkpoint_roundtrip_is_identity(
        values in prop::collection::vec(0i64..50, 1..12),
        extra in prop::collection::vec(0i64..50, 1..6)
    ) {
        let mut env = Environment::builder().seed(1).fs_capacity(1 << 20).build();
        let mut db = MiniDb::new(&mut env);
        db.handle(&Request::new("CREATE TABLE t (k, v)"), &mut env).unwrap();
        for (i, v) in values.iter().enumerate() {
            let sql = format!("INSERT INTO t VALUES ({i}, {v})");
            db.handle(&Request::new(sql), &mut env).unwrap();
        }
        let snapshot = db.snapshot();
        for (i, v) in extra.iter().enumerate() {
            let sql = format!("INSERT INTO t VALUES ({}, {v})", 100 + i);
            db.handle(&Request::new(sql), &mut env).unwrap();
        }
        db.restore(&snapshot);
        prop_assert_eq!(db.snapshot(), snapshot);
    }

    /// Dedup is idempotent and never invents reports.
    #[test]
    fn dedup_is_idempotent_and_contractive(
        titles in prop::collection::vec("[a-d ]{0,12}", 1..30)
    ) {
        let reports: Vec<BugReport> = titles
            .iter()
            .enumerate()
            .map(|(i, t)| {
                BugReport::builder(AppKind::Apache, i as u64)
                    .title(t.clone())
                    .severity(Severity::Severe)
                    .build()
            })
            .collect();
        let once = dedup(&reports);
        prop_assert!(once.len() <= reports.len());
        let twice = dedup(&once);
        prop_assert_eq!(once, twice);
    }

    /// The deterministic RNG's bounded draw respects its bound.
    #[test]
    fn rng_below_respects_bound(seed in any::<u64>(), bound in 1u64..10_000) {
        let mut rng = Xoshiro256StarStar::seed_from(seed);
        for _ in 0..32 {
            prop_assert!(rng.below(bound) < bound);
        }
    }

    /// Fault classes derived from conditions are never
    /// environment-independent, and `None` always is.
    #[test]
    fn from_condition_partitions_correctly(cond in condition_strategy()) {
        prop_assert_ne!(
            FaultClass::from_condition(Some(cond)),
            FaultClass::EnvironmentIndependent
        );
        prop_assert_eq!(
            FaultClass::from_condition(None),
            FaultClass::EnvironmentIndependent
        );
    }
}
