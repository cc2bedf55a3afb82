//! Property tests for the simulated applications.

use faultstudy_apps::{spawn_app, Application, MiniDb, MiniWeb, Request, Response};
use faultstudy_core::taxonomy::AppKind;
use faultstudy_env::Environment;
use proptest::prelude::*;

fn app_strategy() -> impl Strategy<Value = AppKind> {
    prop::sample::select(AppKind::ALL.to_vec())
}

fn big_env(seed: u64) -> Environment {
    Environment::builder().seed(seed).fd_limit(64).proc_slots(32).fs_capacity(1 << 22).build()
}

proptest! {
    /// Applications never panic on arbitrary request bodies: unknown input
    /// is denied gracefully, not crashed on (C-VALIDATE).
    #[test]
    fn apps_are_total_over_arbitrary_requests(
        kind in app_strategy(),
        bodies in prop::collection::vec(".{0,60}", 1..30),
        seed in any::<u64>()
    ) {
        let mut env = big_env(seed);
        let mut app = spawn_app(kind, &mut env);
        for body in bodies {
            // A healthy app without injected faults must never return an
            // AppFailure, whatever the request text.
            let result = app.handle(&Request::new(body.clone()), &mut env);
            prop_assert!(result.is_ok(), "{kind}: {body:?} -> {result:?}");
        }
    }

    /// Snapshot/restore round-trips through arbitrary benign traffic.
    #[test]
    fn snapshot_restore_is_identity(
        kind in app_strategy(),
        before in 0usize..20,
        after in 1usize..20,
        seed in any::<u64>()
    ) {
        let mut env = big_env(seed);
        let mut app = spawn_app(kind, &mut env);
        let benign = app.benign_request();
        for _ in 0..before {
            app.handle(&benign, &mut env).expect("benign requests succeed");
        }
        let snapshot = app.snapshot();
        for _ in 0..after {
            app.handle(&benign, &mut env).expect("benign requests succeed");
        }
        app.restore(&snapshot);
        prop_assert_eq!(app.snapshot(), snapshot);
    }

    /// A healthy application under arbitrary benign traffic never violates
    /// its own correctness oracle: the oracle only fires on genuinely
    /// corrupted state, never on normal operation.
    #[test]
    fn healthy_apps_never_violate_their_oracle(
        kind in app_strategy(),
        n in 0usize..25,
        seed in any::<u64>()
    ) {
        let mut env = big_env(seed);
        let mut app = spawn_app(kind, &mut env);
        prop_assert!(app.check_oracle(&env).is_empty(), "{kind}: dirty at boot");
        let benign = app.benign_request();
        for _ in 0..n {
            app.handle(&benign, &mut env).expect("benign requests succeed");
            let violations = app.check_oracle(&env);
            prop_assert!(violations.is_empty(), "{kind}: {violations:?}");
        }
    }

    /// Injecting any corpus fault leaves the benign request path working:
    /// latent defects do not break unrelated traffic. (Faults whose
    /// environmental precondition affects shared resources — disk, fds —
    /// are exempt by nature; this checks the others.)
    #[test]
    fn latent_faults_do_not_disturb_benign_traffic(seed in any::<u64>()) {
        for fault in faultstudy_corpus::full_corpus() {
            // Skip faults whose precondition degrades shared state.
            let shared_precondition = matches!(
                fault.trigger(),
                Some(
                    faultstudy_env::ConditionKind::FileSystemFull
                        | faultstudy_env::ConditionKind::DiskCacheFull
                        | faultstudy_env::ConditionKind::FdExhaustion
                        | faultstudy_env::ConditionKind::MaxFileSize
                )
            );
            if shared_precondition {
                continue;
            }
            let mut env = big_env(seed);
            let mut app = spawn_app(fault.app(), &mut env);
            app.inject(fault.slug(), &mut env).expect("injectable");
            let benign = app.benign_request();
            let result = app.handle(&benign, &mut env);
            prop_assert!(result.is_ok(), "{}: benign failed {result:?}", fault.slug());
        }
    }

    /// MiniDb SELECT is read-only: any sequence of selects leaves the
    /// snapshot unchanged.
    #[test]
    fn selects_are_read_only(
        queries in prop::collection::vec(0u8..4, 1..15),
        seed in any::<u64>()
    ) {
        let mut env = big_env(seed);
        let mut db = MiniDb::new(&mut env);
        db.handle(&Request::new("CREATE TABLE t (k, v)"), &mut env).unwrap();
        db.handle(&Request::new("INSERT INTO t VALUES (1, 10)"), &mut env).unwrap();
        let snapshot = db.snapshot();
        for q in queries {
            let sql = match q {
                0 => "SELECT * FROM t",
                1 => "SELECT COUNT(*) FROM t",
                2 => "SELECT * FROM t WHERE k = 1",
                _ => "SELECT * FROM t ORDER BY v",
            };
            let resp = db.handle(&Request::new(sql), &mut env).unwrap();
            prop_assert!(resp.is_ok());
        }
        // The table data did not change.
        let now: String = format!("{:?}", db.snapshot());
        let was: String = format!("{:?}", snapshot);
        prop_assert_eq!(
            extract_tables_field(&now),
            extract_tables_field(&was),
            "table data mutated by SELECT"
        );
    }

    /// MiniWeb served counter grows monotonically with successful GETs.
    #[test]
    fn served_counter_is_monotone(paths in prop::collection::vec("[a-z]{1,8}", 1..20)) {
        let mut env = big_env(1);
        let mut web = MiniWeb::new(&mut env);
        let mut last = web.served();
        for p in paths {
            let resp = web.handle(&Request::new(format!("GET /{p}")), &mut env).unwrap();
            prop_assert!(matches!(resp, Response::Ok(_)));
            prop_assert!(web.served() > last);
            last = web.served();
        }
    }
}

/// Pulls the "tables" portion out of a debug-printed AppState; crude but
/// sufficient to compare data while ignoring counters.
fn extract_tables_field(s: &str) -> String {
    let start = s.find("tables").unwrap_or(0);
    let end = s.find("locked").unwrap_or(s.len());
    s[start..end].to_owned()
}
