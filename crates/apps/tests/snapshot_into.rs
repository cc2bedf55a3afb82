//! A checkpoint refreshed in place is the checkpoint a fresh snapshot takes.
//!
//! Checkpoint strategies keep one checkpoint and refresh it with
//! `snapshot_into` after every served request, where they used to replace
//! it with a new `snapshot`. Two identical worlds run the same arbitrary
//! steps here: mix and trigger requests, armed defects, at most one
//! injected defect (whose precondition may change the environment, e.g.
//! rename the host), cold starts, checkpoints and restores. The refreshed
//! world keeps one checkpoint and refreshes it; it starts out stale (empty,
//! another application's, or one from another instance of the same
//! application). The fresh world takes a new snapshot at each checkpoint. Each refresh must equal the fresh
//! snapshot, and both worlds must answer every request alike and hold
//! equal state after every step, restores included.

use faultstudy_apps::{spawn_app, AppState, Application, Request};
use faultstudy_core::taxonomy::AppKind;
use faultstudy_env::Environment;
use proptest::prelude::*;

/// Requests that reach every part of each application's state: counters,
/// leaks, keep-alive, tables and locks, descriptors and processes.
fn mix(kind: AppKind) -> &'static [&'static str] {
    match kind {
        AppKind::Apache => &[
            "GET /index.html",
            "GET /file",
            "AUTH admin",
            "RESOLVE remote.example",
            "SSL",
            "BIND",
            "HUP",
            "SPAWN",
            "KEEPALIVE 4",
            "PROBE console",
        ],
        AppKind::Mysql => &[
            "CREATE TABLE t (k, v)",
            "INSERT INTO t VALUES (1, 10)",
            "UPDATE t SET v = 11 WHERE k = 1",
            "DELETE FROM t WHERE k = 1",
            "SELECT COUNT(*) FROM t",
            "LOCK TABLES t",
            "UNLOCK TABLES",
            "FLUSH TABLES",
            "PING",
            "CONNECT",
        ],
        AppKind::Gnome => &[
            "CLICK clock",
            "CLICK desktop-background",
            "OPEN desktop/readme.txt",
            "OPEN-DISPLAY",
            "PLAY-SOUND",
            "LAUNCH",
            "FORMULA (1+2)",
        ],
    }
}

/// The corpus slugs of `kind`'s faults.
fn slugs(kind: AppKind) -> Vec<&'static str> {
    faultstudy_corpus::full_corpus()
        .iter()
        .filter(|fault| fault.app() == kind)
        .map(|fault| fault.slug())
        .collect()
}

fn env(seed: u64) -> Environment {
    Environment::builder().seed(seed).fd_limit(64).proc_slots(32).fs_capacity(1 << 22).build()
}

/// One application in its own environment, with the checkpoint it keeps.
struct World {
    env: Environment,
    app: Box<dyn Application>,
    checkpoint: AppState,
}

impl World {
    fn new(kind: AppKind, seed: u64, checkpoint: AppState) -> World {
        let mut env = env(seed);
        let app = spawn_app(kind, &mut env);
        World { env, app, checkpoint }
    }
}

/// The stale checkpoint the refreshed world starts with: `Stateless`, a
/// checkpoint of `other`, or one of another instance of `kind`, booted on
/// another host, that armed a defect and served a few requests.
fn stale(choice: u8, kind: AppKind, other: AppKind, seed: u64) -> AppState {
    match choice {
        0 => AppState::default(),
        1 => {
            let mut env = env(seed ^ 1);
            spawn_app(other, &mut env).snapshot()
        }
        _ => {
            let mut env = env(seed ^ 2);
            env.host.set_hostname("elsewhere");
            let mut app = spawn_app(kind, &mut env);
            let _ = app.arm_defect(slugs(kind)[0]);
            for body in mix(kind) {
                let _ = app.handle(&Request::new(*body), &mut env);
            }
            app.snapshot()
        }
    }
}

proptest! {
    #[test]
    fn a_refreshed_checkpoint_is_a_fresh_snapshot(
        kind in prop::sample::select(AppKind::ALL.to_vec()),
        other in prop::sample::select(AppKind::ALL.to_vec()),
        choice in 0u8..3,
        steps in prop::collection::vec((0u8..9, 0usize..64), 1..60),
        seed in any::<u64>()
    ) {
        let (mix, slugs) = (mix(kind), slugs(kind));
        let mut refreshed = World::new(kind, seed, stale(choice, kind, other, seed));
        let mut fresh = World::new(kind, seed, AppState::default());
        let (mut injected, mut checkpointed) = (false, false);
        for (i, &(step, pick)) in steps.iter().enumerate() {
            let what = format!("{kind:?}, stale {choice} ({other:?}), step {i} of {steps:?}");
            match step {
                0..=2 => {
                    let req = Request::new(mix[pick % mix.len()]);
                    let a = refreshed.app.handle(&req, &mut refreshed.env);
                    let b = fresh.app.handle(&req, &mut fresh.env);
                    prop_assert_eq!(a, b, "{}", what);
                }
                3 => {
                    let slug = slugs[pick % slugs.len()];
                    let req = fresh.app.trigger_request(slug).expect("every fault has a trigger");
                    let a = refreshed.app.handle(&req, &mut refreshed.env);
                    let b = fresh.app.handle(&req, &mut fresh.env);
                    prop_assert_eq!(a, b, "{}", what);
                }
                4 => {
                    let slug = slugs[pick % slugs.len()];
                    prop_assert_eq!(
                        refreshed.app.arm_defect(slug),
                        fresh.app.arm_defect(slug),
                        "{}",
                        what
                    );
                }
                // An injection sets up its fault's precondition in a fresh
                // environment, so a unit injects once.
                5 if !injected => {
                    injected = true;
                    let slug = slugs[pick % slugs.len()];
                    prop_assert_eq!(
                        refreshed.app.inject(slug, &mut refreshed.env),
                        fresh.app.inject(slug, &mut fresh.env),
                        "{}",
                        what
                    );
                }
                6 => {
                    refreshed.app.cold_start(&mut refreshed.env);
                    fresh.app.cold_start(&mut fresh.env);
                }
                7 => {
                    refreshed.app.snapshot_into(&mut refreshed.checkpoint);
                    fresh.checkpoint = fresh.app.snapshot();
                    prop_assert_eq!(&refreshed.checkpoint, &fresh.checkpoint, "{}", what);
                    prop_assert_eq!(
                        &refreshed.checkpoint,
                        &refreshed.app.snapshot(),
                        "{}",
                        what
                    );
                    checkpointed = true;
                }
                8 if checkpointed => {
                    refreshed.app.restore(&refreshed.checkpoint);
                    fresh.app.restore(&fresh.checkpoint);
                }
                _ => {}
            }
            prop_assert_eq!(refreshed.app.snapshot(), fresh.app.snapshot(), "{}", what);
        }
    }
}
