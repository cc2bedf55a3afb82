//! Injection never panics. A fault whose environmental precondition the
//! environment cannot take, because an earlier injection or other load
//! filled the disk or the process table, returns an `InjectError`, and
//! neither the application nor the environment changes: the defect stays
//! unarmed.

use faultstudy_apps::{spawn_app, Application, InjectError};
use faultstudy_core::taxonomy::AppKind;
use faultstudy_corpus::corpus_for;
use faultstudy_env::Environment;

/// The environment a campaign experiment injects into.
fn fresh_env() -> Environment {
    Environment::builder()
        .seed(2000)
        .fd_limit(16)
        .proc_slots(8)
        .fs_capacity(256 * 1024)
        .max_file_size(64 * 1024)
        .build()
}

/// Injects `slug`, and checks that a refused injection changed nothing.
fn inject(app: &mut dyn Application, slug: &str, env: &mut Environment) -> Result<(), InjectError> {
    let (app_before, env_before) = (app.snapshot(), format!("{env:?}"));
    let result = app.inject(slug, env);
    if let Err(e) = &result {
        assert_eq!(e.slug, slug);
        assert_eq!(app.snapshot(), app_before, "refusing {slug} changed the application");
        assert_eq!(format!("{env:?}"), env_before, "refusing {slug} changed the environment");
    }
    result
}

#[test]
fn every_ordered_pair_of_an_applications_faults_injects_without_a_panic() {
    let mut refused = Vec::new();
    for app in AppKind::ALL {
        let faults = corpus_for(app);
        for first in &faults {
            for second in &faults {
                let mut env = fresh_env();
                let mut a = spawn_app(app, &mut env);
                inject(a.as_mut(), first.slug(), &mut env)
                    .expect("a fresh environment takes every fault of its application");
                if inject(a.as_mut(), second.slug(), &mut env).is_err() {
                    refused.push((first.slug(), second.slug()));
                }
            }
        }
    }
    assert_eq!(
        refused,
        [
            // Hung children fill the process table.
            ("apache-edt-02", "apache-edt-04"),
            // A full disk leaves no room to grow the access log.
            ("apache-edn-03", "apache-edn-04"),
            ("apache-edn-05", "apache-edn-04"),
            // A full disk leaves no room to grow the data file.
            ("mysql-edn-04", "mysql-edn-03"),
        ]
    );
}

#[test]
fn every_fault_injects_without_a_panic_into_a_full_disk_and_process_table() {
    let mut refused = Vec::new();
    for app in AppKind::ALL {
        for fault in corpus_for(app) {
            let mut env = fresh_env();
            let mut a = spawn_app(app, &mut env);
            env.fs.fill_with_ballast();
            let other = env.register_owner();
            while env.procs.spawn(other).is_ok() {}
            if inject(a.as_mut(), fault.slug(), &mut env).is_err() {
                refused.push(fault.slug());
            }
        }
    }
    assert_eq!(refused, ["apache-edn-04", "apache-edt-04", "gnome-edn-03", "mysql-edn-03"]);
}
