//! Checkpoints are values: state changed after a snapshot never reaches it.
//!
//! A checkpoint shares the parts of application state that stay fixed for
//! a whole unit (the armed defects, the desktop's boot hostname) with the
//! application that took it. These tests pin that the sharing is invisible:
//! arming a defect or cold-starting after a snapshot leaves the checkpoint
//! as it was, and restoring it undoes the change.

use faultstudy_apps::{Application, MiniDb, MiniDe, MiniWeb};
use faultstudy_env::Environment;

fn env() -> Environment {
    Environment::builder().seed(5).build()
}

#[test]
fn arming_a_defect_leaves_an_earlier_checkpoint_disarmed() {
    let mut env = env();
    let mut web = MiniWeb::new(&mut env);
    web.arm_defect("apache-ei-02").expect("MiniWeb knows its own defect");
    let checkpoint = web.snapshot();
    let taken = format!("{checkpoint:?}");

    let trigger = web.trigger_request("apache-ei-03").expect("MiniWeb knows its own defect");
    assert!(web.handle(&trigger, &mut env).is_ok(), "a disarmed trigger is served");
    web.arm_defect("apache-ei-03").expect("MiniWeb knows its own defect");
    assert!(web.handle(&trigger, &mut env).is_err(), "the armed defect fires");
    assert_eq!(format!("{checkpoint:?}"), taken, "arming a defect changed the checkpoint");

    web.restore(&checkpoint);
    assert!(web.handle(&trigger, &mut env).is_ok(), "restoring the checkpoint disarms it");
    let older = web.trigger_request("apache-ei-02").expect("MiniWeb knows its own defect");
    assert!(web.handle(&older, &mut env).is_err(), "the older defect stays");
}

#[test]
fn injecting_a_defect_leaves_an_earlier_checkpoint_disarmed() {
    let mut env = env();
    let mut db = MiniDb::new(&mut env);
    db.inject("mysql-ei-07", &mut env).expect("MiniDb knows its own defect");
    let checkpoint = db.snapshot();
    let taken = format!("{checkpoint:?}");

    let trigger = db.trigger_request("mysql-ei-08").expect("MiniDb knows its own defect");
    assert!(db.handle(&trigger, &mut env).is_ok(), "a disarmed trigger is served");
    db.inject("mysql-ei-08", &mut env).expect("MiniDb knows its own defect");
    assert!(db.handle(&trigger, &mut env).is_err(), "the injected defect fires");
    assert_eq!(format!("{checkpoint:?}"), taken, "injecting a defect changed the checkpoint");

    db.restore(&checkpoint);
    assert!(db.handle(&trigger, &mut env).is_ok(), "restoring the checkpoint disarms it");
    let older = db.trigger_request("mysql-ei-07").expect("MiniDb knows its own defect");
    assert!(db.handle(&older, &mut env).is_err(), "the older defect stays");
}

#[test]
fn a_cold_start_leaves_an_earlier_checkpoint_on_the_old_hostname() {
    let mut env = env();
    let mut de = MiniDe::new(&mut env);
    // Arming the rename defect renames the host; a cold start rebinds the
    // session to the new name.
    de.inject("gnome-edn-01", &mut env).expect("MiniDe knows its own defect");
    de.cold_start(&mut env);
    let display = de.trigger_request("gnome-edn-01").expect("MiniDe knows its own defect");
    assert!(de.handle(&display, &mut env).is_ok(), "the session is bound to the current name");
    let checkpoint = de.snapshot();
    let taken = format!("{checkpoint:?}");

    env.host.set_hostname("desk2");
    de.cold_start(&mut env);
    assert!(de.handle(&display, &mut env).is_ok(), "the cold start re-read the hostname");
    assert_eq!(format!("{checkpoint:?}"), taken, "a cold start changed the checkpoint");

    de.restore(&checkpoint);
    assert!(de.handle(&display, &mut env).is_err(), "restoring brings back the old boot hostname");
}

#[test]
#[should_panic(expected = "another application's checkpoint")]
fn restoring_another_applications_checkpoint_panics() {
    let mut env = env();
    let db = MiniDb::new(&mut env);
    let mut web = MiniWeb::new(&mut env);
    web.restore(&db.snapshot());
}
