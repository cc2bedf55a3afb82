//! `MiniDe`: the GNOME-like desktop environment.
//!
//! Models the §5.2 fault families: widget-level deterministic crashes (the
//! five named environment-independent bugs have their own widgets; the
//! rest are `PROBE` defects), the three nontransient triggers (a hostname
//! change captured in running state, file descriptors leaked by sound
//! utilities, a file with an illegal owner field), and the three transient
//! ones (an unknown failure that works on retry, and two races run on the
//! environment's thread interleaving).

use crate::app::{AppFailure, AppState, Application, Checkpoint, InjectError, Request, Response};
use crate::race::RaceGadget;
use crate::text::{Arg, Text};
use faultstudy_core::taxonomy::AppKind;
use faultstudy_env::fs::FsError;
use faultstudy_env::{Environment, OwnerId};
use faultstudy_micro::{ComponentDesc, CrashOnly, StateKind};
use faultstudy_sim::time::Duration;
use std::collections::BTreeSet;
use std::sync::Arc;

/// The checkpointable state of the desktop.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct DeState {
    /// Shared with every checkpoint taken since the last defect was armed.
    enabled_bugs: Arc<BTreeSet<String>>,
    /// The hostname the session started under; X authority and session
    /// files embed it, which is what makes a rename fatal. Shared with
    /// every checkpoint taken since the last cold start.
    boot_hostname: Arc<str>,
}

/// The GNOME-like desktop shell.
///
/// # Example
///
/// ```
/// use faultstudy_apps::{Application, MiniDe, Request};
/// use faultstudy_env::Environment;
///
/// let mut env = Environment::builder().seed(4).build();
/// let mut de = MiniDe::new(&mut env);
/// let resp = de.handle(&Request::new("CLICK clock"), &mut env).unwrap();
/// assert!(resp.is_ok());
/// ```
#[derive(Debug)]
pub struct MiniDe {
    owner: OwnerId,
    state: DeState,
}

impl MiniDe {
    /// Creates the desktop, registering it as a resource owner and
    /// capturing the boot-time hostname into session state.
    pub fn new(env: &mut Environment) -> MiniDe {
        let owner = env.register_owner();
        MiniDe {
            owner,
            state: DeState { boot_hostname: env.host.hostname().into(), ..DeState::default() },
        }
    }

    fn bug(&self, slug: &str) -> bool {
        self.state.enabled_bugs.contains(slug)
    }

    fn ok(&mut self, msg: impl Into<Text>) -> Result<Response, AppFailure> {
        Ok(Response::Ok(msg.into()))
    }

    fn click(&mut self, widget: &str, req: &Request) -> Result<Response, AppFailure> {
        match widget {
            "pager-tasklist-tab" if self.bug("gnome-ei-01") => {
                Err(AppFailure::Crash("pager died on the tasklist settings tab".into()))
            }
            "calendar-prev-year" if self.bug("gnome-ei-02") => Err(AppFailure::Crash(
                "year view assigned a local copy instead of the global".into(),
            )),
            "gnumeric-define-name-tab" if self.bug("gnome-ei-03") => {
                Err(AppFailure::Crash("dialog variable initialized to an incorrect value".into()))
            }
            "desktop-dismiss-menu" if self.bug("gnome-ei-05") => {
                Err(AppFailure::Hang("grab handling deadlocked dismissing the menu".into()))
            }
            _ => self.ok(Text::new("clicked ", Arg::part_of(&req.body, widget), "")),
        }
    }

    fn open_icon(&mut self, path: &str, req: &Request) -> Result<Response, AppFailure> {
        if path.ends_with(".tar.gz") && self.bug("gnome-ei-04") {
            return Err(AppFailure::Crash(
                "gmc: size declared long instead of unsigned long".into(),
            ));
        }
        self.ok(Text::new("opened ", Arg::part_of(&req.body, path), ""))
    }

    fn open_display(&mut self, env: &Environment) -> Result<Response, AppFailure> {
        if env.host.hostname() != &*self.state.boot_hostname && self.bug("gnome-edn-01") {
            return Err(AppFailure::Crash(
                format!(
                    "display authority mismatch: session bound to {} but host is {}",
                    self.state.boot_hostname,
                    env.host.hostname()
                )
                .into(),
            ));
        }
        self.ok("display opened")
    }

    fn play_sound(&mut self, env: &mut Environment) -> Result<Response, AppFailure> {
        match env.fds.open(self.owner) {
            Ok(fd) => {
                let _ = env.fds.close(fd);
                self.ok("sound played")
            }
            Err(_) if self.bug("gnome-edn-02") => Err(AppFailure::Crash(
                "sound server: out of file descriptors (sockets leaked on exit)".into(),
            )),
            Err(_) => Ok(Response::Denied("audio device busy".into())),
        }
    }

    fn edit_properties(
        &mut self,
        path: &str,
        req: &Request,
        env: &Environment,
    ) -> Result<Response, AppFailure> {
        match env.fs.stat_checked(path) {
            Ok(_) => self.ok(format!("properties of {path}")),
            Err(FsError::CorruptMetadata(_)) if self.bug("gnome-edn-03") => {
                Err(AppFailure::Crash(Text::new(
                    "properties dialog crashed on illegal owner field of ",
                    Arg::part_of(&req.body, path),
                    "",
                )))
            }
            Err(e) => Ok(Response::Denied(format!("cannot stat {path}: {e}").into())),
        }
    }

    fn race(
        &mut self,
        slug: &str,
        what: &'static str,
        env: &mut Environment,
    ) -> Result<Response, AppFailure> {
        if !self.bug(slug) {
            return self.ok(Text::new(what, " done", ""));
        }
        match RaceGadget::default().run(env.current_interleaving()) {
            Ok(()) => self.ok(Text::new(what, " done", "")),
            Err(reason) => Err(AppFailure::Crash(Text::new(what, ": ", reason))),
        }
    }
}

impl Application for MiniDe {
    fn kind(&self) -> AppKind {
        AppKind::Gnome
    }

    fn owner(&self) -> OwnerId {
        self.owner
    }

    fn handle(&mut self, req: &Request, env: &mut Environment) -> Result<Response, AppFailure> {
        let body = &*req.body;
        if let Some(slug) = body.strip_prefix("PROBE ") {
            return if self.bug(slug) {
                Err(AppFailure::Crash(Text::new(
                    "deterministic defect ",
                    Arg::part_of(&req.body, slug),
                    " triggered",
                )))
            } else {
                self.ok("probe passed")
            };
        }
        if let Some(widget) = body.strip_prefix("CLICK ") {
            return self.click(widget, req);
        }
        if let Some(path) = body.strip_prefix("OPEN ") {
            return self.open_icon(path, req);
        }
        if let Some(path) = body.strip_prefix("EDIT-PROPS ") {
            return self.edit_properties(path, req, env);
        }
        // gnome-ei-18: gnumeric's recursive-descent formula parser has no
        // depth limit; the healthy build bounds it.
        if let Some(formula) = body.strip_prefix("FORMULA ") {
            let mut depth = 0u32;
            let mut max = 0u32;
            for c in formula.chars() {
                match c {
                    '(' => {
                        depth += 1;
                        max = max.max(depth);
                    }
                    ')' => depth = depth.saturating_sub(1),
                    _ => {}
                }
            }
            if max > 128 {
                if self.bug("gnome-ei-18") {
                    return Err(AppFailure::Crash(
                        "formula parser overran its evaluation stack".into(),
                    ));
                }
                return Ok(Response::Denied("formula too deeply nested".into()));
            }
            return self.ok("formula evaluated");
        }
        match body {
            "OPEN-DISPLAY" => self.open_display(env),
            "PLAY-SOUND" => self.play_sound(env),
            "LAUNCH" => {
                if req.timing_event && self.bug("gnome-edt-01") {
                    Err(AppFailure::Crash(
                        "application failed at startup for no apparent reason".into(),
                    ))
                } else {
                    self.ok("launched")
                }
            }
            "VIEW-AND-EDIT" => self.race("gnome-edt-02", "image view with property edit", env),
            "REMOVE-APPLET" => self.race("gnome-edt-03", "applet removal", env),
            _ => Ok(Response::Denied(Text::new("no such action: ", &req.body, ""))),
        }
    }

    fn snapshot(&self) -> AppState {
        AppState(Checkpoint::De(self.state.clone()))
    }

    fn restore(&mut self, state: &AppState) {
        let Checkpoint::De(saved) = &state.0 else {
            panic!("MiniDe restored another application's checkpoint");
        };
        self.state.clone_from(saved);
    }

    fn inject(&mut self, slug: &str, env: &mut Environment) -> Result<(), InjectError> {
        match slug {
            s if s.starts_with("gnome-ei-") => {}
            "gnome-edn-01" => {
                // The machine is renamed while the session runs.
                let new_name = format!("{}-renamed", env.host.hostname());
                env.host.set_hostname(new_name);
            }
            "gnome-edn-02" => {
                // Sound utilities leaked sockets until the table is empty.
                env.fds.exhaust_as(self.owner);
            }
            "gnome-edn-03" => {
                env.fs.write("home/user/broken.file", 16).expect("room for one small file");
                env.fs.set_owner("home/user/broken.file", u32::MAX).expect("file exists");
            }
            "gnome-edt-01" => {}
            "gnome-edt-02" | "gnome-edt-03" => {
                // Arm the race (see MiniDb): the first execution runs under
                // a crashing interleaving; retries see fresh timing.
                env.force_interleave_seed(RaceGadget::default().crashing_seed());
            }
            _ => return Err(InjectError { slug: slug.to_owned() }),
        }
        Arc::make_mut(&mut self.state.enabled_bugs).insert(slug.to_owned());
        Ok(())
    }

    fn trigger_request(&self, slug: &str) -> Option<Request> {
        let req = match slug {
            "gnome-ei-01" => Request::new("CLICK pager-tasklist-tab"),
            "gnome-ei-02" => Request::new("CLICK calendar-prev-year"),
            "gnome-ei-03" => Request::new("CLICK gnumeric-define-name-tab"),
            "gnome-ei-04" => Request::new("OPEN desktop/archive.tar.gz"),
            "gnome-ei-05" => Request::new("CLICK desktop-dismiss-menu"),
            "gnome-ei-18" => {
                Request::new(format!("FORMULA {}1{}", "(".repeat(255), ")".repeat(255)))
            }
            s if s.starts_with("gnome-ei-") => Request::new(format!("PROBE {s}")),
            "gnome-edn-01" => Request::new("OPEN-DISPLAY"),
            "gnome-edn-02" => Request::new("PLAY-SOUND"),
            "gnome-edn-03" => Request::new("EDIT-PROPS home/user/broken.file"),
            "gnome-edt-01" => Request::new("LAUNCH").with_timing_event(),
            "gnome-edt-02" => Request::new("VIEW-AND-EDIT"),
            "gnome-edt-03" => Request::new("REMOVE-APPLET"),
            _ => return None,
        };
        Some(req)
    }

    fn benign_request(&self) -> Request {
        Request::new("CLICK clock")
    }

    fn cold_start(&mut self, env: &mut Environment) {
        env.fds.close_all_of(self.owner);
        env.procs.kill_all_of(self.owner);
        // A restarted session re-reads the (possibly renamed) hostname.
        self.state.boot_hostname = env.host.hostname().into();
    }

    fn as_crash_only(&mut self) -> Option<&mut dyn CrashOnly> {
        Some(self)
    }

    fn check_oracle(&self, env: &Environment) -> Vec<String> {
        let mut violations = Vec::new();
        // Buffer/index agreement: the editor buffer's session identity must
        // exist — X authority and session files embed the boot hostname, so
        // an empty one means the durable-hard buffer lost state it may
        // never regenerate.
        if self.state.boot_hostname.is_empty() {
            violations.push("editor buffer lost its session identity (empty boot hostname)".into());
        } else if env.host.hostname() != &*self.state.boot_hostname && !self.bug("gnome-edn-01") {
            // A divergence between the buffer's identity and the host index
            // is only explainable by the known rename defect; without it
            // armed, the session silently drifted from its environment.
            violations.push(format!(
                "session bound to {} but the host index says {}",
                self.state.boot_hostname,
                env.host.hostname()
            ));
        }
        violations
    }
}

/// Component indices of the desktop's crash-only partition.
const DE_EDITOR_BUFFER: usize = 0;
const DE_PLUGIN_HOST: usize = 1;
const DE_INDEX: usize = 2;

/// The desktop's component tree. The editor buffer is the root *and*
/// durable-hard: it holds session identity (the boot-time hostname that X
/// authority files embed), which no reboot may regenerate — a component
/// crash there escalates straight to a whole-process restart. Applets and
/// sound utilities live in the plugin host, whose sockets and helper
/// processes die with it; the file index rebuilds over the filesystem.
static DE_COMPONENTS: [ComponentDesc; 3] = [
    ComponentDesc {
        name: "de-editor-buffer",
        state_kind: StateKind::DurableHard,
        boot_cost: Duration::from_millis(50),
        parent: None,
    },
    ComponentDesc {
        name: "de-plugin-host",
        state_kind: StateKind::Volatile,
        boot_cost: Duration::from_millis(20),
        parent: Some(DE_EDITOR_BUFFER),
    },
    ComponentDesc {
        name: "de-index",
        state_kind: StateKind::DurableSoft,
        boot_cost: Duration::from_millis(15),
        parent: Some(DE_EDITOR_BUFFER),
    },
];

impl CrashOnly for MiniDe {
    fn components(&self) -> &'static [ComponentDesc] {
        &DE_COMPONENTS
    }

    fn route(&self, body: &str) -> usize {
        if body == "OPEN-DISPLAY" {
            // Session identity: the hostname captured at boot.
            return DE_EDITOR_BUFFER;
        }
        if body.starts_with("OPEN ")
            || body.starts_with("EDIT-PROPS ")
            || body.starts_with("FORMULA ")
        {
            return DE_INDEX;
        }
        // CLICK, PLAY-SOUND, LAUNCH, the applet races, PROBE, and anything
        // unknown runs inside the plugin host.
        DE_PLUGIN_HOST
    }

    fn crash_component(&mut self, index: usize, env: &mut Environment) {
        match index {
            DE_PLUGIN_HOST => {
                // Sound-server sockets and helper processes die with the
                // host — the leak gnome-edn-02 reports is volatile state.
                env.fds.close_all_of(self.owner);
                env.procs.kill_all_of(self.owner);
            }
            DE_INDEX => {
                // Nothing in memory worth keeping: the index is a pure
                // function of the filesystem.
            }
            // Durable-hard (editor buffer): nothing may be discarded, and
            // in particular the boot-time hostname is NOT re-read — that
            // reconstruction is application-specific cold-start knowledge.
            _ => {}
        }
    }

    fn boot_component(&mut self, _index: usize, _env: &mut Environment) {
        // The index is rebuilt lazily on the next stat; the plugin host
        // restarts its applets on demand.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faultstudy_sim::time::Duration;

    fn setup() -> (Environment, MiniDe) {
        let mut env = Environment::builder().seed(6).fd_limit(6).build();
        let de = MiniDe::new(&mut env);
        (env, de)
    }

    #[test]
    fn healthy_desktop_handles_everything() {
        let (mut env, mut de) = setup();
        for body in [
            "CLICK clock",
            "OPEN desktop/notes.txt",
            "OPEN-DISPLAY",
            "PLAY-SOUND",
            "LAUNCH",
            "VIEW-AND-EDIT",
            "REMOVE-APPLET",
        ] {
            let resp = de.handle(&Request::new(body), &mut env).unwrap();
            assert!(resp.is_ok(), "{body}");
        }
    }

    #[test]
    fn named_widget_bugs_fire_only_when_injected() {
        let (mut env, mut de) = setup();
        let tasklist = Request::new("CLICK pager-tasklist-tab");
        assert!(de.handle(&tasklist, &mut env).unwrap().is_ok());
        de.inject("gnome-ei-01", &mut env).unwrap();
        assert!(de.handle(&tasklist, &mut env).is_err());
        // The tar.gz bug.
        de.inject("gnome-ei-04", &mut env).unwrap();
        let req = de.trigger_request("gnome-ei-04").unwrap();
        assert!(de.handle(&req, &mut env).is_err());
        assert!(de.handle(&Request::new("OPEN plain.txt"), &mut env).unwrap().is_ok());
    }

    #[test]
    fn menu_dismiss_freeze_is_a_hang() {
        let (mut env, mut de) = setup();
        de.inject("gnome-ei-05", &mut env).unwrap();
        let req = de.trigger_request("gnome-ei-05").unwrap();
        assert!(matches!(de.handle(&req, &mut env), Err(AppFailure::Hang(_))));
    }

    #[test]
    fn hostname_change_is_fatal_and_permanent() {
        let (mut env, mut de) = setup();
        de.inject("gnome-edn-01", &mut env).unwrap();
        let req = de.trigger_request("gnome-edn-01").unwrap();
        assert!(de.handle(&req, &mut env).is_err());
        // Generic recovery restores the session with the old name inside.
        let snap = de.snapshot();
        env.on_generic_recovery(de.owner());
        de.restore(&snap);
        env.advance(Duration::from_secs(600));
        assert!(de.handle(&req, &mut env).is_err(), "stale name restored with state");
    }

    #[test]
    fn leaked_sockets_starve_the_desktop_across_recovery() {
        let (mut env, mut de) = setup();
        de.inject("gnome-edn-02", &mut env).unwrap();
        let req = de.trigger_request("gnome-edn-02").unwrap();
        assert!(de.handle(&req, &mut env).is_err());
        env.on_generic_recovery(de.owner());
        assert!(de.handle(&req, &mut env).is_err(), "descriptors restored with state");
    }

    #[test]
    fn corrupt_owner_field_crashes_properties_dialog() {
        let (mut env, mut de) = setup();
        de.inject("gnome-edn-03", &mut env).unwrap();
        let req = de.trigger_request("gnome-edn-03").unwrap();
        assert!(de.handle(&req, &mut env).is_err());
        // Other files are unaffected.
        env.fs.write("home/user/fine.file", 8).unwrap();
        let fine = Request::new("EDIT-PROPS home/user/fine.file");
        assert!(de.handle(&fine, &mut env).unwrap().is_ok());
        // The corrupt file outlives any amount of time and recovery.
        env.advance(Duration::from_secs(3600));
        env.on_generic_recovery(de.owner());
        assert!(de.handle(&req, &mut env).is_err());
    }

    #[test]
    fn unknown_transient_fires_once_via_timing_event() {
        let (mut env, mut de) = setup();
        de.inject("gnome-edt-01", &mut env).unwrap();
        let first = de.trigger_request("gnome-edt-01").unwrap();
        assert!(de.handle(&first, &mut env).is_err());
        let mut retry = first.clone();
        retry.timing_event = false;
        assert!(de.handle(&retry, &mut env).unwrap().is_ok(), "works on a retry");
    }

    #[test]
    fn applet_race_outcome_is_environment_determined() {
        let (mut env, mut de) = setup();
        de.inject("gnome-edt-03", &mut env).unwrap();
        let req = de.trigger_request("gnome-edt-03").unwrap();
        let a = de.handle(&req, &mut env).is_err();
        let b = de.handle(&req, &mut env).is_err();
        assert_eq!(a, b, "fixed environment, fixed outcome");
        let mut outcomes = Vec::new();
        for _ in 0..30 {
            env.advance(Duration::from_millis(50));
            outcomes.push(de.handle(&req, &mut env).is_err());
        }
        assert!(outcomes.iter().any(|crashed| !crashed), "some interleaving succeeds");
    }

    #[test]
    fn unknown_slug_and_action_rejected() {
        let (mut env, mut de) = setup();
        assert!(de.inject("apache-ei-01", &mut env).is_err());
        assert!(de.trigger_request("mysql-ei-02").is_none());
        assert!(!de.handle(&Request::new("FROB"), &mut env).unwrap().is_ok());
    }

    #[test]
    fn every_corpus_gnome_slug_has_a_trigger() {
        let (_, de) = setup();
        for f in faultstudy_corpus::corpus_for(AppKind::Gnome) {
            assert!(de.trigger_request(f.slug()).is_some(), "{}", f.slug());
        }
    }

    #[test]
    fn deep_formula_denied_when_healthy_crash_with_bug() {
        let (mut env, mut de) = setup();
        let deep = de.trigger_request("gnome-ei-18").unwrap();
        assert!(!de.handle(&deep, &mut env).unwrap().is_ok(), "healthy: denied");
        let shallow = Request::new("FORMULA (1)");
        assert!(de.handle(&shallow, &mut env).unwrap().is_ok());
        de.inject("gnome-ei-18", &mut env).unwrap();
        assert!(de.handle(&deep, &mut env).is_err());
        assert!(de.handle(&shallow, &mut env).unwrap().is_ok());
    }

    #[test]
    fn snapshot_keeps_boot_hostname() {
        let (mut env, mut de) = setup();
        let snap = de.snapshot();
        env.host.set_hostname("desk1-new");
        de.restore(&snap);
        de.inject("gnome-edn-01", &mut env).unwrap();
        let req = de.trigger_request("gnome-edn-01").unwrap();
        assert!(de.handle(&req, &mut env).is_err(), "restored state holds the boot name");
    }

    #[test]
    fn oracle_is_silent_on_a_healthy_session() {
        let (mut env, mut de) = setup();
        de.handle(&Request::new("OPEN-DISPLAY"), &mut env).unwrap();
        assert!(de.check_oracle(&env).is_empty());
    }

    #[test]
    fn oracle_catches_an_unexplained_hostname_drift() {
        let (mut env, de) = setup();
        env.host.set_hostname("desk1-new");
        let violations = de.check_oracle(&env);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("desk1-new"), "{violations:?}");
    }

    #[test]
    fn oracle_tolerates_drift_from_the_known_rename_defect() {
        let (mut env, mut de) = setup();
        de.inject("gnome-edn-01", &mut env).unwrap();
        let req = de.trigger_request("gnome-edn-01").unwrap();
        assert!(de.handle(&req, &mut env).is_err(), "the rename crashes the session");
        // The divergence is explained by the armed defect: not a silent
        // wrong answer, just the fault the campaign injected.
        assert!(de.check_oracle(&env).is_empty());
    }
}
