//! Pins the rendered text of the applications' answers and failure reasons.
//!
//! Answers and reasons keep their pieces and render only when displayed,
//! so nothing on the request path ever reads them; these literals are the
//! bytes each one renders, the same bytes `format!` wrote before rendering
//! was deferred. The bodies are every entry of the traffic campaign's
//! per-application mixes and of the service graph's mix, plus the
//! rejuvenation, race and client-resolution requests, and the triggers
//! whose failures carry an argument.

use faultstudy_apps::{spawn_app, Request, Response};
use faultstudy_core::taxonomy::AppKind;
use faultstudy_env::dns::DnsHealth;
use faultstudy_env::Environment;
use faultstudy_sim::time::Duration;

/// A healthy application's answer to each body: `(application, body,
/// rendered answer)`, a refusal prefixed `denied: `.
const ANSWERS: [(AppKind, &str, &str); 26] = [
    (AppKind::Apache, "GET /index.html", "200 OK /index.html"),
    (AppKind::Apache, "GET /file", "200 OK /file"),
    (AppKind::Apache, "AUTH admin", "401 realm=admin"),
    (AppKind::Apache, "RESOLVE remote.example", "resolved remote.example"),
    (AppKind::Apache, "SSL", "handshake complete"),
    (AppKind::Apache, "BIND", "listener bound"),
    (AppKind::Apache, "KEEPALIVE 4", "served 4 pipelined requests"),
    (AppKind::Apache, "HUP", "rejuvenated: 0 children reaped"),
    (AppKind::Apache, "TRACE /", "denied: 400 bad request: TRACE /"),
    (AppKind::Gnome, "CLICK clock", "clicked clock"),
    (AppKind::Gnome, "CLICK desktop-background", "clicked desktop-background"),
    (AppKind::Gnome, "OPEN desktop/readme.txt", "opened desktop/readme.txt"),
    (AppKind::Gnome, "OPEN-DISPLAY", "display opened"),
    (AppKind::Gnome, "PLAY-SOUND", "sound played"),
    (AppKind::Gnome, "LAUNCH", "launched"),
    (AppKind::Gnome, "FORMULA (1+2)", "formula evaluated"),
    (AppKind::Gnome, "VIEW-AND-EDIT", "image view with property edit done"),
    (AppKind::Gnome, "REMOVE-APPLET", "applet removal done"),
    (AppKind::Gnome, "BOGUS", "denied: no such action: BOGUS"),
    (AppKind::Mysql, "PING", "pong"),
    (AppKind::Mysql, "CONNECT", "connected (unresolved client0)"),
    (AppKind::Mysql, "UNLOCK TABLES", "unlocked"),
    (AppKind::Mysql, "FLUSH TABLES", "flushed"),
    (AppKind::Mysql, "SHUTDOWN", "shutdown complete"),
    (AppKind::Mysql, "ADMIN KILL", "admin command complete"),
    (AppKind::Mysql, "  BOGUS  ", "denied: syntax error near: BOGUS"),
];

/// The outcome of a request on an application with one defect injected:
/// `(application, defect, body, rendered outcome)`. A `None` body is the
/// defect's own trigger request, which is owned text for the `PROBE`
/// defects.
const FAILURES: [(AppKind, &str, Option<&str>, &str); 13] = [
    (AppKind::Apache, "apache-ei-17", None, "crash: deterministic defect apache-ei-17 triggered"),
    (
        AppKind::Apache,
        "apache-ei-17",
        Some("PROBE apache-ei-17"),
        "crash: deterministic defect apache-ei-17 triggered",
    ),
    (AppKind::Gnome, "gnome-ei-10", None, "crash: deterministic defect gnome-ei-10 triggered"),
    (AppKind::Mysql, "mysql-ei-10", None, "crash: deterministic defect mysql-ei-10 triggered"),
    (
        AppKind::Mysql,
        "mysql-ei-10",
        Some(" PROBE mysql-ei-10 "),
        "crash: deterministic defect mysql-ei-10 triggered",
    ),
    (AppKind::Mysql, "mysql-edt-01", None, "crash: shutdown: use after free: resource gone"),
    (AppKind::Mysql, "mysql-edt-02", None, "crash: admin command: use after free: resource gone"),
    (
        AppKind::Gnome,
        "gnome-edt-02",
        None,
        "crash: image view with property edit: use after free: resource gone",
    ),
    (AppKind::Gnome, "gnome-edt-03", None, "crash: applet removal: use after free: resource gone"),
    (
        AppKind::Mysql,
        "mysql-edn-02",
        None,
        "crash: null hostname from unconfigured reverse DNS dereferenced",
    ),
    (
        AppKind::Apache,
        "apache-ei-19",
        None,
        "crash: keepalive counter wrapped; scoreboard update took a bus error",
    ),
    (AppKind::Apache, "apache-edt-05", None, "hang: request stalled on slow DNS"),
    (
        AppKind::Gnome,
        "gnome-edn-03",
        None,
        "crash: properties dialog crashed on illegal owner field of home/user/broken.file",
    ),
];

/// What `body` renders on a fresh `kind` with `defect` injected: the
/// answer, `denied: ` and the refusal, or the failure's display. A `None`
/// body is the defect's trigger request.
fn render(kind: AppKind, defect: Option<&str>, body: Option<&'static str>) -> String {
    let mut env = Environment::builder().seed(7).build();
    let mut app = spawn_app(kind, &mut env);
    if let Some(slug) = defect {
        app.inject(slug, &mut env).expect("the application knows its own defect");
    }
    let req = match (body, defect) {
        (Some(body), _) => Request::new(body),
        (None, Some(slug)) => app.trigger_request(slug).expect("every defect has a trigger"),
        (None, None) => unreachable!("a healthy row names its body"),
    };
    match app.handle(&req, &mut env) {
        Ok(Response::Ok(text)) => text.to_string(),
        Ok(Response::Denied(text)) => format!("denied: {text}"),
        Err(failure) => failure.to_string(),
    }
}

fn assert_all_match(rows: impl Iterator<Item = (String, String, &'static str)>) {
    let wrong: Vec<String> = rows
        .filter(|(_, got, want)| got != want)
        .map(|(what, got, want)| format!("{what}: rendered {got:?}, expected {want:?}"))
        .collect();
    assert!(wrong.is_empty(), "rendered text changed:\n{}", wrong.join("\n"));
}

#[test]
fn every_mix_answer_renders_its_text() {
    assert_all_match(ANSWERS.into_iter().map(|(kind, body, want)| {
        (format!("{kind:?} {body:?}"), render(kind, None, Some(body)), want)
    }));
}

#[test]
fn failure_reasons_render_their_text() {
    assert_all_match(FAILURES.into_iter().map(|(kind, slug, body, want)| {
        (format!("{slug} {body:?}"), render(kind, Some(slug), body), want)
    }));
}

#[test]
fn a_connection_renders_its_client_resolved_or_not() {
    let mut env = Environment::builder().seed(7).build();
    env.dns.configure_reverse("client0");
    env.dns.configure_reverse("friendly.host");
    let mut db = spawn_app(AppKind::Mysql, &mut env);
    let owned_client =
        Request { client: "friendly.host".to_owned().into(), ..Request::new("CONNECT") };
    let unresolved = db.trigger_request("mysql-edn-02").expect("mysql-edn-02 has a trigger");
    for (req, want) in [
        (Request::new("CONNECT"), "connected client0"),
        (owned_client, "connected friendly.host"),
        (unresolved, "connected (unresolved unregistered.host)"),
    ] {
        let resp = db.handle(&req, &mut env).expect("a healthy server accepts every client");
        assert_eq!(resp, Response::Ok(want.into()), "{req}");
    }
}

#[test]
fn a_refused_resolution_renders_the_host() {
    let mut env = Environment::builder().seed(7).build();
    let mut web = spawn_app(AppKind::Apache, &mut env);
    let until = env.now() + Duration::from_secs(2);
    env.dns.set_health(DnsHealth::Erroring, until);
    let resp = web.handle(&Request::new("RESOLVE remote.example"), &mut env);
    assert_eq!(resp, Ok(Response::Denied("cannot resolve remote.example".into())));
}
