//! `MiniWeb`: the Apache-like request server.
//!
//! Implements every Apache fault family of §5.1 as an injectable defect:
//! the named environment-independent bugs (very long URL, SIGHUP handling,
//! nonexistent URL, empty directory listing) have real code paths; the
//! remaining environment-independent corpus entries are exposed through a
//! deterministic `PROBE` path (a defect that always fires on its trigger
//! request, which is all the class means). The 7 nontransient and 7
//! transient environment-dependent faults each manipulate the simulated
//! operating environment exactly as their bug reports describe.

use crate::app::{AppFailure, AppState, Application, Checkpoint, InjectError, Request, Response};
use crate::text::{Arg, Text};
use faultstudy_core::taxonomy::AppKind;
use faultstudy_env::dns::Lookup;
use faultstudy_env::fs::FsError;
use faultstudy_env::host::HardwareComponent;
use faultstudy_env::network::NetError;
use faultstudy_env::{Environment, OwnerId};
use faultstudy_micro::{ComponentDesc, CrashOnly, StateKind};
use faultstudy_sim::time::Duration;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Leak units accumulated before the address space is exhausted.
const LEAK_CRASH_UNITS: u32 = 3;
/// The port the listener must be able to re-acquire.
const LISTEN_PORT: u16 = 8080;
/// Request timeout: a slower dependency means a hang.
const REQUEST_TIMEOUT: Duration = Duration::from_millis(900);
/// Entropy an SSL handshake consumes, in bits.
const SSL_ENTROPY_BITS: u64 = 256;

/// Realm strings at or beyond this length overflow the buggy formatter.
const REALM_BUFFER: usize = 256;
/// A signed-short keepalive counter wraps here.
const KEEPALIVE_WRAP: u64 = 32768;

/// The checkpointable state of the server.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct WebState {
    /// Shared with every checkpoint taken since the last defect was armed.
    enabled_bugs: Arc<BTreeSet<String>>,
    served: u64,
    leak_units: u32,
    cache_seq: u64,
    /// Requests on the current keep-alive connection (apache-ei-19).
    keepalive_count: u64,
}

/// The Apache-like web server.
///
/// # Example
///
/// ```
/// use faultstudy_apps::{Application, MiniWeb, Request};
/// use faultstudy_env::Environment;
///
/// let mut env = Environment::builder().seed(3).build();
/// let mut web = MiniWeb::new(&mut env);
/// let resp = web.handle(&Request::new("GET /index.html"), &mut env).unwrap();
/// assert!(resp.is_ok());
/// ```
#[derive(Debug)]
pub struct MiniWeb {
    owner: OwnerId,
    state: WebState,
}

impl MiniWeb {
    /// Creates the server, registering it as a resource owner in `env`.
    pub fn new(env: &mut Environment) -> MiniWeb {
        let owner = env.register_owner();
        MiniWeb { owner, state: WebState::default() }
    }

    /// Requests served since start.
    pub fn served(&self) -> u64 {
        self.state.served
    }

    fn bug(&self, slug: &str) -> bool {
        self.state.enabled_bugs.contains(slug)
    }

    /// Appends to the access log; returns the fault the append manifests,
    /// if the relevant bugs are enabled.
    fn log_access(&mut self, env: &mut Environment) -> Result<(), AppFailure> {
        match env.fs.append("miniweb/access.log", 64) {
            Ok(()) => Ok(()),
            Err(FsError::FileTooLarge { .. }) if self.bug("apache-edn-04") => {
                Err(AppFailure::Crash("log write past maximum allowed file size".into()))
            }
            Err(FsError::NoSpace { .. }) if self.bug("apache-edn-05") => {
                Err(AppFailure::ErrorReturn("cannot append access log: no space".into()))
            }
            // A robust server tolerates a failed log write.
            Err(_) => Ok(()),
        }
    }

    fn serve_get(
        &mut self,
        path: &str,
        req: &Request,
        env: &mut Environment,
    ) -> Result<Response, AppFailure> {
        // --- the named environment-independent defects ---
        if self.bug("apache-ei-01") && path.len() > 1024 {
            return Err(AppFailure::Crash("segfault: overflow in the URL hash calculation".into()));
        }
        if self.bug("apache-ei-03") && path == "/nonexistent" {
            return Err(AppFailure::Crash("core dump: va_list reused in ap_log_rerror".into()));
        }
        if self.bug("apache-ei-04") && path.starts_with("/dir-empty") {
            return Err(AppFailure::Crash(
                "palloc(0) mishandled while indexing an empty directory".into(),
            ));
        }
        // apache-ei-13: a self-referential ErrorDocument loops through the
        // internal-redirect machinery; the healthy server bounds the depth.
        if path.starts_with("/error-loop") {
            // The redirect chain is pure repetition, so the outcome is
            // computed directly: the buggy build recurses until the stack
            // dies, the healthy one stops at the depth limit.
            if self.bug("apache-ei-13") {
                return Err(AppFailure::Crash(
                    "unbounded recursion through self-referential ErrorDocument".into(),
                ));
            }
            return Ok(Response::Denied("redirect loop detected".into()));
        }
        // apache-ei-26: a URI of nothing but escaped slashes collapses to
        // an empty segment list.
        if !path.is_empty() && path.chars().all(|c| c == '/') && path.len() > 1 {
            if self.bug("apache-ei-26") {
                return Err(AppFailure::Crash(
                    "empty segment list dereferenced after path collapse".into(),
                ));
            }
            return Ok(Response::Denied("degenerate path".into()));
        }

        // --- environment-dependent paths ---
        match path {
            "/burst" if self.bug("apache-edn-01") => {
                self.state.leak_units += 1;
                if self.state.leak_units >= LEAK_CRASH_UNITS {
                    return Err(AppFailure::Crash(
                        "address space exhausted by leaked allocations".into(),
                    ));
                }
            }
            "/file" => match env.fds.open(self.owner) {
                Ok(fd) => {
                    let _ = env.fds.close(fd);
                }
                Err(_) if self.bug("apache-edn-02") => {
                    return Err(AppFailure::Crash(
                        "unchecked open failure: out of file descriptors".into(),
                    ));
                }
                Err(_) => return Ok(Response::Denied("try again later".into())),
            },
            "/cached" => {
                self.state.cache_seq += 1;
                let name = format!("miniweb/cache/tmp{}", self.state.cache_seq);
                match env.fs.write(name, 1024) {
                    Ok(()) => {}
                    Err(FsError::NoSpace { .. }) if self.bug("apache-edn-03") => {
                        return Err(AppFailure::ErrorReturn(
                            "disk cache full: cannot store temporary file".into(),
                        ));
                    }
                    Err(_) => return Ok(Response::Denied("cache unavailable".into())),
                }
            }
            "/keepalive" => match env.net.consume_resource(8) {
                Ok(()) => {}
                Err(NetError::ResourceExhausted) if self.bug("apache-edn-06") => {
                    return Err(AppFailure::ErrorReturn("network resource exhausted".into()));
                }
                Err(_) => return Ok(Response::Denied("connection refused".into())),
            },
            "/remote" => {
                if !env.host.hardware_present(HardwareComponent::PcmciaNic)
                    && self.bug("apache-edn-07")
                {
                    return Err(AppFailure::Crash(
                        "network interface vanished beneath the listener".into(),
                    ));
                }
                match env.net.rtt_at(env.now()) {
                    Ok(rtt) if rtt > REQUEST_TIMEOUT && self.bug("apache-edt-06") => {
                        return Err(AppFailure::Hang("upstream fetch timed out".into()));
                    }
                    Ok(_) => {}
                    Err(NetError::LinkDown) if self.bug("apache-edn-07") => {
                        return Err(AppFailure::Crash("send on downed link".into()));
                    }
                    Err(_) => return Ok(Response::Denied("link unavailable".into())),
                }
            }
            "/download" if req.timing_event && self.bug("apache-edt-03") => {
                return Err(AppFailure::Crash(
                    "client pressed stop mid-download; abort path corrupts the pool".into(),
                ));
            }
            _ => {}
        }

        self.log_access(env)?;
        self.state.served += 1;
        Ok(Response::Ok(Text::new("200 OK ", Arg::part_of(&req.body, path), "")))
    }

    fn resolve(
        &mut self,
        host: &str,
        req: &Request,
        env: &mut Environment,
    ) -> Result<Response, AppFailure> {
        match env.dns.resolve(host, env.now()) {
            Lookup::Resolved { latency, .. } => {
                if latency > REQUEST_TIMEOUT && self.bug("apache-edt-05") {
                    return Err(AppFailure::Hang("request stalled on slow DNS".into()));
                }
                self.state.served += 1;
                Ok(Response::Ok(Text::new("resolved ", Arg::part_of(&req.body, host), "")))
            }
            Lookup::ServerError if self.bug("apache-edt-01") => {
                Err(AppFailure::Crash("unchecked DNS error dereferenced".into()))
            }
            Lookup::ServerError | Lookup::NoRecord => Ok(Response::Denied(Text::new(
                "cannot resolve ",
                Arg::part_of(&req.body, host),
                "",
            ))),
        }
    }

    fn spawn_child(&mut self, env: &mut Environment) -> Result<Response, AppFailure> {
        match env.procs.spawn(self.owner) {
            Ok(pid) => {
                // The CGI child does its work and is reaped immediately.
                let _ = env.procs.kill(pid);
                self.state.served += 1;
                Ok(Response::Ok("cgi done".into()))
            }
            Err(_) if self.bug("apache-edt-02") => {
                Err(AppFailure::Hang("cannot fork: process table full".into()))
            }
            Err(_) => Ok(Response::Denied("server busy".into())),
        }
    }

    fn bind_listener(&mut self, env: &mut Environment) -> Result<Response, AppFailure> {
        if env.procs.port_held(LISTEN_PORT) {
            if self.bug("apache-edt-04") {
                return Err(AppFailure::ErrorReturn(
                    "bind: address in use (port held by hung child)".into(),
                ));
            }
            return Ok(Response::Denied("listener busy".into()));
        }
        self.state.served += 1;
        Ok(Response::Ok("listener bound".into()))
    }

    fn ssl_handshake(&mut self, env: &mut Environment) -> Result<Response, AppFailure> {
        let now = env.now();
        match env.entropy.read(SSL_ENTROPY_BITS, now) {
            Ok(()) => {
                self.state.served += 1;
                Ok(Response::Ok("handshake complete".into()))
            }
            Err(_) if self.bug("apache-edt-07") => {
                Err(AppFailure::Hang("blocked reading /dev/random".into()))
            }
            Err(_) => Ok(Response::Denied("ssl unavailable".into())),
        }
    }

    /// Graceful restart on SIGHUP: Apache's application-specific
    /// rejuvenation hook (§6.2). Kills the server's children (reclaiming
    /// slots and ports) and releases leaked allocations. With
    /// `apache-ei-02` injected, the signal handler itself is the bug.
    fn sighup(&mut self, env: &mut Environment) -> Result<Response, AppFailure> {
        if self.bug("apache-ei-02") {
            return Err(AppFailure::Crash("SIGHUP terminates instead of restarting".into()));
        }
        let killed = env.procs.kill_all_of(self.owner);
        self.state.leak_units = 0;
        Ok(Response::Ok(Text::new("rejuvenated: ", u64::from(killed), " children reaped")))
    }
}

impl Application for MiniWeb {
    fn kind(&self) -> AppKind {
        AppKind::Apache
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
                self.state.served += 1;
                Ok(Response::Ok("probe passed".into()))
            };
        }
        if let Some(host) = body.strip_prefix("RESOLVE ") {
            return self.resolve(host, req, env);
        }
        if let Some(path) = body.strip_prefix("GET ") {
            return self.serve_get(path, req, env);
        }
        // apache-ei-32: the WWW-Authenticate assembler copies the realm
        // into a fixed 256-byte frame including the quotes.
        if let Some(realm) = body.strip_prefix("AUTH ") {
            if realm.len() + 2 > REALM_BUFFER {
                if self.bug("apache-ei-32") {
                    return Err(AppFailure::Crash(
                        "stack buffer overrun assembling WWW-Authenticate".into(),
                    ));
                }
                return Ok(Response::Denied("realm too long".into()));
            }
            self.state.served += 1;
            return Ok(Response::Ok(Text::new("401 realm=", Arg::part_of(&req.body, realm), "")));
        }
        // apache-ei-19: `n` pipelined requests on one keep-alive
        // connection; the buggy per-connection counter is a signed short.
        if let Some(n) = body.strip_prefix("KEEPALIVE ") {
            let Ok(n) = n.trim().parse::<u64>() else {
                return Ok(Response::Denied("bad keepalive count".into()));
            };
            self.state.keepalive_count = self.state.keepalive_count.saturating_add(n);
            if self.state.keepalive_count >= KEEPALIVE_WRAP {
                if self.bug("apache-ei-19") {
                    return Err(AppFailure::Crash(
                        "keepalive counter wrapped; scoreboard update took a bus error".into(),
                    ));
                }
                // A healthy server closes and reopens the connection.
                self.state.keepalive_count = 0;
            }
            self.state.served += 1;
            return Ok(Response::Ok(Text::new("served ", n, " pipelined requests")));
        }
        match body {
            "HUP" => self.sighup(env),
            "SPAWN" => self.spawn_child(env),
            "BIND" => self.bind_listener(env),
            "SSL" => self.ssl_handshake(env),
            _ => Ok(Response::Denied(Text::new("400 bad request: ", &req.body, ""))),
        }
    }

    fn snapshot(&self) -> AppState {
        AppState(Checkpoint::Web(self.state.clone()))
    }

    fn restore(&mut self, state: &AppState) {
        let Checkpoint::Web(saved) = &state.0 else {
            panic!("MiniWeb restored another application's checkpoint");
        };
        self.state.clone_from(saved);
    }

    fn inject(&mut self, slug: &str, env: &mut Environment) -> Result<(), InjectError> {
        let now = env.now();
        match slug {
            // Environment-independent defects need no environment setup.
            s if s.starts_with("apache-ei-") => {}
            "apache-edn-01" => {} // the leak lives in application state
            "apache-edn-02" => {
                // The server has leaked descriptors until none remain.
                env.fds.exhaust_as(self.owner);
            }
            "apache-edn-03" | "apache-edn-05" => {
                env.fs.fill_with_ballast();
            }
            "apache-edn-04" => {
                let max = env.fs.max_file_size();
                env.fs
                    .write("miniweb/access.log", max)
                    .expect("log can grow to the per-file limit");
            }
            "apache-edn-06" => {
                let free = env.net.resource_free();
                env.net.consume_resource(free).expect("draining free units succeeds");
            }
            "apache-edn-07" => {
                env.host.remove_hardware(HardwareComponent::PcmciaNic);
            }
            "apache-edt-01" => {
                env.dns.set_health(
                    faultstudy_env::dns::DnsHealth::Erroring,
                    now + Duration::from_secs(2),
                );
            }
            "apache-edt-02" => {
                // Hung children from peak load fill the process table.
                let pids: Vec<_> =
                    std::iter::from_fn(|| env.procs.spawn(self.owner).ok()).collect();
                for pid in pids {
                    env.procs.hang(pid).expect("fresh child exists");
                }
            }
            "apache-edt-03" => {} // purely a workload-timing fault
            "apache-edt-04" => {
                let pid = env.procs.spawn(self.owner).expect("slot for hung child");
                env.procs.bind_port(pid, LISTEN_PORT).expect("child binds");
                env.procs.hang(pid).expect("child hangs");
            }
            "apache-edt-05" => {
                env.dns
                    .set_health(faultstudy_env::dns::DnsHealth::Slow, now + Duration::from_secs(2));
            }
            "apache-edt-06" => {
                env.net.set_quality(
                    faultstudy_env::network::LinkQuality::Slow,
                    now + Duration::from_secs(2),
                );
            }
            "apache-edt-07" => {
                env.entropy.drain(now);
            }
            _ => return Err(InjectError { slug: slug.to_owned() }),
        }
        Arc::make_mut(&mut self.state.enabled_bugs).insert(slug.to_owned());
        Ok(())
    }

    fn arm_defect(&mut self, slug: &str) -> Result<(), InjectError> {
        // Arm only defects the server actually knows — anything with a
        // trigger request. Unlike `inject`, the environment is untouched:
        // the injection plan owns the environmental half of the fault.
        if self.trigger_request(slug).is_none() {
            return Err(InjectError { slug: slug.to_owned() });
        }
        Arc::make_mut(&mut self.state.enabled_bugs).insert(slug.to_owned());
        Ok(())
    }

    fn trigger_request(&self, slug: &str) -> Option<Request> {
        let req = match slug {
            "apache-ei-01" => Request::new(format!("GET /{}", "a".repeat(2000))),
            "apache-ei-02" => Request::new("HUP"),
            "apache-ei-03" => Request::new("GET /nonexistent"),
            "apache-ei-04" => Request::new("GET /dir-empty/"),
            "apache-ei-13" => Request::new("GET /error-loop"),
            "apache-ei-19" => Request::new("KEEPALIVE 40000"),
            "apache-ei-26" => Request::new(format!("GET {}", "/".repeat(12))),
            "apache-ei-32" => Request::new(format!("AUTH {}", "r".repeat(256))),
            s if s.starts_with("apache-ei-") => Request::new(format!("PROBE {s}")),
            "apache-edn-01" => Request::new("GET /burst"),
            "apache-edn-02" => Request::new("GET /file"),
            "apache-edn-03" => Request::new("GET /cached"),
            "apache-edn-04" | "apache-edn-05" => Request::new("GET /logged"),
            "apache-edn-06" => Request::new("GET /keepalive"),
            "apache-edn-07" => Request::new("GET /remote"),
            "apache-edt-01" | "apache-edt-05" => Request::new("RESOLVE remote.example"),
            "apache-edt-02" => Request::new("SPAWN"),
            "apache-edt-03" => Request::new("GET /download").with_timing_event(),
            "apache-edt-04" => Request::new("BIND"),
            "apache-edt-06" => Request::new("GET /remote"),
            "apache-edt-07" => Request::new("SSL"),
            _ => return None,
        };
        Some(req)
    }

    fn benign_request(&self) -> Request {
        Request::new("GET /index.html")
    }

    fn rejuvenate_request(&self) -> Option<Request> {
        // Apache's widely-used rejuvenation signal (§6.2).
        Some(Request::new("HUP"))
    }

    fn cold_start(&mut self, env: &mut Environment) {
        env.fds.close_all_of(self.owner);
        env.procs.kill_all_of(self.owner);
        // A fresh server process has leaked nothing and starts a new
        // temp-file sequence; its served counter and defects carry over.
        self.state.leak_units = 0;
        self.state.cache_seq = 0;
    }

    fn as_crash_only(&mut self) -> Option<&mut dyn CrashOnly> {
        Some(self)
    }

    fn check_oracle(&self, env: &Environment) -> Vec<String> {
        let _ = env;
        let mut violations = Vec::new();
        // Session consistency: a worker pool at or past the address-space
        // crash threshold is only observable between requests if something
        // kept the server alive *through* the crash instead of releasing
        // the leaked units — every answer it produces is suspect.
        if self.state.leak_units >= LEAK_CRASH_UNITS {
            violations.push(format!(
                "worker pool serving with {} leaked units, at the address-space crash \
                 threshold of {LEAK_CRASH_UNITS}",
                self.state.leak_units
            ));
        }
        // Response well-formedness: a healthy server recycles a keep-alive
        // connection when its pipeline counter reaches the wrap limit, so a
        // counter at or past it between requests means the scoreboard slot
        // the next response is assembled from is out of range.
        if self.state.keepalive_count >= KEEPALIVE_WRAP {
            violations.push(format!(
                "keep-alive counter at {} reached the wrap limit of {KEEPALIVE_WRAP} \
                 without the connection being recycled",
                self.state.keepalive_count
            ));
        }
        violations
    }
}

/// Component indices of the server's crash-only partition.
const WEB_LISTENER: usize = 0;
const WEB_WORKERS: usize = 1;
const WEB_CACHE: usize = 2;
const WEB_SESSIONS: usize = 3;

/// The server's component tree: a listener owning a worker pool, a disk
/// cache, and a session store. Everything the workers can lose (request
/// scratch, leaked allocations, their descriptors and CGI children) is
/// volatile; the cache's in-memory sequence is rebuilt over the durable
/// cache files; the session store is the one place whose state no reboot
/// may discard.
static WEB_COMPONENTS: [ComponentDesc; 4] = [
    ComponentDesc {
        name: "web-listener",
        state_kind: StateKind::Volatile,
        boot_cost: Duration::from_millis(30),
        parent: None,
    },
    ComponentDesc {
        name: "web-worker-pool",
        state_kind: StateKind::Volatile,
        boot_cost: Duration::from_millis(20),
        parent: Some(WEB_LISTENER),
    },
    ComponentDesc {
        name: "web-cache",
        state_kind: StateKind::DurableSoft,
        boot_cost: Duration::from_millis(15),
        parent: Some(WEB_LISTENER),
    },
    ComponentDesc {
        name: "web-session-store",
        state_kind: StateKind::DurableHard,
        boot_cost: Duration::from_millis(40),
        parent: Some(WEB_LISTENER),
    },
];

impl CrashOnly for MiniWeb {
    fn components(&self) -> &'static [ComponentDesc] {
        &WEB_COMPONENTS
    }

    fn route(&self, body: &str) -> usize {
        if let Some(path) = body.strip_prefix("GET ") {
            if path == "/cached" {
                return WEB_CACHE;
            }
            return WEB_WORKERS;
        }
        if body.starts_with("AUTH ") {
            // Authentication checks credentials against the session store.
            return WEB_SESSIONS;
        }
        if body.starts_with("KEEPALIVE ") || body == "BIND" || body == "HUP" {
            return WEB_LISTENER;
        }
        // RESOLVE, SSL, SPAWN, PROBE, and anything unknown is worker work.
        WEB_WORKERS
    }

    fn crash_component(&mut self, index: usize, env: &mut Environment) {
        match index {
            WEB_LISTENER => {
                // Connections die with the listener: children it forked are
                // reaped and the keep-alive accounting starts over.
                env.procs.kill_all_of(self.owner);
                self.state.keepalive_count = 0;
            }
            WEB_WORKERS => {
                // The pool's descriptors, CGI children, and leaked
                // allocations all die with the pool — exactly the volatile
                // state a checkpoint-restoring recovery must preserve.
                env.fds.close_all_of(self.owner);
                env.procs.kill_all_of(self.owner);
                self.state.leak_units = 0;
            }
            WEB_CACHE => {
                // The in-memory sequence is discarded; cache files on disk
                // are the durable ground truth it reboots over.
                self.state.cache_seq = 0;
            }
            // Durable-hard: nothing may be discarded.
            _ => {}
        }
    }

    fn boot_component(&mut self, _index: usize, _env: &mut Environment) {
        // Reconstruction is lazy: the cache re-derives its sequence on the
        // next miss, the listener rebinds on the next BIND. Served counters
        // and armed defects are durable and carry over.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faultstudy_env::dns::DnsHealth;

    fn setup() -> (Environment, MiniWeb) {
        let mut env = Environment::builder()
            .seed(5)
            .fd_limit(8)
            .proc_slots(6)
            .fs_capacity(64 * 1024)
            .max_file_size(16 * 1024)
            .build();
        let web = MiniWeb::new(&mut env);
        (env, web)
    }

    #[test]
    fn healthy_server_serves_everything() {
        let (mut env, mut web) = setup();
        for body in ["GET /index.html", "SPAWN", "BIND", "SSL", "RESOLVE a.example"] {
            let resp = web.handle(&Request::new(body), &mut env).unwrap();
            assert!(resp.is_ok(), "{body}");
        }
        assert_eq!(web.served(), 5);
    }

    #[test]
    fn long_url_crashes_only_with_bug_injected() {
        let (mut env, mut web) = setup();
        let long = Request::new(format!("GET /{}", "x".repeat(1500)));
        assert!(web.handle(&long, &mut env).unwrap().is_ok());
        web.inject("apache-ei-01", &mut env).unwrap();
        let failure = web.handle(&long, &mut env).unwrap_err();
        assert!(matches!(failure, AppFailure::Crash(_)));
    }

    #[test]
    fn probe_path_fires_only_for_enabled_slug() {
        let (mut env, mut web) = setup();
        web.inject("apache-ei-17", &mut env).unwrap();
        assert!(web.handle(&Request::new("PROBE apache-ei-17"), &mut env).is_err());
        assert!(web.handle(&Request::new("PROBE apache-ei-18"), &mut env).unwrap().is_ok());
    }

    #[test]
    fn leak_crashes_on_third_burst_and_persists_through_checkpoint() {
        let (mut env, mut web) = setup();
        web.inject("apache-edn-01", &mut env).unwrap();
        let burst = web.trigger_request("apache-edn-01").unwrap();
        assert!(web.handle(&burst, &mut env).unwrap().is_ok());
        assert!(web.handle(&burst, &mut env).unwrap().is_ok());
        let checkpoint = web.snapshot();
        assert!(web.handle(&burst, &mut env).is_err(), "third burst crashes");
        // Generic recovery: restore all state — the leak comes back.
        web.restore(&checkpoint);
        assert!(web.handle(&burst, &mut env).is_err(), "leak persisted in checkpoint");
    }

    #[test]
    fn oracle_is_silent_on_a_healthy_server() {
        let (mut env, mut web) = setup();
        web.handle(&Request::new("GET /index.html"), &mut env).unwrap();
        web.handle(&Request::new("KEEPALIVE 4"), &mut env).unwrap();
        assert!(web.check_oracle(&env).is_empty());
    }

    #[test]
    fn oracle_catches_serving_past_the_leak_threshold() {
        let (mut env, mut web) = setup();
        web.inject("apache-edn-01", &mut env).unwrap();
        let burst = web.trigger_request("apache-edn-01").unwrap();
        web.handle(&burst, &mut env).unwrap();
        web.handle(&burst, &mut env).unwrap();
        assert!(web.check_oracle(&env).is_empty(), "below the threshold is fine");
        assert!(web.handle(&burst, &mut env).is_err(), "third burst crashes");
        // Going oblivious here — serving on without releasing the units —
        // is exactly what the oracle prices.
        let violations = web.check_oracle(&env);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("leaked units"), "{violations:?}");
    }

    #[test]
    fn oracle_catches_a_wrapped_keepalive_counter() {
        let (mut env, mut web) = setup();
        web.inject("apache-ei-19", &mut env).unwrap();
        let req = web.trigger_request("apache-ei-19").unwrap();
        assert!(web.handle(&req, &mut env).is_err(), "the wrap crashes the buggy build");
        let violations = web.check_oracle(&env);
        assert!(violations.iter().any(|v| v.contains("keep-alive")), "{violations:?}");
        // The healthy build recycles the connection: no violation.
        let (mut env2, mut web2) = setup();
        assert!(web2.handle(&req, &mut env2).unwrap().is_ok());
        assert!(web2.check_oracle(&env2).is_empty());
    }

    #[test]
    fn fd_exhaustion_fails_and_survives_recovery_kill() {
        let (mut env, mut web) = setup();
        web.inject("apache-edn-02", &mut env).unwrap();
        let req = web.trigger_request("apache-edn-02").unwrap();
        assert!(web.handle(&req, &mut env).is_err());
        // Generic recovery does not free the app's descriptors.
        env.on_generic_recovery(web.owner());
        assert!(web.handle(&req, &mut env).is_err(), "descriptors still gone");
    }

    #[test]
    fn process_table_fault_clears_after_generic_recovery() {
        let (mut env, mut web) = setup();
        web.inject("apache-edt-02", &mut env).unwrap();
        let req = web.trigger_request("apache-edt-02").unwrap();
        assert!(web.handle(&req, &mut env).is_err(), "table full");
        env.on_generic_recovery(web.owner());
        assert!(web.handle(&req, &mut env).unwrap().is_ok(), "slots freed by recovery");
    }

    #[test]
    fn held_port_freed_by_generic_recovery() {
        let (mut env, mut web) = setup();
        web.inject("apache-edt-04", &mut env).unwrap();
        let req = web.trigger_request("apache-edt-04").unwrap();
        assert!(web.handle(&req, &mut env).is_err());
        env.on_generic_recovery(web.owner());
        assert!(web.handle(&req, &mut env).unwrap().is_ok());
    }

    #[test]
    fn dns_error_heals_with_time_not_with_state_restore() {
        let (mut env, mut web) = setup();
        web.inject("apache-edt-01", &mut env).unwrap();
        let req = web.trigger_request("apache-edt-01").unwrap();
        assert!(web.handle(&req, &mut env).is_err());
        // Restoring state alone does not help...
        let snap = web.snapshot();
        web.restore(&snap);
        assert!(web.handle(&req, &mut env).is_err());
        // ...but time passing does.
        env.advance(Duration::from_secs(3));
        assert!(web.handle(&req, &mut env).unwrap().is_ok());
    }

    #[test]
    fn entropy_refills_during_recovery() {
        let (mut env, mut web) = setup();
        web.inject("apache-edt-07", &mut env).unwrap();
        let req = web.trigger_request("apache-edt-07").unwrap();
        assert!(web.handle(&req, &mut env).is_err());
        env.on_generic_recovery(web.owner()); // takes 1 simulated second
        assert!(web.handle(&req, &mut env).unwrap().is_ok());
    }

    #[test]
    fn timing_event_fault_fires_once() {
        let (mut env, mut web) = setup();
        web.inject("apache-edt-03", &mut env).unwrap();
        let first = web.trigger_request("apache-edt-03").unwrap();
        assert!(first.timing_event);
        assert!(web.handle(&first, &mut env).is_err());
        // The retry replays the request without the user's stop press.
        let mut retry = first.clone();
        retry.timing_event = false;
        assert!(web.handle(&retry, &mut env).unwrap().is_ok());
    }

    #[test]
    fn full_filesystem_fails_logged_requests_persistently() {
        let (mut env, mut web) = setup();
        web.inject("apache-edn-05", &mut env).unwrap();
        let req = web.trigger_request("apache-edn-05").unwrap();
        assert!(web.handle(&req, &mut env).is_err());
        env.on_generic_recovery(web.owner());
        env.advance(Duration::from_secs(60));
        assert!(web.handle(&req, &mut env).is_err(), "disk stays full");
    }

    #[test]
    fn hardware_removal_is_permanent_without_operator() {
        let (mut env, mut web) = setup();
        web.inject("apache-edn-07", &mut env).unwrap();
        let req = web.trigger_request("apache-edn-07").unwrap();
        assert!(web.handle(&req, &mut env).is_err());
        env.advance(Duration::from_secs(3600));
        assert!(web.handle(&req, &mut env).is_err());
        env.host.insert_hardware(HardwareComponent::PcmciaNic);
        env.net.repair();
        assert!(web.handle(&req, &mut env).unwrap().is_ok());
    }

    #[test]
    fn sighup_rejuvenation_reaps_children_and_leaks() {
        let (mut env, mut web) = setup();
        web.inject("apache-edn-01", &mut env).unwrap();
        let burst = Request::new("GET /burst");
        web.handle(&burst, &mut env).unwrap();
        let pid = env.procs.spawn(web.owner()).unwrap();
        env.procs.hang(pid).unwrap();
        let resp = web.handle(&Request::new("HUP"), &mut env).unwrap();
        assert!(resp.is_ok());
        assert_eq!(env.procs.count_of(web.owner()), 0);
        // Leak reset: three more bursts before the next crash.
        assert!(web.handle(&burst, &mut env).unwrap().is_ok());
        assert!(web.handle(&burst, &mut env).unwrap().is_ok());
        assert!(web.handle(&burst, &mut env).is_err());
    }

    #[test]
    fn unknown_slug_rejected_and_unknown_request_denied() {
        let (mut env, mut web) = setup();
        assert!(web.inject("mysql-ei-01", &mut env).is_err());
        assert!(web.trigger_request("gnome-ei-01").is_none());
        let resp = web.handle(&Request::new("TRACE /"), &mut env).unwrap();
        assert!(!resp.is_ok());
    }

    #[test]
    fn every_corpus_apache_slug_is_injectable_with_a_trigger() {
        let (mut env, mut web) = setup();
        for f in faultstudy_corpus::corpus_for(AppKind::Apache) {
            assert!(web.trigger_request(f.slug()).is_some(), "{}", f.slug());
        }
        // Injection of a representative from each class works.
        for slug in ["apache-ei-30", "apache-edn-04", "apache-edt-05"] {
            web.inject(slug, &mut env).unwrap();
        }
    }

    #[test]
    fn dns_slow_hang_heals_on_its_deadline() {
        let (mut env, mut web) = setup();
        web.inject("apache-edt-05", &mut env).unwrap();
        let req = web.trigger_request("apache-edt-05").unwrap();
        match web.handle(&req, &mut env) {
            Err(AppFailure::Hang(_)) => {}
            other => panic!("expected hang, got {other:?}"),
        }
        env.advance(Duration::from_secs(3));
        assert!(web.handle(&req, &mut env).unwrap().is_ok());
    }

    #[test]
    fn dns_injection_sets_health_visible_at_now() {
        let (mut env, mut web) = setup();
        web.inject("apache-edt-01", &mut env).unwrap();
        assert_eq!(env.dns.health_at(env.now()), DnsHealth::Erroring);
        let _ = web;
    }

    #[test]
    fn error_document_recursion_is_bounded_when_healthy() {
        let (mut env, mut web) = setup();
        let req = Request::new("GET /error-loop");
        assert!(!web.handle(&req, &mut env).unwrap().is_ok(), "healthy: loop detected");
        web.inject("apache-ei-13", &mut env).unwrap();
        assert!(matches!(web.handle(&req, &mut env), Err(AppFailure::Crash(_))));
    }

    #[test]
    fn escaped_slash_uri_handled_or_crashes_with_bug() {
        let (mut env, mut web) = setup();
        let req = web.trigger_request("apache-ei-26").unwrap();
        assert!(!web.handle(&req, &mut env).unwrap().is_ok(), "degenerate path denied");
        web.inject("apache-ei-26", &mut env).unwrap();
        assert!(web.handle(&req, &mut env).is_err());
        // A single "/" is the root document, not a degenerate path.
        assert!(web.handle(&Request::new("GET /"), &mut env).unwrap().is_ok());
    }

    #[test]
    fn keepalive_counter_wrap_only_crashes_with_bug() {
        let (mut env, mut web) = setup();
        let burst = web.trigger_request("apache-ei-19").unwrap();
        assert!(web.handle(&burst, &mut env).unwrap().is_ok(), "healthy: reconnects");
        web.inject("apache-ei-19", &mut env).unwrap();
        assert!(web.handle(&burst, &mut env).is_err());
        // Small bursts never reach the wrap point even with the bug.
        let mut fresh_env = Environment::builder().seed(8).build();
        let mut fresh = MiniWeb::new(&mut fresh_env);
        fresh.inject("apache-ei-19", &mut fresh_env).unwrap();
        assert!(fresh.handle(&Request::new("KEEPALIVE 100"), &mut fresh_env).unwrap().is_ok());
    }

    #[test]
    fn a_huge_keepalive_count_saturates_the_counter() {
        // 5 + u64::MAX saturates the counter past the wrap limit instead
        // of overflowing it.
        let huge = Request::new("KEEPALIVE 18446744073709551615");
        let (mut env, mut web) = setup();
        web.handle(&Request::new("KEEPALIVE 5"), &mut env).unwrap();
        let resp = web.handle(&huge, &mut env).unwrap();
        assert_eq!(resp, Response::Ok("served 18446744073709551615 pipelined requests".into()));
        assert_eq!(web.state.keepalive_count, 0, "the healthy build recycles the connection");

        let (mut env, mut web) = setup();
        web.inject("apache-ei-19", &mut env).unwrap();
        web.handle(&Request::new("KEEPALIVE 5"), &mut env).unwrap();
        assert!(matches!(web.handle(&huge, &mut env), Err(AppFailure::Crash(_))));
    }

    #[test]
    fn realm_overflow_only_crashes_with_bug() {
        let (mut env, mut web) = setup();
        let long = web.trigger_request("apache-ei-32").unwrap();
        assert!(!web.handle(&long, &mut env).unwrap().is_ok(), "healthy: denied");
        let short = Request::new("AUTH intranet");
        assert!(web.handle(&short, &mut env).unwrap().is_ok());
        web.inject("apache-ei-32", &mut env).unwrap();
        assert!(web.handle(&long, &mut env).is_err());
        assert!(web.handle(&short, &mut env).unwrap().is_ok(), "short realms still fine");
    }

    #[test]
    fn arm_defect_enables_the_bug_without_touching_the_environment() {
        let (mut env, mut web) = setup();
        web.arm_defect("apache-edn-02").unwrap();
        // No inject-time descriptor exhaustion: the trigger still succeeds
        // until something else (an injection plan) drains the table.
        let req = web.trigger_request("apache-edn-02").unwrap();
        assert!(web.handle(&req, &mut env).unwrap().is_ok(), "environment untouched");
        let hog = env.register_owner();
        env.fds.exhaust_as(hog);
        assert!(web.handle(&req, &mut env).is_err(), "armed defect fires once env degrades");
        assert!(web.arm_defect("mysql-ei-01").is_err(), "foreign slug rejected");
    }

    #[test]
    fn snapshot_restore_round_trip_is_identity() {
        let (mut env, mut web) = setup();
        web.inject("apache-ei-09", &mut env).unwrap();
        web.handle(&Request::new("GET /a"), &mut env).unwrap();
        let snap = web.snapshot();
        web.handle(&Request::new("GET /b"), &mut env).unwrap();
        web.restore(&snap);
        assert_eq!(web.snapshot(), snap);
        assert_eq!(web.served(), 1);
    }
}
