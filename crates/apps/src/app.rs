//! The application abstraction shared by the three simulated programs.

use crate::minidb::DbState;
use crate::minide::DeState;
use crate::miniweb::WebState;
use crate::text::Text;
use faultstudy_core::taxonomy::AppKind;
use faultstudy_env::{Environment, OwnerId};
use faultstudy_micro::CrashOnly;
use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;

/// One workload request to an application.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The application-specific command, e.g. `"GET /index.html"` or
    /// `"SELECT COUNT(*) FROM t"`.
    pub body: Cow<'static, str>,
    /// The requesting client's host name (used by reverse-DNS paths).
    pub client: Cow<'static, str>,
    /// Whether the one-shot external timing event accompanying this
    /// request fires (a user pressing stop mid-download, an unexplained
    /// transient). The event belongs to the *operating environment's
    /// timing*, so a generic recovery's replay of the same request does
    /// not replay the event — the harness sets this only on the first
    /// attempt.
    pub timing_event: bool,
}

impl Request {
    /// A request with the given body from the default client. A literal
    /// body stays borrowed; only a computed one is owned.
    pub fn new(body: impl Into<Cow<'static, str>>) -> Request {
        Request { body: body.into(), client: Cow::Borrowed("client0"), timing_event: false }
    }

    /// Sets the client host.
    pub(crate) fn with_client(mut self, client: impl Into<Cow<'static, str>>) -> Request {
        self.client = client.into();
        self
    }

    /// Arms the one-shot timing event.
    pub fn with_timing_event(mut self) -> Request {
        self.timing_event = true;
        self
    }
}

impl fmt::Display for Request {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (from {})", self.body, self.client)
    }
}

/// A successful (or gracefully failed) response.
///
/// The payload is a [`Text`]: literal answers borrow their text, and the
/// formatted ones (`200 OK {path}`, `connected {client}`) keep their
/// pieces and render only when displayed, so answering a request whose
/// body and client are borrowed allocates nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// The request was served; payload is application-specific.
    Ok(Text),
    /// The application detected a problem and reported it without failing
    /// (e.g. an SQL syntax error). Not a fault manifestation.
    Denied(Text),
}

impl Response {
    /// Whether the request was served.
    pub fn is_ok(&self) -> bool {
        matches!(self, Response::Ok(_))
    }
}

/// A high-impact failure: the manifestations the study selects for —
/// crashes, hangs, and hard error returns (§4). The reason is a [`Text`],
/// rendered only if a defeated run reports it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AppFailure {
    /// The process died (segfault, abort, assertion).
    Crash(Text),
    /// The process stopped responding.
    Hang(Text),
    /// The operation failed hard with an error the application could not
    /// mask (e.g. every write failing on a full filesystem).
    ErrorReturn(Text),
}

impl fmt::Display for AppFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AppFailure::Crash(r) => write!(f, "crash: {r}"),
            AppFailure::Hang(r) => write!(f, "hang: {r}"),
            AppFailure::ErrorReturn(r) => write!(f, "error: {r}"),
        }
    }
}

impl std::error::Error for AppFailure {}

/// An opaque application checkpoint.
///
/// A *truly generic* recovery system "must preserve all application state
/// (e.g. by checkpointing or logging), because there is no application-
/// specific code to reconstruct missing state" (§2). The checkpoint is a
/// typed copy of the application's own state, and its one field is private
/// to this crate: the recovery layer can store a checkpoint and hand it back
/// to [`Application::restore`], but cannot interpret it.
///
/// It is not a serialization tree. Nothing but the application that took a
/// checkpoint ever reads it, and checkpoint strategies refresh theirs after
/// *every* served request. A strategy keeps one checkpoint and refreshes it
/// in place ([`Application::snapshot_into`]) rather than building a new one
/// per request. The parts that stay fixed for a whole unit (the armed
/// defects, the desktop's boot hostname) sit behind shared handles, and a
/// refresh or a restore leaves a handle that already points at the
/// application's own alone, so either one copies only what requests
/// change.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AppState(pub(crate) Checkpoint);

/// The state a checkpoint holds: one variant per application.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) enum Checkpoint {
    /// An application that keeps no state, such as a test double.
    #[default]
    Stateless,
    Web(WebState),
    Db(DbState),
    De(DeState),
}

/// Points `into` at what `from` points at, unless it already does: copying
/// a checkpoint over one that shares the handle touches no reference count.
pub(crate) fn share<T: ?Sized>(into: &mut Arc<T>, from: &Arc<T>) {
    if !Arc::ptr_eq(into, from) {
        *into = Arc::clone(from);
    }
}

/// Error injecting a fault: the application does not know the slug, or
/// the environment cannot take the fault's precondition (a full disk has
/// no room for the file the trigger needs). The defect stays unarmed, and
/// neither the application nor the environment changes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectError {
    /// The slug that was not injected.
    pub slug: String,
    /// Why the injection failed.
    pub reason: &'static str,
}

impl InjectError {
    pub(crate) fn new(slug: &str, reason: &'static str) -> InjectError {
        InjectError { slug: slug.to_owned(), reason }
    }

    /// The application does not know `slug`.
    pub(crate) fn unknown(slug: &str) -> InjectError {
        InjectError::new(slug, "unknown fault slug for this application")
    }
}

impl fmt::Display for InjectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot inject {}: {}", self.slug, self.reason)
    }
}

impl std::error::Error for InjectError {}

/// A simulated application: a checkpointable state machine over the
/// simulated operating environment.
pub trait Application {
    /// Which of the study's applications this simulates.
    fn kind(&self) -> AppKind;

    /// The application's resource-owner id in the environment.
    fn owner(&self) -> OwnerId;

    /// Handles one request against the environment.
    ///
    /// # Errors
    ///
    /// Returns an [`AppFailure`] when the request manifests a fault
    /// (injected or environmental).
    fn handle(&mut self, req: &Request, env: &mut Environment) -> Result<Response, AppFailure>;

    /// Takes a full checkpoint of application state.
    fn snapshot(&self) -> AppState;

    /// Overwrites `into` with a full checkpoint of application state: the
    /// same value [`Application::snapshot`] returns, but refreshed in place
    /// where `into` already holds a checkpoint of this kind of application.
    /// The default replaces `into` with a new snapshot.
    fn snapshot_into(&self, into: &mut AppState) {
        *into = self.snapshot();
    }

    /// Restores a checkpoint taken by [`Application::snapshot`].
    fn restore(&mut self, state: &AppState);

    /// Enables the corpus fault `slug` in this application and sets up any
    /// environmental precondition the fault's trigger requires (fills the
    /// disk, exhausts descriptors, breaks DNS, …).
    ///
    /// # Errors
    ///
    /// [`InjectError`] if the slug does not belong to this application, or
    /// if the environment cannot take the precondition.
    fn inject(&mut self, slug: &str, env: &mut Environment) -> Result<(), InjectError>;

    /// Arms the corpus defect `slug` in this application *without* touching
    /// the environment. Where [`Application::inject`] also establishes the
    /// fault's environmental precondition (fills the disk, exhausts
    /// descriptors), `arm_defect` enables only the code defect — the
    /// environmental half is left to an external fault-injection plan that
    /// perturbs the environment on its own schedule. The default refuses
    /// every slug; applications that support plan-driven injection override
    /// it.
    ///
    /// # Errors
    ///
    /// [`InjectError`] if the slug does not belong to this application.
    fn arm_defect(&mut self, slug: &str) -> Result<(), InjectError> {
        Err(InjectError::unknown(slug))
    }

    /// The request that triggers fault `slug` (the How-To-Repeat field), or
    /// `None` for unknown slugs.
    fn trigger_request(&self, slug: &str) -> Option<Request>;

    /// A benign request used as background load; must succeed on a healthy
    /// application.
    fn benign_request(&self) -> Request;

    /// The request that invokes the application's own rejuvenation code
    /// (§6.2's example: Apache's special signal), or `None` if the
    /// application has no such hook. Software rejuvenation \[Huang95\] "takes
    /// advantage of recovery code that is already present in the
    /// application", so this is inherently application-specific.
    fn rejuvenate_request(&self) -> Option<Request> {
        None
    }

    /// Application-specific cold start: re-initialize session state from
    /// the *current* environment using application knowledge — release the
    /// application's own leaked resources, rebind to the current hostname,
    /// reset internal counters — while preserving durable data and, of
    /// course, the code's defects. This is the "application-specific
    /// recovery" comparator of §2: exactly the state reconstruction a
    /// purely generic mechanism is not allowed to perform.
    fn cold_start(&mut self, env: &mut Environment) {
        env.fds.close_all_of(self.owner());
        env.procs.kill_all_of(self.owner());
    }

    /// The application's crash-only component view, if it is partitioned
    /// into microrebootable components (see [`faultstudy_micro`]). The
    /// default has no partition, under which a microrebooting supervisor
    /// degenerates to whole-process restart.
    fn as_crash_only(&mut self) -> Option<&mut dyn CrashOnly> {
        None
    }

    /// The application's correctness oracle: checks every application
    /// invariant that must hold *between* requests against the current
    /// state and environment, returning one description per violation (an
    /// empty vector means the state is consistent). The supervisor
    /// evaluates this after every recovery so a campaign can report the
    /// *silent-wrong-answer* cost of a strategy — an oblivious rescue that
    /// keeps serving from corrupt state shows up here, not in availability.
    ///
    /// The oracle must be read-only and must never consume simulated time;
    /// the default knows no invariants and reports none.
    fn check_oracle(&self, env: &Environment) -> Vec<String> {
        let _ = env;
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_builder_chain() {
        let r = Request::new("GET /").with_client("host9").with_timing_event();
        assert_eq!(r.body, "GET /");
        assert_eq!(r.client, "host9");
        assert!(r.timing_event);
        assert_eq!(r.to_string(), "GET / (from host9)");
    }

    #[test]
    fn response_predicates() {
        assert!(Response::Ok("x".into()).is_ok());
        assert!(!Response::Denied("y".into()).is_ok());
    }

    #[test]
    fn failure_display() {
        let f = AppFailure::Crash("segfault".into());
        assert_eq!(f.to_string(), "crash: segfault");
        assert_eq!(AppFailure::Hang("stuck".into()).to_string(), "hang: stuck");
        assert_eq!(AppFailure::ErrorReturn("enospc".into()).to_string(), "error: enospc");
    }

    #[test]
    fn inject_error_display() {
        let e = InjectError::unknown("nope");
        assert!(e.to_string().contains("nope"));
        assert!(e.to_string().contains(e.reason));
    }
}
