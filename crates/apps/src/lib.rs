//! Simulated applications with injectable faults keyed to the corpus.
//!
//! The paper's future work (§8) is to "implement applications like Apache
//! and MySQL using various fault-tolerant techniques and test how well they
//! recover from the bugs reported in error logs". This crate builds that
//! testbed: three applications that run against the simulated operating
//! environment of `faultstudy-env` and expose every corpus fault as an
//! injectable defect:
//!
//! - [`miniweb`] — an Apache-like request server (URL handling, access
//!   logging with rotation, a child-process pool, CGI-ish handlers).
//! - [`minidb`] — a MySQL-like engine with a small SQL subset (CREATE,
//!   INSERT, SELECT with WHERE/ORDER BY/COUNT, UPDATE, DELETE, LOCK/FLUSH,
//!   OPTIMIZE) over tables persisted in the virtual filesystem.
//! - [`minide`] — a GNOME-like desktop shell (panel, applets, file-manager
//!   operations, property dialogs).
//!
//! Each implements [`Application`]: a checkpointable state machine driven
//! by [`Request`]s whose failures ([`AppFailure`]) the recovery strategies
//! in `faultstudy-recovery` react to. Faults are injected by corpus slug
//! ([`Application::inject`]); the application also knows the workload that
//! triggers each of its faults ([`Application::trigger_request`]), playing
//! the role of the bug report's How-To-Repeat field.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod app;
pub mod minidb;
pub mod minide;
pub mod miniweb;
pub mod race;
pub mod text;

pub use app::{AppFailure, AppState, Application, InjectError, Request, Response};
pub use minidb::MiniDb;
pub use minide::MiniDe;
pub use miniweb::MiniWeb;
pub use text::Text;

use faultstudy_core::taxonomy::AppKind;
use faultstudy_env::Environment;

/// Constructs the simulated application for `kind`, registered against
/// `env`.
///
/// # Example
///
/// ```
/// use faultstudy_apps::spawn_app;
/// use faultstudy_core::taxonomy::AppKind;
/// use faultstudy_env::Environment;
///
/// let mut env = Environment::builder().seed(1).build();
/// let app = spawn_app(AppKind::Mysql, &mut env);
/// assert_eq!(app.kind(), AppKind::Mysql);
/// ```
pub fn spawn_app(kind: AppKind, env: &mut Environment) -> Box<dyn Application> {
    match kind {
        AppKind::Apache => Box::new(MiniWeb::new(env)),
        AppKind::Gnome => Box::new(MiniDe::new(env)),
        AppKind::Mysql => Box::new(MiniDb::new(env)),
    }
}
