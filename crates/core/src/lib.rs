//! Fault taxonomy, bug-report model, classifier, and study aggregation —
//! the primary contribution of the DSN 2000 fault study in executable form.
//!
//! The paper's method (§3–§5) is: collect high-impact bug reports from
//! released versions of three open-source applications, extract from each
//! report the evidence of how the fault depends on the *operating
//! environment*, classify the fault as environment-independent,
//! environment-dependent-nontransient, or environment-dependent-transient,
//! and aggregate the classifications into per-application tables and
//! per-release/per-time figures.
//!
//! # Modules
//!
//! - [`taxonomy`] — [`FaultClass`], [`AppKind`], [`Severity`], and the rule
//!   deriving a class from a triggering condition.
//! - [`report`] — the [`report::BugReport`] data model, including the
//!   "How-To-Repeat" field the paper calls *key* (§4).
//! - [`flat`] — [`flat::ReportColumns`]: struct-of-arrays report storage
//!   over a contiguous text arena, the layout archives scan at scale.
//! - [`evidence`] — [`evidence::Evidence`], the structured facts a
//!   classifier needs, and extraction of evidence from report text.
//! - [`lexicon`] — the keyword → condition lexicon used by extraction.
//! - [`classify`] — the rule-based [`classify::Classifier`].
//! - [`stats`] — chi-square homogeneity test quantifying the figures'
//!   proportion-stability claim.
//! - [`study`] — [`study::Study`]: per-app class counts, totals,
//!   percentages; reproduces Tables 1–3 and the §5.4 aggregates.
//! - [`timeline`] — fault distributions over releases (Figures 1 and 3)
//!   and over time (Figure 2).
//!
//! # Example
//!
//! ```
//! use faultstudy_core::classify::Classifier;
//! use faultstudy_core::report::BugReport;
//! use faultstudy_core::taxonomy::{AppKind, FaultClass, Severity};
//!
//! let report = BugReport::builder(AppKind::Apache, 1)
//!     .title("server dies with segfault on long URL")
//!     .how_to_repeat("request a URL longer than 8k; crashes every time")
//!     .severity(Severity::Critical)
//!     .build();
//! let classification = Classifier::default().classify_report(&report);
//! assert_eq!(classification.class, FaultClass::EnvironmentIndependent);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod classify;
pub mod evidence;
pub mod flat;
pub mod lexicon;
pub mod report;
pub mod stats;
pub mod study;
pub mod taxonomy;
pub mod timeline;

pub use classify::{Classification, Classifier};
pub use evidence::Evidence;
pub use report::BugReport;
pub use study::{ClassifiedFault, Study};
pub use taxonomy::{AppKind, FaultClass, Severity};
