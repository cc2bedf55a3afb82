//! # faultstudy
//!
//! Umbrella crate for the reproduction of *"Whither Generic Recovery from
//! Application Faults? A Fault Study using Open-Source Software"*
//! (Chandra & Chen, DSN 2000).
//!
//! This crate re-exports every sub-crate of the workspace under one roof so
//! that examples, integration tests, and downstream users can depend on a
//! single package:
//!
//! - [`sim`] — deterministic discrete-event substrate.
//! - [`exec`] — deterministic parallel work distribution.
//! - [`env`](mod@env) — the simulated operating environment.
//! - [`core`] — fault taxonomy, bug-report model, classifier, study tables.
//! - [`corpus`] — the curated 139-fault corpus and synthetic generators.
//! - [`mining`] — bug-archive models and the selection pipeline of §4.
//! - [`apps`] — simulated applications with injectable faults.
//! - [`recovery`] — generic (and comparison app-specific) recovery strategies
//!   plus the hardened supervisor (watchdog, backoff, breaker, scrubbing).
//! - [`inject`] — plan-driven deterministic environment fault injection.
//! - [`harness`] — the experiment runner and per-class survival matrix.
//! - [`obs`] — deterministic metrics: simulated-time histograms and spans.
//! - [`report`] — table/figure rendering and the Lee–Iyer reconciliation.
//! - [`traffic`] — deterministic open-loop traffic engine with per-request
//!   SLO accounting.
//! - [`micro`] — crash-only component model: state-kind taxonomy and the
//!   crash/boot contract behind microreboot recovery.
//! - [`graph`] — distributed IPC fault plane: the applications wired into
//!   a service graph with channel-level fault injection, cascade
//!   accounting, and per-channel recovery.
//!
//! # Quickstart
//!
//! ```
//! use faultstudy::corpus::full_corpus;
//! use faultstudy::core::study::Study;
//!
//! let corpus = full_corpus();
//! let study = Study::from_faults(corpus.iter().map(|f| f.as_classified()));
//! assert_eq!(study.total(), 139);
//! ```

#![forbid(unsafe_code)]

pub use faultstudy_apps as apps;
pub use faultstudy_core as core;
pub use faultstudy_corpus as corpus;
pub use faultstudy_env as env;
pub use faultstudy_exec as exec;
pub use faultstudy_graph as graph;
pub use faultstudy_harness as harness;
pub use faultstudy_inject as inject;
pub use faultstudy_micro as micro;
pub use faultstudy_mining as mining;
pub use faultstudy_obs as obs;
pub use faultstudy_recovery as recovery;
pub use faultstudy_report as report;
pub use faultstudy_sim as sim;
pub use faultstudy_traffic as traffic;
