//! The simulated operating environment for the fault study.
//!
//! The paper classifies faults *"based on how they depend on the operating
//! environment"* (§3): states or events outside the application — other
//! programs (DNS), kernel state (process-table slots, file descriptors),
//! hardware conditions, and the timing of workload requests. This crate
//! implements each environmental resource the paper's 26 environment-
//! dependent faults name, so that the recovery experiments in
//! `faultstudy-harness` exercise the same *persist-vs-change-on-retry*
//! distinction the paper reasons about.
//!
//! # Modules
//!
//! - [`condition`] — the [`ConditionKind`] vocabulary shared by the corpus,
//!   the applications, and the classifier, plus each condition's expected
//!   [`Persistence`] across a generic recovery.
//! - [`fs`] — a virtual filesystem with finite capacity and a maximum file
//!   size (full-filesystem and file-too-big faults).
//! - [`fdtable`] — a bounded file-descriptor table (fd-exhaustion faults).
//! - [`proctable`] — a bounded process table with per-owner accounting and
//!   hang states (process-slot and hung-children faults).
//! - [`dns`] — a DNS service that can be healthy, erroring, slow, or missing
//!   reverse records, with natural repair over time.
//! - [`network`] — link quality, exhaustible "network resources", and a port
//!   namespace.
//! - [`entropy`] — a `/dev/random`-style pool that drains and refills.
//! - [`host`] — hostname, removable hardware, signal delivery flags.
//! - [`environment`] — [`Environment`], the aggregate, including
//!   [`Environment::on_generic_recovery`] which encodes the paper's retry
//!   semantics, and natural dynamics under [`Environment::advance`].
//! - [`witness`] — the log of every read of a seed-derived value
//!   ([`ReadLog`](witness::ReadLog)), and the replay that judges logged
//!   reads for another seed.
//!
//! # Example
//!
//! ```
//! use faultstudy_env::{Environment, condition::{ConditionKind, Persistence}};
//!
//! let mut env = Environment::builder().seed(1).fd_limit(8).build();
//! let app = env.register_owner();
//! for _ in 0..8 {
//!     env.fds.open(app).unwrap();
//! }
//! assert!(env.holds(ConditionKind::FdExhaustion));
//! // Generic recovery restores all app state, so fd exhaustion persists:
//! assert_eq!(ConditionKind::FdExhaustion.persistence(), Persistence::Persists);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod condition;
pub mod dns;
pub mod entropy;
pub mod environment;
pub mod fdtable;
pub mod fs;
pub mod host;
pub mod network;
pub mod proctable;
pub mod witness;

pub use condition::{ConditionKind, Persistence};
pub use environment::{Environment, EnvironmentBuilder, OwnerId};
