//! The experiment harness: maps corpus faults onto the simulated
//! applications, runs them under every recovery strategy, and aggregates
//! the per-class survival matrix — the paper's proposed end-to-end check
//! (§5.4, §8) that the bug-report classification actually predicts
//! recovery behaviour.
//!
//! # Modules
//!
//! - [`experiment`] — one fault × one strategy → one [`FaultOutcome`].
//! - [`Campaign`] — the one runner the recovery matrix and the six
//!   campaigns below implement.
//! - [`ablation`] — parameter sweeps over the recovery designs (E11–E13).
//! - [`matrix`] — the full corpus × strategy survival matrix.
//! - [`funnel`] — the §4 selection funnels at paper scale.
//! - [`traffic`] — open-loop traffic streams with per-request SLO
//!   accounting under injection load.
//! - [`micro`] — microreboot (crash-only component recovery) measured
//!   against whole-process restart under the same traffic.
//! - [`graph`] — the distributed IPC fault plane: the three applications
//!   wired into a service graph, wire-level fault injection, and
//!   per-channel recovery raced against process supervision.
//! - [`oblivious`] — failure-oblivious continuation and self-healing
//!   measured against restart, priced by per-application correctness
//!   oracles.
//!
//! # Example
//!
//! ```
//! use faultstudy_harness::experiment::{run_fault_experiment, StrategyKind};
//! use faultstudy_corpus::find;
//!
//! let fault = find("apache-edt-02").unwrap();
//! let outcome = run_fault_experiment(&fault, StrategyKind::Restart, 1);
//! assert!(outcome.survived, "hung children are cleared by generic recovery");
//!
//! let fault = find("apache-ei-01").unwrap();
//! let outcome = run_fault_experiment(&fault, StrategyKind::Restart, 1);
//! assert!(!outcome.survived, "deterministic faults defeat generic recovery");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod campaign;
mod driver;
pub mod experiment;
pub mod expreport;
pub mod funnel;
pub mod graph;
pub mod inject;
pub mod matrix;
pub mod micro;
pub mod oblivious;
pub mod traffic;
pub mod workload;

pub use campaign::{CampaignReport, CampaignSpec};
pub use driver::{Campaign, LoadSpec};
pub use experiment::{
    run_fault_experiment, run_fault_experiment_instrumented, FaultOutcome, StrategyKind,
};
pub use expreport::experiments_markdown;
pub use faultstudy_exec::ParallelSpec;
pub use funnel::{paper_scale_funnels, paper_scale_funnels_instrumented, paper_scale_funnels_with};
pub use graph::{GraphCell, GraphReport, GraphSpec, GRAPH_BUDGETS};
pub use inject::{InjectCell, InjectReport, InjectSpec};
pub use matrix::RecoveryMatrix;
pub use micro::{micro_plans, MicroCell, MicroReport, RecoveryMode};
pub use oblivious::{HealMode, ObliviousCell, ObliviousReport, ObliviousSpec};
pub use traffic::{TrafficCell, TrafficReport, TrafficSpec};
