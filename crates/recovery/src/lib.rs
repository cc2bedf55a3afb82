//! Recovery strategies: application-generic techniques (restart-retry,
//! process pairs, rollback-recovery, progressive retry, rejuvenation) and
//! the application-specific comparator.
//!
//! §2 of the paper defines the contract this crate implements: a *truly
//! generic* recovery mechanism "must preserve all application state (e.g.
//! by checkpointing or logging), because there is no application-specific
//! code to reconstruct missing state. Hence only a change external to the
//! application can allow the application to succeed on retry." Every
//! generic strategy here therefore restores checkpoints byte-for-byte and
//! touches only the environment ([`faultstudy_env::Environment::on_generic_recovery`]);
//! the [`AppSpecific`] comparator is the one allowed to call
//! [`Application::cold_start`](faultstudy_apps::Application::cold_start).
//!
//! # Modules
//!
//! - [`strategy`] — the [`RecoveryStrategy`] trait and [`NoRecovery`].
//! - [`restart`] — generic restart + retry from the last checkpoint.
//! - [`pair`] — process pairs \[Gray86\]: per-request state mirroring with
//!   fast failover.
//! - [`rollback`] — checkpoint every N requests + message-log replay
//!   [Elnozahy99, Huang93].
//! - [`progressive`] — progressive retry with environment perturbation
//!   \[Wang93\].
//! - [`rejuvenation`] — proactive software rejuvenation \[Huang95\].
//! - [`app_specific`] — the application-specific comparator.
//! - [`supervisor`] — drives a workload against an application under a
//!   strategy and reports survival; the hardened variant adds watchdog
//!   deadlines, bounded backoff, a circuit breaker, and policy-gated
//!   environment scrubbing.
//! - [`backoff`] — deterministic capped exponential backoff with jitter.
//! - [`breaker`] — the per-strategy circuit breaker.
//! - [`tree`] — microreboot: crash-only component recovery over a
//!   per-component restart tree with breaker-driven escalation.
//! - [`oblivious`] — failure-oblivious continuation: discard the failing
//!   request ([`Oblivious`]) or synthesize a deterministic default answer
//!   ([`ManufacturedValue`]) instead of abandoning the stream.
//! - [`scrub`] — [`StateScrub`]: drop volatile component state in place,
//!   the application-state generalization of environment scrubbing.
//! - [`healer`] — [`ProfileHealer`]: a runtime-profile-guided meta-strategy
//!   that picks retry/scrub/discard per attempt from observed failure
//!   signatures.
//! - [`thread_pair`] — a real-thread process-pair demonstration on
//!   crossbeam channels.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod app_specific;
pub mod backoff;
pub mod breaker;
pub mod healer;
pub mod oblivious;
pub mod pair;
pub mod progressive;
pub mod rejuvenation;
pub mod restart;
pub mod rollback;
pub mod scrub;
pub mod strategy;
pub mod supervisor;
pub mod thread_pair;
pub mod tree;

pub use app_specific::AppSpecific;
pub use backoff::BackoffPolicy;
pub use breaker::CircuitBreaker;
pub use healer::{FailureProfile, ProfileHealer};
pub use oblivious::{ManufacturedValue, Oblivious};
pub use pair::ProcessPair;
pub use progressive::ProgressiveRetry;
pub use rejuvenation::Rejuvenation;
pub use restart::{refresh_checkpoint, RestartRetry};
pub use rollback::RollbackRecovery;
pub use scrub::StateScrub;
pub use strategy::{NoRecovery, RecoveryStrategy};
pub use supervisor::{
    run_workload, run_workload_supervised, EnvHook, RequestSupervisor, ServeOutcome, SupervisedRun,
    SupervisorConfig, WorkloadRun,
};
pub use tree::{MicroReboot, RebootScope, RestartTree};
