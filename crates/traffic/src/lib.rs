//! Deterministic open-loop traffic generation in simulated time.
//!
//! The fault study's original harness replayed a fixed workload slice per
//! experiment rep. This crate replaces that with *traffic*: an open-loop
//! stream of user sessions whose arrivals, request mixes, and think times
//! are all pure functions of a seed, scheduled on a binary-heap event
//! queue and served one request at a time through the recovery
//! supervisor. Because the whole stream lives in simulated time, a unit
//! offering a million requests runs in well under a second of wall time
//! and replays byte-identically at any thread count.
//!
//! - [`wheel`](faultstudy_sim::wheel) (in `faultstudy-sim`) — the event
//!   queue the engine drains.
//! - [`arrival`] — Poisson, bursty on/off, and diurnal arrival processes
//!   derived from `split_seed`.
//! - [`session`] — user sessions: a burst of requests with exponential
//!   think time and a seeded request-mix pick.
//! - [`engine`] — the open-loop driver every serving engine runs on, and
//!   its per-unit [`UnitStats`] ledger (availability, goodput, SLO
//!   violations, latency histogram).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arrival;
pub mod engine;
pub mod params;
pub mod session;

pub use arrival::{ArrivalKind, ArrivalProcess};
pub use engine::{drive_open_loop, run_open_loop, Answer, UnitStats};
pub use params::TrafficParams;
pub use session::Session;
