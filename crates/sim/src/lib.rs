//! Deterministic discrete-event simulation substrate for the fault study.
//!
//! Everything in the reproduction that could be a source of nondeterminism —
//! time, randomness, thread interleaving — is owned by this crate. The paper's
//! own observation motivates this design: *"given a fixed operating
//! environment, a set of concurrent, sequential processes is completely
//! deterministic"* (§3, citing Dijkstra). By funnelling every nondeterministic
//! input through a seeded PRNG and a logical clock, a whole recovery
//! experiment becomes a pure function of `(fault, strategy, seed)`, which is
//! what lets the test suite assert exact outcomes.
//!
//! # Modules
//!
//! - [`time`] — logical time ([`SimTime`], [`Duration`]) and the clock.
//! - [`rng`] — SplitMix64 and xoshiro256\*\* deterministic PRNGs.
//! - [`wheel`] — the event queue ([`TimingWheel`], a binary heap): O(log n)
//!   schedule and pop, FIFO among same-time events.
//! - [`sched`] — a cooperative step scheduler with controllable
//!   interleavings, used to reproduce race-condition faults.
//! - [`trace`] — bounded in-memory trace ring for debugging experiments.
//!
//! # Example
//!
//! ```
//! use faultstudy_sim::{time::SimTime, TimingWheel};
//!
//! let mut wheel = TimingWheel::new();
//! wheel.schedule(SimTime::from_millis(5), "second");
//! wheel.schedule(SimTime::from_millis(1), "first");
//! let (t, ev) = wheel.pop().unwrap();
//! assert_eq!((t, ev), (SimTime::from_millis(1), "first"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod rng;
pub mod sched;
pub mod time;
pub mod trace;
pub mod wheel;

pub use rng::{DetRng, SplitMix64, Xoshiro256StarStar};
pub use sched::{Interleaver, StepOutcome, StepScheduler, Task, TaskId};
pub use time::{Clock, Duration, SimTime};
pub use trace::{Trace, TraceEntry};
pub use wheel::TimingWheel;
