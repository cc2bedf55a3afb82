//! Deterministic observability for the fault study.
//!
//! Candea et al. argue that recovery machinery must be *measured* to be
//! kept cheap, and the paper's own end-to-end check hinges on *when*
//! recovery happens (transient conditions heal with simulated time). This
//! crate supplies the measuring instruments without giving up the
//! workspace's central invariant — every result is a pure function of the
//! seed:
//!
//! - [`MetricsRegistry`] — counters, gauges, and fixed-bucket
//!   [`Histogram`]s behind ordered string keys (`name{label}`).
//! - [`Span`] — intervals measured in **simulated** time (`SimTime`), so
//!   span lengths derive from the experiment seed, never the wall clock.
//! - [`Metrics`] — the optional sink an `Environment` carries; disabled it
//!   is one null check per record, enabled it forwards to a boxed
//!   registry.
//!
//! # Merge discipline
//!
//! Parallel executors (`faultstudy-exec::run_indexed`) give each worker a
//! private registry and merge the per-sample registries **in index order**
//! via [`MetricsRegistry::merged_in_index_order`] — the same discipline the
//! campaign uses for its samples. Counter addition and histogram merging
//! are associative and commutative (the property tests prove it), so the
//! merged registry is byte-identical at any thread count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod histogram;
pub mod registry;
pub mod span;

pub use histogram::{bucket_hi, bucket_index, bucket_lo, Histogram, Tally, BUCKETS};
pub use registry::{Metrics, MetricsRegistry};
pub use span::Span;
