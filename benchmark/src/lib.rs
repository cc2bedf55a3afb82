//! The repository's benchmark: five campaign workloads timed end to end,
//! and a traced run that splits each workload's cost across the layers
//! (the crates) it calls.
//!
//! - [`workload`] — the workloads, their inputs, one rep each and the
//!   checks every rep's output must pass.
//! - [`run`] — the timed run (end-to-end metrics) and the traced run
//!   (per-layer metrics).
//! - [`layers`] — probes, report counts and the closure of a rep's time.
//! - [`decorate`] — timing decorators for the application and recovery
//!   strategy trait objects.
//! - [`trace`] — in-memory spans.
//! - [`reference`] — the reference loop the timed run scales its timings
//!   by, against the shared host's changing speed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod decorate;
pub mod digest;
pub mod layers;
pub mod provenance;
pub mod reference;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workload;

/// End-to-end metrics of the timed run, as `(name, unit)`.
pub const END_TO_END: [(&str, &str); 3] =
    [("throughput", "items/s"), ("setup_s", "s"), ("peak_rss_mb", "MB")];

/// Per-layer metrics of the traced run, as `(name, unit)`. A count a
/// workload's report does not carry reads 0.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("exec.fold_ns_per_unit", "ns"),
    ("exec.efficiency_2t", "ratio"),
    ("sim.wheel_ns_per_event", "ns"),
    ("sim.wheel_events", "count"),
    ("traffic.arrival_ns_per_draw", "ns"),
    ("traffic.engine_self_ns_per_req", "ns"),
    ("recovery.serve_ns_per_req", "ns"),
    ("recovery.strategy_ns_per_req", "ns"),
    ("recovery.experiment_ns_per_sample", "ns"),
    ("recovery.failures", "count"),
    ("recovery.recoveries", "count"),
    ("recovery.watchdog_fires", "count"),
    ("recovery.attempts_per_answer", "ratio"),
    ("apps.handle_ns_per_req.web", "ns"),
    ("apps.handle_ns_per_req.db", "ns"),
    ("apps.handle_ns_per_req.de", "ns"),
    ("apps.oracle_ns_per_call", "ns"),
    ("apps.console_ns_per_probe", "ns"),
    ("graph.channel_ns_per_msg", "ns"),
    ("graph.sends", "count"),
    ("graph.lost", "count"),
    ("graph.retried", "count"),
    ("graph.resets", "count"),
    ("graph.channel_recoveries", "count"),
    ("graph.node_restarts", "count"),
    ("graph.db_amplification", "ratio"),
    ("obs.histogram_record_ns", "ns"),
    ("obs.histogram_merge_ns", "ns"),
    ("obs.registry_merge_ns", "ns"),
    ("obs.registry_keys", "count"),
    ("mining.keyword_ns_per_report", "ns"),
    ("mining.normalize_ns_per_title", "ns"),
    ("mining.dedup_ns_per_report", "ns"),
    ("mining.keyword_survivors", "count"),
    ("mining.impact_survivors", "count"),
    ("mining.production_survivors", "count"),
    ("mining.unique_survivors", "count"),
    ("mining.keyword_keep_ratio", "ratio"),
    ("corpus.generate_s", "s"),
    ("harness.render_s", "s"),
    ("closure.unattributed_share", "ratio"),
    ("trace.overhead", "ratio"),
];
