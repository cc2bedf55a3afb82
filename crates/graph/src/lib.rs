//! Distributed IPC fault plane: a deterministic service graph with
//! channel-level fault injection, cascade accounting, and per-channel
//! recovery raced against process supervision.
//!
//! The paper's study is entirely intra-process; this crate adds the
//! distributed dimension its method could not reach. The three simulated
//! applications are wired into a tiered service — clients → miniweb →
//! minidb, with minide as an operator console — and every request
//! crosses bounded [`channel`]s in simulated time, scheduled on the
//! event queue. On the wire rides the Theseus/MINIX3 IPC fault corpus
//! ([`fault`]: the twelve s1–s7/r1–r5 kinds), each classified under the
//! paper's transient / nontransient / environment-independent taxonomy
//! and replayed byte-identically from `split_seed` plans. The [`engine`]
//! races two recovery planes over the same traffic: process-level
//! supervision (a restart tree rebooting graph nodes) versus per-channel
//! recovery (drain + reset the channel, microreboot only the endpoint,
//! propagate a typed [`ChannelReset`] upstream for idempotent retry) —
//! with cascade-depth and downstream-amplification accounting that the
//! `faultstudy graph` campaign folds deterministically.
//!
//! - [`channel`] — bounded FIFO channels with three layers of injectable
//!   fault state (one-shot / sticky / defect).
//! - [`fault`] — the twelve-kind IPC corpus and its scheduled plans.
//! - [`topology`] — the service graph and its restart-tree component view.
//! - [`engine`] — the open-loop chain engine, the two recovery planes,
//!   and the per-unit cascade/amplification ledger.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod channel;
pub mod engine;
pub mod fault;
pub mod topology;

pub use channel::{Channel, Message, SendError, CHANNEL_CAPACITY};
pub use engine::{
    degenerate_config, graph_mix, run_graph, web_mix, ChannelReset, EdgeStats, GraphEdges,
    GraphRequest, GraphUnitStats, PlaneKind, CHAIN_BUDGET,
};
pub use fault::{
    graph_plans, ChannelFaultKind, EdgeId, FaultBehavior, FaultSite, GraphFaultEvent,
    GraphFaultPlan, Leg, Persistence,
};
pub use topology::{NodeId, ServiceGraph, GRAPH_COMPONENTS};
