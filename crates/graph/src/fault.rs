//! The IPC fault corpus: the twelve Theseus/MINIX3 channel fault kinds,
//! classified under the paper's taxonomy and scheduled as deterministic
//! per-channel injection plans.
//!
//! The kinds port the send-side (s1–s7) and receive-side (r1–r5) faults
//! of the Theseus/MINIX3 IPC comparison: corrupt or unmapped message
//! pointers, unmapped sender/receiver slots, wait-queue corruption,
//! channel-state-not-reset, and sender-state-not-updated hangs. Each kind
//! carries three orthogonal facts:
//!
//! - its **class** under the paper's taxonomy — does the condition go
//!   away by itself ([transient](FaultClass::EnvDependentTransient)),
//!   only under an explicit repair
//!   ([nontransient](FaultClass::EnvDependentNonTransient)), or never
//!   ([environment-independent](FaultClass::EnvironmentIndependent));
//! - its **persistence** layer on the channel ([`Persistence`]), which is
//!   how the class is *mechanised*: one-shot faults self-clear, sticky
//!   faults clear on a channel reset, defects survive everything;
//! - its **site** ([`FaultSite`]) — which edge and transfer leg of the
//!   client → miniweb → minidb chain it corrupts — and its **behavior**
//!   ([`FaultBehavior`]) when a transfer trips over it.
//!
//! A [`GraphFaultPlan`] is data, like PR 4's `InjectionPlan`: a named
//! schedule of `(simulated time, kind)` events, a pure function of the
//! generating seed, replayed byte-identically by the engine.

use faultstudy_core::taxonomy::FaultClass;
use faultstudy_sim::rng::{split_seed, DetRng, Xoshiro256StarStar};
use faultstudy_sim::time::{Duration, SimTime};
use serde::Serialize;
use std::fmt;

/// The two transfer legs of one request/reply exchange over a channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Leg {
    /// Caller → callee: the request travels down the chain.
    Request,
    /// Callee → caller: the reply travels back up.
    Reply,
}

/// The directed edges of the service topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeId {
    /// Clients → miniweb: every user request enters here.
    ClientWeb,
    /// Miniweb → minidb: the data-plane sub-call.
    WebDb,
    /// Minide → miniweb: the operator console's probe channel.
    IdeWeb,
}

impl EdgeId {
    /// Every edge, in index order.
    pub const ALL: [EdgeId; 3] = [EdgeId::ClientWeb, EdgeId::WebDb, EdgeId::IdeWeb];
}

/// Where on the chain a fault kind lives: which edge, which leg.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSite {
    /// The corrupted channel.
    pub edge: EdgeId,
    /// The transfer leg the corruption fires on.
    pub leg: Leg,
}

/// How long a fault stays armed on its channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Persistence {
    /// Consumed by the next matching transfer — the transient mechanism.
    OneShot,
    /// Persists until the channel is reset — the nontransient mechanism.
    Sticky,
    /// Survives every reset — the environment-independent control.
    Defect,
}

/// What happens to the transfer that trips over the fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultBehavior {
    /// The sending endpoint dies mid-exchange; the message is lost and
    /// the sender needs recovery before the exchange can be retried.
    CrashSender,
    /// The receiving endpoint dies on delivery; the message is lost and
    /// the receiver needs recovery.
    CrashReceiver,
    /// The message vanishes silently; the waiting side only learns from
    /// its lost-message timeout. Work already done below the loss is
    /// redone on retry — the amplification mechanism.
    LoseMessage,
    /// The channel wedges: the transfer never completes and the waiting
    /// side's hang detector converts the silence into a failure.
    Hang,
    /// The message IS delivered, but the sender's bookkeeping says it was
    /// not: the sender hangs awaiting an ack it already got and re-offers
    /// the payload — a duplicate — once recovered.
    HangAfterDeliver,
}

/// The twelve IPC fault kinds of the Theseus/MINIX3 comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize)]
pub enum ChannelFaultKind {
    /// s1 — page fault in the sender mid-transmit: the db-side endpoint
    /// crashes after doing the work, the reply is lost.
    S1SenderPageFault,
    /// s2 — null message pointer at send: the reply vanishes silently;
    /// the db already committed the work, so every retry redoes it.
    S2NullMsgSend,
    /// s3 — unmapped message pointer at send: a code defect; the sender
    /// crashes on every transmit, no reset helps.
    S3UnmappedMsgSend,
    /// s4 — unmapped sender slot: a code defect in the sender's channel
    /// bookkeeping; crashes the sender on every transmit.
    S4UnmappedSenderSlot,
    /// s5 — unmapped wait-queue entry at send: corrupted channel state
    /// crashes the sender until the channel is reset.
    S5UnmappedWaitQueueSend,
    /// s6 — channel state not reset before send: the transfer wedges; the
    /// waiting side hangs until its detector fires, and every later
    /// transfer wedges too until the channel is reset.
    S6StateNotResetSend,
    /// s7 — sender state not updated after a successful transmit: the
    /// reply is delivered *and* the sender hangs re-offering it — a
    /// duplicate — until recovered; sticky until the channel is reset.
    S7SenderStateNotUpdated,
    /// r1 — unmapped receiver slot: a code defect; the receiver crashes
    /// on every delivery, no reset helps.
    R1UnmappedReceiverSlot,
    /// r2 — channel state not reset at receive: corrupted receive state
    /// crashes the receiver until the channel is reset.
    R2StateNotResetRecv,
    /// r3 — page fault in the receiver on delivery: the receiver crashes
    /// once; the next delivery is clean.
    R3ReceiverPageFault,
    /// r4 — null receive buffer: the request vanishes silently; the
    /// client's lost-message timeout is the only signal.
    R4NullRecvBuffer,
    /// r5 — unmapped wait-queue entry at receive: corrupted wait-queue
    /// state crashes the receiver until the channel is reset.
    R5UnmappedWaitQueueRecv,
}

impl ChannelFaultKind {
    /// Every kind, send-side faults first — 12 in all.
    pub const ALL: [ChannelFaultKind; 12] = [
        ChannelFaultKind::S1SenderPageFault,
        ChannelFaultKind::S2NullMsgSend,
        ChannelFaultKind::S3UnmappedMsgSend,
        ChannelFaultKind::S4UnmappedSenderSlot,
        ChannelFaultKind::S5UnmappedWaitQueueSend,
        ChannelFaultKind::S6StateNotResetSend,
        ChannelFaultKind::S7SenderStateNotUpdated,
        ChannelFaultKind::R1UnmappedReceiverSlot,
        ChannelFaultKind::R2StateNotResetRecv,
        ChannelFaultKind::R3ReceiverPageFault,
        ChannelFaultKind::R4NullRecvBuffer,
        ChannelFaultKind::R5UnmappedWaitQueueRecv,
    ];

    /// Stable short name (plan name, metrics label).
    pub(crate) fn name(self) -> &'static str {
        match self {
            ChannelFaultKind::S1SenderPageFault => "s1-sender-page-fault",
            ChannelFaultKind::S2NullMsgSend => "s2-null-msg-send",
            ChannelFaultKind::S3UnmappedMsgSend => "s3-unmapped-msg-send",
            ChannelFaultKind::S4UnmappedSenderSlot => "s4-unmapped-sender-slot",
            ChannelFaultKind::S5UnmappedWaitQueueSend => "s5-wait-queue-send",
            ChannelFaultKind::S6StateNotResetSend => "s6-state-not-reset-send",
            ChannelFaultKind::S7SenderStateNotUpdated => "s7-sender-not-updated",
            ChannelFaultKind::R1UnmappedReceiverSlot => "r1-unmapped-recv-slot",
            ChannelFaultKind::R2StateNotResetRecv => "r2-state-not-reset-recv",
            ChannelFaultKind::R3ReceiverPageFault => "r3-receiver-page-fault",
            ChannelFaultKind::R4NullRecvBuffer => "r4-null-recv-buffer",
            ChannelFaultKind::R5UnmappedWaitQueueRecv => "r5-wait-queue-recv",
        }
    }

    /// The paper class of the condition the kind creates.
    ///
    /// One-shot corruptions (a stray page fault, a single scribbled
    /// pointer) are transient; corrupted channel state that an explicit
    /// reset repairs is nontransient; wrong code is environment-
    /// independent. The split is 4 transient + 5 nontransient + 3 EI.
    pub(crate) fn class(self) -> FaultClass {
        match self.persistence() {
            Persistence::OneShot => FaultClass::EnvDependentTransient,
            Persistence::Sticky => FaultClass::EnvDependentNonTransient,
            Persistence::Defect => FaultClass::EnvironmentIndependent,
        }
    }

    /// How long the fault stays armed on its channel.
    pub fn persistence(self) -> Persistence {
        match self {
            ChannelFaultKind::S1SenderPageFault
            | ChannelFaultKind::S2NullMsgSend
            | ChannelFaultKind::R3ReceiverPageFault
            | ChannelFaultKind::R4NullRecvBuffer => Persistence::OneShot,
            ChannelFaultKind::S5UnmappedWaitQueueSend
            | ChannelFaultKind::S6StateNotResetSend
            | ChannelFaultKind::S7SenderStateNotUpdated
            | ChannelFaultKind::R2StateNotResetRecv
            | ChannelFaultKind::R5UnmappedWaitQueueRecv => Persistence::Sticky,
            ChannelFaultKind::S3UnmappedMsgSend
            | ChannelFaultKind::S4UnmappedSenderSlot
            | ChannelFaultKind::R1UnmappedReceiverSlot => Persistence::Defect,
        }
    }

    /// Where the fault lives. Send-side kinds corrupt the reply leg of
    /// the web → db edge (the sender there is minidb, so their crashes
    /// land two tiers deep); receive-side kinds corrupt the request leg
    /// of the client → web edge (the receiver is miniweb, one tier deep).
    pub(crate) fn site(self) -> FaultSite {
        match self {
            ChannelFaultKind::S1SenderPageFault
            | ChannelFaultKind::S2NullMsgSend
            | ChannelFaultKind::S3UnmappedMsgSend
            | ChannelFaultKind::S4UnmappedSenderSlot
            | ChannelFaultKind::S5UnmappedWaitQueueSend
            | ChannelFaultKind::S6StateNotResetSend
            | ChannelFaultKind::S7SenderStateNotUpdated => {
                FaultSite { edge: EdgeId::WebDb, leg: Leg::Reply }
            }
            ChannelFaultKind::R1UnmappedReceiverSlot
            | ChannelFaultKind::R2StateNotResetRecv
            | ChannelFaultKind::R3ReceiverPageFault
            | ChannelFaultKind::R4NullRecvBuffer
            | ChannelFaultKind::R5UnmappedWaitQueueRecv => {
                FaultSite { edge: EdgeId::ClientWeb, leg: Leg::Request }
            }
        }
    }

    /// What a transfer that trips over the fault experiences.
    pub(crate) fn behavior(self) -> FaultBehavior {
        match self {
            ChannelFaultKind::S1SenderPageFault
            | ChannelFaultKind::S3UnmappedMsgSend
            | ChannelFaultKind::S4UnmappedSenderSlot
            | ChannelFaultKind::S5UnmappedWaitQueueSend => FaultBehavior::CrashSender,
            ChannelFaultKind::S2NullMsgSend | ChannelFaultKind::R4NullRecvBuffer => {
                FaultBehavior::LoseMessage
            }
            ChannelFaultKind::S6StateNotResetSend => FaultBehavior::Hang,
            ChannelFaultKind::S7SenderStateNotUpdated => FaultBehavior::HangAfterDeliver,
            ChannelFaultKind::R1UnmappedReceiverSlot
            | ChannelFaultKind::R2StateNotResetRecv
            | ChannelFaultKind::R3ReceiverPageFault
            | ChannelFaultKind::R5UnmappedWaitQueueRecv => FaultBehavior::CrashReceiver,
        }
    }
}

impl fmt::Display for ChannelFaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One scheduled channel-fault arming.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GraphFaultEvent {
    /// Simulated instant at which the fault arms on its site's channel.
    pub at: SimTime,
    /// The kind that arms.
    pub kind: ChannelFaultKind,
}

/// A named, classed channel-fault plan: one kind, scheduled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphFaultPlan {
    /// Stable plan name (the kind's name).
    pub name: String,
    /// The paper class of the injected fault.
    pub class: FaultClass,
    /// The fault kind every event of this plan arms.
    pub kind: ChannelFaultKind,
    /// Events in schedule order.
    pub events: Vec<GraphFaultEvent>,
}

impl GraphFaultPlan {
    /// The last scheduled event time, or zero for an eventless plan.
    pub fn horizon(&self) -> SimTime {
        self.events.last().map_or(SimTime::ZERO, |e| e.at)
    }
}

/// Jittered event time for slot `i`: deterministic, strictly increasing
/// in `i`, early in the unit (5–60 ms) so even the small per-unit request
/// shares of a campaign meet every armed fault while sessions are still
/// arriving.
fn slot(rng: &mut Xoshiro256StarStar, i: u64) -> SimTime {
    SimTime::ZERO + Duration::from_millis(5 + 18 * i + rng.below(4))
}

/// The twelve-plan IPC suite, a pure function of `seed`: one plan per
/// [`ChannelFaultKind`], in [`ChannelFaultKind::ALL`] order.
///
/// One-shot kinds get three armings (each consumed by one transfer, so a
/// single event would be one data point); sticky kinds get two (the first
/// wedge is cleared by a recovery reset, the second re-wedges to exercise
/// the plane again); defects get one (it never clears). Each plan's
/// schedule derives from `split_seed(seed, index)`, so plans replay
/// byte-identically and stay independent of each other.
pub fn graph_plans(seed: u64) -> Vec<GraphFaultPlan> {
    ChannelFaultKind::ALL
        .iter()
        .enumerate()
        .map(|(index, &kind)| {
            let mut rng = Xoshiro256StarStar::seed_from(split_seed(seed, index as u64));
            let armings = match kind.persistence() {
                Persistence::OneShot => 3,
                Persistence::Sticky => 2,
                Persistence::Defect => 1,
            };
            GraphFaultPlan {
                name: kind.name().to_owned(),
                class: kind.class(),
                kind,
                events: (0..armings)
                    .map(|i| GraphFaultEvent { at: slot(&mut rng, i), kind })
                    .collect(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_shape_matches_the_taxonomy_split() {
        let plans = graph_plans(1);
        assert_eq!(plans.len(), 12);
        let count = |class| plans.iter().filter(|p| p.class == class).count();
        assert_eq!(count(FaultClass::EnvDependentTransient), 4);
        assert_eq!(count(FaultClass::EnvDependentNonTransient), 5);
        assert_eq!(count(FaultClass::EnvironmentIndependent), 3);
        let mut names: Vec<_> = plans.iter().map(|p| p.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 12, "plan names are unique");
    }

    #[test]
    fn plans_are_a_pure_function_of_the_seed() {
        assert_eq!(graph_plans(9), graph_plans(9));
        assert_ne!(graph_plans(9), graph_plans(10), "seed reaches the schedules");
    }

    #[test]
    fn schedules_are_ordered_and_early() {
        for plan in graph_plans(3) {
            let mut prev = SimTime::ZERO;
            for ev in &plan.events {
                assert!(ev.at > prev, "{}: schedule out of order", plan.name);
                assert!(
                    ev.at <= SimTime::ZERO + Duration::from_millis(60),
                    "{}: event past the arrival ramp",
                    plan.name
                );
                prev = ev.at;
            }
        }
    }

    #[test]
    fn send_faults_live_on_the_db_reply_leg_and_recv_faults_on_the_client_request_leg() {
        for kind in ChannelFaultKind::ALL {
            let site = kind.site();
            if kind.name().starts_with('s') {
                assert_eq!(site.edge, EdgeId::WebDb);
                assert_eq!(site.leg, Leg::Reply);
            } else {
                assert_eq!(site.edge, EdgeId::ClientWeb);
                assert_eq!(site.leg, Leg::Request);
            }
        }
    }
}
