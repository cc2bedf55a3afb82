//! Bounded FIFO channels with injectable fault state.
//!
//! A [`Channel`] is the unit of inter-tier communication in the service
//! graph: a bounded message queue plus the three layers of fault state
//! the IPC corpus distinguishes — a *pending* one-shot fault consumed by
//! the next matching transfer (the paper's transient class), a *wedged*
//! sticky fault that persists until somebody resets the channel (the
//! nontransient class), and a *defect* that survives every reset (the
//! environment-independent control). `Channel::reset` is the
//! per-channel recovery action: it drains in-flight messages and clears
//! pending and wedged state, but — by construction — cannot clear a
//! defect, exactly as the paper's §2 argument demands of any generic
//! repair.
//!
//! The engine's transfers consult the fault state alone: chains are
//! synchronous in simulated time, so a message would leave the queue
//! within the exchange that put it there. The queue is the contract a
//! channel keeps under any driver: fault-free, a channel is a plain
//! bounded FIFO, and the differential property test pins its delivery
//! order byte-for-byte against a `VecDeque` reference for arbitrary
//! send/recv interleavings.

use crate::fault::{ChannelFaultKind, Leg, Persistence};
use std::borrow::Cow;

/// One message in flight on a channel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// Monotone per-channel sequence number, assigned at send.
    pub seq: u64,
    /// Application payload (a request or reply body); borrowed when the
    /// sender passed a literal, so a fixed message costs no allocation.
    pub body: Cow<'static, str>,
}

/// Why a send was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendError {
    /// The bounded queue is at capacity; the sender must back off.
    Full,
}

/// A bounded FIFO channel between two graph tiers.
#[derive(Debug)]
pub struct Channel {
    name: &'static str,
    capacity: usize,
    queue: std::collections::VecDeque<Message>,
    next_seq: u64,
    /// One-shot fault consumed by the next transfer on its leg.
    pending: Option<ChannelFaultKind>,
    /// Sticky fault that persists until [`Channel::reset`].
    wedged: Option<ChannelFaultKind>,
    /// Defect that survives every reset — the EI control.
    defect: Option<ChannelFaultKind>,
}

/// Default bound of every graph channel. The engine queues nothing (its
/// transfers consult only the fault state); the bound exists so the FIFO
/// contract is honest under arbitrary drivers.
pub const CHANNEL_CAPACITY: usize = 8;

impl Channel {
    /// An empty, healthy channel.
    pub fn new(name: &'static str) -> Channel {
        Channel {
            name,
            capacity: CHANNEL_CAPACITY,
            queue: std::collections::VecDeque::new(),
            next_seq: 0,
            pending: None,
            wedged: None,
            defect: None,
        }
    }

    /// The channel's stable name (metrics label).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Enqueues a message, assigning it the next sequence number.
    ///
    /// # Errors
    ///
    /// [`SendError::Full`] when the bounded queue is at capacity.
    pub fn send(&mut self, body: impl Into<Cow<'static, str>>) -> Result<u64, SendError> {
        if self.queue.len() >= self.capacity {
            return Err(SendError::Full);
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push_back(Message { seq, body: body.into() });
        Ok(seq)
    }

    /// Dequeues the oldest message, if any.
    pub fn recv(&mut self) -> Option<Message> {
        self.queue.pop_front()
    }

    /// Arms `kind` on this channel according to its persistence layer:
    /// one-shot faults load [`pending`](Channel::send), sticky faults
    /// wedge the channel, defects install permanently. Re-arming an
    /// already-armed kind is idempotent.
    pub(crate) fn arm(&mut self, kind: ChannelFaultKind) {
        match kind.persistence() {
            Persistence::OneShot => self.pending = Some(kind),
            Persistence::Sticky => self.wedged = Some(kind),
            Persistence::Defect => self.defect = Some(kind),
        }
    }

    /// The fault, if any, that fires on a transfer over `leg` right now.
    ///
    /// Consult order is defect, then wedged, then pending — the most
    /// persistent layer wins, and only a consumed one-shot is cleared by
    /// the consult itself.
    pub(crate) fn fault_for(&mut self, leg: Leg) -> Option<ChannelFaultKind> {
        if let Some(k) = self.defect {
            if k.site().leg == leg {
                return Some(k);
            }
        }
        if let Some(k) = self.wedged {
            if k.site().leg == leg {
                return Some(k);
            }
        }
        if let Some(k) = self.pending {
            if k.site().leg == leg {
                self.pending = None;
                return Some(k);
            }
        }
        None
    }

    /// Per-channel recovery: drains in-flight messages and clears pending
    /// and wedged fault state. A defect survives — resetting channel state
    /// cannot fix code.
    pub(crate) fn reset(&mut self) {
        self.queue.clear();
        self.pending = None;
        self.wedged = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_delivery_in_send_order() {
        let mut ch = Channel::new("t");
        for i in 0..5 {
            ch.send(format!("m{i}")).unwrap();
        }
        for i in 0..5 {
            let m = ch.recv().unwrap();
            assert_eq!(m.seq, i);
            assert_eq!(m.body, format!("m{i}"));
        }
        assert!(ch.recv().is_none());
    }

    #[test]
    fn bounded_queue_refuses_past_capacity() {
        let mut ch = Channel::new("t");
        for _ in 0..CHANNEL_CAPACITY {
            ch.send("x").unwrap();
        }
        assert_eq!(ch.send("overflow"), Err(SendError::Full));
        ch.recv().unwrap();
        assert!(ch.send("now fits").is_ok());
    }

    #[test]
    fn one_shot_fault_is_consumed_by_the_matching_leg() {
        let mut ch = Channel::new("t");
        ch.arm(ChannelFaultKind::R4NullRecvBuffer); // one-shot, request leg
        assert_eq!(ch.fault_for(Leg::Reply), None, "wrong leg does not consume");
        assert_eq!(ch.fault_for(Leg::Request), Some(ChannelFaultKind::R4NullRecvBuffer));
        assert_eq!(ch.fault_for(Leg::Request), None, "consumed");
    }

    #[test]
    fn sticky_fault_persists_until_reset_and_defect_survives_it() {
        let mut ch = Channel::new("t");
        ch.arm(ChannelFaultKind::S6StateNotResetSend); // sticky, reply leg
        assert!(ch.fault_for(Leg::Reply).is_some());
        assert!(ch.fault_for(Leg::Reply).is_some(), "sticky repeats");
        ch.send("in flight").unwrap();
        ch.reset();
        assert!(ch.recv().is_none(), "the drain emptied the queue");
        assert_eq!(ch.fault_for(Leg::Reply), None, "reset cleared the wedge");

        ch.arm(ChannelFaultKind::S3UnmappedMsgSend); // defect, reply leg
        ch.reset();
        assert_eq!(
            ch.fault_for(Leg::Reply),
            Some(ChannelFaultKind::S3UnmappedMsgSend),
            "a defect survives every reset"
        );
    }
}
