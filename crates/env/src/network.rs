//! The network model: link quality, an exhaustible resource pool, and a
//! port namespace.
//!
//! Backs three corpus triggers: "slow network connection" (Apache,
//! transient — *"the network may be fixed by the time Apache recovers"*),
//! "unknown network resource exhausted" (Apache, nontransient), and the
//! port half of "hung child processes hang onto required network ports"
//! (transient via [`crate::proctable::ProcessTable::kill_all_of`]).

use faultstudy_sim::time::{Duration, SimTime};
use std::fmt;

/// Quality of the network link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkQuality {
    /// Normal latency.
    Normal,
    /// Degraded latency until the repair deadline.
    Slow,
    /// No connectivity at all (e.g. the NIC was removed).
    Down,
}

/// Errors surfaced by the network model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetError {
    /// The link is down.
    LinkDown,
    /// The opaque kernel network resource pool is exhausted.
    ResourceExhausted,
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::LinkDown => f.write_str("network link down"),
            NetError::ResourceExhausted => f.write_str("network resource exhausted"),
        }
    }
}

impl std::error::Error for NetError {}

/// The simulated network.
///
/// The "network resource" pool is deliberately opaque — the Apache bug
/// report itself only says *"unknown network resource exhausted"* — so it is
/// modelled as an abstract counter that only an explicit reboot replenishes.
///
/// # Example
///
/// ```
/// use faultstudy_env::network::{LinkQuality, Network};
/// use faultstudy_sim::time::{Duration, SimTime};
///
/// let mut net = Network::new(Duration::from_millis(1), Duration::from_secs(2), 100);
/// net.set_quality(LinkQuality::Slow, SimTime::from_secs(30));
/// assert_eq!(net.rtt_at(SimTime::from_secs(10)), Ok(Duration::from_secs(2)));
/// assert_eq!(net.rtt_at(SimTime::from_secs(30)), Ok(Duration::from_millis(1)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Network {
    quality: LinkQuality,
    repair_at: SimTime,
    normal_latency: Duration,
    slow_latency: Duration,
    resource_limit: u32,
    resource_used: u32,
}

impl Network {
    /// Creates a healthy network with the given latencies and an opaque
    /// resource pool of `resource_limit` units.
    pub fn new(normal_latency: Duration, slow_latency: Duration, resource_limit: u32) -> Self {
        Network {
            quality: LinkQuality::Normal,
            repair_at: SimTime::ZERO,
            normal_latency,
            slow_latency,
            resource_limit,
            resource_used: 0,
        }
    }

    /// Link quality at `now`, accounting for self-repair. A link that is
    /// [`LinkQuality::Down`] does *not* self-repair: replugging hardware is
    /// an operator action.
    pub(crate) fn quality_at(&self, now: SimTime) -> LinkQuality {
        match self.quality {
            LinkQuality::Slow if now >= self.repair_at => LinkQuality::Normal,
            q => q,
        }
    }

    /// Injects degraded quality; `repair_at` is when a slow link heals.
    pub fn set_quality(&mut self, quality: LinkQuality, repair_at: SimTime) {
        self.quality = quality;
        self.repair_at = repair_at;
    }

    /// Restores a downed or slow link immediately.
    pub fn repair(&mut self) {
        self.quality = LinkQuality::Normal;
    }

    /// Round-trip latency at `now`.
    ///
    /// # Errors
    ///
    /// [`NetError::LinkDown`] when there is no connectivity.
    pub fn rtt_at(&self, now: SimTime) -> Result<Duration, NetError> {
        match self.quality_at(now) {
            LinkQuality::Normal => Ok(self.normal_latency),
            LinkQuality::Slow => Ok(self.slow_latency),
            LinkQuality::Down => Err(NetError::LinkDown),
        }
    }

    /// Consumes `units` of the opaque network resource.
    ///
    /// # Errors
    ///
    /// [`NetError::ResourceExhausted`] once the pool is spent; the units are
    /// *not* partially consumed on failure.
    pub fn consume_resource(&mut self, units: u32) -> Result<(), NetError> {
        match self.resource_used.checked_add(units) {
            Some(total) if total <= self.resource_limit => {
                self.resource_used = total;
                Ok(())
            }
            _ => Err(NetError::ResourceExhausted),
        }
    }

    /// Whether the opaque resource pool is exhausted.
    pub(crate) fn resource_exhausted(&self) -> bool {
        self.resource_used >= self.resource_limit
    }

    /// Units of the opaque resource remaining.
    pub fn resource_free(&self) -> u32 {
        self.resource_limit - self.resource_used
    }

    /// Replenishes the opaque resource pool (a machine reboot — something a
    /// *generic application* recovery never does, hence nontransient).
    pub(crate) fn reboot_resources(&mut self) {
        self.resource_used = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net() -> Network {
        Network::new(Duration::from_millis(5), Duration::from_secs(1), 10)
    }

    #[test]
    fn normal_latency_by_default() {
        assert_eq!(net().rtt_at(SimTime::ZERO), Ok(Duration::from_millis(5)));
    }

    #[test]
    fn slow_link_self_heals() {
        let mut n = net();
        n.set_quality(LinkQuality::Slow, SimTime::from_secs(8));
        assert_eq!(n.rtt_at(SimTime::from_secs(7)), Ok(Duration::from_secs(1)));
        assert_eq!(n.rtt_at(SimTime::from_secs(8)), Ok(Duration::from_millis(5)));
        assert_eq!(n.quality_at(SimTime::from_secs(9)), LinkQuality::Normal);
    }

    #[test]
    fn down_link_stays_down_until_repair() {
        let mut n = net();
        n.set_quality(LinkQuality::Down, SimTime::from_secs(1));
        // Past the "repair" deadline, still down: hardware needs an operator.
        assert_eq!(n.rtt_at(SimTime::from_secs(100)), Err(NetError::LinkDown));
        n.repair();
        assert!(n.rtt_at(SimTime::from_secs(100)).is_ok());
    }

    #[test]
    fn resource_pool_exhausts_and_rejects_atomically() {
        let mut n = net();
        n.consume_resource(7).unwrap();
        assert_eq!(n.resource_free(), 3);
        assert_eq!(n.consume_resource(4), Err(NetError::ResourceExhausted));
        assert_eq!(n.resource_free(), 3, "failed consume must not spend units");
        n.consume_resource(3).unwrap();
        assert!(n.resource_exhausted());
    }

    #[test]
    fn reboot_replenishes_resources() {
        let mut n = net();
        n.consume_resource(10).unwrap();
        assert!(n.resource_exhausted());
        n.reboot_resources();
        assert_eq!(n.resource_free(), 10);
    }

    #[test]
    fn saturating_consume_handles_overflow() {
        let mut n = Network::new(Duration::ZERO, Duration::ZERO, u32::MAX);
        n.consume_resource(u32::MAX - 1).unwrap();
        assert_eq!(n.consume_resource(u32::MAX), Err(NetError::ResourceExhausted));
    }

    #[test]
    fn error_display() {
        assert_eq!(NetError::LinkDown.to_string(), "network link down");
        assert_eq!(NetError::ResourceExhausted.to_string(), "network resource exhausted");
    }
}
