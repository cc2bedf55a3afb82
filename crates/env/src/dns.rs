//! A Domain Name Service model with failure modes and natural repair.
//!
//! Backs four corpus triggers: "call to Domain Name Service returns an
//! error" and "slow Domain Name Service response" (Apache, both transient —
//! *"likely to change when the DNS server is restarted"*), and "reverse DNS
//! is not configured for the remote host" (MySQL, nontransient — the
//! missing record is a configuration matter that no generic recovery
//! touches).

use faultstudy_sim::time::{Duration, SimTime};
use std::collections::BTreeSet;
use std::fmt;

/// Health of the (forward) DNS service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DnsHealth {
    /// Lookups succeed promptly.
    Healthy,
    /// Lookups return errors.
    Erroring,
    /// Lookups succeed but take the service's slow latency.
    Slow,
}

/// Result of a name lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Lookup {
    /// Resolved after the given latency.
    Resolved {
        /// Synthetic address for the name.
        addr: u32,
        /// How long the lookup took.
        latency: Duration,
    },
    /// The server answered with an error.
    ServerError,
    /// No record of the requested type exists (used for reverse lookups of
    /// unconfigured hosts).
    NoRecord,
}

impl fmt::Display for Lookup {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Lookup::Resolved { addr, latency } => write!(f, "resolved {addr} in {latency}"),
            Lookup::ServerError => f.write_str("server error"),
            Lookup::NoRecord => f.write_str("no record"),
        }
    }
}

/// The simulated DNS service.
///
/// Failure states injected with [`DnsService::set_health`] heal on their own
/// once the repair deadline passes — the paper's rationale for classifying
/// DNS faults as transient is exactly that "the cause of the slow DNS
/// response will likely be fixed eventually without application-specific
/// recovery" (§5.1).
///
/// # Example
///
/// ```
/// use faultstudy_env::dns::{DnsHealth, DnsService, Lookup};
/// use faultstudy_sim::time::{Duration, SimTime};
///
/// let mut dns = DnsService::new(Duration::from_millis(2), Duration::from_secs(5));
/// dns.set_health(DnsHealth::Erroring, SimTime::ZERO + Duration::from_secs(30));
/// assert_eq!(dns.resolve("example.org", SimTime::ZERO), Lookup::ServerError);
/// // ... 30 simulated seconds later the operator has restarted DNS:
/// let later = SimTime::from_secs(31);
/// assert!(matches!(dns.resolve("example.org", later), Lookup::Resolved { .. }));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DnsService {
    health: DnsHealth,
    /// When the current unhealthy state repairs itself.
    repair_at: SimTime,
    normal_latency: Duration,
    slow_latency: Duration,
    /// Hosts with reverse (PTR) records configured.
    reverse_configured: BTreeSet<String>,
}

impl DnsService {
    /// Creates a healthy service with the given normal and degraded latencies.
    pub fn new(normal_latency: Duration, slow_latency: Duration) -> Self {
        DnsService {
            health: DnsHealth::Healthy,
            repair_at: SimTime::ZERO,
            normal_latency,
            slow_latency,
            reverse_configured: BTreeSet::new(),
        }
    }

    /// Current health after accounting for self-repair at `now`.
    pub fn health_at(&self, now: SimTime) -> DnsHealth {
        if self.health != DnsHealth::Healthy && now >= self.repair_at {
            DnsHealth::Healthy
        } else {
            self.health
        }
    }

    /// Injects a failure state that self-repairs at `repair_at`.
    pub fn set_health(&mut self, health: DnsHealth, repair_at: SimTime) {
        self.health = health;
        self.repair_at = repair_at;
    }

    /// Performs a forward lookup of `name` at simulated time `now`.
    pub fn resolve(&self, name: &str, now: SimTime) -> Lookup {
        match self.health_at(now) {
            DnsHealth::Healthy => {
                Lookup::Resolved { addr: synthetic_addr(name), latency: self.normal_latency }
            }
            DnsHealth::Erroring => Lookup::ServerError,
            DnsHealth::Slow => {
                Lookup::Resolved { addr: synthetic_addr(name), latency: self.slow_latency }
            }
        }
    }

    /// Declares that `host` has a reverse (PTR) record.
    pub fn configure_reverse(&mut self, host: impl Into<String>) {
        self.reverse_configured.insert(host.into());
    }

    /// Performs a reverse lookup of `host` at time `now`.
    ///
    /// Reverse lookups of unconfigured hosts return [`Lookup::NoRecord`]
    /// regardless of service health: the record is *missing*, not the
    /// server broken, which is why the MySQL fault is nontransient.
    pub fn resolve_reverse(&self, host: &str, now: SimTime) -> Lookup {
        if !self.reverse_configured.contains(host) {
            return Lookup::NoRecord;
        }
        self.resolve(host, now)
    }
}

/// Deterministic fake address for a name (FNV-1a folded to 32 bits).
fn synthetic_addr(name: &str) -> u32 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    (h ^ (h >> 32)) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dns() -> DnsService {
        DnsService::new(Duration::from_millis(1), Duration::from_secs(4))
    }

    #[test]
    fn healthy_lookups_resolve_fast() {
        let d = dns();
        match d.resolve("a.example", SimTime::ZERO) {
            Lookup::Resolved { latency, .. } => assert_eq!(latency, Duration::from_millis(1)),
            other => panic!("expected resolution, got {other}"),
        }
    }

    #[test]
    fn same_name_same_addr_different_names_differ() {
        let d = dns();
        let a1 = d.resolve("a.example", SimTime::ZERO);
        let a2 = d.resolve("a.example", SimTime::from_secs(9));
        assert_eq!(a1, a2);
        let b = d.resolve("b.example", SimTime::ZERO);
        assert_ne!(a1, b);
    }

    #[test]
    fn erroring_state_self_repairs() {
        let mut d = dns();
        d.set_health(DnsHealth::Erroring, SimTime::from_secs(10));
        assert_eq!(d.resolve("x", SimTime::from_secs(5)), Lookup::ServerError);
        assert!(matches!(d.resolve("x", SimTime::from_secs(10)), Lookup::Resolved { .. }));
        assert_eq!(d.health_at(SimTime::from_secs(10)), DnsHealth::Healthy);
    }

    #[test]
    fn slow_state_resolves_with_degraded_latency_then_heals() {
        let mut d = dns();
        d.set_health(DnsHealth::Slow, SimTime::from_secs(60));
        match d.resolve("x", SimTime::ZERO) {
            Lookup::Resolved { latency, .. } => assert_eq!(latency, Duration::from_secs(4)),
            other => panic!("expected slow resolution, got {other}"),
        }
        match d.resolve("x", SimTime::from_secs(61)) {
            Lookup::Resolved { latency, .. } => assert_eq!(latency, Duration::from_millis(1)),
            other => panic!("expected healed resolution, got {other}"),
        }
    }

    #[test]
    fn reverse_lookup_requires_configuration() {
        let mut d = dns();
        assert_eq!(d.resolve_reverse("client1", SimTime::ZERO), Lookup::NoRecord);
        d.configure_reverse("client1");
        assert!(matches!(d.resolve_reverse("client1", SimTime::ZERO), Lookup::Resolved { .. }));
    }

    #[test]
    fn missing_reverse_record_outlives_server_repair() {
        // The nontransient nature: even a healthy, freshly repaired server
        // has no record for the unconfigured host.
        let mut d = dns();
        d.set_health(DnsHealth::Erroring, SimTime::from_secs(1));
        assert_eq!(d.resolve_reverse("ghost", SimTime::from_secs(2)), Lookup::NoRecord);
    }
}
