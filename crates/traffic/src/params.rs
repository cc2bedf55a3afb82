//! Tunable shape of one unit of offered traffic.

use crate::arrival::ArrivalKind;
use faultstudy_sim::time::Duration;

/// Shape of the offered load for one traffic unit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficParams {
    /// Arrival-process family for session starts.
    pub arrival: ArrivalKind,
    /// Nominal offered rate in requests per simulated second (session
    /// starts arrive at `rate_per_sec / requests_per_session`).
    pub rate_per_sec: f64,
    /// Total requests the unit offers; the schedule stops exactly here.
    pub requests: u64,
    /// Requests a session issues before it ends (the last session is
    /// truncated to hit `requests` exactly).
    pub requests_per_session: u32,
    /// Mean exponential think time between a session's requests.
    pub think_mean: Duration,
    /// Latency above which an answered request counts as an SLO violation.
    pub slo: Duration,
}

impl TrafficParams {
    /// The campaign's standard shape: 1000 req/s offered through sessions
    /// of 8 with 200 ms mean think time, against a 250 ms latency SLO.
    pub fn standard(arrival: ArrivalKind, requests: u64) -> TrafficParams {
        TrafficParams {
            arrival,
            rate_per_sec: 1000.0,
            requests,
            requests_per_session: 8,
            think_mean: Duration::from_millis(200),
            slo: Duration::from_millis(250),
        }
    }
}
