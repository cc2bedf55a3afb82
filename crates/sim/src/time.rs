//! Logical time for the simulation.
//!
//! Simulated time is a monotonically non-decreasing count of nanoseconds held
//! in a [`SimTime`]. Nothing in the workspace reads the wall clock; every
//! timestamp in an experiment derives from a [`Clock`] advanced by the event
//! loop.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, in nanoseconds since the start of the run.
///
/// `SimTime` is a transparent newtype so that raw integers and durations
/// cannot be confused with timestamps (C-NEWTYPE).
///
/// # Example
///
/// ```
/// use faultstudy_sim::time::{Duration, SimTime};
/// let t = SimTime::ZERO + Duration::from_secs(2);
/// assert_eq!(t.as_nanos(), 2_000_000_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0);

    /// The largest representable instant; useful as an "infinitely far" deadline.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates a timestamp from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Creates a timestamp from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Creates a timestamp from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Raw nanosecond count.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Elapsed duration since `earlier`, saturating to zero if `earlier`
    /// is actually later.
    pub fn saturating_since(self, earlier: SimTime) -> Duration {
        Duration::from_nanos(self.0.saturating_sub(earlier.0))
    }

    /// Adds a duration, saturating at [`SimTime::MAX`].
    pub fn saturating_add(self, d: Duration) -> SimTime {
        SimTime(self.0.saturating_add(d.as_nanos()))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(f, "{}.{:03}s", ns / 1_000_000_000, (ns % 1_000_000_000) / 1_000_000)
        } else if ns >= 1_000_000 {
            write!(f, "{}ms", ns / 1_000_000)
        } else {
            write!(f, "{}ns", ns)
        }
    }
}

impl Add<Duration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: Duration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<Duration> for SimTime {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = Duration;
    fn sub(self, rhs: SimTime) -> Duration {
        Duration(self.0 - rhs.0)
    }
}

/// A span of simulated time, in nanoseconds.
///
/// Distinct from [`SimTime`] so that instants and spans cannot be mixed up.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(u64);

impl Duration {
    /// The zero-length span.
    pub const ZERO: Duration = Duration(0);

    /// Creates a span from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        Duration(ns)
    }

    /// Creates a span from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        Duration(us * 1_000)
    }

    /// Creates a span from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Duration(ms * 1_000_000)
    }

    /// Creates a span from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        Duration(s * 1_000_000_000)
    }

    /// Raw nanosecond count.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Multiplies the span by an integer factor, saturating on overflow.
    pub const fn saturating_mul(self, k: u64) -> Duration {
        Duration(self.0.saturating_mul(k))
    }
}

impl Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", SimTime(self.0))
    }
}

/// A monotonically non-decreasing logical clock.
///
/// The clock only moves when the owner of the simulation advances it; no
/// wall-clock time is ever consulted.
///
/// # Example
///
/// ```
/// use faultstudy_sim::time::{Clock, Duration, SimTime};
/// let mut clock = Clock::new();
/// clock.advance(Duration::from_millis(10));
/// assert_eq!(clock.now(), SimTime::from_millis(10));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Clock {
    now: SimTime,
}

impl Clock {
    /// Creates a clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        Clock::default()
    }

    /// The current instant.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Advances the clock by `d`.
    pub fn advance(&mut self, d: Duration) {
        self.now += d;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(SimTime::from_secs(3).as_nanos(), 3_000_000_000);
        assert_eq!(SimTime::from_millis(3).as_nanos(), 3_000_000);
        assert_eq!(Duration::from_secs(2).as_nanos(), 2_000_000_000);
    }

    #[test]
    fn arithmetic_between_instants_and_spans() {
        let t0 = SimTime::from_millis(10);
        let t1 = t0 + Duration::from_millis(5);
        assert_eq!(t1 - t0, Duration::from_millis(5));
        assert_eq!(t1.saturating_since(t0), Duration::from_millis(5));
        assert_eq!(t0.saturating_since(t1), Duration::ZERO);
    }

    #[test]
    fn saturating_add_caps_at_max() {
        assert_eq!(SimTime::MAX.saturating_add(Duration::from_secs(1)), SimTime::MAX);
        assert_eq!(Duration::from_nanos(u64::MAX).saturating_mul(2).as_nanos(), u64::MAX);
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut c = Clock::new();
        assert_eq!(c.now(), SimTime::ZERO);
        c.advance(Duration::from_millis(7));
        c.advance(Duration::ZERO);
        assert_eq!(c.now(), SimTime::from_millis(7));
    }

    #[test]
    fn display_is_humane() {
        assert_eq!(SimTime::from_nanos(17).to_string(), "17ns");
        assert_eq!(SimTime::from_millis(250).to_string(), "250ms");
        assert_eq!(SimTime::from_millis(1250).to_string(), "1.250s");
        assert_eq!(Duration::from_secs(2).to_string(), "2.000s");
    }
}
