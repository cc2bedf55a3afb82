//! Spans measured in simulated time.
//!
//! A [`Span`] brackets an interval of *simulated* time (`SimTime`), never
//! the wall clock: its length is a pure function of the experiment seed,
//! so recording spans cannot introduce nondeterminism, and an instrumented
//! run reports the same durations on any machine at any thread count.

use faultstudy_sim::time::{Duration, SimTime};

/// An open interval of simulated time.
///
/// # Example
///
/// ```
/// use faultstudy_obs::Span;
/// use faultstudy_sim::time::{Duration, SimTime};
///
/// let span = Span::begin(SimTime::from_millis(10));
/// let end = SimTime::from_millis(25);
/// assert_eq!(span.elapsed(end), Duration::from_millis(15));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    start: SimTime,
}

impl Span {
    /// Opens a span at `now`.
    pub fn begin(now: SimTime) -> Span {
        Span { start: now }
    }

    /// Simulated time elapsed from the span's start to `now`, saturating
    /// to zero if `now` is earlier.
    pub fn elapsed(&self, now: SimTime) -> Duration {
        now.saturating_since(self.start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elapsed_saturates_backwards() {
        let span = Span::begin(SimTime::from_secs(5));
        assert_eq!(span.elapsed(SimTime::from_secs(2)), Duration::ZERO);
    }
}
