//! A per-strategy circuit breaker.
//!
//! A generic recovery with a retry budget still burns the whole budget on
//! every deterministic fault. The circuit breaker bounds that damage at
//! the supervisor level: after `threshold` *consecutive* recovered
//! failures it trips open, and the supervisor degrades gracefully — the
//! last checkpoint stands, remaining work is shed — instead of retrying
//! forever. Any success closes the breaker again. The pattern is the
//! standard antidote to retry storms; here it doubles as an honest way to
//! report "this strategy is not making progress" as a first-class,
//! countable event rather than a timeout.

/// Counts consecutive failures and trips at a threshold.
///
/// A threshold of zero disables the breaker entirely: it never trips.
///
/// # Example
///
/// ```
/// use faultstudy_recovery::CircuitBreaker;
///
/// let mut b = CircuitBreaker::new(2);
/// assert!(!b.record_failure());
/// assert!(b.record_failure(), "second consecutive failure trips");
/// assert!(b.is_open());
/// b.record_success();
/// assert!(!b.is_open());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CircuitBreaker {
    threshold: u32,
    consecutive: u32,
    open: bool,
}

impl CircuitBreaker {
    /// A closed breaker tripping after `threshold` consecutive failures
    /// (zero = disabled).
    pub fn new(threshold: u32) -> CircuitBreaker {
        CircuitBreaker { threshold, consecutive: 0, open: false }
    }

    /// Records one failure; returns `true` exactly when this failure trips
    /// the breaker open.
    pub fn record_failure(&mut self) -> bool {
        self.consecutive = self.consecutive.saturating_add(1);
        if self.threshold > 0 && !self.open && self.consecutive >= self.threshold {
            self.open = true;
            return true;
        }
        false
    }

    /// Records a success, closing the breaker and resetting the streak.
    pub fn record_success(&mut self) {
        self.consecutive = 0;
        self.open = false;
    }

    /// Whether the breaker is currently open.
    pub fn is_open(&self) -> bool {
        self.open
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trips_exactly_at_threshold() {
        let mut b = CircuitBreaker::new(3);
        assert!(!b.record_failure());
        assert!(!b.record_failure());
        assert!(!b.is_open());
        assert!(b.record_failure());
        assert!(b.is_open());
        // Already open: further failures are not new trips.
        assert!(!b.record_failure());
    }

    #[test]
    fn success_resets_the_streak() {
        let mut b = CircuitBreaker::new(2);
        b.record_failure();
        b.record_success();
        assert!(!b.record_failure(), "streak restarted from zero");
        assert!(b.record_failure());
        b.record_success();
        assert!(!b.is_open(), "success closes an open breaker");
    }

    #[test]
    fn zero_threshold_disables() {
        let mut b = CircuitBreaker::new(0);
        for _ in 0..1000 {
            assert!(!b.record_failure());
        }
        assert!(!b.is_open());
    }
}
