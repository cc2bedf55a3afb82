//! Bounded exponential backoff with deterministic jitter.
//!
//! Retrying immediately after a recovery is exactly wrong for the paper's
//! transient faults: the environment needs *time* to change ("only a change
//! external to the application can allow the application to succeed on
//! retry", §2). The backoff policy spends that time deliberately —
//! exponentially growing, jittered so that co-failing replicas do not
//! retry in lockstep, capped so a long outage cannot push the delay past a
//! configured bound, and fully deterministic: the jitter is a pure function
//! of `(seed, attempt)` via [`split_seed`], so the same policy replays the
//! same schedule on any thread count.

use faultstudy_sim::rng::{split_seed, DetRng, Xoshiro256StarStar};
use faultstudy_sim::time::Duration;

/// A deterministic, capped exponential backoff schedule.
///
/// Attempt `a` (1-based) waits `min(cap, base·2^(a-1) + jitter)` where
/// `jitter` is drawn uniformly from `[0, base·2^(a-1) / 2]` by a generator
/// seeded with `split_seed(seed, a)`. The schedule is monotone
/// non-decreasing: the jittered delay of attempt `a` is at most
/// `1.5 · base·2^(a-1)`, which never exceeds the un-jittered floor
/// `base·2^a` of attempt `a+1`, and capping preserves order.
///
/// # Example
///
/// ```
/// use faultstudy_recovery::BackoffPolicy;
/// use faultstudy_sim::time::Duration;
///
/// let p = BackoffPolicy::new(Duration::from_millis(100), Duration::from_secs(2), 7);
/// assert!(p.delay(1) >= Duration::from_millis(100));
/// assert!(p.delay(2) >= p.delay(1));
/// assert!(p.delay(30) <= Duration::from_secs(2));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackoffPolicy {
    base: Duration,
    cap: Duration,
    seed: u64,
}

impl BackoffPolicy {
    /// A policy starting at `base`, doubling per attempt, clamped to `cap`,
    /// with jitter drawn from `seed`.
    pub fn new(base: Duration, cap: Duration, seed: u64) -> BackoffPolicy {
        BackoffPolicy { base, cap, seed }
    }

    /// The no-delay policy: every attempt retries immediately.
    pub(crate) fn none() -> BackoffPolicy {
        BackoffPolicy { base: Duration::ZERO, cap: Duration::ZERO, seed: 0 }
    }

    /// The delay before retry `attempt` (1-based). Attempt 0 and a policy
    /// with a zero base wait nothing.
    pub fn delay(&self, attempt: u32) -> Duration {
        if attempt == 0 || self.base == Duration::ZERO {
            return Duration::ZERO;
        }
        let exp = (attempt - 1).min(63);
        let raw = self.base.saturating_mul(1u64 << exp).as_nanos();
        let mut rng = Xoshiro256StarStar::seed_from(split_seed(self.seed, u64::from(attempt)));
        let jitter = rng.below(raw / 2 + 1);
        Duration::from_nanos(raw.saturating_add(jitter).min(self.cap.as_nanos()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> BackoffPolicy {
        BackoffPolicy::new(Duration::from_millis(100), Duration::from_secs(2), 42)
    }

    #[test]
    fn schedule_is_monotone_and_capped() {
        let p = policy();
        let mut prev = Duration::ZERO;
        for attempt in 1..=64 {
            let d = p.delay(attempt);
            assert!(d >= prev, "attempt {attempt}: {d} < {prev}");
            assert!(d <= Duration::from_secs(2), "attempt {attempt} over cap");
            prev = d;
        }
        assert_eq!(p.delay(64), Duration::from_secs(2), "deep attempts pin to the cap");
    }

    #[test]
    fn jitter_stays_within_half_the_raw_delay() {
        let p = policy();
        for attempt in 1..=4u32 {
            let raw = Duration::from_millis(100).saturating_mul(1 << (attempt - 1));
            let d = p.delay(attempt);
            assert!(d >= raw);
            assert!(d.as_nanos() <= raw.as_nanos() + raw.as_nanos() / 2);
        }
    }

    #[test]
    fn equal_seeds_give_equal_schedules() {
        let a = policy();
        let b = policy();
        for attempt in 1..=20 {
            assert_eq!(a.delay(attempt), b.delay(attempt));
        }
    }

    #[test]
    fn distinct_seeds_jitter_differently_somewhere() {
        let a = BackoffPolicy::new(Duration::from_millis(100), Duration::from_secs(60), 1);
        let b = BackoffPolicy::new(Duration::from_millis(100), Duration::from_secs(60), 2);
        assert!((1..=10).any(|n| a.delay(n) != b.delay(n)));
    }

    #[test]
    fn none_policy_never_waits() {
        let p = BackoffPolicy::none();
        assert_eq!(p.delay(1), Duration::ZERO);
        assert_eq!(p.delay(1000), Duration::ZERO);
        assert_eq!(policy().delay(0), Duration::ZERO);
    }

    #[test]
    fn delay_is_a_pure_function_of_attempt() {
        let p = policy();
        // Querying out of order or repeatedly changes nothing: no hidden
        // generator state survives between calls.
        let d5 = p.delay(5);
        p.delay(9);
        p.delay(1);
        assert_eq!(p.delay(5), d5);
    }
}
