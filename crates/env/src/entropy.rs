//! A `/dev/random`-style entropy pool that drains and refills.
//!
//! Backs the Apache trigger *"lack of events to generate sufficient random
//! numbers in /dev/random"* — transient because *"during recovery, it is
//! likely that more events will be generated for /dev/random"* (§5.1). The
//! pool accumulates bits at a fixed rate of environmental events per
//! simulated second and blocks (errors) when a read wants more bits than
//! are available.

use faultstudy_sim::time::{Duration, SimTime};
use std::fmt;

/// Error returned when a read wants more entropy than the pool holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EntropyExhausted {
    /// Bits requested.
    pub requested: u64,
    /// Bits available at the time of the read.
    pub available: u64,
}

impl fmt::Display for EntropyExhausted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "entropy pool exhausted: requested {} bits, {} available",
            self.requested, self.available
        )
    }
}

impl std::error::Error for EntropyExhausted {}

/// The kernel entropy pool.
///
/// Refill is computed lazily from the timestamp of each operation, so the
/// pool needs no tick hook: simply calling [`EntropyPool::read`] later in
/// simulated time observes the accumulated bits.
///
/// # Example
///
/// ```
/// use faultstudy_env::entropy::EntropyPool;
/// use faultstudy_sim::time::SimTime;
///
/// let mut pool = EntropyPool::new(128, 64, SimTime::ZERO); // 64 bits/sec
/// pool.read(128, SimTime::ZERO).unwrap();                  // drained
/// assert!(pool.read(128, SimTime::ZERO).is_err());
/// assert!(pool.read(128, SimTime::from_secs(2)).is_ok());  // refilled
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EntropyPool {
    capacity_bits: u64,
    bits: u64,
    refill_bits_per_sec: u64,
    last_update: SimTime,
}

impl EntropyPool {
    /// Creates a full pool of `capacity_bits` refilling at
    /// `refill_bits_per_sec`, with `now` as the reference instant.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_bits` is zero.
    pub fn new(capacity_bits: u64, refill_bits_per_sec: u64, now: SimTime) -> Self {
        assert!(capacity_bits > 0, "entropy capacity must be positive");
        EntropyPool { capacity_bits, bits: capacity_bits, refill_bits_per_sec, last_update: now }
    }

    fn settle(&mut self, now: SimTime) {
        if now <= self.last_update {
            return;
        }
        // A full pool accrues nothing, and a dead rate never will: in both
        // cases the elapsed time carries no refill progress to preserve.
        if self.bits >= self.capacity_bits || self.refill_bits_per_sec == 0 {
            self.last_update = now;
            return;
        }
        let per_sec = Duration::from_secs(1).as_nanos();
        let elapsed = now.saturating_since(self.last_update).as_nanos();
        let gained = self.refill_bits_per_sec.saturating_mul(elapsed) / per_sec;
        if gained == 0 {
            // Not enough time for one whole bit. Leave `last_update` where
            // it is so the fractional progress keeps accruing: advancing it
            // here would let frequent polling (is_exhausted_at every 1ms)
            // discard every remainder and starve the refill entirely.
            return;
        }
        if gained >= self.capacity_bits - self.bits {
            self.bits = self.capacity_bits;
            self.last_update = now;
        } else {
            self.bits += gained;
            // Consume only the nanoseconds actually converted into bits;
            // the remainder stays banked in `last_update` for the next
            // settle, making refill independent of polling frequency.
            let consumed = gained.saturating_mul(per_sec) / self.refill_bits_per_sec;
            self.last_update =
                self.last_update.saturating_add(Duration::from_nanos(consumed.min(elapsed)));
        }
    }

    /// Bits available at `now`.
    pub fn available_at(&mut self, now: SimTime) -> u64 {
        self.settle(now);
        self.bits
    }

    /// Whether the pool is empty at `now`.
    pub(crate) fn is_exhausted_at(&mut self, now: SimTime) -> bool {
        self.available_at(now) == 0
    }

    /// Reads `bits` of entropy at `now`.
    ///
    /// # Errors
    ///
    /// [`EntropyExhausted`] if fewer than `bits` are available; nothing is
    /// consumed on failure (the caller "blocks", i.e. fails, like a
    /// non-blocking read of `/dev/random`).
    pub fn read(&mut self, bits: u64, now: SimTime) -> Result<(), EntropyExhausted> {
        self.settle(now);
        if bits > self.bits {
            return Err(EntropyExhausted { requested: bits, available: self.bits });
        }
        self.bits -= bits;
        Ok(())
    }

    /// Drains the pool completely at `now` (a competing consumer).
    pub fn drain(&mut self, now: SimTime) {
        self.settle(now);
        self.bits = 0;
    }

    /// Scrubs the pool back to capacity at `now` — an operator feeding the
    /// kernel fresh events (moving the mouse, restarting an entropy
    /// daemon). This is the explicit reset hook for environment scrubbing:
    /// it is *not* something a generic recovery may do on its own, which is
    /// why the supervisor gates it behind an explicit policy. Returns the
    /// bits added.
    pub(crate) fn scrub(&mut self, now: SimTime) -> u64 {
        self.settle(now);
        let added = self.capacity_bits - self.bits;
        self.bits = self.capacity_bits;
        added
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_full_and_drains() {
        let mut p = EntropyPool::new(100, 10, SimTime::ZERO);
        assert_eq!(p.available_at(SimTime::ZERO), 100);
        p.read(60, SimTime::ZERO).unwrap();
        assert_eq!(p.available_at(SimTime::ZERO), 40);
        p.drain(SimTime::ZERO);
        assert!(p.is_exhausted_at(SimTime::ZERO));
    }

    #[test]
    fn failed_read_consumes_nothing() {
        let mut p = EntropyPool::new(100, 0, SimTime::ZERO);
        p.read(90, SimTime::ZERO).unwrap();
        let err = p.read(20, SimTime::ZERO).unwrap_err();
        assert_eq!(err, EntropyExhausted { requested: 20, available: 10 });
        assert_eq!(p.available_at(SimTime::ZERO), 10);
    }

    #[test]
    fn refills_linearly_and_caps_at_capacity() {
        let mut p = EntropyPool::new(100, 10, SimTime::ZERO);
        p.drain(SimTime::ZERO);
        assert_eq!(p.available_at(SimTime::from_secs(3)), 30);
        assert_eq!(p.available_at(SimTime::from_secs(1000)), 100, "capped");
    }

    #[test]
    fn sub_second_refill_rounds_down() {
        let mut p = EntropyPool::new(100, 10, SimTime::ZERO);
        p.drain(SimTime::ZERO);
        assert_eq!(p.available_at(SimTime::from_millis(1500)), 15);
    }

    #[test]
    fn zero_refill_rate_never_recovers() {
        let mut p = EntropyPool::new(10, 0, SimTime::ZERO);
        p.drain(SimTime::ZERO);
        assert!(p.is_exhausted_at(SimTime::from_secs(1_000_000)));
    }

    #[test]
    fn time_does_not_flow_backwards() {
        let mut p = EntropyPool::new(100, 10, SimTime::from_secs(10));
        p.drain(SimTime::from_secs(10));
        // An earlier timestamp neither refills nor panics.
        assert_eq!(p.available_at(SimTime::from_secs(5)), 0);
    }

    #[test]
    fn refill_is_independent_of_polling_frequency() {
        // 10 bits/sec means one bit per 100ms; polling every 1ms floors
        // each increment to zero bits. The old settle advanced
        // `last_update` anyway, discarding every fractional remainder, so
        // a frequently-polled pool never refilled at all.
        let mut polled = EntropyPool::new(100, 10, SimTime::ZERO);
        polled.drain(SimTime::ZERO);
        let mut idle = polled.clone();
        for ms in 1..=3000 {
            polled.is_exhausted_at(SimTime::from_millis(ms));
        }
        assert_eq!(
            polled.available_at(SimTime::from_secs(3)),
            idle.available_at(SimTime::from_secs(3)),
            "polling must not slow the refill"
        );
        assert_eq!(polled.available_at(SimTime::from_secs(3)), 30);
    }

    #[test]
    fn sub_bit_remainders_accumulate_across_settles() {
        // 3 bits/sec: each settle at a 400ms boundary gains 1 bit and
        // banks the extra 66.67ms toward the next one.
        let mut p = EntropyPool::new(100, 3, SimTime::ZERO);
        p.drain(SimTime::ZERO);
        for ms in (400..=4000).step_by(400) {
            p.available_at(SimTime::from_millis(ms));
        }
        // 4 seconds at 3 bits/sec is exactly 12 bits, however often we polled.
        assert_eq!(p.available_at(SimTime::from_secs(4)), 12);
    }

    #[test]
    fn full_pool_does_not_bank_refill_time() {
        let mut p = EntropyPool::new(100, 10, SimTime::ZERO);
        // Sit full for an hour, then drain: no credit for the idle time.
        assert_eq!(p.available_at(SimTime::from_secs(3600)), 100);
        p.drain(SimTime::from_secs(3600));
        assert_eq!(p.available_at(SimTime::from_secs(3601)), 10, "refill restarts from the drain");
    }

    #[test]
    fn scrub_refills_to_capacity_and_reports_bits_added() {
        let mut p = EntropyPool::new(100, 10, SimTime::ZERO);
        p.drain(SimTime::ZERO);
        // 2 seconds of refill leave 20 bits; the scrub supplies the other 80.
        assert_eq!(p.scrub(SimTime::from_secs(2)), 80);
        assert_eq!(p.available_at(SimTime::from_secs(2)), 100);
        // Scrubbing a full pool is a no-op.
        assert_eq!(p.scrub(SimTime::from_secs(2)), 0);
    }

    #[test]
    fn scrub_restarts_refill_accounting() {
        let mut p = EntropyPool::new(100, 10, SimTime::ZERO);
        p.drain(SimTime::ZERO);
        p.scrub(SimTime::from_secs(1));
        p.drain(SimTime::from_secs(1));
        // No credit for pre-scrub time: refill restarts from the scrub.
        assert_eq!(p.available_at(SimTime::from_secs(2)), 10);
    }

    #[test]
    fn error_display() {
        let e = EntropyExhausted { requested: 8, available: 3 };
        assert_eq!(e.to_string(), "entropy pool exhausted: requested 8 bits, 3 available");
    }
}
