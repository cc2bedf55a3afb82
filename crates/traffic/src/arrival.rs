//! Seed-derived arrival processes for the open-loop request stream.
//!
//! Every inter-arrival gap is a pure function of `(master seed, draw
//! index)`: the uniform variates come from the same `split_seed`
//! derivation the campaigns use (batched through
//! [`SplitSeedStream`]), so an arrival schedule replays byte-identically
//! regardless of thread count, chunk size, or how the stream is
//! interleaved with the rest of the simulation.

use faultstudy_sim::rng::SplitSeedStream;
use faultstudy_sim::time::{Duration, SimTime};
use serde::Serialize;

/// Nanoseconds per simulated second, as float for rate arithmetic.
const NANOS_PER_SEC: f64 = 1_000_000_000.0;

/// The shape of the offered-load curve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum ArrivalKind {
    /// Memoryless arrivals at a constant mean rate.
    Poisson,
    /// On/off bursts: exponential on-periods at twice the nominal rate
    /// alternating with equally long silent periods (50% duty cycle), so
    /// the long-run mean rate matches [`ArrivalKind::Poisson`].
    Bursty,
    /// A compressed day: the instantaneous rate follows a piecewise-linear
    /// diurnal curve between 0.25× and 1.75× the nominal rate with mean
    /// 1×. Pure arithmetic (no trig) keeps the curve deterministic.
    Diurnal,
}

impl ArrivalKind {
    /// Every arrival kind, in presentation order.
    pub const ALL: [ArrivalKind; 3] =
        [ArrivalKind::Poisson, ArrivalKind::Bursty, ArrivalKind::Diurnal];

    /// CLI name of the kind.
    pub fn name(self) -> &'static str {
        match self {
            ArrivalKind::Poisson => "poisson",
            ArrivalKind::Bursty => "bursty",
            ArrivalKind::Diurnal => "diurnal",
        }
    }

    /// Parses a CLI name (`poisson`, `bursty`, `diurnal`).
    pub fn parse(name: &str) -> Option<ArrivalKind> {
        ArrivalKind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// One simulated "day" of the diurnal curve, compressed so that multi-day
/// effects show up within a campaign unit's few simulated minutes.
const DIURNAL_PERIOD: u64 = 8_000_000_000; // 8 simulated seconds

/// Mean length of a bursty on-period (and of the silent off-period).
const BURST_ON_MEAN_NS: f64 = 50_000_000.0; // 50 ms

/// A deterministic generator of inter-arrival gaps.
///
/// # Example
///
/// ```
/// use faultstudy_sim::time::SimTime;
/// use faultstudy_traffic::{ArrivalKind, ArrivalProcess};
///
/// let mut a = ArrivalProcess::new(ArrivalKind::Poisson, 1000.0, 42);
/// let mut b = ArrivalProcess::new(ArrivalKind::Poisson, 1000.0, 42);
/// let gap = a.next_gap(SimTime::ZERO);
/// assert_eq!(gap, b.next_gap(SimTime::ZERO), "same seed, same schedule");
/// assert!(gap.as_nanos() >= 1);
/// ```
#[derive(Debug)]
pub struct ArrivalProcess {
    kind: ArrivalKind,
    /// Nominal mean arrival rate in events per nanosecond.
    rate: f64,
    seeds: SplitSeedStream,
    /// Bursty state: nanoseconds left in the current on-period.
    on_left: f64,
}

impl ArrivalProcess {
    /// A process emitting `rate_per_sec` arrivals per simulated second on
    /// average, with all randomness derived from `master`.
    ///
    /// # Panics
    ///
    /// Panics unless `rate_per_sec` is positive and finite.
    pub fn new(kind: ArrivalKind, rate_per_sec: f64, master: u64) -> ArrivalProcess {
        assert!(
            rate_per_sec.is_finite() && rate_per_sec > 0.0,
            "arrival rate must be positive, got {rate_per_sec}"
        );
        let mut seeds = SplitSeedStream::new(master, 0);
        let on_left = match kind {
            ArrivalKind::Bursty => exp_ns(&mut seeds, 1.0 / BURST_ON_MEAN_NS),
            _ => 0.0,
        };
        ArrivalProcess { kind, rate: rate_per_sec / NANOS_PER_SEC, seeds, on_left }
    }

    /// The gap from `now` to the next arrival; always at least 1 ns so
    /// the stream makes progress.
    pub fn next_gap(&mut self, now: SimTime) -> Duration {
        let gap = match self.kind {
            ArrivalKind::Poisson => exp_ns(&mut self.seeds, self.rate),
            ArrivalKind::Bursty => self.bursty_gap(),
            ArrivalKind::Diurnal => {
                let factor = diurnal_factor(now.as_nanos());
                exp_ns(&mut self.seeds, self.rate * factor)
            }
        };
        Duration::from_nanos((gap as u64).max(1))
    }

    /// On/off alternation: draw at double rate inside the on-period;
    /// when it runs out, skip a silent off-period and start a new burst.
    fn bursty_gap(&mut self) -> f64 {
        let mut offset = 0.0;
        loop {
            let gap = exp_ns(&mut self.seeds, self.rate * 2.0);
            if gap <= self.on_left {
                self.on_left -= gap;
                return offset + gap;
            }
            offset += self.on_left;
            offset += exp_ns(&mut self.seeds, 1.0 / BURST_ON_MEAN_NS);
            self.on_left = exp_ns(&mut self.seeds, 1.0 / BURST_ON_MEAN_NS);
        }
    }
}

/// The diurnal rate multiplier at absolute time `now_ns`: a triangle wave
/// over [`DIURNAL_PERIOD`] ranging 0.25..1.75 with mean exactly 1.
fn diurnal_factor(now_ns: u64) -> f64 {
    let phase = (now_ns % DIURNAL_PERIOD) as f64 / DIURNAL_PERIOD as f64;
    let triangle = if phase < 0.5 { 2.0 * phase } else { 2.0 * (1.0 - phase) };
    0.25 + 1.5 * triangle
}

/// An exponential variate with rate `lambda` (per nanosecond), from the
/// next seed of `seeds` mapped to a uniform in [0, 1).
fn exp_ns(seeds: &mut SplitSeedStream, lambda: f64) -> f64 {
    // 53 mantissa bits give an exactly representable uniform in [0, 1).
    let u = (seeds.next_seed() >> 11) as f64 / (1u64 << 53) as f64;
    // -ln(1-u) is finite because 1-u > 0.
    -(1.0 - u).ln() / lambda
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mean_gap(kind: ArrivalKind, seed: u64, draws: u32) -> f64 {
        let mut p = ArrivalProcess::new(kind, 1000.0, seed);
        let mut now = SimTime::ZERO;
        let mut total = 0u64;
        for _ in 0..draws {
            let gap = p.next_gap(now);
            now = now.saturating_add(gap);
            total += gap.as_nanos();
        }
        total as f64 / f64::from(draws)
    }

    #[test]
    fn poisson_mean_rate_is_close_to_nominal() {
        // 1000/s nominal → 1e6 ns mean gap; 20k draws keep the sample
        // mean within a few percent.
        let mean = mean_gap(ArrivalKind::Poisson, 7, 20_000);
        assert!((mean - 1e6).abs() < 0.05 * 1e6, "mean gap {mean}");
    }

    #[test]
    fn bursty_long_run_rate_matches_nominal() {
        let mean = mean_gap(ArrivalKind::Bursty, 7, 50_000);
        assert!((mean - 1e6).abs() < 0.15 * 1e6, "mean gap {mean}");
    }

    #[test]
    fn diurnal_long_run_rate_matches_nominal() {
        let mean = mean_gap(ArrivalKind::Diurnal, 7, 50_000);
        assert!((mean - 1e6).abs() < 0.25 * 1e6, "mean gap {mean}");
    }

    #[test]
    fn different_seeds_give_different_schedules() {
        let mut a = ArrivalProcess::new(ArrivalKind::Poisson, 1000.0, 1);
        let mut b = ArrivalProcess::new(ArrivalKind::Poisson, 1000.0, 2);
        let gaps_a: Vec<_> = (0..8).map(|_| a.next_gap(SimTime::ZERO)).collect();
        let gaps_b: Vec<_> = (0..8).map(|_| b.next_gap(SimTime::ZERO)).collect();
        assert_ne!(gaps_a, gaps_b);
    }

    #[test]
    fn parse_round_trips_names() {
        for kind in ArrivalKind::ALL {
            assert_eq!(ArrivalKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(ArrivalKind::parse("uniform"), None);
    }
}
