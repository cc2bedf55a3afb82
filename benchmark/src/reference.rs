//! The reference loop: a fixed piece of work whose time says how fast the
//! host runs right now.
//!
//! The hosts the benchmark is meant for are shared virtual machines. Their
//! speed moves by ±30% in stretches of a few seconds, and a thread's
//! on-CPU time moves with its wall time, so the load from outside shows up
//! as slower instructions, not as time spent descheduled. No filter on wall
//! times alone (fastest rep, median rep) removes that from a 10-second run.
//! The timed run therefore runs this loop between reps and scales each
//! timing by the loop's time around it: a stretch that slows both by the
//! same share leaves the scaled figure where it was. The loop is the
//! benchmark's own code, so a change to the library moves the reps and not
//! the loop.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// The reference loop's time, in seconds, on the host speed that scaled
/// figures are expressed at: about its 5th-percentile time on the host the
/// baselines were measured on.
pub const NOMINAL_S: f64 = 0.0125;

/// Iterations of one pass: about 12–16 ms on that host.
const ITERATIONS: u64 = 60_000;

/// Runs the reference loop once and returns its wall seconds.
///
/// Each iteration mixes what the workloads spend their time on: a
/// xorshift draw, an ordered-map insert and range lookup over 4,096 keys,
/// and a short heap-allocated string.
pub fn reference_s() -> f64 {
    let start = Instant::now();
    let mut map = BTreeMap::new();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut acc = 0u64;
    for i in 0..ITERATIONS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let key = x % 4096;
        map.insert(key, i);
        if let Some((_, v)) = map.range(key..).next() {
            acc = acc.wrapping_add(*v);
        }
        acc = acc.wrapping_add(format!("{x:x}").len() as u64);
    }
    black_box(acc);
    start.elapsed().as_secs_f64()
}

/// `wall_s`, measured while the reference loop took `reference_s`, scaled
/// to the nominal host speed.
pub fn scaled(wall_s: f64, reference_s: f64) -> f64 {
    wall_s * NOMINAL_S / reference_s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_cancels_a_uniform_slowdown() {
        assert!((scaled(0.4, NOMINAL_S) - 0.4).abs() < 1e-12);
        assert!((scaled(0.6, 1.5 * NOMINAL_S) - 0.4).abs() < 1e-12);
        assert!(reference_s() > 0.0);
    }
}
