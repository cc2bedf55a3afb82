//! Property tests for the simulation substrate.

use faultstudy_sim::rng::{DetRng, SplitMix64, Xoshiro256StarStar};
use faultstudy_sim::sched::{Interleaver, StepOutcome, StepScheduler, Task};
use faultstudy_sim::time::{Clock, Duration, SimTime};
use faultstudy_sim::trace::Trace;
use faultstudy_sim::wheel::TimingWheel;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Offsets from the queue's time, picked by `selector`: a tie (0), a
/// near offset (under 4.1 µs), a mid offset (under 1.07 s) or a far one
/// (under 275 s, past 69 s three times in four).
fn wheel_offset(selector: u8, raw: u64) -> u64 {
    match selector % 4 {
        0 => 0,
        1 => raw % 4_096,
        2 => raw % (1 << 30),
        _ => raw % (1 << 38),
    }
}

proptest! {
    /// SimTime/Duration arithmetic is consistent: (t + d) - t == d.
    #[test]
    fn time_add_then_subtract_round_trips(t in 0u64..1 << 40, d in 0u64..1 << 40) {
        let t0 = SimTime::from_nanos(t);
        let dur = Duration::from_nanos(d);
        prop_assert_eq!((t0 + dur) - t0, dur);
        prop_assert_eq!(t0.saturating_add(dur).saturating_since(t0), dur);
    }

    /// Clock::advance accumulates exactly.
    #[test]
    fn clock_accumulates(steps in prop::collection::vec(0u64..1 << 20, 1..50)) {
        let mut clock = Clock::new();
        let mut total = 0u64;
        for s in steps {
            clock.advance(Duration::from_nanos(s));
            total += s;
            prop_assert_eq!(clock.now(), SimTime::from_nanos(total));
        }
    }

    /// Two generators with the same seed emit identical streams; a
    /// different seed diverges within a few draws (with overwhelming
    /// probability — checked deterministically for the sampled seeds).
    #[test]
    fn xoshiro_streams_are_seed_determined(seed in any::<u64>()) {
        let mut a = Xoshiro256StarStar::seed_from(seed);
        let mut b = Xoshiro256StarStar::seed_from(seed);
        for _ in 0..16 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Xoshiro256StarStar::seed_from(seed.wrapping_add(1));
        let divergent = (0..16).any(|_| a.next_u64() != c.next_u64());
        prop_assert!(divergent);
    }

    /// `range` stays within bounds for arbitrary non-empty ranges.
    #[test]
    fn rng_range_is_bounded(seed in any::<u64>(), lo in 0u64..1000, width in 1u64..1000) {
        let mut rng = SplitMix64::new(seed);
        for _ in 0..16 {
            let v = rng.range(lo, lo + width);
            prop_assert!((lo..lo + width).contains(&v));
        }
    }

    /// `chance(p)` over many draws lands near p (loose bound).
    #[test]
    fn rng_chance_tracks_probability(seed in any::<u64>(), p in 0.1f64..0.9) {
        let mut rng = Xoshiro256StarStar::seed_from(seed);
        let n = 2000;
        let hits = (0..n).filter(|_| rng.chance(p)).count() as f64;
        prop_assert!((hits / n as f64 - p).abs() < 0.08, "p={p} rate={}", hits / n as f64);
    }

    /// Shuffle is a permutation.
    #[test]
    fn shuffle_permutes(seed in any::<u64>(), mut items in prop::collection::vec(0u32..100, 0..40)) {
        let mut rng = Xoshiro256StarStar::seed_from(seed);
        let mut shuffled = items.clone();
        rng.shuffle(&mut shuffled);
        shuffled.sort_unstable();
        items.sort_unstable();
        prop_assert_eq!(shuffled, items);
    }

    /// A scheduler over counter tasks conserves the total work regardless
    /// of the interleaving seed.
    #[test]
    fn scheduler_conserves_work(seed in any::<u64>(), counts in prop::collection::vec(1u32..8, 1..6)) {
        struct Counter(u32);
        impl Task<u64> for Counter {
            fn step(&mut self, shared: &mut u64) -> StepOutcome {
                if self.0 == 0 {
                    return StepOutcome::Done;
                }
                self.0 -= 1;
                *shared += 1;
                StepOutcome::Ready
            }
        }
        let mut sched = StepScheduler::new(0u64, Interleaver::Seeded(seed));
        let expected: u32 = counts.iter().sum();
        for c in counts {
            sched.spawn(Counter(c));
        }
        let (total, report) = sched.run(10_000);
        prop_assert!(report.succeeded());
        prop_assert_eq!(total, u64::from(expected));
    }

    /// Differential check: for arbitrary schedules — same-instant ties,
    /// near and far offsets, pops interleaved with schedules — the queue
    /// pops exactly what a `BTreeMap<(time, seq), _>` reference pops, in
    /// the same order, and agrees with it on `len()` and `now()` after
    /// every operation.
    #[test]
    fn wheel_matches_btreemap_reference(
        ops in prop::collection::vec((any::<u8>(), any::<u64>(), 0u8..4), 1..120),
    ) {
        let mut wheel: TimingWheel<u32> = TimingWheel::new();
        let mut reference: BTreeMap<(u64, u64), u32> = BTreeMap::new();
        let mut last_popped = 0u64;
        // The schedule index doubles as the tie-break sequence number.
        for (id, (selector, raw, pops)) in ops.into_iter().enumerate() {
            let at = wheel.now().saturating_add(Duration::from_nanos(wheel_offset(selector, raw)));
            wheel.schedule(at, id as u32);
            reference.insert((at.as_nanos(), id as u64), id as u32);
            prop_assert_eq!(wheel.len(), reference.len(), "len diverged after a schedule");
            prop_assert_eq!(wheel.now().as_nanos(), last_popped, "now moved on a schedule");
            for _ in 0..pops {
                match (wheel.pop(), reference.pop_first()) {
                    (Some((t, v)), Some(((rt, _), rv))) => {
                        prop_assert_eq!(t.as_nanos(), rt, "pop time diverged");
                        prop_assert_eq!(v, rv, "pop order diverged");
                        last_popped = rt;
                    }
                    (None, None) => break,
                    (w, r) => prop_assert!(false, "wheel {w:?} vs reference {r:?}"),
                }
                prop_assert_eq!(wheel.len(), reference.len(), "len diverged after a pop");
                prop_assert_eq!(wheel.now().as_nanos(), last_popped, "now is not the last pop");
            }
        }
        // Drain the rest: both must empty together, in the same order.
        loop {
            match (wheel.pop(), reference.pop_first()) {
                (Some((t, v)), Some(((rt, _), rv))) => {
                    prop_assert_eq!(t.as_nanos(), rt, "drain time diverged");
                    prop_assert_eq!(v, rv, "drain order diverged");
                    last_popped = rt;
                }
                (None, None) => break,
                (w, r) => prop_assert!(false, "wheel {w:?} vs reference {r:?}"),
            }
            prop_assert_eq!(wheel.len(), reference.len(), "len diverged in the drain");
            prop_assert_eq!(wheel.now().as_nanos(), last_popped, "now is not the last pop");
        }
        prop_assert!(wheel.is_empty());
    }

    /// Schedule-everything-then-drain yields a time-sorted, FIFO-stable
    /// permutation of the input.
    #[test]
    fn wheel_drains_sorted_and_stable(
        offsets in prop::collection::vec((any::<u8>(), any::<u64>()), 0..100),
    ) {
        let mut wheel: TimingWheel<usize> = TimingWheel::new();
        let mut expected: Vec<(u64, usize)> = offsets
            .iter()
            .enumerate()
            .map(|(i, &(selector, raw))| (wheel_offset(selector, raw), i))
            .collect();
        for &(at, i) in &expected {
            wheel.schedule(SimTime::from_nanos(at), i);
        }
        // Stable sort preserves schedule order for equal timestamps,
        // which is exactly the wheel's tie-break contract.
        expected.sort_by_key(|&(at, _)| at);
        let mut drained = Vec::new();
        while let Some((at, i)) = wheel.pop() {
            drained.push((at.as_nanos(), i));
        }
        prop_assert_eq!(drained, expected);
    }

    /// The trace ring never exceeds its capacity and keeps the newest
    /// entries.
    #[test]
    fn trace_ring_keeps_newest(cap in 1usize..20, n in 0usize..60) {
        let mut trace = Trace::with_capacity(cap);
        for i in 0..n {
            trace.record(SimTime::from_nanos(i as u64), "s", format!("m{i}"));
        }
        prop_assert!(trace.len() <= cap);
        if n > 0 {
            prop_assert!(trace.contains(&format!("m{}", n - 1)), "newest retained");
        }
        if n > cap {
            prop_assert!(!trace.contains("m0 "), "oldest evicted");
            prop_assert_eq!(trace.len(), cap);
        }
    }
}

/// An offset drawn from the mix the open-loop workloads schedule:
/// same-instant ties, and offsets under 16.8 ms, up to 1.07 s, up to
/// 69 s and beyond. `tie` is the time of the previous schedule.
fn engine_offset(rng: &mut SplitMix64, now: u64, tie: u64) -> u64 {
    match rng.range(0, 100) {
        0..=4 => tie.max(now) - now,
        5..=14 => rng.range(0, 1 << 24),
        15..=69 => rng.range(1 << 24, 1 << 30),
        70..=84 => rng.range(1 << 30, 1 << 36),
        _ => rng.range(1 << 36, 1 << 40),
    }
}

/// The queue at the depth the open-loop engines reach (up to about a
/// thousand pending events): 24,000 seeded operations that climb past
/// 1,000 pending events and come back down, then a drain. Every pop's
/// time and item, and `len()` and `now()` after every operation, equal
/// the `BTreeMap<(time, seq), _>` reference's.
#[test]
fn wheel_matches_btreemap_reference_at_engine_depth() {
    let mut rng = SplitMix64::new(0x000f_a017_57d1);
    let mut wheel: TimingWheel<u32> = TimingWheel::new();
    let mut reference: BTreeMap<(u64, u64), u32> = BTreeMap::new();
    let mut next_id = 0u32;
    let mut last_at = 0u64;
    let mut last_popped = 0u64;
    let mut peak = 0;
    let mut pops = 0;
    for op in 0..24_000 {
        // Schedules outnumber pops 3:2 in the first half, 2:3 after.
        let p_schedule = if op < 12_000 { 0.6 } else { 0.4 };
        if reference.is_empty() || rng.chance(p_schedule) {
            let at = last_popped + engine_offset(&mut rng, last_popped, last_at);
            wheel.schedule(SimTime::from_nanos(at), next_id);
            reference.insert((at, u64::from(next_id)), next_id);
            next_id += 1;
            last_at = at;
        } else {
            let ((at, _), item) = reference.pop_first().expect("nonempty");
            assert_eq!(wheel.pop(), Some((SimTime::from_nanos(at), item)), "pop {pops}");
            last_popped = at;
            pops += 1;
        }
        assert_eq!(wheel.len(), reference.len(), "len after op {op}");
        assert_eq!(wheel.now(), SimTime::from_nanos(last_popped), "now after op {op}");
        peak = peak.max(reference.len());
    }
    while let Some(((at, _), item)) = reference.pop_first() {
        assert_eq!(wheel.pop(), Some((SimTime::from_nanos(at), item)), "drain pop");
        assert_eq!(wheel.len(), reference.len(), "len in the drain");
        assert_eq!(wheel.now(), SimTime::from_nanos(at), "now in the drain");
    }
    assert_eq!(wheel.pop(), None);
    assert!(peak >= 1_000, "peak of {peak} pending events is below the engines' depth");
    assert!(pops >= 5_000, "only {pops} pops interleaved with the schedules");
}
