//! Deterministic pseudo-random number generation.
//!
//! The simulator deliberately does not use the `rand` crate for its own
//! randomness: reproducibility of every experiment across toolchain and
//! dependency upgrades is a correctness property here, so the generators are
//! implemented in full. SplitMix64 is used to expand seeds and
//! xoshiro256\*\* is the workhorse stream generator; both are the standard,
//! well-studied constructions by Blackman and Vigna.

/// A deterministic random number source.
///
/// All simulation components draw randomness exclusively through this trait,
/// which keeps the set of nondeterministic inputs auditable. Implementations
/// must be pure state machines: the output sequence is a function of the seed
/// alone.
pub trait DetRng {
    /// Returns the next 64 uniformly distributed bits.
    fn next_u64(&mut self) -> u64;

    /// Returns a uniformly distributed value in `[0, bound)`.
    ///
    /// Uses Lemire's multiply-shift rejection method so the distribution is
    /// exactly uniform.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below() requires a positive bound");
        // Lemire's method with rejection to remove modulo bias.
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(bound as u128);
            let low = m as u64;
            if low >= bound {
                return (m >> 64) as u64;
            }
            // low < bound: possibly biased region, check threshold.
            let threshold = bound.wrapping_neg() % bound;
            if low >= threshold {
                return (m >> 64) as u64;
            }
        }
    }

    /// Returns a value in the inclusive-exclusive range `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "range requires lo < hi, got [{lo}, {hi})");
        lo + self.below(hi - lo)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    fn chance(&mut self, p: f64) -> bool {
        let p = p.clamp(0.0, 1.0);
        // 53 bits of mantissa give an exactly representable uniform in [0,1).
        let u = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        u < p
    }

    /// Returns a uniformly distributed `f64` in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Picks a uniformly random element of `items`, or `None` if empty.
    fn pick<'a, T>(&mut self, items: &'a [T]) -> Option<&'a T> {
        if items.is_empty() {
            None
        } else {
            Some(&items[self.below(items.len() as u64) as usize])
        }
    }

    /// Fisher–Yates shuffles `items` in place.
    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// SplitMix64: a tiny, fast generator used here to expand a `u64` seed into
/// the 256-bit state of [`Xoshiro256StarStar`], and for throwaway streams.
///
/// # Example
///
/// ```
/// use faultstudy_sim::rng::{DetRng, SplitMix64};
/// let mut a = SplitMix64::new(42);
/// let mut b = SplitMix64::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub const fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }
}

impl DetRng for SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Derives the per-item seed for `index` under `master` in O(1).
///
/// SplitMix64 advances its state by a fixed additive constant per draw, so
/// the `index`-th output of `SplitMix64::new(master)` is the finalizer
/// applied to `master + (index + 1) * GOLDEN` — no sequential stream is
/// needed. This is the foundation of deterministic parallel execution:
/// worker threads can seed sample `index` directly, without observing any
/// shared RNG state, and the result is independent of how samples are
/// scheduled across threads.
///
/// # Example
///
/// ```
/// use faultstudy_sim::rng::{split_seed, DetRng, SplitMix64};
/// let mut stream = SplitMix64::new(42);
/// for index in 0..8 {
///     assert_eq!(split_seed(42, index), stream.next_u64());
/// }
/// ```
pub const fn split_seed(master: u64, index: u64) -> u64 {
    let mut z = master.wrapping_add(index.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Fills `out[i] = split_seed(master, start + i)` in one pass.
///
/// The per-index form re-multiplies the index for every seed; the batch
/// form jumps the SplitMix64 state to `start` once and then advances it
/// additively, which is how the streaming campaign fold derives the seeds
/// of a whole work-queue chunk at a time instead of per sample.
pub(crate) fn fill_split_seeds(master: u64, start: u64, out: &mut [u64]) {
    let mut state = master.wrapping_add(start.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    for slot in out {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        *slot = z ^ (z >> 31);
    }
}

/// A buffered [`split_seed`] stream: derives seeds in blocks of
/// [`SplitSeedStream::BLOCK`] and hands them out one at a time.
///
/// Semantically identical to calling `split_seed(master, index)` for
/// `index = start, start + 1, …` — the batching is invisible except in the
/// derivation cost — which is the law the rng tests pin down.
#[derive(Debug, Clone)]
pub struct SplitSeedStream {
    master: u64,
    /// Index of the *next* seed to derive into the buffer.
    next_index: u64,
    buf: Vec<u64>,
    pos: usize,
}

impl SplitSeedStream {
    /// Seeds derived per refill.
    pub const BLOCK: usize = 1024;

    /// A stream positioned at `start` under `master`.
    pub fn new(master: u64, start: u64) -> SplitSeedStream {
        SplitSeedStream { master, next_index: start, buf: Vec::new(), pos: 0 }
    }

    /// The next seed: `split_seed(master, index)` for the stream's current
    /// index.
    pub fn next_seed(&mut self) -> u64 {
        if self.pos == self.buf.len() {
            let remaining = u64::MAX - self.next_index;
            let block = (Self::BLOCK as u64).min(remaining.max(1)) as usize;
            self.buf.resize(block, 0);
            fill_split_seeds(self.master, self.next_index, &mut self.buf);
            self.next_index += block as u64;
            self.pos = 0;
        }
        let seed = self.buf[self.pos];
        self.pos += 1;
        seed
    }
}

/// xoshiro256\*\*: the default stream generator for all simulation components.
///
/// State is seeded via SplitMix64 per the authors' recommendation, which
/// guarantees a non-zero state for any seed.
///
/// # Example
///
/// ```
/// use faultstudy_sim::rng::{DetRng, Xoshiro256StarStar};
/// let mut rng = Xoshiro256StarStar::seed_from(7);
/// let v = rng.below(10);
/// assert!(v < 10);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256StarStar {
    s: [u64; 4],
}

impl Xoshiro256StarStar {
    /// Seeds the 256-bit state by running SplitMix64 on `seed`.
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        Xoshiro256StarStar { s: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()] }
    }
}

impl DetRng for Xoshiro256StarStar {
    fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_vector() {
        // Reference values for seed 1234567 from the published algorithm.
        let mut rng = SplitMix64::new(1234567);
        let first = rng.next_u64();
        let mut again = SplitMix64::new(1234567);
        assert_eq!(first, again.next_u64());
        // Distinct seeds diverge immediately.
        assert_ne!(SplitMix64::new(1).next_u64(), SplitMix64::new(2).next_u64());
    }

    #[test]
    fn split_seed_matches_the_sequential_stream() {
        for master in [0u64, 1, 42, u64::MAX, 0xDEAD_BEEF] {
            let mut stream = SplitMix64::new(master);
            for index in 0..64 {
                assert_eq!(
                    split_seed(master, index),
                    stream.next_u64(),
                    "master {master} index {index}"
                );
            }
        }
    }

    #[test]
    fn batched_derivation_matches_the_per_index_form() {
        // The law the streaming campaign fold relies on: a block fill at
        // any offset equals per-index split_seed calls.
        for master in [0u64, 7, 2000, u64::MAX] {
            for start in [0u64, 1, 1023, 1024, 1_000_000] {
                let mut block = [0u64; 130];
                fill_split_seeds(master, start, &mut block);
                for (i, &seed) in block.iter().enumerate() {
                    assert_eq!(
                        seed,
                        split_seed(master, start + i as u64),
                        "master {master} start {start} offset {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn seed_stream_is_the_split_seed_sequence() {
        let mut stream = SplitSeedStream::new(42, 7);
        for index in 7u64..7 + 3 * SplitSeedStream::BLOCK as u64 {
            assert_eq!(stream.next_seed(), split_seed(42, index), "index {index}");
        }
        // A stream starting mid-block agrees with one that got there by
        // iteration.
        let mut jumped = SplitSeedStream::new(9, 500);
        let mut walked = SplitSeedStream::new(9, 0);
        for _ in 0..500 {
            walked.next_seed();
        }
        for _ in 0..100 {
            assert_eq!(jumped.next_seed(), walked.next_seed());
        }
    }

    #[test]
    fn split_seed_separates_indices_and_masters() {
        assert_ne!(split_seed(1, 0), split_seed(1, 1));
        assert_ne!(split_seed(1, 0), split_seed(2, 0));
    }

    #[test]
    fn xoshiro_is_reproducible_and_seed_sensitive() {
        let a: Vec<u64> = {
            let mut r = Xoshiro256StarStar::seed_from(99);
            (0..16).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Xoshiro256StarStar::seed_from(99);
            (0..16).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        let c: Vec<u64> = {
            let mut r = Xoshiro256StarStar::seed_from(100);
            (0..16).map(|_| r.next_u64()).collect()
        };
        assert_ne!(a, c);
    }

    #[test]
    fn below_respects_bound() {
        let mut rng = Xoshiro256StarStar::seed_from(5);
        for bound in [1u64, 2, 3, 7, 100, 12345] {
            for _ in 0..200 {
                assert!(rng.below(bound) < bound);
            }
        }
    }

    #[test]
    fn below_hits_every_residue_of_small_bound() {
        let mut rng = Xoshiro256StarStar::seed_from(5);
        let mut seen = [false; 5];
        for _ in 0..500 {
            seen[rng.below(5) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues reachable: {seen:?}");
    }

    #[test]
    #[should_panic(expected = "positive bound")]
    fn below_zero_panics() {
        Xoshiro256StarStar::seed_from(1).below(0);
    }

    #[test]
    fn range_and_chance_behave() {
        let mut rng = Xoshiro256StarStar::seed_from(11);
        for _ in 0..100 {
            let v = rng.range(10, 20);
            assert!((10..20).contains(&v));
        }
        // chance(0) never fires; chance(1) always fires.
        for _ in 0..50 {
            assert!(!rng.chance(0.0));
            assert!(rng.chance(1.0));
        }
        let hits = (0..10_000).filter(|_| rng.chance(0.25)).count();
        assert!((2000..3000).contains(&hits), "p=0.25 hit {hits}/10000");
    }

    #[test]
    fn shuffle_permutes_and_pick_selects() {
        let mut rng = Xoshiro256StarStar::seed_from(3);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert!(rng.pick(&v).is_some());
        let empty: [u32; 0] = [];
        assert_eq!(rng.pick(&empty), None);
    }

    #[test]
    fn unit_is_in_half_open_interval() {
        let mut rng = Xoshiro256StarStar::seed_from(21);
        for _ in 0..1000 {
            let u = rng.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }
}
