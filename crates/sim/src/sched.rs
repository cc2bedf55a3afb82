//! Controllable interleavings of concurrent tasks.
//!
//! Race-condition faults — the canonical *environment-dependent-transient*
//! faults of the paper (§3) — arise from the order in which a thread
//! scheduler interleaves concurrent tasks. This module models exactly that
//! choice: whoever steps a set of tasks asks a [`Schedule`] which runnable
//! task steps next, and an [`Interleaver`] policy decides the answers. The
//! interleaving is part of the *operating environment*, so a retry under a
//! different interleaver seed may observe a different order and thereby
//! avoid the race — which is precisely how the simulated applications
//! realise their transient race faults.

use crate::rng::{DetRng, Xoshiro256StarStar};

/// Policy choosing which runnable task steps next.
#[derive(Debug, Clone)]
pub enum Interleaver {
    /// Cycle through runnable tasks in index order. Fully deterministic and
    /// independent of any seed; useful as a "fixed environment".
    RoundRobin,
    /// Choose uniformly at random with the given seed. Two runs with the same
    /// seed produce identical interleavings; different seeds model the
    /// environment changing between a failed run and its retry.
    Seeded(u64),
    /// Replay an explicit schedule: indexes into the *runnable* task list at
    /// each step, taken modulo its length. Once the script is exhausted,
    /// every choice is index 0, the first runnable task. Used by tests to
    /// force the exact interleaving that trips a race.
    Fixed(Vec<u32>),
}

impl Interleaver {
    /// Starts a schedule that answers one choice per step under this
    /// policy.
    ///
    /// # Example
    ///
    /// ```
    /// use faultstudy_sim::sched::Interleaver;
    ///
    /// let mut schedule = Interleaver::RoundRobin.start();
    /// let picks: Vec<usize> = (0..4).map(|_| schedule.choose(2)).collect();
    /// assert_eq!(picks, [0, 1, 0, 1]);
    /// ```
    pub fn start(self) -> Schedule {
        Schedule(match self {
            Interleaver::RoundRobin => State::RoundRobin { next: 0 },
            Interleaver::Seeded(seed) => State::Seeded(Xoshiro256StarStar::seed_from(seed)),
            Interleaver::Fixed(v) => State::Fixed { script: v, pos: 0 },
        })
    }
}

/// An [`Interleaver`] in progress, from [`Interleaver::start`].
#[derive(Debug)]
pub struct Schedule(State);

#[derive(Debug)]
enum State {
    RoundRobin { next: usize },
    Seeded(Xoshiro256StarStar),
    Fixed { script: Vec<u32>, pos: usize },
}

impl Schedule {
    /// Index, in `0..runnable`, of the runnable task that steps next.
    pub fn choose(&mut self, runnable: usize) -> usize {
        debug_assert!(runnable > 0);
        match &mut self.0 {
            State::RoundRobin { next } => {
                let c = *next % runnable;
                *next = c + 1;
                c
            }
            State::Seeded(rng) => rng.below(runnable as u64) as usize,
            State::Fixed { script, pos } => {
                if *pos < script.len() {
                    let c = script[*pos] as usize % runnable;
                    *pos += 1;
                    c
                } else {
                    0
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn picks(inter: Interleaver, runnable: usize, steps: usize) -> Vec<usize> {
        let mut schedule = inter.start();
        (0..steps).map(|_| schedule.choose(runnable)).collect()
    }

    #[test]
    fn round_robin_cycles() {
        assert_eq!(picks(Interleaver::RoundRobin, 3, 7), [0, 1, 2, 0, 1, 2, 0]);
    }

    #[test]
    fn seeded_is_reproducible_and_seed_sensitive() {
        let a = picks(Interleaver::Seeded(7), 2, 16);
        assert_eq!(a, picks(Interleaver::Seeded(7), 2, 16));
        // Some other seed yields a different interleaving (checked over a few
        // candidates to avoid asserting on one specific stream).
        let different = (8..16).any(|s| picks(Interleaver::Seeded(s), 2, 16) != a);
        assert!(different, "all seeds produced identical interleavings");
    }

    #[test]
    fn fixed_script_wraps_its_indexes_then_picks_the_first_task() {
        assert_eq!(picks(Interleaver::Fixed(vec![1, 1, 0, 3]), 2, 6), [1, 1, 0, 1, 0, 0]);
    }
}
