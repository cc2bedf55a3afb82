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
//! realise their transient race faults, each through a [`RaceGadget`].

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

/// A use-after-free race between two concurrent tasks.
///
/// Every race fault in the corpus has the same anatomy: two concurrent
/// activities share a resource, and one interleaving order frees (or
/// removes, or masks) the resource while the other still needs it. The
/// gadget realises that anatomy as two step counters driven by a
/// [`Schedule`]: a *user* that initialises and then uses a shared slot,
/// and a *remover* that waits a configurable number of steps and then
/// frees the slot. Whether the run crashes depends solely on the
/// interleaving, which the environment owns, so the same gadget run under
/// one environment's interleave seed is deterministic and variable across
/// retries: the paper's definition of an environment-dependent-transient
/// fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RaceGadget {
    /// Setup steps the user performs before touching the resource. More
    /// setup widens the window in which the remover can win.
    pub user_prepare_steps: u32,
    /// Steps the remover works before freeing. More delay narrows the
    /// window.
    pub remover_delay_steps: u32,
}

impl Default for RaceGadget {
    fn default() -> Self {
        // A window in which exactly half of random interleavings lose:
        // 1/8 + 3/16 + 3/16, as the remover frees after 0, 1 or 2 of the
        // user's set-up steps.
        RaceGadget { user_prepare_steps: 2, remover_delay_steps: 2 }
    }
}

impl RaceGadget {
    /// Runs the two tasks under `interleaver`.
    ///
    /// Returns `Ok(())` if the user used the resource before the remover
    /// freed it, or `Err(reason)` for the crashing interleavings; the
    /// reason is a literal, so a crashing run allocates nothing.
    ///
    /// # Example
    ///
    /// ```
    /// use faultstudy_sim::sched::{Interleaver, RaceGadget};
    ///
    /// let gadget = RaceGadget::default();
    /// // A scripted schedule that lets the remover win always crashes:
    /// let crashing = Interleaver::Fixed(vec![1, 1, 1, 0, 0, 0]);
    /// assert!(gadget.run(crashing).is_err());
    /// ```
    pub fn run(&self, interleaver: Interleaver) -> Result<(), &'static str> {
        let mut schedule = interleaver.start();
        let mut user_left = self.user_prepare_steps;
        let mut remover_left = self.remover_delay_steps;
        // While both tasks are runnable the schedule picks between them,
        // user first. Whichever task reaches its last step first decides
        // the run: the user's last step uses the resource while it is
        // still there, the remover's frees it before the user can.
        loop {
            if schedule.choose(2) == 0 {
                match user_left.checked_sub(1) {
                    Some(left) => user_left = left,
                    None => return Ok(()),
                }
            } else {
                match remover_left.checked_sub(1) {
                    Some(left) => remover_left = left,
                    None => return Err("use after free: resource gone"),
                }
            }
        }
    }

    /// The smallest interleaver seed whose schedule crashes this gadget.
    ///
    /// Fault injection arms a race with such a seed: the bug report being
    /// reproduced documents that the failure did occur, so the first
    /// execution must run under an interleaving inside the race window.
    /// Subsequent retries draw fresh interleavings from the environment.
    ///
    /// # Panics
    ///
    /// Panics if no seed below 4096 crashes — a sign the window is
    /// configured empty.
    pub fn crashing_seed(&self) -> u64 {
        (0..4096)
            .find(|s| self.run(Interleaver::Seeded(*s)).is_err())
            .expect("race window is non-empty")
    }

    /// The exact probability that a uniformly random interleaving crashes
    /// this gadget: its race window.
    ///
    /// Every choice of a run is made while both tasks are runnable, and a
    /// run ends within `user_prepare_steps + remover_delay_steps + 1`
    /// choices. So every [`Interleaver::Fixed`] script of exactly that
    /// many choices, each choice weighted ½, covers every run once: the
    /// probability is the crashing share of those scripts.
    ///
    /// # Panics
    ///
    /// Panics if the two step counts add up to more than 24, whose
    /// scripts would number more than 2^25.
    ///
    /// # Example
    ///
    /// ```
    /// use faultstudy_sim::sched::RaceGadget;
    ///
    /// assert_eq!(RaceGadget::default().crash_probability(), 0.5);
    /// ```
    pub fn crash_probability(&self) -> f64 {
        let steps = u64::from(self.user_prepare_steps) + u64::from(self.remover_delay_steps);
        assert!(steps <= 24, "a race of {steps} steps has too many scripts to enumerate");
        let choices = steps as u32 + 1;
        let scripts = 1u64 << choices;
        let crashes = (0..scripts)
            .filter(|bits| {
                let script = (0..choices).map(|i| (bits >> i) as u32 & 1).collect();
                self.run(Interleaver::Fixed(script)).is_err()
            })
            .count();
        crashes as f64 / scripts as f64
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

    /// The general step scheduler the gadget ran on before `run` became a
    /// two-counter loop, kept as its reference: a task list stepped in the
    /// schedule's order, a task removed once done, a failed step aborting
    /// the run, and a step budget that models a hang.
    fn reference(gadget: &RaceGadget, interleaver: Interleaver) -> Result<(), &'static str> {
        enum Task {
            User { prepare_left: u32 },
            Remover { delay_left: u32 },
        }
        let mut tasks = vec![
            Task::User { prepare_left: gadget.user_prepare_steps },
            Task::Remover { delay_left: gadget.remover_delay_steps },
        ];
        let mut freed = false;
        let mut schedule = interleaver.start();
        let mut steps = 0u64;
        while !tasks.is_empty() {
            if steps >= 10_000 {
                return Err("step budget exhausted");
            }
            let idx = schedule.choose(tasks.len());
            steps += 1;
            let done = match &mut tasks[idx] {
                Task::User { prepare_left: left } | Task::Remover { delay_left: left }
                    if *left > 0 =>
                {
                    *left -= 1;
                    false
                }
                Task::User { .. } if freed => {
                    return Err("use after free: resource gone");
                }
                Task::User { .. } => true,
                Task::Remover { .. } => {
                    freed = true;
                    true
                }
            };
            if done {
                tasks.remove(idx);
            }
        }
        Ok(())
    }

    /// One of the three interleaving policies, from a selector and the
    /// draws each policy needs.
    fn interleaver(policy: u8, seed: u64, script: Vec<u32>) -> Interleaver {
        match policy {
            0 => Interleaver::RoundRobin,
            1 => Interleaver::Seeded(seed),
            _ => Interleaver::Fixed(script),
        }
    }

    proptest::proptest! {
        /// The two-counter loop returns what the step scheduler returned,
        /// reason included, for every geometry and policy.
        #[test]
        fn run_matches_the_step_scheduler(
            user_prepare_steps in 0u32..8,
            remover_delay_steps in 0u32..8,
            policy in 0u8..3,
            seed in proptest::prelude::any::<u64>(),
            script in proptest::collection::vec(proptest::prelude::any::<u32>(), 0..13),
        ) {
            let gadget = RaceGadget { user_prepare_steps, remover_delay_steps };
            let inter = interleaver(policy, seed, script);
            proptest::prop_assert_eq!(gadget.run(inter.clone()), reference(&gadget, inter));
        }
    }

    #[test]
    fn fixed_schedule_reproduces_the_crash() {
        // Remover runs to completion first: user then sees a freed slot.
        let g = RaceGadget::default();
        let crash = g.run(Interleaver::Fixed(vec![1, 1, 1, 0, 0, 0]));
        assert_eq!(crash, Err("use after free: resource gone"));
    }

    #[test]
    fn fixed_schedule_also_reproduces_the_safe_order() {
        // User runs to completion first.
        let g = RaceGadget::default();
        assert!(g.run(Interleaver::Fixed(vec![0, 0, 0, 1, 1, 1])).is_ok());
    }

    #[test]
    fn same_seed_same_outcome() {
        let g = RaceGadget::default();
        for seed in 0..32 {
            assert_eq!(
                g.run(Interleaver::Seeded(seed)),
                g.run(Interleaver::Seeded(seed)),
                "seed {seed}"
            );
        }
    }

    /// The remover crashes the run when it takes its `d + 1` steps while
    /// the user has taken `k <= p` of its `p + 1`, the last step its own:
    /// `C(d + k, k)` orders of `d + 1 + k` choices each.
    #[test]
    fn crash_probability_is_the_sum_over_the_removers_winning_orders() {
        fn choose(n: u64, k: u64) -> f64 {
            (1..=k).fold(1.0, |c, i| c * (n + 1 - i) as f64 / i as f64)
        }
        for p in 0..8u32 {
            for d in 0..8u32 {
                let exact: f64 = (0..=u64::from(p))
                    .map(|k| {
                        let d = u64::from(d);
                        choose(d + k, k) * 0.5f64.powi((d + 1 + k) as i32)
                    })
                    .sum();
                let gadget = RaceGadget { user_prepare_steps: p, remover_delay_steps: d };
                let got = gadget.crash_probability();
                assert!((got - exact).abs() < 1e-12, "p {p}, d {d}: {got} against {exact}");
            }
        }
        assert_eq!(RaceGadget::default().crash_probability(), 0.5);
    }

    #[test]
    fn seeded_interleavings_crash_at_about_the_exact_rate() {
        let g = RaceGadget::default();
        let crashes = (0..4000).filter(|&s| g.run(Interleaver::Seeded(s)).is_err()).count();
        let rate = crashes as f64 / 4000.0;
        assert!((rate - g.crash_probability()).abs() < 0.05, "rate {rate}");
    }

    #[test]
    fn wider_window_crashes_more() {
        let narrow = RaceGadget { user_prepare_steps: 1, remover_delay_steps: 6 };
        let wide = RaceGadget { user_prepare_steps: 6, remover_delay_steps: 1 };
        assert!(wide.crash_probability() > narrow.crash_probability());
    }

    #[test]
    fn round_robin_is_deterministic_and_safe_for_default_window() {
        // Round-robin alternation lets the user reach the resource in time
        // for the default geometry; this anchors the "fixed environment =>
        // deterministic outcome" property.
        let g = RaceGadget::default();
        assert!(g.run(Interleaver::RoundRobin).is_ok());
    }
}
