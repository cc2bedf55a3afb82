//! A reusable use-after-free race gadget.
//!
//! Every race fault in the corpus has the same anatomy: two concurrent
//! activities share a resource, and one interleaving order frees (or
//! removes, or masks) the resource while the other still needs it. The
//! gadget realises that anatomy as two step counters driven by a
//! [`Schedule`](faultstudy_sim::sched::Schedule): a *user* that initialises
//! and then uses a shared slot, and a *remover* that waits a configurable
//! number of steps and then frees the slot. Whether the run crashes
//! depends solely on the interleaving — which the environment owns — so
//! the same gadget run under
//! [`Environment::current_interleaving`](faultstudy_env::Environment::current_interleaving)
//! is deterministic for a fixed environment and variable across retries,
//! exactly the paper's definition of an environment-dependent-transient
//! fault.

use faultstudy_sim::sched::Interleaver;
use serde::{Deserialize, Serialize};

/// Configuration of one race execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
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
    /// use faultstudy_apps::race::RaceGadget;
    /// use faultstudy_sim::sched::Interleaver;
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
    /// Fault injection uses this to *arm* a race: the bug report being
    /// reproduced documents that the failure did occur, so the first
    /// execution must run under an interleaving inside the race window.
    /// Subsequent retries draw fresh interleavings from the environment.
    ///
    /// # Panics
    ///
    /// Panics if no seed below 4096 crashes — a sign the window is
    /// configured empty.
    pub(crate) fn crashing_seed(&self) -> u64 {
        (0..4096)
            .find(|s| self.run(Interleaver::Seeded(*s)).is_err())
            .expect("race window is non-empty")
    }

    /// Fraction of seeds in `0..samples` whose interleaving crashes; the
    /// gadget's empirical race window.
    pub fn crash_rate(&self, samples: u64) -> f64 {
        let crashes =
            (0..samples).filter(|seed| self.run(Interleaver::Seeded(*seed)).is_err()).count();
        crashes as f64 / samples as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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

    proptest! {
        /// The two-counter loop returns what the step scheduler returned,
        /// reason included, for every geometry and policy.
        #[test]
        fn run_matches_the_step_scheduler(
            user_prepare_steps in 0u32..8,
            remover_delay_steps in 0u32..8,
            policy in 0u8..3,
            seed in any::<u64>(),
            script in prop::collection::vec(any::<u32>(), 0..13),
        ) {
            let gadget = RaceGadget { user_prepare_steps, remover_delay_steps };
            let inter = interleaver(policy, seed, script);
            prop_assert_eq!(gadget.run(inter.clone()), reference(&gadget, inter));
        }
    }

    #[test]
    fn fixed_schedule_reproduces_the_crash() {
        // Remover runs to completion first: user then sees a freed slot.
        let g = RaceGadget::default();
        let crash = g.run(Interleaver::Fixed(vec![1, 1, 1, 0, 0, 0]));
        assert!(crash.is_err());
        assert!(crash.unwrap_err().contains("use after free"));
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
                g.run(Interleaver::Seeded(seed)).is_ok(),
                g.run(Interleaver::Seeded(seed)).is_ok(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn window_is_neither_empty_nor_total() {
        let rate = RaceGadget::default().crash_rate(400);
        assert!(rate > 0.05, "some interleavings must crash, rate={rate}");
        assert!(rate < 0.95, "most retries should eventually succeed, rate={rate}");
    }

    #[test]
    fn wider_window_crashes_more() {
        let narrow = RaceGadget { user_prepare_steps: 1, remover_delay_steps: 6 }.crash_rate(400);
        let wide = RaceGadget { user_prepare_steps: 6, remover_delay_steps: 1 }.crash_rate(400);
        assert!(wide > narrow, "wide={wide} narrow={narrow}");
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
