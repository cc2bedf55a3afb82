//! A reusable use-after-free race gadget.
//!
//! Every race fault in the corpus has the same anatomy: two concurrent
//! activities share a resource, and one interleaving order frees (or
//! removes, or masks) the resource while the other still needs it. The
//! gadget realises that anatomy on the deterministic step scheduler: a
//! *user* task that initialises and then uses a shared slot, and a
//! *remover* task that waits a configurable number of steps and then frees
//! the slot. Whether the run crashes depends solely on the interleaving —
//! which the environment owns — so the same gadget run under
//! [`Environment::current_interleaving`](faultstudy_env::Environment::current_interleaving)
//! is deterministic for a fixed environment and variable across retries,
//! exactly the paper's definition of an environment-dependent-transient
//! fault.

use faultstudy_sim::sched::{Interleaver, StepOutcome, StepScheduler, Task};
use serde::{Deserialize, Serialize};

/// Shared state of the gadget.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
struct Slot {
    /// The resource, present until the remover frees it.
    resource: Option<u32>,
    /// Set once the user has safely finished.
    user_done: bool,
}

/// The user task: `prepare_steps` setup steps, then one use of the
/// resource. Using a freed resource crashes.
struct UserTask {
    prepare_left: u32,
}

impl Task<Slot> for UserTask {
    fn step(&mut self, shared: &mut Slot) -> StepOutcome {
        if self.prepare_left > 0 {
            self.prepare_left -= 1;
            return StepOutcome::Ready;
        }
        match shared.resource {
            Some(_) => {
                shared.user_done = true;
                StepOutcome::Done
            }
            None => StepOutcome::Failed("use after free: resource gone".to_owned()),
        }
    }

    fn label(&self) -> &str {
        "user"
    }
}

/// The remover task: `delay_steps` steps of unrelated work, then frees the
/// resource (gracefully if the user already finished).
struct RemoverTask {
    delay_left: u32,
}

impl Task<Slot> for RemoverTask {
    fn step(&mut self, shared: &mut Slot) -> StepOutcome {
        if self.delay_left > 0 {
            self.delay_left -= 1;
            return StepOutcome::Ready;
        }
        shared.resource = None;
        StepOutcome::Done
    }

    fn label(&self) -> &str {
        "remover"
    }
}

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
    /// freed it, or `Err(reason)` for the crashing interleavings.
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
    pub fn run(&self, interleaver: Interleaver) -> Result<(), String> {
        let mut sched =
            StepScheduler::new(Slot { resource: Some(7), user_done: false }, interleaver);
        sched.spawn(UserTask { prepare_left: self.user_prepare_steps });
        sched.spawn(RemoverTask { delay_left: self.remover_delay_steps });
        let (slot, report) = sched.run(10_000);
        match report.failure {
            Some((_, reason)) => Err(reason),
            None => {
                debug_assert!(slot.user_done);
                Ok(())
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
    pub fn crashing_seed(&self) -> u64 {
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
