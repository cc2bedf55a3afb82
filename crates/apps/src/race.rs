//! The race every race fault in the corpus runs.
//!
//! Each of the four race faults (`mysql-edt-01`, `mysql-edt-02`,
//! `gnome-edt-02`, `gnome-edt-03`) runs the default [`RaceGadget`] through
//! [`Environment::race`](faultstudy_env::Environment::race), which judges
//! it under the environment's current interleave seed and logs the read.
//! The same fault therefore crashes or survives deterministically in a
//! fixed environment and variably across retries, exactly the paper's
//! definition of an environment-dependent-transient fault.

pub use faultstudy_sim::sched::RaceGadget;

/// The smallest interleaver seed that crashes the default gadget: what
/// injecting a race fault forces as the interleave seed, so that the first
/// execution fails as the bug report says it did.
pub(crate) const ARMED_SEED: u64 = 0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_armed_seed_is_the_default_gadgets_first_crashing_seed() {
        assert_eq!(RaceGadget::default().crashing_seed(), ARMED_SEED);
    }
}
