//! The seed witness: a log of every read of a seed-derived value.
//!
//! The builder's seed reaches an [`Environment`](crate::Environment) only
//! through its randomness stream, and the stream only through the
//! interleave seed. A race reads that seed through
//! [`Environment::race`](crate::Environment::race), which reduces it to one
//! verdict, crash or ok, under the [`RaceGadget`] it names. The environment
//! logs each such *deciding read*: where its seed came from (the n-th draw
//! of the stream, or a forced value) and which gadget judged it. That is
//! enough to judge the same reads for any other seed without running
//! anything ([`SeedReplay`]), and two runs whose reads agree on every
//! verdict execute identically.
//!
//! A raw read of the interleave seed
//! ([`Environment::current_interleaving`](crate::Environment::current_interleaving))
//! hands out the value itself, so it marks the log opaque, as does a
//! deciding read past the log's [`ReadLog::CAPACITY`]. The log is inline
//! and fixed in size, so recording a read never allocates.

use faultstudy_sim::rng::{DetRng, Xoshiro256StarStar};
use faultstudy_sim::sched::{Interleaver, RaceGadget};

/// Where the interleave seed of one deciding read came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeedSource {
    /// The n-th draw, counting from 1, of the environment's randomness
    /// stream, `Xoshiro256StarStar::seed_from(seed)` for the builder's
    /// seed.
    Drawn(u64),
    /// A value [`Environment::force_interleave_seed`] set: the same under
    /// every seed, so its read's verdict is fixed.
    ///
    /// [`Environment::force_interleave_seed`]: crate::Environment::force_interleave_seed
    Forced(u64),
}

/// One deciding read: a race gadget judged under one interleave seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecidingRead {
    /// Where the read's seed came from.
    pub source: SeedSource,
    /// The race the seed decided.
    pub gadget: RaceGadget,
}

impl DecidingRead {
    /// A placeholder for the log's unused entries.
    const UNUSED: DecidingRead = DecidingRead {
        source: SeedSource::Forced(0),
        gadget: RaceGadget { user_prepare_steps: 0, remover_delay_steps: 0 },
    };
}

/// Every read of a seed-derived value one environment made, in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadLog {
    reads: [DecidingRead; ReadLog::CAPACITY],
    /// Bit `i` set when read `i` crashed its gadget.
    crashed: u8,
    len: u8,
    opaque: bool,
}

impl Default for ReadLog {
    fn default() -> Self {
        ReadLog {
            reads: [DecidingRead::UNUSED; ReadLog::CAPACITY],
            crashed: 0,
            len: 0,
            opaque: false,
        }
    }
}

impl ReadLog {
    /// Deciding reads the log holds; one more makes it opaque. Every run
    /// of the corpus reads at most six times.
    pub const CAPACITY: usize = 8;

    /// Appends a deciding read and its verdict, or marks the log opaque
    /// when it is full.
    pub(crate) fn push(&mut self, read: DecidingRead, crashed: bool) {
        let i = usize::from(self.len);
        if i == Self::CAPACITY {
            self.opaque = true;
            return;
        }
        self.reads[i] = read;
        self.crashed |= u8::from(crashed) << i;
        self.len += 1;
    }

    /// Records a read that handed out the seed-derived value itself.
    pub(crate) fn mark_opaque(&mut self) {
        self.opaque = true;
    }

    /// Whether nothing read a seed-derived value: the run would have
    /// executed identically, registry included, under every seed.
    pub fn is_blind(&self) -> bool {
        self.len == 0 && !self.opaque
    }

    /// Whether every read is in the log as a deciding read, so the
    /// verdicts of [`ReadLog::reads`] determine the run.
    pub fn is_complete(&self) -> bool {
        !self.opaque
    }

    /// The logged deciding reads with their verdicts, `true` where the
    /// read crashed its gadget, in the order they were made.
    pub fn reads(&self) -> impl Iterator<Item = (DecidingRead, bool)> + '_ {
        let crashed = self.crashed;
        self.reads[..usize::from(self.len)]
            .iter()
            .enumerate()
            .map(move |(i, read)| (*read, crashed >> i & 1 == 1))
    }
}

/// The interleave seeds an environment built with one seed would see:
/// judges the logged reads of one run for that seed without building the
/// environment. The reads must come in the order the run made them.
///
/// # Example
///
/// ```
/// use faultstudy_env::witness::SeedReplay;
/// use faultstudy_env::Environment;
/// use faultstudy_sim::sched::RaceGadget;
/// use faultstudy_sim::time::Duration;
///
/// let mut env = Environment::builder().seed(9).build();
/// env.advance(Duration::from_secs(1));
/// let verdict = env.race(RaceGadget::default());
/// let (read, crashed) = env.read_log().reads().next().unwrap();
/// assert_eq!(crashed, verdict.is_err());
/// assert_eq!(SeedReplay::new(9).judge(&read), verdict);
/// ```
#[derive(Debug, Clone)]
pub struct SeedReplay {
    rng: Xoshiro256StarStar,
    drawn: u64,
    last: u64,
}

impl SeedReplay {
    /// The stream of an environment built with `seed`, before any draw.
    pub fn new(seed: u64) -> SeedReplay {
        SeedReplay { rng: Xoshiro256StarStar::seed_from(seed), drawn: 0, last: 0 }
    }

    /// The interleave seed `source` names under this replay's seed. An
    /// environment never draws backwards, so neither does the replay.
    fn seed_of(&mut self, source: SeedSource) -> u64 {
        match source {
            SeedSource::Forced(value) => value,
            SeedSource::Drawn(n) => {
                debug_assert!(n >= self.drawn, "draw {n} read after draw {}", self.drawn);
                while self.drawn < n {
                    self.last = self.rng.next_u64();
                    self.drawn += 1;
                }
                self.last
            }
        }
    }

    /// `read`'s verdict under this replay's seed.
    pub fn judge(&mut self, read: &DecidingRead) -> Result<(), &'static str> {
        let seed = self.seed_of(read.source);
        read.gadget.run(Interleaver::Seeded(seed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read(n: u64) -> DecidingRead {
        DecidingRead { source: SeedSource::Drawn(n), gadget: RaceGadget::default() }
    }

    #[test]
    fn a_full_log_turns_opaque_and_keeps_its_reads() {
        let mut log = ReadLog::default();
        assert!(log.is_blind() && log.is_complete());
        for n in 1..=ReadLog::CAPACITY as u64 {
            log.push(read(n), n % 3 == 0);
        }
        assert!(!log.is_blind() && log.is_complete());
        let verdicts: Vec<bool> = log.reads().map(|(_, crashed)| crashed).collect();
        assert_eq!(verdicts, [false, false, true, false, false, true, false, false]);
        log.push(read(9), true);
        assert!(!log.is_complete(), "a read past the capacity goes unrecorded");
        assert_eq!(log.reads().count(), ReadLog::CAPACITY);
    }

    #[test]
    fn an_opaque_mark_is_a_read() {
        let mut log = ReadLog::default();
        log.mark_opaque();
        assert!(!log.is_blind());
        assert!(!log.is_complete());
    }

    #[test]
    fn a_replay_reads_the_nth_draw_of_the_stream_or_the_forced_value() {
        let mut stream = Xoshiro256StarStar::seed_from(5);
        let draws: Vec<u64> = (0..6).map(|_| stream.next_u64()).collect();
        let mut replay = SeedReplay::new(5);
        for n in [1, 1, 3, 6, 6] {
            assert_eq!(replay.seed_of(SeedSource::Drawn(n)), draws[n as usize - 1], "draw {n}");
            assert_eq!(replay.seed_of(SeedSource::Forced(17)), 17);
        }
    }
}
