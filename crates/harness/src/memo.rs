//! Outcomes of a seed-reading `(fault, strategy)` pair, one per decision
//! path.
//!
//! An experiment reads its environment's seed only through deciding reads
//! ([`Environment::race`](faultstudy_env::Environment::race)), each of which
//! reduces the seed to one verdict, crash or ok. Nothing before a pair's
//! first read sees the seed, so every run of the pair makes the same first
//! read; and the verdicts so far determine everything up to the next read,
//! which is therefore the same read in every run that agrees on them. The
//! runs of one pair form a binary decision tree: a node is a read, its two
//! branches the verdicts, and a leaf the outcome (and, when instrumented,
//! the registry) every run along that path proves.
//!
//! [`DecisionMemo`] holds that tree in a fixed pool of nodes. A sample
//! judges the recorded reads for its own environment seed
//! ([`SeedReplay`]) and follows the verdicts to a leaf; only a sample whose
//! path ends at an unexplored branch runs, and its read log
//! ([`ReadLog`]) adds the path. Every worker of a campaign shares the memo
//! without a lock: a node is claimed from the pool by one atomic add and
//! linked by one compare-and-swap, and whichever worker fills a node fills
//! it with the same value. A lookup that misses, and a pool that runs
//! out, cost only a run, so results never depend on the thread count or
//! the chunk size.

use crate::experiment::LeanOutcome;
use faultstudy_env::witness::{DecidingRead, ReadLog, SeedReplay};
use faultstudy_obs::MetricsRegistry;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::OnceLock;

/// The outcome a run proved, with its registry when the run was
/// instrumented: what later samples fold instead of running.
pub type Proven = (LeanOutcome, Option<Box<MetricsRegistry>>);

/// Nodes in one memo's pool. A race pair's tree has one read node and one
/// leaf per retry, plus the first read and the leaf where the budget runs
/// out: 12 under the five-retry progressive strategy, the largest.
const NODES: usize = 16;

/// The decision tree of one seed-reading pair, empty by default; see the
/// module docs.
#[derive(Default)]
pub struct DecisionMemo {
    /// The pool; the root is node 0.
    nodes: [Node; NODES],
    /// Nodes claimed after the root. It runs past `NODES - 1` once the
    /// pool is spent.
    claimed: AtomicUsize,
}

/// One node of the tree: empty until a worker fills it.
#[derive(Default)]
struct Node {
    entry: OnceLock<Entry>,
    /// One plus the index of the node after an ok verdict (0) and after a
    /// crash (1), or 0 while that branch is unexplored.
    next: [AtomicU32; 2],
}

enum Entry {
    Read(DecidingRead),
    Leaf(Proven),
}

impl DecisionMemo {
    /// The outcome a run under environment seed `seed` proves, if a run on
    /// the same decision path has been recorded.
    pub fn lookup(&self, seed: u64) -> Option<&Proven> {
        let mut replay = SeedReplay::new(seed);
        let mut node = &self.nodes[0];
        loop {
            match node.entry.get()? {
                Entry::Leaf(proven) => return Some(proven),
                Entry::Read(read) => {
                    let crashed = replay.judge(read).is_err();
                    let next = node.next[usize::from(crashed)].load(Ordering::Acquire);
                    node = &self.nodes[(next as usize).checked_sub(1)?];
                }
            }
        }
    }

    /// Records the path of a run whose log is `reads` and the outcome it
    /// proved. A log that is not [complete](ReadLog::is_complete) records
    /// nothing, and neither does the rest of a path the pool has no room
    /// for.
    pub fn insert(&self, reads: &ReadLog, proven: Proven) {
        if !reads.is_complete() {
            return;
        }
        let mut node = &self.nodes[0];
        for (read, crashed) in reads.reads() {
            let entry = node.entry.get_or_init(|| Entry::Read(read));
            debug_assert!(
                matches!(entry, Entry::Read(at) if *at == read),
                "runs that agree on every verdict so far make the same next read"
            );
            match self.follow(&node.next[usize::from(crashed)]) {
                Some(next) => node = next,
                None => return,
            }
        }
        let _ = node.entry.set(Entry::Leaf(proven));
    }

    /// The node `link` leads to, claiming and linking a fresh one when the
    /// branch is unexplored, or `None` when the pool is spent.
    fn follow(&self, link: &AtomicU32) -> Option<&Node> {
        let mut next = link.load(Ordering::Acquire);
        if next == 0 {
            let fresh = self.claimed.fetch_add(1, Ordering::Relaxed) + 1;
            if fresh >= NODES {
                return None;
            }
            // A worker that linked the branch first wins; the fresh node
            // then stays unused.
            next = match link.compare_exchange(
                0,
                fresh as u32 + 1,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => fresh as u32 + 1,
                Err(won) => won,
            };
        }
        Some(&self.nodes[next as usize - 1])
    }

    /// The decision paths recorded so far: one leaf each.
    pub fn leaves(&self) -> usize {
        self.nodes.iter().filter(|n| matches!(n.entry.get(), Some(Entry::Leaf(_)))).count()
    }
}
