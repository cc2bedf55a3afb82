//! Deterministic parallel work distribution.
//!
//! Campaigns and mining funnels are embarrassingly parallel: every sample or
//! archive report is an independent unit of work addressed by an integer
//! index. This crate provides the two primitives the hot paths share:
//!
//! - [`run_indexed`] — fans a pure `Fn(index) -> T` out over a fixed-size
//!   worker pool and returns the results **in index order**, regardless of
//!   thread count or scheduling.
//! - [`run_chunk_fold`] — the streaming variant: each worker folds its
//!   chunks of indices into a constant-size partial aggregate and partials
//!   merge **in index order**, so memory is one partial per chunk in
//!   flight, not one result per job: O(workers) partials while the workers
//!   keep pace. This is what makes 10–100M-sample campaigns possible: the
//!   materialize-then-fold path would hold every sample alive at once.
//!
//! Combined with per-index seed derivation
//! (`faultstudy_sim::rng::split_seed`), output is byte-identical whether
//! the work ran on 1, 2, or 8 threads, with any chunk size.
//!
//! Dispatch is a chunked work queue: the index space is cut into
//! contiguous chunks (size set by [`ParallelSpec::with_chunk`], auto-sized
//! by default) and workers pull the next chunk from a shared atomic cursor.
//! Unlike the one-big-chunk-per-worker split this crate started with, an
//! oversubscribed pool (`threads > cores`) no longer serializes on its
//! slowest stripe — idle workers just stop pulling — so requesting more
//! threads than the host has costs nothing. Each finished chunk ships back
//! over a bounded channel tagged with its chunk number and the merge
//! consumes chunks strictly in chunk order, so there is no ordering logic
//! to get wrong and no shared mutable state at all.

use crossbeam::channel;
use std::collections::BTreeMap;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// The most worker threads one pool starts, whatever its spec requests.
/// Results are byte-identical at every thread count, so no run needs more,
/// and each worker is an OS thread.
pub const MAX_THREADS: usize = 256;

/// How a parallel section should be executed.
///
/// `ParallelSpec` is intentionally *not* part of any serialized experiment
/// spec: thread count and chunk size are execution details, and results
/// are identical for every value of them. Keeping them out of
/// `CampaignSpec` preserves the byte layout of persisted reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelSpec {
    /// Requested worker count; `0` means "use available parallelism".
    threads: usize,
    /// Work-queue chunk size; `0` means "auto-size from the job count".
    chunk: usize,
}

impl ParallelSpec {
    /// Run on the current thread only.
    pub const SEQUENTIAL: ParallelSpec = ParallelSpec { threads: 1, chunk: 0 };

    /// Use the host's available parallelism, resolved at execution time.
    pub const AUTO: ParallelSpec = ParallelSpec { threads: 0, chunk: 0 };

    /// Requests exactly `threads` workers (`0` is equivalent to [`Self::AUTO`]).
    pub const fn threads(threads: usize) -> ParallelSpec {
        ParallelSpec { threads, chunk: 0 }
    }

    /// Sets an explicit work-queue chunk size (`0` restores auto-sizing).
    ///
    /// Results are byte-identical for every chunk size; the knob only
    /// trades dispatch overhead (small chunks) against tail latency (large
    /// chunks). Exists mostly so the determinism suites can sweep it.
    pub const fn with_chunk(mut self, chunk: usize) -> ParallelSpec {
        self.chunk = chunk;
        self
    }

    /// The worker count this spec resolves to for `jobs` units of work.
    ///
    /// Never exceeds `jobs` (an idle worker is pure overhead) or
    /// [`MAX_THREADS`], and is always at least 1.
    pub(crate) fn effective_threads(&self, jobs: usize) -> usize {
        let requested = if self.threads == 0 {
            thread::available_parallelism().map_or(1, NonZeroUsize::get)
        } else {
            self.threads
        };
        requested.clamp(1, jobs.clamp(1, MAX_THREADS))
    }

    /// The chunk size this spec resolves to for `jobs` units over
    /// `workers` threads: explicit if set, otherwise enough chunks for the
    /// queue to balance (8 per worker) without dispatch overhead drowning
    /// tiny jobs.
    pub(crate) fn effective_chunk(&self, jobs: usize, workers: usize) -> usize {
        if self.chunk > 0 {
            return self.chunk;
        }
        (jobs / (workers * 8).max(1)).clamp(1, 4096)
    }
}

impl Default for ParallelSpec {
    fn default() -> Self {
        ParallelSpec::AUTO
    }
}

/// Runs `chunk_fn` over contiguous index ranges covering `0..jobs` and
/// merges the per-chunk partial aggregates **in chunk order**.
///
/// This is the streaming primitive underneath [`run_indexed`], exposed
/// because chunk-at-a-time callers (e.g. batched per-sample RNG
/// derivation) want the whole range, not one index at a time. Workers
/// pull chunk numbers from a shared atomic cursor, fold each chunk into a
/// fresh partial created by `init`, and ship `(chunk, partial)` back over
/// a bounded channel; the calling thread merges partials strictly in chunk
/// order. It drains the channel as fast as partials arrive and parks each
/// out-of-order one until the chunks before it are merged. Peak memory is
/// O(workers) partials while the workers keep pace; while one worker holds
/// the oldest unmerged chunk, the others keep folding and parking, so up
/// to one partial per chunk finished ahead of the stalled one waits.
///
/// The result equals the sequential fold `init(); chunk_fn(0..jobs)`
/// whenever `merge(a, b)` is equivalent to folding `b`'s indices directly
/// into `a` — true for any per-index fold that only appends/accumulates,
/// which the differential suites assert for the campaign aggregates.
pub fn run_chunk_fold<A, I, C, M>(
    jobs: usize,
    spec: ParallelSpec,
    init: I,
    chunk_fn: C,
    mut merge: M,
) -> A
where
    A: Send,
    I: Fn() -> A + Sync,
    C: Fn(std::ops::Range<usize>, &mut A) + Sync,
    M: FnMut(&mut A, A),
{
    let workers = spec.effective_threads(jobs);
    if workers <= 1 || jobs <= 1 {
        let mut acc = init();
        chunk_fn(0..jobs, &mut acc);
        return acc;
    }

    let chunk_size = spec.effective_chunk(jobs, workers);
    let chunks = jobs.div_ceil(chunk_size);
    let cursor = AtomicUsize::new(0);
    let (init, chunk_fn) = (&init, &chunk_fn);
    let cursor = &cursor;

    let mut acc = init();
    thread::scope(|scope| {
        let (tx, rx) = channel::bounded::<(usize, A)>(workers * 2);
        for _ in 0..workers {
            let tx = tx.clone();
            scope.spawn(move || loop {
                let chunk = cursor.fetch_add(1, Ordering::Relaxed);
                if chunk >= chunks {
                    return;
                }
                let start = chunk * chunk_size;
                let end = (start + chunk_size).min(jobs);
                let mut partial = init();
                chunk_fn(start..end, &mut partial);
                // The receiver outlives every sender inside the scope, so
                // a send failure is unreachable; drop the result to keep
                // the worker infallible.
                if tx.send((chunk, partial)).is_err() {
                    return;
                }
            });
        }
        drop(tx);

        // Merge strictly in chunk order; out-of-order arrivals wait in
        // `parked`. The channel is drained as fast as partials arrive, so
        // its cap does not bound how far ahead workers run: while one
        // worker holds the oldest unmerged chunk, every chunk the others
        // finish waits here.
        let mut next = 0usize;
        let mut parked: BTreeMap<usize, A> = BTreeMap::new();
        for (chunk, partial) in rx.iter() {
            parked.insert(chunk, partial);
            while let Some(partial) = parked.remove(&next) {
                merge(&mut acc, partial);
                next += 1;
            }
        }
        debug_assert_eq!(next, chunks, "every chunk merged exactly once");
    });
    acc
}

/// Runs `work(0..jobs)` across a fixed-size worker pool and returns the
/// results in index order.
///
/// Dispatch is the shared chunked work queue (see the crate docs), so an
/// oversubscribed pool costs nothing; results are assembled in chunk order
/// into one contiguous `Vec`. Because `work` receives the *global* index,
/// any per-item randomness derived from it (e.g. via `split_seed`) is
/// independent of the partitioning, so the output is a pure function of
/// `(jobs, work)` — thread count cannot be observed in the result.
///
/// `work` must be `Sync` (shared by reference across workers) and is called
/// exactly once per index.
///
/// # Example
///
/// ```
/// use faultstudy_exec::{run_indexed, ParallelSpec};
/// let squares = run_indexed(5, ParallelSpec::threads(2), |i| i * i);
/// assert_eq!(squares, vec![0, 1, 4, 9, 16]);
/// ```
pub fn run_indexed<T, F>(jobs: usize, spec: ParallelSpec, work: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = spec.effective_threads(jobs);
    if workers <= 1 || jobs <= 1 {
        return (0..jobs).map(work).collect();
    }
    run_chunk_fold(
        jobs,
        spec,
        || Vec::new(),
        |range, acc: &mut Vec<T>| {
            acc.reserve(range.len());
            acc.extend(range.map(&work));
        },
        |all, mut chunk| {
            if all.is_empty() {
                all.reserve(jobs);
            }
            all.append(&mut chunk);
        },
    )
}

/// Keeps `items[i]` where `keep[i]` is true, preserving order.
///
/// The order-preserving merge half of a parallel filter: compute the keep
/// mask with [`run_indexed`], then apply it sequentially. Splitting the
/// predicate (parallel, expensive) from the retention (sequential, trivial)
/// keeps filtered output independent of thread count.
///
/// # Panics
///
/// Panics if the mask length differs from the item count.
pub fn retain_by_mask<T>(items: Vec<T>, keep: &[bool]) -> Vec<T> {
    assert_eq!(items.len(), keep.len(), "mask must cover every item");
    items.into_iter().zip(keep).filter_map(|(item, &keep)| keep.then_some(item)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_and_parallel_agree() {
        let expected: Vec<usize> = (0..97).map(|i| i * 3 + 1).collect();
        for threads in [1, 2, 3, 8, 64] {
            let got = run_indexed(97, ParallelSpec::threads(threads), |i| i * 3 + 1);
            assert_eq!(got, expected, "threads={threads}");
        }
    }

    #[test]
    fn auto_matches_sequential() {
        let seq = run_indexed(40, ParallelSpec::SEQUENTIAL, |i| i as u64 * 7);
        let auto = run_indexed(40, ParallelSpec::AUTO, |i| i as u64 * 7);
        assert_eq!(seq, auto);
    }

    #[test]
    fn handles_edge_sizes() {
        assert_eq!(run_indexed(0, ParallelSpec::threads(4), |i| i), Vec::<usize>::new());
        assert_eq!(run_indexed(1, ParallelSpec::threads(4), |i| i), vec![0]);
        // More workers than jobs: clamped, still complete and ordered.
        assert_eq!(run_indexed(3, ParallelSpec::threads(16), |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn every_chunk_size_produces_identical_output() {
        let expected: Vec<usize> = (0..143).map(|i| i ^ 0x2A).collect();
        for chunk in [1, 2, 3, 7, 64, 143, 1000] {
            for threads in [2, 4, 9] {
                let spec = ParallelSpec::threads(threads).with_chunk(chunk);
                let got = run_indexed(143, spec, |i| i ^ 0x2A);
                assert_eq!(got, expected, "chunk={chunk} threads={threads}");
            }
        }
    }

    #[test]
    fn chunk_fold_sees_every_index_exactly_once() {
        for threads in [1, 3, 8] {
            for chunk in [0, 1, 5, 77] {
                let spec = ParallelSpec::threads(threads).with_chunk(chunk);
                let seen = run_chunk_fold(
                    123,
                    spec,
                    Vec::new,
                    |range, acc: &mut Vec<usize>| acc.extend(range),
                    |all, mut part| all.append(&mut part),
                );
                assert_eq!(seen, (0..123).collect::<Vec<_>>(), "threads={threads} chunk={chunk}");
            }
        }
    }

    #[test]
    fn effective_threads_clamps() {
        assert_eq!(ParallelSpec::threads(8).effective_threads(3), 3);
        assert_eq!(ParallelSpec::threads(2).effective_threads(100), 2);
        assert_eq!(ParallelSpec::threads(5).effective_threads(0), 1);
        assert_eq!(ParallelSpec::SEQUENTIAL.effective_threads(100), 1);
        // Resolving a count starts no thread, so the bound is tested here
        // and never by running a pool at a large value.
        assert_eq!(ParallelSpec::threads(100_000).effective_threads(1 << 20), MAX_THREADS);
        assert_eq!(ParallelSpec::threads(3).effective_threads(2), 2);
        let auto = ParallelSpec::AUTO.effective_threads(1 << 20);
        assert!((1..=MAX_THREADS).contains(&auto), "auto resolved to {auto}");
    }

    #[test]
    fn effective_chunk_resolves() {
        assert_eq!(ParallelSpec::threads(2).with_chunk(10).effective_chunk(1000, 2), 10);
        // Auto: bounded and at least 1, even for tiny jobs.
        assert_eq!(ParallelSpec::threads(4).effective_chunk(3, 4), 1);
        let auto = ParallelSpec::threads(2).effective_chunk(1_000_000, 2);
        assert!((1..=4096).contains(&auto), "auto chunk {auto}");
    }

    #[test]
    fn mask_retention_preserves_order() {
        let items = vec!["a", "b", "c", "d"];
        let keep = [true, false, true, false];
        assert_eq!(retain_by_mask(items, &keep), vec!["a", "c"]);
    }

    #[test]
    #[should_panic(expected = "mask must cover")]
    fn mask_length_mismatch_panics() {
        retain_by_mask(vec![1, 2, 3], &[true]);
    }
}
