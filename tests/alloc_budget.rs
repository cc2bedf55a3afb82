//! Pins the heap cost of one sampled-campaign step.
//!
//! The sampled campaign builds a fresh environment, application and
//! strategy for every `(fault, strategy, seed)` sample, so whatever one
//! sample allocates is paid again for every sample of a campaign. This
//! file counts the allocations `run_prepared_experiment` makes and holds
//! their per-sample mean to a budget.
//!
//! The counting allocator is the whole test binary's `#[global_allocator]`,
//! so it lives in a file of its own. It counts per thread: libtest's other
//! threads allocate into their own counters, never into the measured one.

use faultstudy::corpus::full_corpus;
use faultstudy::harness::experiment::{build_workload, run_prepared_experiment, StrategyKind};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Mean bytes requested per sample, at most.
const BYTES_PER_SAMPLE: f64 = 4096.0;
/// Mean allocation calls per sample, at most.
const ALLOCS_PER_SAMPLE: f64 = 40.0;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting every allocation and reallocation made
/// on the calling thread.
struct Counting;

fn count(bytes: usize) {
    // `try_with` fails only while the thread's locals are being torn down;
    // those allocations are not the test's.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

// SAFETY: each method passes its caller's arguments unchanged to `System`,
// whose contract is the trait's own. Counting touches only `const`-initialised
// thread-locals, which never allocate and so never re-enter the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// This thread's `(allocations, bytes)` so far.
fn counters() -> (u64, u64) {
    (ALLOCS.with(Cell::get), BYTES.with(Cell::get))
}

#[test]
fn one_campaign_sample_stays_within_its_allocation_budget() {
    let corpus = full_corpus();
    let workloads: Vec<_> = corpus.iter().map(build_workload).collect();
    let pass = |seed: u64| {
        for (fault, workload) in corpus.iter().zip(&workloads) {
            for strategy in StrategyKind::ALL {
                std::hint::black_box(run_prepared_experiment(fault, strategy, seed, workload));
            }
        }
    };
    // The first pass pays for whatever is built once per process; only
    // the steady state is budgeted.
    pass(0);

    let (allocs_before, bytes_before) = counters();
    let seeds = 1..=3;
    for seed in seeds.clone() {
        pass(seed);
    }
    let (allocs_after, bytes_after) = counters();

    let samples = (seeds.count() * corpus.len() * StrategyKind::ALL.len()) as f64;
    let allocs = (allocs_after - allocs_before) as f64 / samples;
    let bytes = (bytes_after - bytes_before) as f64 / samples;
    assert!(
        allocs <= ALLOCS_PER_SAMPLE && bytes <= BYTES_PER_SAMPLE,
        "one campaign sample makes {allocs:.1} allocations of {bytes:.0} bytes on average; \
         the budget is {ALLOCS_PER_SAMPLE} allocations and {BYTES_PER_SAMPLE} bytes"
    );
}
