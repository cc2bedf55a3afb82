//! The campaign driver: the one contract every campaign report keeps, the
//! one determinism recipe they all run on, and what the cell campaigns
//! share on top of it (DESIGN.md §18).
//!
//! [`drive`] runs units `0..units` through [`run_chunk_fold`]: unit
//! `index` runs on `split_seed(seed, index)`, drawn from one
//! [`SplitSeedStream`] per chunk, and chunk partials merge in index order.
//! The accumulator is per campaign. Merging a later partial must equal
//! folding its units directly — append in index order, or accumulate —
//! which makes every report byte-identical at any thread count and chunk
//! size.

use faultstudy_exec::{run_chunk_fold, ParallelSpec};
use faultstudy_obs::MetricsRegistry;
use faultstudy_sim::rng::SplitSeedStream;
use faultstudy_traffic::{ArrivalKind, UnitStats};
use serde::Serialize;
use std::fmt;

/// One instance of the paper's end-to-end experiment (§5.4, §8): run each
/// fault class under each recovery strategy and tabulate the outcome per
/// class. The recovery matrix and the six campaigns all implement it, and
/// `tests/campaign_contract.rs` holds all seven to one contract: the
/// report, its JSON and its text are the same bytes at any thread count
/// and chunk size.
pub trait Campaign: Sized + Serialize + fmt::Display {
    /// What a run is a pure function of.
    type Spec;

    /// The subcommand that runs it, as it appears in `ANOMALY:` lines.
    const NAME: &'static str;

    /// Runs the campaign on `parallel` workers.
    fn run(spec: Self::Spec, parallel: ParallelSpec) -> Self;

    /// Violations of the campaign's class contract; empty on success.
    fn violations(&self) -> Vec<String>;

    /// What the `faultstudy` subcommand prints in text mode.
    fn text(&self) -> String {
        self.to_string()
    }
}

/// Configuration of an open-loop campaign: traffic, micro, oblivious and
/// graph all offer their load from one of these.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct LoadSpec {
    /// Master seed; the campaign is a pure function of it.
    pub seed: u64,
    /// Total requests offered across the whole campaign, spread evenly
    /// over the units (earlier units absorb the remainder).
    pub requests: u64,
    /// Arrival-process family for every unit.
    pub arrival: ArrivalKind,
}

/// Runs units `0..units` of the campaign seeded by `seed` on `parallel`
/// workers. `unit(acc, index, unit_seed)` folds unit `index` into its
/// chunk's accumulator, made by `init`; `merge(acc, later)` folds in the
/// partial of the next chunk.
pub(crate) fn drive<A, I, U, M>(
    seed: u64,
    units: usize,
    parallel: ParallelSpec,
    init: I,
    unit: U,
    merge: M,
) -> A
where
    A: Send,
    I: Fn() -> A + Sync,
    U: Fn(&mut A, usize, u64) + Sync,
    M: FnMut(&mut A, A),
{
    let chunk = |range: std::ops::Range<usize>, acc: &mut A| {
        let mut seeds = SplitSeedStream::new(seed, range.start as u64);
        for index in range {
            unit(acc, index, seeds.next_seed());
        }
    };
    run_chunk_fold(units, parallel, init, chunk, merge)
}

/// Runs a campaign whose units each report one cell: `unit(index,
/// unit_seed)` makes the cell, and the cells come back in index order.
pub(crate) fn drive_cells<C, U>(seed: u64, units: usize, parallel: ParallelSpec, unit: U) -> Vec<C>
where
    C: Send,
    U: Fn(usize, u64) -> C + Sync,
{
    drive(
        seed,
        units,
        parallel,
        Vec::new,
        |cells: &mut Vec<C>, index, unit_seed| cells.push(unit(index, unit_seed)),
        |cells, later| cells.extend(later),
    )
}

/// [`drive_cells`] for a campaign that can also run instrumented:
/// `unit(index, unit_seed)` returns a cell and the registry its
/// environment recorded, if any. Given a `ledger`, the run merges those
/// and `ledger`s each cell into the campaign registry; without one it
/// returns the registry empty.
pub(crate) fn drive_ledgered<C, U, L>(
    seed: u64,
    units: usize,
    parallel: ParallelSpec,
    unit: U,
    ledger: Option<L>,
) -> (Vec<C>, MetricsRegistry)
where
    C: Send,
    U: Fn(usize, u64) -> (C, Option<MetricsRegistry>) + Sync,
    L: Fn(&mut MetricsRegistry, &C) + Sync,
{
    drive(
        seed,
        units,
        parallel,
        || (Vec::new(), MetricsRegistry::new()),
        |(cells, registry): &mut (Vec<C>, MetricsRegistry), index, unit_seed| {
            let (cell, metrics) = unit(index, unit_seed);
            if let Some(ledger) = &ledger {
                if let Some(metrics) = &metrics {
                    registry.merge_from(metrics);
                }
                ledger(registry, &cell);
            }
            cells.push(cell);
        },
        |(cells, registry), (later_cells, later_registry)| {
            cells.extend(later_cells);
            registry.merge_from(&later_registry);
        },
    )
}

/// The `(plan, axis, variant)` coordinates of unit `index` in a grid of
/// `axes` × `variants` units per plan, in row-major order.
pub(crate) fn grid(index: usize, axes: usize, variants: usize) -> (usize, usize, usize) {
    (index / (axes * variants), index / variants % axes, index % variants)
}

/// Requests unit `index` of `units` offers: an even share of `requests`,
/// the earliest units absorbing the remainder.
pub(crate) fn unit_share(requests: u64, units: usize, index: usize) -> u64 {
    let units = units as u64;
    requests / units + u64::from((index as u64) < requests % units)
}

/// Folds `parts` into one with `absorb`: the per-class tallies and
/// campaign totals behind every cell report's accessors.
pub(crate) fn fold<'a, T: Default + 'a>(
    parts: impl IntoIterator<Item = &'a T>,
    absorb: fn(&mut T, &T),
) -> T {
    let mut total = T::default();
    for part in parts {
        absorb(&mut total, part);
    }
    total
}

/// Fraction of the offered requests in `stats` that missed the SLO —
/// violations plus drops over offered, in [0, 1].
pub(crate) fn miss_rate(stats: &UnitStats) -> f64 {
    if stats.offered == 0 {
        return 0.0;
    }
    (stats.slo_violations + stats.dropped) as f64 / stats.offered as f64
}

/// Nanoseconds rendered as fractional milliseconds for the report tables.
pub(crate) fn ms(nanos: Option<u64>) -> f64 {
    nanos.unwrap_or(0) as f64 / 1e6
}

/// Writes the title line of an open-loop campaign report.
pub(crate) fn write_title(
    f: &mut fmt::Formatter<'_>,
    campaign: &str,
    spec: &LoadSpec,
    units: usize,
) -> fmt::Result {
    let LoadSpec { seed, requests, arrival } = *spec;
    let arrival = arrival.name();
    writeln!(f, "{campaign} campaign: {requests} requests offered over {units} units ({arrival} arrivals, seed {seed})")
}

/// Writes the totals line of a report's request ledger.
pub(crate) fn write_totals(f: &mut fmt::Formatter<'_>, t: &UnitStats) -> fmt::Result {
    writeln!(
        f,
        "  total: {} offered, {} answered ({:.2}%), {} dropped, {} SLO violations",
        t.offered,
        t.answered(),
        100.0 * t.availability(),
        t.dropped,
        t.slo_violations
    )
}

/// Writes the closing line of a campaign report: `clean` when there are
/// no anomalies, else every anomaly.
pub(crate) fn write_anomalies(
    f: &mut fmt::Formatter<'_>,
    anomalies: &[String],
    clean: &str,
) -> fmt::Result {
    if anomalies.is_empty() {
        writeln!(f, "  no anomalies: {clean}")
    } else {
        writeln!(f, "  ANOMALIES: {anomalies:?}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_walks_plans_then_axes_then_variants() {
        let coords: Vec<_> = (0..12).map(|index| grid(index, 3, 2)).collect();
        assert_eq!(coords[..3], [(0, 0, 0), (0, 0, 1), (0, 1, 0)]);
        assert_eq!(coords[5..7], [(0, 2, 1), (1, 0, 0)]);
        assert_eq!(coords[11], (1, 2, 1));
    }
}
