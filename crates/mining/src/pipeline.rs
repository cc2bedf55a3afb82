//! The §4 selection pipeline and its funnel accounting.
//!
//! Stages, in order:
//!
//! 1. **Keyword search** (mailing-list archives only): keep entries
//!    matching the paper's serious-bug keywords. One pass over the
//!    archive's text arena flags the few rows holding a keyword, and only
//!    those are checked field by field
//!    ([`KeywordQuery::matching_rows`]).
//! 2. **High-impact filter**: keep severe/critical reports — those that
//!    "crash, return an error condition, cause security problems, or stop
//!    responding".
//! 3. **Production-version filter**: the paper assumes users test new
//!    versions before production, so pre-release reports are out of scope.
//! 4. **Dedup**: reduce to unique bugs.
//!
//! [`PipelineOutcome`] records the surviving count after each stage, which
//! is exactly the funnel the paper reports (5220 → 50, ~500 → 45,
//! 44,000 → 44).

use crate::archive::Archive;
use crate::dedup::{dedup_indices_keyed, normalize_title};
use crate::keywords::KeywordQuery;
use faultstudy_core::report::BugReport;
use faultstudy_core::taxonomy::AppKind;
use faultstudy_exec::{retain_by_mask, run_indexed, ParallelSpec};
use faultstudy_obs::{Metrics, MetricsRegistry};
use faultstudy_sim::time::Duration;
use serde::Serialize;
use std::fmt;

/// One stage of the funnel with its surviving count.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct FunnelStage {
    /// Stage name.
    pub name: String,
    /// Reports surviving the stage.
    pub survivors: usize,
}

/// The result of running a pipeline over an archive.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct PipelineOutcome {
    /// The application mined.
    pub app: AppKind,
    /// Stage-by-stage survivor counts, starting with the raw archive size.
    pub funnel: Vec<FunnelStage>,
    /// The selected unique reports.
    pub selected: Vec<BugReport>,
}

impl PipelineOutcome {
    /// The raw archive size (first funnel entry).
    pub fn raw_size(&self) -> usize {
        self.funnel.first().map_or(0, |s| s.survivors)
    }

    /// The final unique-bug count (last funnel entry).
    pub fn unique_bugs(&self) -> usize {
        self.selected.len()
    }
}

impl fmt::Display for PipelineOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: ", self.app)?;
        let counts: Vec<String> =
            self.funnel.iter().map(|s| format!("{} ({})", s.survivors, s.name)).collect();
        f.write_str(&counts.join(" -> "))
    }
}

/// The §4 selection pipeline.
///
/// # Example
///
/// ```
/// use faultstudy_core::taxonomy::AppKind;
/// use faultstudy_mining::SelectionPipeline;
///
/// // The trackers skip the keyword search; the MySQL mailing list does not.
/// let no_search = SelectionPipeline::with_keywords(None);
/// assert_eq!(SelectionPipeline::for_app(AppKind::Apache), no_search);
/// assert_ne!(SelectionPipeline::for_app(AppKind::Mysql), no_search);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SelectionPipeline {
    keyword_query: Option<KeywordQuery>,
}

impl SelectionPipeline {
    /// The pipeline the paper used for `app`: mailing-list keyword search
    /// for MySQL, straight severity/production/dedup for the trackers.
    pub fn for_app(app: AppKind) -> SelectionPipeline {
        SelectionPipeline {
            keyword_query: match app {
                AppKind::Mysql => Some(KeywordQuery::mysql()),
                AppKind::Apache | AppKind::Gnome => None,
            },
        }
    }

    /// A pipeline with a custom (or no) keyword stage.
    pub fn with_keywords(keyword_query: Option<KeywordQuery>) -> SelectionPipeline {
        SelectionPipeline { keyword_query }
    }

    /// Runs the funnel over `archive` with the host's available parallelism.
    pub fn run(&self, archive: &Archive) -> PipelineOutcome {
        self.run_with(archive, ParallelSpec::default())
    }

    /// Runs the funnel over `archive` on `parallel` worker threads.
    ///
    /// The keyword stage scans contiguous row blocks in parallel and joins
    /// their kept rows in block order; every later filter stage evaluates
    /// its predicate as a parallel keep-mask over report indices and then
    /// applies the mask sequentially. Stage order, and therefore the
    /// outcome, is identical for any thread count. Dedup stays a
    /// sequential reduce, but over titles normalized in parallel.
    ///
    /// The funnel is zero-copy until the end: stages filter a `Vec<usize>`
    /// of indices into the borrowed archive, and only the final survivors
    /// (44 of 44,000 for the paper's MySQL archive) are cloned out —
    /// instead of cloning the whole archive up front and discarding 99.9%
    /// of the copies.
    pub fn run_with(&self, archive: &Archive, parallel: ParallelSpec) -> PipelineOutcome {
        self.run_recording(archive, parallel, &mut Metrics::disabled())
    }

    /// Like [`SelectionPipeline::run_with`], but records per-stage timings
    /// into a registry returned alongside the (unchanged) outcome.
    ///
    /// Stage time follows a simulated cost model — fixed nanoseconds per
    /// report entering the stage — not the wall clock, so the registry is a
    /// pure function of the archive and identical at any thread count. Per
    /// `{app}/{stage}` it carries `mining.stage.reports` and
    /// `mining.stage.nanos` counters, a `mining.stage.time` histogram, and
    /// a `mining.stage.rps` throughput gauge.
    pub fn run_instrumented(
        &self,
        archive: &Archive,
        parallel: ParallelSpec,
    ) -> (PipelineOutcome, MetricsRegistry) {
        let mut metrics = Metrics::enabled();
        let outcome = self.run_recording(archive, parallel, &mut metrics);
        (outcome, metrics.take().expect("metrics were enabled"))
    }

    fn run_recording(
        &self,
        archive: &Archive,
        parallel: ParallelSpec,
        metrics: &mut Metrics,
    ) -> PipelineOutcome {
        let app = archive.app();
        let columns = archive.columns();
        let mut funnel =
            vec![FunnelStage { name: "raw archive".to_owned(), survivors: columns.len() }];
        let mut selected = match &self.keyword_query {
            Some(q) => {
                record_stage(metrics, app, "keyword match", columns.len());
                let kept = q.matching_rows(columns, parallel);
                funnel
                    .push(FunnelStage { name: "keyword match".to_owned(), survivors: kept.len() });
                kept
            }
            None => (0..columns.len()).collect(),
        };

        record_stage(metrics, app, "high impact", selected.len());
        let keep = run_indexed(selected.len(), parallel, |i| {
            columns.severity(selected[i]).is_high_impact()
        });
        selected = retain_by_mask(selected, &keep);
        funnel.push(FunnelStage { name: "high impact".to_owned(), survivors: selected.len() });

        record_stage(metrics, app, "production version", selected.len());
        let keep = run_indexed(selected.len(), parallel, |i| columns.production(selected[i]));
        selected = retain_by_mask(selected, &keep);
        funnel
            .push(FunnelStage { name: "production version".to_owned(), survivors: selected.len() });

        record_stage(metrics, app, "unique bugs", selected.len());
        let norms =
            run_indexed(selected.len(), parallel, |i| normalize_title(columns.title(selected[i])));
        let selected =
            dedup_indices_keyed(|i| (columns.id(i), columns.duplicate_of(i)), selected, norms);
        funnel.push(FunnelStage { name: "unique bugs".to_owned(), survivors: selected.len() });

        let selected: Vec<BugReport> = selected.iter().map(|&i| columns.materialize(i)).collect();
        PipelineOutcome { app, funnel, selected }
    }
}

/// Simulated per-report processing cost of each stage, in nanoseconds.
///
/// Text-heavy stages (keyword scan, title normalization for dedup) cost
/// more than the flag checks. The constants are arbitrary but fixed: stage
/// timings derive from them and the entering report count alone, keeping
/// the registry deterministic.
fn stage_cost_nanos(stage: &str) -> u64 {
    match stage {
        "keyword match" => 2_400,
        "high impact" => 60,
        "production version" => 40,
        "unique bugs" => 1_100,
        _ => 0,
    }
}

fn record_stage(metrics: &mut Metrics, app: AppKind, stage: &'static str, entering: usize) {
    if !metrics.is_enabled() {
        return;
    }
    let label = format!("{}/{}", app.name(), stage);
    let reports = entering as u64;
    let nanos = stage_cost_nanos(stage).saturating_mul(reports);
    metrics.incr("mining.stage.reports", &label, reports);
    metrics.incr("mining.stage.nanos", &label, nanos);
    metrics.record_duration("mining.stage.time", &label, Duration::from_nanos(nanos));
    if nanos > 0 {
        let rps = (reports as u128 * 1_000_000_000 / nanos as u128) as i64;
        metrics.set_gauge("mining.stage.rps", &label, rps);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faultstudy_core::report::BugReport;
    use faultstudy_core::taxonomy::Severity;
    use faultstudy_corpus::{PopulationSpec, SyntheticPopulation};

    fn outcome_for(app: AppKind, size: usize, seed: u64) -> (PipelineOutcome, SyntheticPopulation) {
        let spec = PopulationSpec { app, archive_size: size, max_duplicates_per_fault: 2, seed };
        let pop = SyntheticPopulation::generate(&spec);
        let archive = Archive::from_columns(app, pop.to_columns());
        (SelectionPipeline::for_app(app).run(&archive), pop)
    }

    #[test]
    fn apache_funnel_recovers_exactly_50_unique_bugs() {
        let (out, pop) = outcome_for(AppKind::Apache, 1000, 11);
        assert_eq!(out.raw_size(), 1000);
        assert_eq!(out.unique_bugs(), 50, "{out}");
        let pr = crate::metrics::PrecisionRecall::measure(&out.selected, &pop.ground_truth);
        assert_eq!(pr.precision(), 1.0);
        assert_eq!(pr.recall(), 1.0);
    }

    #[test]
    fn gnome_funnel_recovers_exactly_45() {
        let (out, _) = outcome_for(AppKind::Gnome, 500, 12);
        assert_eq!(out.unique_bugs(), 45);
    }

    #[test]
    fn mysql_funnel_includes_keyword_stage_and_recovers_44() {
        let (out, _) = outcome_for(AppKind::Mysql, 2000, 13);
        assert_eq!(out.unique_bugs(), 44);
        assert_eq!(out.funnel.len(), 5, "raw, keyword, impact, production, unique");
        assert_eq!(out.funnel[1].name, "keyword match");
        // The keyword stage must actually narrow a mailing-list archive.
        assert!(out.funnel[1].survivors < out.raw_size());
    }

    #[test]
    fn tracker_pipelines_skip_keyword_stage() {
        let (out, _) = outcome_for(AppKind::Apache, 200, 14);
        assert_eq!(out.funnel.len(), 4);
        assert_eq!(out.funnel[1].name, "high impact");
    }

    #[test]
    fn funnel_counts_are_monotonically_nonincreasing() {
        let (out, _) = outcome_for(AppKind::Mysql, 1500, 15);
        let counts: Vec<usize> = out.funnel.iter().map(|s| s.survivors).collect();
        assert!(counts.windows(2).all(|w| w[1] <= w[0]), "{counts:?}");
    }

    #[test]
    fn display_prints_the_funnel() {
        let (out, _) = outcome_for(AppKind::Gnome, 100, 16);
        let s = out.to_string();
        assert!(s.starts_with("GNOME: 100 (raw archive)"));
        assert!(s.contains("unique bugs"));
    }

    #[test]
    fn outcome_is_independent_of_thread_count() {
        let spec = PopulationSpec {
            app: AppKind::Mysql,
            archive_size: 800,
            max_duplicates_per_fault: 2,
            seed: 21,
        };
        let pop = SyntheticPopulation::generate(&spec);
        let archive = Archive::from_columns(AppKind::Mysql, pop.to_columns());
        let pipeline = SelectionPipeline::for_app(AppKind::Mysql);
        let sequential = pipeline.run_with(&archive, faultstudy_exec::ParallelSpec::SEQUENTIAL);
        for threads in [2, 8] {
            let parallel =
                pipeline.run_with(&archive, faultstudy_exec::ParallelSpec::threads(threads));
            assert_eq!(sequential, parallel, "threads={threads}");
        }
    }

    #[test]
    fn instrumented_run_matches_plain_and_times_stages() {
        let spec = PopulationSpec {
            app: AppKind::Mysql,
            archive_size: 600,
            max_duplicates_per_fault: 2,
            seed: 22,
        };
        let pop = SyntheticPopulation::generate(&spec);
        let archive = Archive::from_columns(AppKind::Mysql, pop.to_columns());
        let pipeline = SelectionPipeline::for_app(AppKind::Mysql);
        let plain = pipeline.run(&archive);
        let (out, reg) = pipeline.run_instrumented(&archive, ParallelSpec::default());
        assert_eq!(out, plain, "metrics must not perturb the funnel");
        assert_eq!(reg.counter("mining.stage.reports", "MySQL/keyword match"), 600);
        assert_eq!(
            reg.counter("mining.stage.nanos", "MySQL/keyword match"),
            600 * 2_400,
            "stage time follows the cost model"
        );
        assert!(reg.gauge("mining.stage.rps", "MySQL/unique bugs").unwrap() > 0);
        // The registry is as thread-count-invariant as the outcome.
        let (_, reg1) = pipeline.run_instrumented(&archive, ParallelSpec::SEQUENTIAL);
        let (_, reg8) = pipeline.run_instrumented(&archive, ParallelSpec::threads(8));
        assert_eq!(reg1, reg);
        assert_eq!(reg8, reg);
    }

    #[test]
    fn custom_pipeline_on_handmade_reports() {
        let reports = vec![
            BugReport::builder(AppKind::Mysql, 1)
                .title("server crashed on join")
                .severity(Severity::Critical)
                .build(),
            BugReport::builder(AppKind::Mysql, 2)
                .title("question about configuration")
                .severity(Severity::Minor)
                .build(),
            BugReport::builder(AppKind::Mysql, 3)
                .title("beta died in testing")
                .severity(Severity::Critical)
                .version("beta", false)
                .build(),
        ];
        let archive = Archive::new(AppKind::Mysql, reports);
        let out = SelectionPipeline::for_app(AppKind::Mysql).run(&archive);
        assert_eq!(out.unique_bugs(), 1);
        assert_eq!(out.selected[0].id, 1);
    }
}
