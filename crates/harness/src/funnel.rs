//! The §4 selection funnels at paper scale.

use faultstudy_core::taxonomy::AppKind;
use faultstudy_corpus::{PopulationSpec, SyntheticPopulation};
use faultstudy_exec::ParallelSpec;
use faultstudy_mining::{Archive, PipelineOutcome, PrecisionRecall, SelectionPipeline};
use faultstudy_obs::MetricsRegistry;
use serde::Serialize;

/// A funnel run plus its quality against the generator's ground truth.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FunnelRun {
    /// The pipeline outcome with per-stage counts.
    pub outcome: PipelineOutcome,
    /// Selection quality against the embedded ground truth.
    pub quality: PrecisionRecall,
}

/// Runs the three §4 funnels at the paper's archive scales (5220 Apache
/// reports, 500 GNOME reports, 44,000 MySQL messages) on `parallel`
/// workers. An instrumented run returns the per-stage mining metrics —
/// `mining.stage.*` timings and throughput for every `{app}/{stage}`, the
/// per-app registries merged in app order — and a plain run returns the
/// registry empty. The runs are the same either way, and at every thread
/// count.
///
/// # Example
///
/// ```
/// use faultstudy_harness::{paper_scale_funnels, ParallelSpec};
///
/// let (runs, _) = paper_scale_funnels(7, ParallelSpec::AUTO, false);
/// assert_eq!(runs[0].outcome.unique_bugs(), 50); // Apache
/// assert_eq!(runs[1].outcome.unique_bugs(), 45); // GNOME
/// assert_eq!(runs[2].outcome.unique_bugs(), 44); // MySQL
/// ```
pub fn paper_scale_funnels(
    seed: u64,
    parallel: ParallelSpec,
    instrumented: bool,
) -> (Vec<FunnelRun>, MetricsRegistry) {
    let mut registry = MetricsRegistry::new();
    let runs = AppKind::ALL
        .iter()
        .map(|&app| {
            let spec = PopulationSpec::paper_scale(app, seed);
            let population = SyntheticPopulation::generate(&spec);
            let archive = Archive::from_columns(app, population.to_columns());
            let pipeline = SelectionPipeline::for_app(app);
            let outcome = if instrumented {
                let (outcome, stages) = pipeline.run_instrumented(&archive, parallel);
                registry.merge_from(&stages);
                outcome
            } else {
                pipeline.run_with(&archive, parallel)
            };
            let quality = PrecisionRecall::measure(&outcome.selected, &population.ground_truth);
            FunnelRun { outcome, quality }
        })
        .collect();
    (runs, registry)
}

/// The §4 contract of paper-scale funnel runs: each selects the paper's
/// unique-bug count (50 Apache, 45 GNOME, 44 MySQL) at precision and
/// recall 1 against the generator's ground truth. Returns one line per
/// broken term, empty when every run keeps the contract.
pub fn funnel_violations(runs: &[FunnelRun]) -> Vec<String> {
    let mut violations = Vec::new();
    for run in runs {
        let app = run.outcome.app;
        let expected = match app {
            AppKind::Apache => 50,
            AppKind::Gnome => 45,
            AppKind::Mysql => 44,
        };
        if run.outcome.unique_bugs() != expected {
            violations.push(format!(
                "{app} funnel selected {} unique bugs, expected {expected}",
                run.outcome.unique_bugs()
            ));
        }
        for (measure, value) in
            [("precision", run.quality.precision()), ("recall", run.quality.recall())]
        {
            if value < 1.0 {
                violations.push(format!("{app} funnel {measure} {value:.3}, expected 1"));
            }
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use faultstudy_core::report::BugReport;

    fn funnels(seed: u64) -> Vec<FunnelRun> {
        paper_scale_funnels(seed, ParallelSpec::AUTO, false).0
    }

    #[test]
    fn paper_scale_funnels_reproduce_section_4() {
        let runs = funnels(99);
        let expected =
            [(AppKind::Apache, 5220, 50), (AppKind::Gnome, 500, 45), (AppKind::Mysql, 44_000, 44)];
        for (run, (app, raw, unique)) in runs.iter().zip(expected) {
            assert_eq!(run.outcome.app, app);
            assert_eq!(run.outcome.raw_size(), raw);
            assert_eq!(run.outcome.unique_bugs(), unique, "{app}");
            assert_eq!(run.quality.precision(), 1.0, "{app}");
            assert_eq!(run.quality.recall(), 1.0, "{app}");
        }
    }

    /// A run of `unique` selected reports with `quality`.
    fn hand_built(app: AppKind, unique: u64, quality: PrecisionRecall) -> FunnelRun {
        let selected = (0..unique).map(|id| BugReport::builder(app, id).build()).collect();
        FunnelRun { outcome: PipelineOutcome { app, funnel: Vec::new(), selected }, quality }
    }

    fn perfect(faults: usize) -> PrecisionRecall {
        PrecisionRecall {
            true_positives: faults,
            false_positives: 0,
            faults_recalled: faults,
            faults_total: faults,
        }
    }

    #[test]
    fn funnel_violations_name_each_broken_term() {
        let kept = hand_built(AppKind::Gnome, 45, perfect(45));
        assert!(funnel_violations(&[kept]).is_empty());

        let short = hand_built(AppKind::Apache, 49, perfect(49));
        assert_eq!(
            funnel_violations(&[short]),
            ["Apache funnel selected 49 unique bugs, expected 50"]
        );

        let imprecise =
            hand_built(AppKind::Mysql, 44, PrecisionRecall { false_positives: 4, ..perfect(40) });
        assert_eq!(funnel_violations(&[imprecise]), ["MySQL funnel precision 0.909, expected 1"]);

        assert!(funnel_violations(&funnels(2000)).is_empty());
    }

    #[test]
    fn instrumented_funnels_match_plain_runs() {
        let (runs, registry) = paper_scale_funnels(99, ParallelSpec::AUTO, true);
        assert_eq!(runs, funnels(99), "metrics must not perturb the funnels");
        assert_eq!(registry.counter("mining.stage.reports", "MySQL/keyword match"), 44_000);
        assert_eq!(registry.counter("mining.stage.reports", "Apache/high impact"), 5_220);
        assert!(registry.gauge("mining.stage.rps", "GNOME/unique bugs").is_some());
    }

    #[test]
    fn mysql_keyword_stage_does_the_heavy_lifting() {
        let run = &funnels(5)[2];
        assert_eq!(run.outcome.app, AppKind::Mysql);
        // 44,000 messages reduce by orders of magnitude at the keyword
        // stage ("we looked at a few hundred messages", §4).
        let keyword_survivors = run.outcome.funnel[1].survivors;
        assert!(keyword_survivors < 2000, "keyword stage kept {keyword_survivors}");
        assert!(keyword_survivors >= 44);
    }
}
