//! Synthetic bug-archive populations with known ground truth.
//!
//! The paper's §4 funnels start from raw archives — 5220 Apache tracker
//! reports, roughly 500 GNOME reports, about 44,000 MySQL mailing-list
//! messages — and narrow them to the studied fault sets. The original
//! archives are long gone, so this module grows a synthetic population
//! around the curated corpus: every curated fault appears as a "primary"
//! report (optionally with duplicates), buried in realistic noise —
//! build/install problems, feature requests, questions, low-impact bugs,
//! and crashes reported against beta versions. Because the generator
//! remembers which report ids correspond to which curated fault, the
//! mining pipeline's precision and recall can be measured exactly — an
//! end-to-end check the paper itself could not perform on its sources.
//!
//! Noise is nearly the whole archive: at paper scale the curated
//! primaries and duplicates are at most 176 of MySQL's 44,000 rows. Every
//! noise report of one kind says the same thing up to its id and filing
//! month, so a population keeps each noise row as its id, kind and month
//! (16 bytes) and holds only the curated reports whole.
//! [`SyntheticPopulation::to_columns`] renders the noise text straight
//! into the column arena, so no row of the archive allocates.

use crate::{corpus_for, CuratedFault};
use faultstudy_core::flat::ReportColumns;
use faultstudy_core::report::{BugReport, ReportSource, Status, YearMonth};
use faultstudy_core::taxonomy::{AppKind, Severity};
use faultstudy_sim::rng::{DetRng, Xoshiro256StarStar};
use std::collections::BTreeMap;
use std::fmt::Write;

/// Symptom phrases attached to serious reports. These carry the §4 search
/// keywords ("crash", "segmentation", "race", "died") the way real
/// mailing-list posts did.
const SYMPTOM_LINES: &[&str] = &[
    "the server crashed and had to be restarted by hand",
    "it died with a segmentation fault",
    "the process died without any message in the log",
    "crash is accompanied by a core file",
    // Mentions the "race" keyword colloquially without asserting a race
    // condition, so the §4 search finds it but evidence extraction does
    // not mistake it for a named trigger.
    "could this be a race? it crashed shortly after startup",
];

/// Noise categories the §4 funnel must reject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NoiseKind {
    BuildProblem,
    InstallProblem,
    FeatureRequest,
    Question,
    DocIssue,
    LowImpactBug,
    BetaCrash,
}

/// What every noise report of one kind says. The title reads
/// `{head}{id % modulus}{tail}`, or `head` alone when `modulus` is 0, so
/// titles vary with the report id the way real ones do.
struct NoiseText {
    head: &'static str,
    modulus: u64,
    tail: &'static str,
    body: &'static str,
    severity: Severity,
    status: Status,
    version: &'static str,
    production: bool,
}

/// Capacity of each text field of the report that noise rows are rendered
/// through: wider than any noise field, so rendering never reallocates and
/// the allocations of [`SyntheticPopulation::to_columns`] do not depend on
/// which kinds of noise come first.
const NOISE_FIELD_CAPACITY: usize = 64;

impl NoiseKind {
    /// What a report of this kind says, and how it is filed.
    fn text(self) -> NoiseText {
        let (head, modulus, tail, body) = match self {
            NoiseKind::BuildProblem => (
                "build fails on platform variant ",
                17,
                "",
                "make stops with an undefined symbol during linking.",
            ),
            NoiseKind::InstallProblem => (
                "installer cannot find prefix ",
                13,
                "",
                "configure script mis-detects the system libraries.",
            ),
            NoiseKind::FeatureRequest => (
                "please add an option for behaviour ",
                23,
                "",
                "it would be convenient if the next version supported this.",
            ),
            // Questions often mention the serious keywords without being
            // study faults — the funnel must reject them on severity.
            NoiseKind::Question => (
                "question: how do I read a core file after a crash?",
                0,
                "",
                "the documentation does not say what to do when it crashed.",
            ),
            NoiseKind::DocIssue => {
                ("manual section ", 31, " has a typo", "small wording problem, nothing functional.")
            }
            NoiseKind::LowImpactBug => (
                "cosmetic glitch in output formatting ",
                11,
                "",
                "alignment is off by one column; output is still correct.",
            ),
            // A real crash, but on a beta: §4 keeps production versions only.
            NoiseKind::BetaCrash => (
                "development snapshot crashed during testing",
                0,
                "",
                "the beta died with a segmentation fault while we evaluated it.",
            ),
        };
        let (severity, status, version, production) = match self {
            NoiseKind::BuildProblem => (Severity::Major, Status::Closed, "source tree", true),
            NoiseKind::InstallProblem => (Severity::Minor, Status::Open, "source tree", true),
            NoiseKind::FeatureRequest | NoiseKind::DocIssue => {
                (Severity::Trivial, Status::Open, "", true)
            }
            NoiseKind::Question => (Severity::Minor, Status::Closed, "", true),
            NoiseKind::LowImpactBug => (Severity::Minor, Status::Fixed, "", true),
            NoiseKind::BetaCrash => (Severity::Critical, Status::Open, "2.0-beta", false),
        };
        NoiseText { head, modulus, tail, body, severity, status, version, production }
    }
}

impl NoiseText {
    /// Bytes of text the report with archive id `id` holds.
    fn len(&self, id: u64) -> usize {
        let number = match self.modulus {
            0 => 0,
            m => (id % m).checked_ilog10().map_or(1, |d| d as usize + 1),
        };
        self.head.len() + number + self.tail.len() + self.body.len() + self.version.len()
    }

    /// Overwrites `report`'s id, filing month and kind-specific fields
    /// with this kind's report `id`, reusing its strings' capacity.
    fn render(&self, id: u64, filed: YearMonth, report: &mut BugReport) {
        report.id = id;
        report.title.clear();
        report.title.push_str(self.head);
        if self.modulus > 0 {
            write!(report.title, "{}", id % self.modulus).expect("writing to a String");
        }
        report.title.push_str(self.tail);
        report.body.clear();
        report.body.push_str(self.body);
        report.version.clear();
        report.version.push_str(self.version);
        report.severity = self.severity;
        report.status = self.status;
        report.on_production_version = self.production;
        report.filed = filed;
    }
}

/// One archive row: a noise report by its parts, or a curated report by
/// its index into [`SyntheticPopulation::curated`]. 16 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Row {
    Noise { id: u64, kind: NoiseKind, filed: YearMonth },
    Curated(u32),
}

/// Configuration for one synthetic archive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PopulationSpec {
    /// Application whose curated faults are embedded.
    pub app: AppKind,
    /// Total number of reports/messages to generate (must be at least the
    /// number of curated faults for the app).
    pub archive_size: usize,
    /// Maximum duplicates generated per curated fault (actual count drawn
    /// uniformly from `0..=max`).
    pub max_duplicates_per_fault: u32,
    /// Random seed.
    pub seed: u64,
}

impl PopulationSpec {
    /// The archive sizes of §4, per application: Apache 5220 tracker
    /// reports, GNOME 500 reports, MySQL 44,000 mailing-list messages.
    pub fn paper_scale(app: AppKind, seed: u64) -> PopulationSpec {
        let archive_size = match app {
            AppKind::Apache => 5220,
            AppKind::Gnome => 500,
            AppKind::Mysql => 44_000,
        };
        PopulationSpec { app, archive_size, max_duplicates_per_fault: 3, seed }
    }
}

/// A generated archive plus its ground truth. [`Self::to_columns`] renders
/// the archive's reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SyntheticPopulation {
    app: AppKind,
    /// Every row, in randomized archive order.
    rows: Vec<Row>,
    /// The primaries and duplicates of the curated faults, in generation
    /// order.
    curated: Vec<BugReport>,
    /// Map from report id to the slug of the curated fault it describes.
    /// Primaries and duplicates both appear; noise reports do not.
    pub ground_truth: BTreeMap<u64, String>,
}

impl SyntheticPopulation {
    /// Generates the population for `spec`.
    ///
    /// # Panics
    ///
    /// Panics if `spec.archive_size` cannot hold the app's curated faults.
    pub fn generate(spec: &PopulationSpec) -> SyntheticPopulation {
        let faults = corpus_for(spec.app);
        assert!(
            spec.archive_size >= faults.len(),
            "archive_size {} cannot hold the {} curated faults",
            spec.archive_size,
            faults.len()
        );
        let mut rng = Xoshiro256StarStar::seed_from(spec.seed);
        let mut curated: Vec<BugReport> = Vec::with_capacity(faults.len());
        let mut ground_truth = BTreeMap::new();
        let mut next_id: u64 = 1;
        let take_id = |n: &mut u64| {
            let id = *n;
            *n += 1;
            id
        };

        // Primaries.
        for f in &faults {
            let id = take_id(&mut next_id);
            curated.push(decorate_primary(f, id, &mut rng));
            ground_truth.insert(id, f.slug().to_owned());
        }

        // Duplicates, budget permitting.
        if spec.max_duplicates_per_fault > 0 {
            for (i, f) in faults.iter().enumerate() {
                let primary = curated[i].id;
                let dups = rng.below(u64::from(spec.max_duplicates_per_fault) + 1) as u32;
                for _ in 0..dups {
                    if curated.len() >= spec.archive_size {
                        break;
                    }
                    let id = take_id(&mut next_id);
                    let mut dup = decorate_primary(f, id, &mut rng);
                    dup.duplicate_of = Some(primary);
                    dup.title = format!("(again) {}", f.title());
                    curated.push(dup);
                    ground_truth.insert(id, f.slug().to_owned());
                }
            }
        }

        let mut rows = Vec::with_capacity(spec.archive_size);
        rows.extend(
            (0..curated.len())
                .map(|i| Row::Curated(u32::try_from(i).expect("curated rows fit 32 bits"))),
        );

        // Noise to fill the archive. Serious-sounding noise (questions
        // about crashes, beta crashes) is rare — in the real MySQL archive
        // only "a few hundred" of 44,000 messages matched the §4 keywords.
        while rows.len() < spec.archive_size {
            let id = take_id(&mut next_id);
            let kind = match rng.below(1000) {
                0..=7 => NoiseKind::BetaCrash,
                8..=15 => NoiseKind::Question,
                _ => *rng
                    .pick(&[
                        NoiseKind::BuildProblem,
                        NoiseKind::InstallProblem,
                        NoiseKind::FeatureRequest,
                        NoiseKind::DocIssue,
                        NoiseKind::LowImpactBug,
                    ])
                    .expect("nonempty"),
            };
            let filed = YearMonth::new(1998, 1).plus_months(rng.below(22) as u32);
            rows.push(Row::Noise { id, kind, filed });
        }

        // A Fisher–Yates shuffle's draws depend only on the length, so the
        // rows take the order whole reports would take.
        rng.shuffle(&mut rows);
        SyntheticPopulation { app: spec.app, rows, curated, ground_truth }
    }

    /// Renders the archive as struct-of-arrays columns — one contiguous
    /// text arena plus `(offset, len)` spans per field — the layout the
    /// mining funnel scans. Row order is archive order. The arena is
    /// reserved once at its exact size, and every noise row is written
    /// through one reused report, so no row allocates.
    pub fn to_columns(&self) -> ReportColumns {
        let noise_bytes: usize = self
            .rows
            .iter()
            .map(|row| match *row {
                Row::Noise { id, kind, .. } => kind.text().len(id),
                Row::Curated(_) => 0,
            })
            .sum();
        let curated_bytes: usize = self.curated.iter().map(BugReport::text_len).sum();
        let mut columns =
            ReportColumns::with_capacity(self.rows.len(), noise_bytes + curated_bytes);
        let mut noise = BugReport::builder(self.app, 0).source(source_for(self.app)).build();
        for field in [&mut noise.title, &mut noise.body, &mut noise.version] {
            field.reserve(NOISE_FIELD_CAPACITY);
        }
        for row in &self.rows {
            match *row {
                Row::Noise { id, kind, filed } => {
                    kind.text().render(id, filed, &mut noise);
                    columns.push(&noise);
                }
                Row::Curated(index) => columns.push(&self.curated[index as usize]),
            }
        }
        debug_assert_eq!(columns.arena().len(), noise_bytes + curated_bytes, "arena size");
        columns
    }
}

fn source_for(app: AppKind) -> ReportSource {
    match app {
        AppKind::Apache => ReportSource::Tracker,
        AppKind::Gnome => ReportSource::Debbugs,
        AppKind::Mysql => ReportSource::MailingList,
    }
}

/// A primary report for a curated fault: the synthesized corpus report plus
/// a symptom line carrying a §4 search keyword.
fn decorate_primary(f: &CuratedFault, id: u64, rng: &mut Xoshiro256StarStar) -> BugReport {
    let mut r = f.report(id);
    let symptom = *rng.pick(SYMPTOM_LINES).expect("nonempty");
    r.body = format!("{} {symptom}.", r.body);
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn spec(app: AppKind, size: usize) -> PopulationSpec {
        PopulationSpec { app, archive_size: size, max_duplicates_per_fault: 2, seed: 42 }
    }

    fn reports(p: &SyntheticPopulation) -> Vec<BugReport> {
        p.to_columns().iter().map(|row| row.materialize()).collect()
    }

    /// The reference generator: one owned `BugReport` per row, noise
    /// built through the report builder, then the whole vector shuffled.
    /// It keeps its own copy of every draw; the compact rows must render
    /// exactly its reports.
    fn reference(spec: &PopulationSpec) -> (Vec<BugReport>, BTreeMap<u64, String>) {
        let faults = corpus_for(spec.app);
        let mut rng = Xoshiro256StarStar::seed_from(spec.seed);
        let mut reports: Vec<BugReport> = Vec::with_capacity(spec.archive_size);
        let mut ground_truth = BTreeMap::new();
        let mut next_id: u64 = 1;
        let take_id = |n: &mut u64| {
            let id = *n;
            *n += 1;
            id
        };

        let mut primary_ids = Vec::with_capacity(faults.len());
        for f in &faults {
            let id = take_id(&mut next_id);
            reports.push(decorate_primary(f, id, &mut rng));
            ground_truth.insert(id, f.slug().to_owned());
            primary_ids.push(id);
        }

        if spec.max_duplicates_per_fault > 0 {
            for (f, &primary) in faults.iter().zip(&primary_ids) {
                let dups = rng.below(u64::from(spec.max_duplicates_per_fault) + 1) as u32;
                for _ in 0..dups {
                    if reports.len() >= spec.archive_size {
                        break;
                    }
                    let id = take_id(&mut next_id);
                    let mut dup = decorate_primary(f, id, &mut rng);
                    dup.duplicate_of = Some(primary);
                    dup.title = format!("(again) {}", f.title());
                    reports.push(dup);
                    ground_truth.insert(id, f.slug().to_owned());
                }
            }
        }

        while reports.len() < spec.archive_size {
            let id = take_id(&mut next_id);
            let kind = match rng.below(1000) {
                0..=7 => NoiseKind::BetaCrash,
                8..=15 => NoiseKind::Question,
                _ => *rng
                    .pick(&[
                        NoiseKind::BuildProblem,
                        NoiseKind::InstallProblem,
                        NoiseKind::FeatureRequest,
                        NoiseKind::DocIssue,
                        NoiseKind::LowImpactBug,
                    ])
                    .expect("nonempty"),
            };
            reports.push(reference_noise(spec.app, id, kind, &mut rng));
        }

        rng.shuffle(&mut reports);
        (reports, ground_truth)
    }

    fn reference_noise(
        app: AppKind,
        id: u64,
        kind: NoiseKind,
        rng: &mut Xoshiro256StarStar,
    ) -> BugReport {
        let filed = YearMonth::new(1998, 1).plus_months(rng.below(22) as u32);
        let b = BugReport::builder(app, id).filed(filed).source(source_for(app));
        match kind {
            NoiseKind::BuildProblem => b
                .title(format!("build fails on platform variant {}", id % 17))
                .body("make stops with an undefined symbol during linking.")
                .severity(Severity::Major)
                .status(Status::Closed)
                .version("source tree", true)
                .build(),
            NoiseKind::InstallProblem => b
                .title(format!("installer cannot find prefix {}", id % 13))
                .body("configure script mis-detects the system libraries.")
                .severity(Severity::Minor)
                .version("source tree", true)
                .build(),
            NoiseKind::FeatureRequest => b
                .title(format!("please add an option for behaviour {}", id % 23))
                .body("it would be convenient if the next version supported this.")
                .severity(Severity::Trivial)
                .build(),
            NoiseKind::Question => b
                .title("question: how do I read a core file after a crash?")
                .body("the documentation does not say what to do when it crashed.")
                .severity(Severity::Minor)
                .status(Status::Closed)
                .build(),
            NoiseKind::DocIssue => b
                .title(format!("manual section {} has a typo", id % 31))
                .body("small wording problem, nothing functional.")
                .severity(Severity::Trivial)
                .build(),
            NoiseKind::LowImpactBug => b
                .title(format!("cosmetic glitch in output formatting {}", id % 11))
                .body("alignment is off by one column; output is still correct.")
                .severity(Severity::Minor)
                .status(Status::Fixed)
                .build(),
            NoiseKind::BetaCrash => b
                .title("development snapshot crashed during testing")
                .body("the beta died with a segmentation fault while we evaluated it.")
                .severity(Severity::Critical)
                .version("2.0-beta", false)
                .build(),
        }
    }

    fn assert_matches_reference(spec: &PopulationSpec) {
        let population = SyntheticPopulation::generate(spec);
        let (reports, ground_truth) = reference(spec);
        assert_eq!(population.to_columns(), ReportColumns::from_reports(&reports), "{spec:?}");
        assert_eq!(population.ground_truth, ground_truth, "{spec:?}");
    }

    proptest! {
        /// The compact rows render, row for row, the archive the
        /// reference generator builds, with the same ground truth.
        #[test]
        fn columns_equal_the_reference_generators_reports(
            app in prop::sample::select(AppKind::ALL.to_vec()),
            seed in any::<u64>(),
            // A quarter of the cases hold exactly the curated faults.
            extra in (0u32..4, 0usize..3_000).prop_map(|(q, n)| if q == 0 { 0 } else { n }),
            max_duplicates_per_fault in 0u32..5,
        ) {
            let archive_size = corpus_for(app).len() + extra;
            assert_matches_reference(&PopulationSpec {
                app,
                archive_size,
                max_duplicates_per_fault,
                seed,
            });
        }
    }

    #[test]
    fn edge_and_paper_scale_specs_equal_the_reference() {
        for app in AppKind::ALL {
            for seed in [7, 2000] {
                assert_matches_reference(&PopulationSpec::paper_scale(app, seed));
            }
            let faults = corpus_for(app).len();
            for (archive_size, max_duplicates_per_fault) in [
                // Room for the primaries only: every duplicate is cut.
                (faults, 3),
                (faults, 0),
                (faults + 500, 0),
                // The first faults' duplicates fill the archive.
                (faults + 100, u32::MAX),
            ] {
                for seed in [1, 7, 99, 2000] {
                    assert_matches_reference(&PopulationSpec {
                        app,
                        archive_size,
                        max_duplicates_per_fault,
                        seed,
                    });
                }
            }
        }
    }

    #[test]
    fn rows_are_16_bytes_and_noise_fits_the_render_report() {
        assert_eq!(std::mem::size_of::<Row>(), 16);
        for kind in [
            NoiseKind::BuildProblem,
            NoiseKind::InstallProblem,
            NoiseKind::FeatureRequest,
            NoiseKind::Question,
            NoiseKind::DocIssue,
            NoiseKind::LowImpactBug,
            NoiseKind::BetaCrash,
        ] {
            let t = kind.text();
            // The widest title carries a two-digit number.
            let title = t.head.len() + 2 + t.tail.len();
            for width in [title, t.body.len(), t.version.len()] {
                assert!(width <= NOISE_FIELD_CAPACITY, "{kind:?}: a {width}-byte field");
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = SyntheticPopulation::generate(&spec(AppKind::Gnome, 300));
        let b = SyntheticPopulation::generate(&spec(AppKind::Gnome, 300));
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = SyntheticPopulation::generate(&spec(AppKind::Gnome, 300));
        let mut s = spec(AppKind::Gnome, 300);
        s.seed = 43;
        let b = SyntheticPopulation::generate(&s);
        assert_ne!(a, b);
    }

    #[test]
    fn archive_size_and_ground_truth_counts() {
        let p = SyntheticPopulation::generate(&spec(AppKind::Apache, 600));
        assert_eq!(p.to_columns().len(), 600);
        // 50 primaries plus up to 2 duplicates each.
        assert!(p.ground_truth.len() >= 50);
        assert!(p.ground_truth.len() <= 150);
        // Every curated fault has at least its primary.
        let slugs: std::collections::BTreeSet<&str> =
            p.ground_truth.values().map(String::as_str).collect();
        assert_eq!(slugs.len(), 50);
    }

    #[test]
    fn ids_are_unique() {
        let p = SyntheticPopulation::generate(&spec(AppKind::Mysql, 500));
        let columns = p.to_columns();
        let mut ids: Vec<u64> = columns.iter().map(|r| r.id()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 500);
    }

    #[test]
    fn primaries_pass_selection_and_carry_keywords() {
        let p = SyntheticPopulation::generate(&spec(AppKind::Mysql, 200));
        let keywords = ["crash", "segmentation", "race", "died"];
        for r in &reports(&p) {
            if p.ground_truth.contains_key(&r.id) && r.duplicate_of.is_none() {
                assert!(r.passes_selection(), "primary {} must survive the funnel", r.id);
                let text = r.full_text().to_lowercase();
                assert!(
                    keywords.iter().any(|k| text.contains(k)),
                    "primary {} lacks a search keyword: {text}",
                    r.id
                );
            }
        }
    }

    #[test]
    fn duplicates_link_to_their_primary() {
        let p = SyntheticPopulation::generate(&spec(AppKind::Apache, 700));
        let mut dup_count = 0;
        for r in &reports(&p) {
            if let Some(primary) = r.duplicate_of {
                dup_count += 1;
                let primary_slug = p.ground_truth.get(&primary).expect("primary tracked");
                assert_eq!(p.ground_truth.get(&r.id), Some(primary_slug));
            }
        }
        assert!(dup_count > 0, "seed 42 should produce some duplicates");
    }

    #[test]
    fn noise_reports_fail_selection_or_lack_keywords() {
        // The funnel's correctness on noise: every noise report is either
        // rejected by selection or never matches the keyword search.
        let p = SyntheticPopulation::generate(&spec(AppKind::Mysql, 400));
        let keywords = ["crash", "segmentation", "race", "died"];
        for r in &reports(&p) {
            if !p.ground_truth.contains_key(&r.id) {
                let text = r.full_text().to_lowercase();
                let keyword_hit = keywords.iter().any(|k| text.contains(k));
                assert!(
                    !r.passes_selection() || !keyword_hit,
                    "noise report {} would sneak through: {}",
                    r.id,
                    r.title
                );
            }
        }
    }

    #[test]
    fn paper_scale_sizes() {
        assert_eq!(PopulationSpec::paper_scale(AppKind::Apache, 1).archive_size, 5220);
        assert_eq!(PopulationSpec::paper_scale(AppKind::Gnome, 1).archive_size, 500);
        assert_eq!(PopulationSpec::paper_scale(AppKind::Mysql, 1).archive_size, 44_000);
    }

    #[test]
    #[should_panic(expected = "cannot hold")]
    fn too_small_archive_rejected() {
        SyntheticPopulation::generate(&spec(AppKind::Apache, 10));
    }
}
