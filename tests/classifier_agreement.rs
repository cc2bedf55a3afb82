//! Integration: the evidence extractor + classifier reproduce the curated
//! classification from the synthesized bug-report *text* alone, for all
//! 139 faults — the link between the paper's raw material (reports) and
//! its results (tables).

use faultstudy::core::classify::{Classifier, Confidence};
use faultstudy::core::evidence::Evidence;
use faultstudy::core::report::BugReport;
use faultstudy::core::taxonomy::{AppKind, FaultClass};
use faultstudy::corpus::{full_corpus, PopulationSpec, SyntheticPopulation};
use std::fmt::Write;

/// FNV-1a-64 of the `Debug` text of the evidence and the verdict of every
/// report `classifier_keeps_its_bytes` reads.
const CLASSIFIER_DIGEST: u64 = 0x1c53_95d8_99dc_de35;

/// The classifier's output pinned across commits: the evidence and the
/// verdict for each curated fault's report at two ids and for every row
/// of the three paper-scale archives at seed 2000 (49,720 reports),
/// hashed as the campaign contract hashes a report (FNV-1a-64, each text
/// preceded by its length as eight little-endian bytes). A change that
/// alters a verdict on purpose updates the digest and says why.
#[test]
fn classifier_keeps_its_bytes() {
    let classifier = Classifier::default();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut text = String::new();
    let mut eat = |report: &BugReport| {
        let evidence = Evidence::extract(report);
        let verdict = classifier.classify_report(report);
        for part in [format_args!("{evidence:?}"), format_args!("{verdict:?}")] {
            text.clear();
            text.write_fmt(part).expect("writing to a String succeeds");
            for &b in (text.len() as u64).to_le_bytes().iter().chain(text.as_bytes()) {
                hash ^= u64::from(b);
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    };
    let mut reports = 0;
    for (i, fault) in full_corpus().iter().enumerate() {
        for id in [i as u64 + 1, 99_999] {
            eat(&fault.report(id));
            reports += 1;
        }
    }
    for app in [AppKind::Apache, AppKind::Gnome, AppKind::Mysql] {
        let population = SyntheticPopulation::generate(&PopulationSpec::paper_scale(app, 2000));
        for row in population.to_columns().iter() {
            eat(&row.materialize());
            reports += 1;
        }
    }
    assert_eq!(reports, 2 * 139 + 49_720);
    assert_eq!(hash, CLASSIFIER_DIGEST, "the classifier's output changed: {hash:#018x}");
}

#[test]
fn classifier_agrees_with_the_corpus_on_every_fault() {
    let classifier = Classifier::default();
    let mut disagreements = Vec::new();
    for (i, fault) in full_corpus().iter().enumerate() {
        let report = fault.report(i as u64 + 1);
        let verdict = classifier.classify_report(&report);
        if verdict.class != fault.class() {
            disagreements.push(format!(
                "{}: corpus={} classifier={} ({})",
                fault.slug(),
                fault.class(),
                verdict.class,
                verdict.rationale
            ));
        }
    }
    assert!(
        disagreements.is_empty(),
        "classifier disagreed on {} of 139:\n{}",
        disagreements.len(),
        disagreements.join("\n")
    );
}

#[test]
fn environment_dependent_verdicts_name_the_corpus_trigger() {
    let classifier = Classifier::default();
    for (i, fault) in full_corpus().iter().enumerate() {
        let Some(trigger) = fault.trigger() else { continue };
        let verdict = classifier.classify_report(&fault.report(i as u64 + 1));
        assert!(
            verdict.conditions.contains(&trigger),
            "{}: verdict conditions {:?} miss corpus trigger {trigger}",
            fault.slug(),
            verdict.conditions
        );
    }
}

#[test]
fn environment_dependent_verdicts_are_high_confidence() {
    let classifier = Classifier::default();
    for (i, fault) in full_corpus().iter().enumerate() {
        if fault.class() == FaultClass::EnvironmentIndependent {
            continue;
        }
        let verdict = classifier.classify_report(&fault.report(i as u64 + 1));
        assert_eq!(
            verdict.confidence,
            Confidence::High,
            "{}: trigger text should give high confidence",
            fault.slug()
        );
    }
}

#[test]
fn environment_independent_reports_carry_no_conditions() {
    for (i, fault) in full_corpus().iter().enumerate() {
        if fault.class() != FaultClass::EnvironmentIndependent {
            continue;
        }
        let evidence = Evidence::extract(&fault.report(i as u64 + 1));
        assert!(
            evidence.conditions.is_empty(),
            "{}: EI report text matched lexicon conditions {:?}",
            fault.slug(),
            evidence.conditions
        );
        assert_eq!(
            evidence.deterministic_repro,
            Some(true),
            "{}: EI report should read as deterministically reproducible",
            fault.slug()
        );
    }
}

#[test]
fn classification_is_stable_under_report_id_and_repeat_field_noise() {
    // The verdict depends on the text, not on archive metadata.
    let classifier = Classifier::default();
    for fault in full_corpus().iter().take(20) {
        let a = classifier.classify_report(&fault.report(1));
        let b = classifier.classify_report(&fault.report(99_999));
        assert_eq!(a.class, b.class, "{}", fault.slug());
    }
}
