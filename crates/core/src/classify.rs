//! The rule-based fault classifier.
//!
//! Given [`Evidence`], the classifier applies the paper's §3 decision
//! procedure:
//!
//! 1. If the evidence names environmental conditions, the fault is
//!    environment-dependent. It is *nontransient* if **any** named
//!    condition persists across generic recovery — a retry that still meets
//!    one unrepaired trigger still fails — and *transient* otherwise.
//! 2. If no condition is named but the operation succeeded on a plain
//!    retry, the fault is transient with an unknown trigger (the GNOME
//!    "works on a retry" report, §5.2).
//! 3. If no condition is named and reproduction is reported flaky, the
//!    fault is *suspected* transient at low confidence.
//! 4. Otherwise the fault is environment-independent: given the workload it
//!    always occurs.
//!
//! The paper acknowledges the transient/nontransient split "is subjective
//! and depends upon the recovery system in place" (§5.4); the
//! [`Classifier`]'s [`RecoveryAssumptions`] make that dependence explicit
//! and testable.

use crate::evidence::Evidence;
use crate::report::BugReport;
use crate::taxonomy::FaultClass;
use faultstudy_env::condition::{ConditionKind, Persistence};
use std::fmt;

/// How sure the classifier is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Confidence {
    /// Inferred only from reproduction flakiness.
    Low,
    /// Inferred from absence of evidence (default environment-independent).
    Medium,
    /// Backed by named conditions or explicit determinism cues.
    High,
}

impl fmt::Display for Confidence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Confidence::Low => "low",
            Confidence::Medium => "medium",
            Confidence::High => "high",
        };
        f.write_str(s)
    }
}

/// The recovery-system assumptions under which persistence is judged.
///
/// §3's example: a full disk is nontransient *today*, but "some systems may
/// provide a way to automatically increase the disk capacity", which would
/// re-classify it as transient. Flipping these switches reproduces that
/// re-classification, and the ablation benchmark sweeps them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryAssumptions {
    /// The system auto-grows storage, so full-disk/full-cache/file-size
    /// conditions clear on retry.
    pub storage_auto_grows: bool,
    /// The system garbage-collects leaked descriptors and similar
    /// resources (§6.2's proposal), so exhaustion conditions clear.
    pub resources_garbage_collected: bool,
}

impl RecoveryAssumptions {
    /// The persistence of `cond` under these assumptions.
    pub(crate) fn persistence_of(&self, cond: ConditionKind) -> Persistence {
        let base = cond.persistence();
        match cond {
            ConditionKind::FileSystemFull
            | ConditionKind::DiskCacheFull
            | ConditionKind::MaxFileSize
                if self.storage_auto_grows =>
            {
                Persistence::ClearedByRecovery
            }
            ConditionKind::FdExhaustion | ConditionKind::ResourceLeak
                if self.resources_garbage_collected =>
            {
                Persistence::ClearedByRecovery
            }
            _ => base,
        }
    }
}

/// The classifier's verdict on one fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Classification {
    /// The assigned class.
    pub class: FaultClass,
    /// The conditions the verdict is based on (empty for
    /// environment-independent faults).
    pub conditions: Vec<ConditionKind>,
    /// Human-readable reasoning.
    pub rationale: String,
    /// How sure the classifier is.
    pub confidence: Confidence,
}

/// The rule-based classifier of §3.
///
/// # Example
///
/// ```
/// use faultstudy_core::classify::Classifier;
/// use faultstudy_core::evidence::Evidence;
/// use faultstudy_core::taxonomy::FaultClass;
/// use faultstudy_env::condition::ConditionKind;
///
/// let classifier = Classifier::default();
/// let verdict = classifier
///     .classify_evidence(&Evidence::of_conditions([ConditionKind::FileSystemFull]));
/// assert_eq!(verdict.class, FaultClass::EnvDependentNonTransient);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Classifier {
    assumptions: RecoveryAssumptions,
}

impl Classifier {
    /// A classifier judging persistence under the given assumptions.
    pub fn with_assumptions(assumptions: RecoveryAssumptions) -> Self {
        Classifier { assumptions }
    }

    /// Extracts evidence from `report` and classifies it.
    pub fn classify_report(&self, report: &BugReport) -> Classification {
        self.classify_evidence(&Evidence::extract(report))
    }

    /// Classifies structured evidence.
    pub fn classify_evidence(&self, evidence: &Evidence) -> Classification {
        if evidence.names_conditions() {
            let persisting: Vec<ConditionKind> = evidence
                .conditions
                .iter()
                .copied()
                .filter(|c| self.assumptions.persistence_of(*c) == Persistence::Persists)
                .collect();
            if persisting.is_empty() {
                Classification {
                    class: FaultClass::EnvDependentTransient,
                    conditions: evidence.conditions.clone(),
                    rationale: format!(
                        "triggering condition(s) {} clear or change during recovery",
                        slugs(&evidence.conditions)
                    ),
                    confidence: Confidence::High,
                }
            } else {
                Classification {
                    class: FaultClass::EnvDependentNonTransient,
                    conditions: evidence.conditions.clone(),
                    rationale: format!("condition(s) {} persist on retry", slugs(&persisting)),
                    confidence: Confidence::High,
                }
            }
        } else if evidence.retry_succeeded {
            Classification {
                class: FaultClass::EnvDependentTransient,
                conditions: vec![ConditionKind::UnknownTransient],
                rationale: "operation succeeded on plain retry; trigger unknown".to_owned(),
                confidence: Confidence::High,
            }
        } else if evidence.deterministic_repro == Some(false) {
            Classification {
                class: FaultClass::EnvDependentTransient,
                conditions: vec![ConditionKind::UnknownTransient],
                rationale: "reproduction reported flaky; suspected unnamed environmental trigger"
                    .to_owned(),
                confidence: Confidence::Low,
            }
        } else {
            let confidence = if evidence.deterministic_repro == Some(true) {
                Confidence::High
            } else {
                Confidence::Medium
            };
            Classification {
                class: FaultClass::EnvironmentIndependent,
                conditions: Vec::new(),
                rationale: "no environmental dependence evident; fault follows the workload"
                    .to_owned(),
                confidence,
            }
        }
    }
}

fn slugs(conds: &[ConditionKind]) -> String {
    conds.iter().map(|c| c.slug()).collect::<Vec<_>>().join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::BugReport;
    use crate::taxonomy::AppKind;

    fn c() -> Classifier {
        Classifier::default()
    }

    #[test]
    fn no_evidence_is_environment_independent_medium() {
        let v = c().classify_evidence(&Evidence::default());
        assert_eq!(v.class, FaultClass::EnvironmentIndependent);
        assert_eq!(v.confidence, Confidence::Medium);
        assert!(v.conditions.is_empty());
    }

    #[test]
    fn deterministic_cue_raises_confidence() {
        let ev = Evidence { deterministic_repro: Some(true), ..Evidence::default() };
        let v = c().classify_evidence(&ev);
        assert_eq!(v.class, FaultClass::EnvironmentIndependent);
        assert_eq!(v.confidence, Confidence::High);
    }

    #[test]
    fn persisting_condition_yields_nontransient() {
        let v = c().classify_evidence(&Evidence::of_conditions([ConditionKind::FdExhaustion]));
        assert_eq!(v.class, FaultClass::EnvDependentNonTransient);
        assert_eq!(v.confidence, Confidence::High);
        assert!(v.rationale.contains("fd-exhaustion"));
    }

    #[test]
    fn transient_condition_yields_transient() {
        for cond in [
            ConditionKind::RaceCondition,
            ConditionKind::ProcessTableFull,
            ConditionKind::DnsSlow,
            ConditionKind::EntropyExhausted,
        ] {
            let v = c().classify_evidence(&Evidence::of_conditions([cond]));
            assert_eq!(v.class, FaultClass::EnvDependentTransient, "{cond}");
        }
    }

    #[test]
    fn any_persisting_condition_dominates_mixed_evidence() {
        let v = c().classify_evidence(&Evidence::of_conditions([
            ConditionKind::RaceCondition,
            ConditionKind::FileSystemFull,
        ]));
        assert_eq!(v.class, FaultClass::EnvDependentNonTransient);
        assert!(v.rationale.contains("filesystem-full"));
        assert!(!v.rationale.contains("race-condition"), "{}", v.rationale);
    }

    #[test]
    fn retry_success_without_condition_is_transient() {
        let ev = Evidence { retry_succeeded: true, ..Evidence::default() };
        let v = c().classify_evidence(&ev);
        assert_eq!(v.class, FaultClass::EnvDependentTransient);
        assert_eq!(v.conditions, vec![ConditionKind::UnknownTransient]);
        assert_eq!(v.confidence, Confidence::High);
    }

    #[test]
    fn flaky_repro_is_suspected_transient_low_confidence() {
        let ev = Evidence { deterministic_repro: Some(false), ..Evidence::default() };
        let v = c().classify_evidence(&ev);
        assert_eq!(v.class, FaultClass::EnvDependentTransient);
        assert_eq!(v.confidence, Confidence::Low);
    }

    #[test]
    fn end_to_end_from_report_text() {
        let report = BugReport::builder(AppKind::Apache, 9)
            .title("apache freezes")
            .how_to_repeat("shared memory segment keeps growing; memory leak in the application")
            .build();
        let v = c().classify_report(&report);
        assert_eq!(v.class, FaultClass::EnvDependentNonTransient);
        assert_eq!(v.conditions, vec![ConditionKind::ResourceLeak]);
    }

    #[test]
    fn assumptions_reclassify_disk_full_as_transient() {
        // §3's thought experiment: auto-growing storage turns full-disk
        // faults transient.
        let optimistic = Classifier::with_assumptions(RecoveryAssumptions {
            storage_auto_grows: true,
            resources_garbage_collected: false,
        });
        let ev = Evidence::of_conditions([ConditionKind::FileSystemFull]);
        assert_eq!(optimistic.classify_evidence(&ev).class, FaultClass::EnvDependentTransient);
        assert_eq!(c().classify_evidence(&ev).class, FaultClass::EnvDependentNonTransient);
    }

    #[test]
    fn assumptions_reclassify_fd_exhaustion_under_gc() {
        let gc = Classifier::with_assumptions(RecoveryAssumptions {
            storage_auto_grows: false,
            resources_garbage_collected: true,
        });
        let ev = Evidence::of_conditions([ConditionKind::FdExhaustion]);
        assert_eq!(gc.classify_evidence(&ev).class, FaultClass::EnvDependentTransient);
        // But hardware removal still persists even under generous assumptions.
        let hw = Evidence::of_conditions([ConditionKind::HardwareRemoved]);
        assert_eq!(gc.classify_evidence(&hw).class, FaultClass::EnvDependentNonTransient);
    }

    #[test]
    fn classification_is_consistent_with_taxonomy_for_single_conditions() {
        // For every single-condition evidence, the classifier agrees with
        // FaultClass::from_condition under default assumptions.
        for cond in ConditionKind::ALL {
            let v = c().classify_evidence(&Evidence::of_conditions([cond]));
            assert_eq!(v.class, FaultClass::from_condition(Some(cond)), "{cond}");
        }
    }
}
