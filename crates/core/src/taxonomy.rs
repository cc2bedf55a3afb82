//! The fault taxonomy of §3 and the applications of §4.

use faultstudy_env::condition::{ConditionKind, Persistence};
use serde::Serialize;
use std::fmt;

/// The paper's three-way classification of software faults by their
/// dependence on the operating environment (§3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub enum FaultClass {
    /// Occurs independent of the operating environment: given a specific
    /// workload, the fault always occurs. Completely deterministic
    /// (a Bohrbug); application-generic recovery never survives it.
    EnvironmentIndependent,
    /// Depends on an environmental condition that is unlikely to change
    /// enough during retry (full disk, exhausted descriptors, missing
    /// hardware).
    EnvDependentNonTransient,
    /// Depends on an environmental condition likely to differ on retry
    /// (thread interleavings, slow DNS) — a Heisenbug; the class generic
    /// recovery can survive.
    EnvDependentTransient,
}

impl FaultClass {
    /// All classes, in table order.
    pub const ALL: [FaultClass; 3] = [
        FaultClass::EnvironmentIndependent,
        FaultClass::EnvDependentNonTransient,
        FaultClass::EnvDependentTransient,
    ];

    /// Derives the class from the triggering condition, `None` meaning the
    /// fault does not depend on the environment at all.
    ///
    /// This single function is the normative link between the environment
    /// model and the taxonomy: the classifier, the corpus, and the
    /// simulated applications all obtain classes through it.
    ///
    /// # Example
    ///
    /// ```
    /// use faultstudy_core::taxonomy::FaultClass;
    /// use faultstudy_env::condition::ConditionKind;
    ///
    /// assert_eq!(FaultClass::from_condition(None), FaultClass::EnvironmentIndependent);
    /// assert_eq!(
    ///     FaultClass::from_condition(Some(ConditionKind::RaceCondition)),
    ///     FaultClass::EnvDependentTransient,
    /// );
    /// ```
    pub fn from_condition(condition: Option<ConditionKind>) -> FaultClass {
        match condition {
            None => FaultClass::EnvironmentIndependent,
            Some(c) => match c.persistence() {
                Persistence::Persists => FaultClass::EnvDependentNonTransient,
                Persistence::ClearedByRecovery | Persistence::ChangesNaturally => {
                    FaultClass::EnvDependentTransient
                }
            },
        }
    }

    /// Whether a purely application-generic recovery is expected to survive
    /// a fault of this class (the paper's hypothesis test: only transient
    /// faults qualify).
    pub fn generic_recovery_expected(self) -> bool {
        self == FaultClass::EnvDependentTransient
    }

    /// The label used in the paper's tables.
    pub fn label(self) -> &'static str {
        match self {
            FaultClass::EnvironmentIndependent => "environment-independent",
            FaultClass::EnvDependentNonTransient => "environment-dependent-nontransient",
            FaultClass::EnvDependentTransient => "environment-dependent-transient",
        }
    }

    /// Compact label for column headers and metric keys.
    pub fn short(self) -> &'static str {
        match self {
            FaultClass::EnvironmentIndependent => "env-indep",
            FaultClass::EnvDependentNonTransient => "nontransient",
            FaultClass::EnvDependentTransient => "transient",
        }
    }
}

impl fmt::Display for FaultClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The three applications the study examines (§4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub enum AppKind {
    /// The Apache HTTP server.
    Apache,
    /// The GNOME desktop environment (core libraries plus panel, gnome-pim,
    /// gnumeric, and gmc).
    Gnome,
    /// The MySQL database server.
    Mysql,
}

impl AppKind {
    /// All applications, in the paper's presentation order.
    pub const ALL: [AppKind; 3] = [AppKind::Apache, AppKind::Gnome, AppKind::Mysql];

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            AppKind::Apache => "Apache",
            AppKind::Gnome => "GNOME",
            AppKind::Mysql => "MySQL",
        }
    }

    /// Which table of the paper reports this application's classification.
    pub fn table_number(self) -> u8 {
        match self {
            AppKind::Apache => 1,
            AppKind::Gnome => 2,
            AppKind::Mysql => 3,
        }
    }

    /// Which figure of the paper reports this application's distribution.
    pub fn figure_number(self) -> u8 {
        match self {
            AppKind::Apache => 1,
            AppKind::Gnome => 2,
            AppKind::Mysql => 3,
        }
    }
}

impl fmt::Display for AppKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Impact of a reported fault. The study keeps only high-impact reports —
/// those that "crash, return an error condition, cause security problems,
/// or stop responding" (§4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub enum Severity {
    /// Cosmetic or documentation issues.
    Trivial,
    /// Wrong but tolerable behaviour.
    Minor,
    /// Serious misbehaviour short of an outage.
    Major,
    /// Crash or hang: the paper's "severe" category.
    Severe,
    /// Data loss, security, or unconditional crash: "critical".
    Critical,
}

impl Severity {
    /// Whether the study's §4 selection keeps reports of this severity.
    pub fn is_high_impact(self) -> bool {
        self >= Severity::Severe
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Severity::Trivial => "trivial",
            Severity::Minor => "minor",
            Severity::Major => "major",
            Severity::Severe => "severe",
            Severity::Critical => "critical",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_from_condition_matches_persistence() {
        assert_eq!(FaultClass::from_condition(None), FaultClass::EnvironmentIndependent);
        assert_eq!(
            FaultClass::from_condition(Some(ConditionKind::FileSystemFull)),
            FaultClass::EnvDependentNonTransient
        );
        assert_eq!(
            FaultClass::from_condition(Some(ConditionKind::ProcessTableFull)),
            FaultClass::EnvDependentTransient
        );
        assert_eq!(
            FaultClass::from_condition(Some(ConditionKind::DnsSlow)),
            FaultClass::EnvDependentTransient
        );
    }

    #[test]
    fn every_condition_maps_to_a_dependent_class() {
        for c in ConditionKind::ALL {
            let class = FaultClass::from_condition(Some(c));
            assert_ne!(class, FaultClass::EnvironmentIndependent, "{c}");
        }
    }

    #[test]
    fn recovery_expectations() {
        assert!(FaultClass::EnvDependentTransient.generic_recovery_expected());
        assert!(!FaultClass::EnvDependentNonTransient.generic_recovery_expected());
        assert!(!FaultClass::EnvironmentIndependent.generic_recovery_expected());
    }

    #[test]
    fn labels_match_paper_tables() {
        assert_eq!(FaultClass::EnvironmentIndependent.to_string(), "environment-independent");
        assert_eq!(
            FaultClass::EnvDependentNonTransient.to_string(),
            "environment-dependent-nontransient"
        );
        assert_eq!(
            FaultClass::EnvDependentTransient.to_string(),
            "environment-dependent-transient"
        );
    }

    #[test]
    fn short_labels_are_distinct() {
        let shorts: Vec<_> = FaultClass::ALL.iter().map(|c| c.short()).collect();
        assert_eq!(shorts, ["env-indep", "nontransient", "transient"]);
    }

    #[test]
    fn app_metadata() {
        assert_eq!(AppKind::Apache.table_number(), 1);
        assert_eq!(AppKind::Gnome.table_number(), 2);
        assert_eq!(AppKind::Mysql.table_number(), 3);
        for app in AppKind::ALL {
            assert_eq!(app.table_number(), app.figure_number());
        }
        assert_eq!(AppKind::Gnome.to_string(), "GNOME");
    }

    #[test]
    fn severity_threshold_matches_study_selection() {
        assert!(Severity::Severe.is_high_impact());
        assert!(Severity::Critical.is_high_impact());
        assert!(!Severity::Major.is_high_impact());
        assert!(!Severity::Minor.is_high_impact());
        assert!(!Severity::Trivial.is_high_impact());
        assert!(Severity::Critical > Severity::Severe);
    }
}
