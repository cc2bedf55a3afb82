//! The §7 reconciliation with Lee & Iyer's Tandem GUARDIAN study \[Lee93\].
//!
//! Lee & Iyer report that 82% of Tandem software faults were recovered by
//! the process-pair mechanism — far above this paper's 5–14% transient
//! fraction. §7 reconciles the two by removing, from the 82%, the
//! recoveries that a *purely generic* pair could not have produced:
//!
//! 1. recoveries because the backup did **not** start from the same state
//!    as the failed primary (Lee & Iyer's "memory state" and "error
//!    latency" categories);
//! 2. recoveries because the backup did **not** re-execute the requested
//!    task;
//! 3. "recoveries" of faults that only ever affected the backup process
//!    (bugs introduced by the pair mechanism itself).
//!
//! What remains — 29% — is the transient fraction of genuine operating-
//! system faults, still above the paper's application numbers because
//! Tandem software is tested harder and an OS interacts more with the
//! hardware environment.
//!
//! The paper states the endpoints (82% and 29%) and the category *kinds*
//! but not the exact per-category percentages; the defaults here are a
//! documented reconstruction that sums to the published endpoints, and
//! the arithmetic is exposed so other splits can be explored.

use serde::Serialize;
use std::fmt;

/// The reconciliation inputs, in percentage points of all Tandem software
/// faults.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct TandemReconciliation {
    /// Faults recovered by the deployed process-pair mechanism (82).
    pub raw_recovered: f64,
    /// Points attributable to the backup starting from different state
    /// (memory state + error latency).
    pub backup_state_divergence: f64,
    /// Points attributable to the backup not re-executing the task.
    pub task_not_reexecuted: f64,
    /// Points attributable to faults affecting only the backup process.
    pub backup_only_faults: f64,
}

impl Default for TandemReconciliation {
    fn default() -> Self {
        // Reconstructed split: 82 - 30 - 13 - 10 = 29, the §7 endpoints.
        TandemReconciliation {
            raw_recovered: 82.0,
            backup_state_divergence: 30.0,
            task_not_reexecuted: 13.0,
            backup_only_faults: 10.0,
        }
    }
}

impl TandemReconciliation {
    /// The transient fraction left after removing the non-generic
    /// recovery categories (§7's 29%).
    pub fn pure_generic_transient(&self) -> f64 {
        (self.raw_recovered
            - self.backup_state_divergence
            - self.task_not_reexecuted
            - self.backup_only_faults)
            .max(0.0)
    }
}

impl fmt::Display for TandemReconciliation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Lee & Iyer [Lee93] reconciliation (percentage points):")?;
        writeln!(f, "  recovered by deployed process pairs:   {:>5.1}", self.raw_recovered)?;
        writeln!(
            f,
            "  - backup started from different state: {:>5.1}",
            self.backup_state_divergence
        )?;
        writeln!(f, "  - task not re-executed by backup:      {:>5.1}", self.task_not_reexecuted)?;
        writeln!(f, "  - faults affecting only the backup:    {:>5.1}", self.backup_only_faults)?;
        writeln!(
            f,
            "  = transient under purely generic pairs: {:>4.1}",
            self.pure_generic_transient()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_reproduces_the_section_7_endpoints() {
        let r = TandemReconciliation::default();
        assert_eq!(r.raw_recovered, 82.0);
        assert_eq!(r.pure_generic_transient(), 29.0);
    }

    #[test]
    fn custom_split_arithmetic() {
        let r = TandemReconciliation {
            raw_recovered: 100.0,
            backup_state_divergence: 50.0,
            task_not_reexecuted: 25.0,
            backup_only_faults: 25.0,
        };
        assert_eq!(r.pure_generic_transient(), 0.0);
    }

    #[test]
    fn oversubtracted_split_clamps_at_zero() {
        let r = TandemReconciliation {
            raw_recovered: 50.0,
            backup_state_divergence: 40.0,
            task_not_reexecuted: 20.0,
            backup_only_faults: 0.0,
        };
        assert_eq!(r.pure_generic_transient(), 0.0, "clamped at zero");
    }

    #[test]
    fn display_shows_the_chain() {
        let text = TandemReconciliation::default().to_string();
        assert!(text.contains("82.0"));
        assert!(text.contains("29.0"));
        assert!(text.contains("different state"));
    }
}
