//! The vocabulary of environmental conditions and their retry persistence.
//!
//! Every environment-dependent fault in the paper's corpus names a condition
//! of the operating environment that triggers it (§5.1–§5.3). This module
//! enumerates those conditions as [`ConditionKind`] and records, for each,
//! whether the condition is expected to *persist* across an application-
//! generic recovery ([`Persistence::Persists`], yielding an environment-
//! dependent-**nontransient** fault) or to be *cleared by the act of
//! recovery* or to *change naturally* with time ([`Persistence`] variants
//! yielding environment-dependent-**transient** faults).
//!
//! The classifier in `faultstudy-core` and the simulated environment in
//! [`crate::environment`] must agree on this mapping; the test suite checks
//! the agreement end to end (the paper's proposed "end-to-end check", §5.4).

use std::fmt;

/// How an environmental condition behaves across a generic recovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Persistence {
    /// The condition is still present when the operation is retried.
    /// Faults triggered by such conditions are environment-dependent-
    /// nontransient: e.g. a full disk is not emptied by restarting the
    /// application (§3).
    Persists,
    /// The act of generic recovery itself clears the condition, e.g. the
    /// recovery system kills all processes associated with the application,
    /// freeing process-table slots and the ports hung children held (§3).
    ClearedByRecovery,
    /// The condition changes on its own between the failure and the retry:
    /// thread interleavings differ, a slow network heals, `/dev/random`
    /// accumulates more events (§5.1).
    ChangesNaturally,
}

impl fmt::Display for Persistence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Persistence::Persists => "persists on retry",
            Persistence::ClearedByRecovery => "cleared by recovery",
            Persistence::ChangesNaturally => "changes naturally",
        };
        f.write_str(s)
    }
}

/// An environmental condition that can trigger a fault.
///
/// The variants cover every condition named by the paper's 26 environment-
/// dependent faults, plus [`ConditionKind::UnknownTransient`] for the GNOME
/// report that "works on a retry" with no further diagnosis (§5.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[non_exhaustive]
pub enum ConditionKind {
    // ---- conditions that persist on retry (nontransient triggers) ----
    /// An application resource leak built up under high load; a truly
    /// generic recovery saves and restores all application state, so the
    /// leaked resources come back with it (Apache §5.1).
    ResourceLeak,
    /// The kernel's file-descriptor table (or the per-process limit) is
    /// exhausted; restored with application state (Apache, GNOME, MySQL).
    FdExhaustion,
    /// The application's disk cache is full; temporary files cannot be
    /// stored (Apache §5.1).
    DiskCacheFull,
    /// A file (log or database) has reached the maximum allowed file size
    /// (Apache, MySQL).
    MaxFileSize,
    /// The filesystem has no free space (Apache, MySQL).
    FileSystemFull,
    /// An unspecified network resource is exhausted (Apache §5.1).
    NetworkResourceExhausted,
    /// A hardware component (the PCMCIA network card) was removed from the
    /// machine (Apache §5.1).
    HardwareRemoved,
    /// The machine's hostname changed while the application was running
    /// (GNOME §5.2).
    HostnameChanged,
    /// A file carries an illegal value in a metadata field (the owner
    /// field); the bad file is still there on retry (GNOME §5.2).
    CorruptFileMetadata,
    /// Reverse DNS is not configured for a connecting host; the
    /// misconfiguration outlives any recovery of the server (MySQL §5.3).
    ReverseDnsMissing,

    // ---- conditions cleared by the act of recovery ----
    /// Hung child processes have consumed all process-table slots; generic
    /// recovery kills all processes associated with the application,
    /// freeing the slots (Apache §5.1).
    ProcessTableFull,
    /// Hung children hold required network ports; they are killed during
    /// recovery and the ports are freed (Apache §5.1).
    PortsHeldByChildren,

    // ---- conditions that change naturally between failure and retry ----
    /// A DNS lookup returned an error; likely fixed when the DNS server is
    /// restarted (Apache §5.1).
    DnsError,
    /// DNS responses are slow; the cause is eventually fixed without
    /// application-specific recovery (Apache §5.1).
    DnsSlow,
    /// The network connection is slow; may be fixed by the time the
    /// application recovers (Apache §5.1).
    NetworkSlow,
    /// `/dev/random` lacks events to generate sufficient random numbers;
    /// more events accumulate during recovery (Apache §5.1).
    EntropyExhausted,
    /// The user's exact request timing triggered the fault (pressing stop
    /// mid-download); unlikely to repeat on retry (Apache §5.1).
    WorkloadTiming,
    /// A specific thread/process interleaving triggered a race; the
    /// interleaving is likely to differ on retry (GNOME, MySQL).
    RaceCondition,
    /// The report only records that the failure "works on a retry"
    /// (GNOME §5.2).
    UnknownTransient,
}

impl ConditionKind {
    /// Every condition kind, in declaration order.
    pub const ALL: [ConditionKind; 19] = [
        ConditionKind::ResourceLeak,
        ConditionKind::FdExhaustion,
        ConditionKind::DiskCacheFull,
        ConditionKind::MaxFileSize,
        ConditionKind::FileSystemFull,
        ConditionKind::NetworkResourceExhausted,
        ConditionKind::HardwareRemoved,
        ConditionKind::HostnameChanged,
        ConditionKind::CorruptFileMetadata,
        ConditionKind::ReverseDnsMissing,
        ConditionKind::ProcessTableFull,
        ConditionKind::PortsHeldByChildren,
        ConditionKind::DnsError,
        ConditionKind::DnsSlow,
        ConditionKind::NetworkSlow,
        ConditionKind::EntropyExhausted,
        ConditionKind::WorkloadTiming,
        ConditionKind::RaceCondition,
        ConditionKind::UnknownTransient,
    ];

    /// The expected behaviour of this condition across a generic recovery.
    ///
    /// This mapping is the paper's Tables 1–3 reasoning in executable form.
    /// Note the paper's own caveat (§3, §5.4): the split between "persists"
    /// and "cleared/changes" is relative to the recovery systems common at
    /// the time — e.g. a system that automatically grows disk capacity would
    /// move [`ConditionKind::FileSystemFull`] to transient.
    pub fn persistence(self) -> Persistence {
        use ConditionKind::*;
        match self {
            ResourceLeak
            | FdExhaustion
            | DiskCacheFull
            | MaxFileSize
            | FileSystemFull
            | NetworkResourceExhausted
            | HardwareRemoved
            | HostnameChanged
            | CorruptFileMetadata
            | ReverseDnsMissing => Persistence::Persists,
            ProcessTableFull | PortsHeldByChildren => Persistence::ClearedByRecovery,
            DnsError | DnsSlow | NetworkSlow | EntropyExhausted | WorkloadTiming
            | RaceCondition | UnknownTransient => Persistence::ChangesNaturally,
        }
    }

    /// Short stable identifier used in serialized corpora and reports.
    pub fn slug(self) -> &'static str {
        use ConditionKind::*;
        match self {
            ResourceLeak => "resource-leak",
            FdExhaustion => "fd-exhaustion",
            DiskCacheFull => "disk-cache-full",
            MaxFileSize => "max-file-size",
            FileSystemFull => "filesystem-full",
            NetworkResourceExhausted => "net-resource-exhausted",
            HardwareRemoved => "hardware-removed",
            HostnameChanged => "hostname-changed",
            CorruptFileMetadata => "corrupt-file-metadata",
            ReverseDnsMissing => "reverse-dns-missing",
            ProcessTableFull => "process-table-full",
            PortsHeldByChildren => "ports-held-by-children",
            DnsError => "dns-error",
            DnsSlow => "dns-slow",
            NetworkSlow => "network-slow",
            EntropyExhausted => "entropy-exhausted",
            WorkloadTiming => "workload-timing",
            RaceCondition => "race-condition",
            UnknownTransient => "unknown-transient",
        }
    }
}

impl fmt::Display for ConditionKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.slug())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn all_lists_every_variant_once() {
        let set: HashSet<_> = ConditionKind::ALL.iter().collect();
        assert_eq!(set.len(), ConditionKind::ALL.len());
    }

    #[test]
    fn slugs_are_unique() {
        let set: HashSet<_> = ConditionKind::ALL.iter().map(|c| c.slug()).collect();
        assert_eq!(set.len(), ConditionKind::ALL.len());
    }

    #[test]
    fn paper_nontransient_conditions_persist() {
        // The ten conditions backing the paper's 14 EDN faults.
        for c in [
            ConditionKind::ResourceLeak,
            ConditionKind::FdExhaustion,
            ConditionKind::DiskCacheFull,
            ConditionKind::MaxFileSize,
            ConditionKind::FileSystemFull,
            ConditionKind::NetworkResourceExhausted,
            ConditionKind::HardwareRemoved,
            ConditionKind::HostnameChanged,
            ConditionKind::CorruptFileMetadata,
            ConditionKind::ReverseDnsMissing,
        ] {
            assert_eq!(c.persistence(), Persistence::Persists, "{c}");
        }
    }

    #[test]
    fn paper_transient_conditions_do_not_persist() {
        for c in [
            ConditionKind::ProcessTableFull,
            ConditionKind::PortsHeldByChildren,
            ConditionKind::DnsError,
            ConditionKind::DnsSlow,
            ConditionKind::NetworkSlow,
            ConditionKind::EntropyExhausted,
            ConditionKind::WorkloadTiming,
            ConditionKind::RaceCondition,
            ConditionKind::UnknownTransient,
        ] {
            assert_ne!(c.persistence(), Persistence::Persists, "{c}");
        }
    }

    #[test]
    fn recovery_cleared_conditions_are_exactly_the_process_related_ones() {
        let cleared: Vec<_> = ConditionKind::ALL
            .into_iter()
            .filter(|c| c.persistence() == Persistence::ClearedByRecovery)
            .collect();
        assert_eq!(cleared, [ConditionKind::ProcessTableFull, ConditionKind::PortsHeldByChildren]);
    }

    #[test]
    fn display_matches_slug() {
        for c in ConditionKind::ALL {
            assert_eq!(c.to_string(), c.slug());
        }
    }
}
