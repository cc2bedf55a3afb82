//! The keyword → condition lexicon used by evidence extraction.
//!
//! The paper's authors read each report's How-To-Repeat field and developer
//! comments to decide which environmental condition (if any) triggered the
//! fault. This module encodes that reading as an auditable rule list: each
//! rule is a conjunction of lowercase substrings which, when all present in
//! a report's text, indicate one [`ConditionKind`]. The rules were written
//! from the exact trigger descriptions of §5.1–§5.3.

use faultstudy_env::condition::ConditionKind;

/// One lexicon rule: if every pattern in `all_of` occurs in the lowercased
/// report text, the report mentions `kind`.
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    /// Substrings that must all be present.
    pub all_of: &'static [&'static str],
    /// The condition the conjunction indicates.
    pub kind: ConditionKind,
}

/// The ordered rule list. More specific rules come first so that, e.g.,
/// "reverse dns" matches before the generic "dns" rules.
pub const RULES: &[Rule] = &[
    // --- DNS family (most specific first) ---
    Rule { all_of: &["reverse dns"], kind: ConditionKind::ReverseDnsMissing },
    Rule { all_of: &["reverse", "not configured"], kind: ConditionKind::ReverseDnsMissing },
    Rule { all_of: &["dns", "slow"], kind: ConditionKind::DnsSlow },
    Rule { all_of: &["dns", "error"], kind: ConditionKind::DnsError },
    Rule { all_of: &["dns", "returns an error"], kind: ConditionKind::DnsError },
    Rule { all_of: &["name service", "error"], kind: ConditionKind::DnsError },
    // --- races and timing ---
    Rule { all_of: &["race condition"], kind: ConditionKind::RaceCondition },
    Rule { all_of: &["race between"], kind: ConditionKind::RaceCondition },
    Rule { all_of: &["interleaving"], kind: ConditionKind::RaceCondition },
    Rule { all_of: &["masking of a signal", "arrival"], kind: ConditionKind::RaceCondition },
    Rule { all_of: &["presses stop"], kind: ConditionKind::WorkloadTiming },
    Rule { all_of: &["stop", "midst of a page download"], kind: ConditionKind::WorkloadTiming },
    Rule { all_of: &["works on a retry"], kind: ConditionKind::UnknownTransient },
    Rule { all_of: &["works on retry"], kind: ConditionKind::UnknownTransient },
    // --- process table and ports ---
    Rule { all_of: &["process table"], kind: ConditionKind::ProcessTableFull },
    Rule { all_of: &["slots in the process"], kind: ConditionKind::ProcessTableFull },
    Rule { all_of: &["out of processes"], kind: ConditionKind::ProcessTableFull },
    Rule { all_of: &["cannot fork"], kind: ConditionKind::ProcessTableFull },
    Rule { all_of: &["hung", "ports"], kind: ConditionKind::PortsHeldByChildren },
    Rule { all_of: &["hang onto", "port"], kind: ConditionKind::PortsHeldByChildren },
    // --- descriptors, disk, files ---
    Rule { all_of: &["file descriptor"], kind: ConditionKind::FdExhaustion },
    Rule { all_of: &["too many open files"], kind: ConditionKind::FdExhaustion },
    Rule { all_of: &["out of fds"], kind: ConditionKind::FdExhaustion },
    Rule { all_of: &["open socket", "left around"], kind: ConditionKind::FdExhaustion },
    Rule { all_of: &["disk cache", "full"], kind: ConditionKind::DiskCacheFull },
    Rule { all_of: &["maximum allowed file size"], kind: ConditionKind::MaxFileSize },
    Rule { all_of: &["file size", "greater than"], kind: ConditionKind::MaxFileSize },
    Rule { all_of: &["file size limit"], kind: ConditionKind::MaxFileSize },
    Rule { all_of: &["full file system"], kind: ConditionKind::FileSystemFull },
    Rule { all_of: &["file system", "full"], kind: ConditionKind::FileSystemFull },
    Rule { all_of: &["filesystem full"], kind: ConditionKind::FileSystemFull },
    Rule { all_of: &["disk", "full"], kind: ConditionKind::FileSystemFull },
    Rule { all_of: &["no space left"], kind: ConditionKind::FileSystemFull },
    // --- network ---
    Rule {
        all_of: &["network resource", "exhausted"],
        kind: ConditionKind::NetworkResourceExhausted,
    },
    Rule { all_of: &["slow network"], kind: ConditionKind::NetworkSlow },
    Rule { all_of: &["network", "slow connection"], kind: ConditionKind::NetworkSlow },
    Rule { all_of: &["pcmcia"], kind: ConditionKind::HardwareRemoved },
    Rule { all_of: &["card", "removed"], kind: ConditionKind::HardwareRemoved },
    // --- host and metadata ---
    Rule { all_of: &["hostname", "changed"], kind: ConditionKind::HostnameChanged },
    Rule { all_of: &["illegal value", "owner"], kind: ConditionKind::CorruptFileMetadata },
    Rule { all_of: &["owner field", "illegal"], kind: ConditionKind::CorruptFileMetadata },
    // --- entropy ---
    Rule { all_of: &["/dev/random"], kind: ConditionKind::EntropyExhausted },
    Rule { all_of: &["entropy"], kind: ConditionKind::EntropyExhausted },
    Rule { all_of: &["random numbers", "lack of events"], kind: ConditionKind::EntropyExhausted },
    // --- leaks (kept last: "leak" is the least specific pattern) ---
    Rule { all_of: &["memory leak"], kind: ConditionKind::ResourceLeak },
    Rule { all_of: &["resource leak"], kind: ConditionKind::ResourceLeak },
    Rule { all_of: &["shared memory segment", "growing"], kind: ConditionKind::ResourceLeak },
];

/// Scans `text` (any case) and returns every condition the lexicon finds,
/// sorted and deduplicated: the text is lowercased once, and a rule holds
/// when the lowercased text contains every one of its patterns.
///
/// # Example
///
/// ```
/// use faultstudy_core::lexicon::conditions_in;
/// use faultstudy_env::condition::ConditionKind;
///
/// let found = conditions_in("server crashes when the file system is full");
/// assert_eq!(found, vec![ConditionKind::FileSystemFull]);
/// ```
pub fn conditions_in(text: &str) -> Vec<ConditionKind> {
    conditions_in_lowercase(&text.to_lowercase())
}

/// [`conditions_in`] over text that is lowercase already, so a caller that
/// holds the lowercase copy makes no second one.
pub(crate) fn conditions_in_lowercase(lower: &str) -> Vec<ConditionKind> {
    let mut found: Vec<ConditionKind> = RULES
        .iter()
        .filter(|r| r.all_of.iter().all(|p| lower.contains(p)))
        .map(|r| r.kind)
        .collect();
    found.sort_unstable();
    found.dedup();
    found
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_paper_trigger_phrase_maps_to_its_condition() {
        // One representative phrase per §5 trigger description.
        let cases: &[(&str, ConditionKind)] = &[
            ("high load leading to an unknown resource leak", ConditionKind::ResourceLeak),
            ("lack of file descriptors", ConditionKind::FdExhaustion),
            ("disk cache used by the application gets full", ConditionKind::DiskCacheFull),
            (
                "size of log file is greater than maximum allowed file size",
                ConditionKind::MaxFileSize,
            ),
            ("full file system", ConditionKind::FileSystemFull),
            ("unknown network resource exhausted", ConditionKind::NetworkResourceExhausted),
            ("removal of pcmcia network card", ConditionKind::HardwareRemoved),
            ("hostname of the machine was changed", ConditionKind::HostnameChanged),
            ("file has an illegal value in the owner field", ConditionKind::CorruptFileMetadata),
            ("reverse dns is not configured for the remote host", ConditionKind::ReverseDnsMissing),
            (
                "child processes consume all available slots in the process table",
                ConditionKind::ProcessTableFull,
            ),
            (
                "hung child processes hang onto required network ports",
                ConditionKind::PortsHeldByChildren,
            ),
            ("call to domain name service dns returns an error", ConditionKind::DnsError),
            ("slow dns response", ConditionKind::DnsSlow),
            ("slow network connection", ConditionKind::NetworkSlow),
            (
                "lack of events to generate sufficient random numbers in /dev/random",
                ConditionKind::EntropyExhausted,
            ),
            ("user presses stop on the browser", ConditionKind::WorkloadTiming),
            (
                "race condition between a image viewer and a property editor",
                ConditionKind::RaceCondition,
            ),
            (
                "unknown failure of application which works on a retry",
                ConditionKind::UnknownTransient,
            ),
        ];
        for (text, expected) in cases {
            let found = conditions_in(text);
            assert!(
                found.contains(expected),
                "{text:?} should contain {expected}, found {found:?}"
            );
        }
    }

    #[test]
    fn plain_deterministic_text_matches_nothing() {
        for text in [
            "dies with a segfault when the submitted url is very long",
            "a count clause on an empty table crashes the server",
            "clicking the prev button in the year view crashes the calendar",
            "",
        ] {
            assert!(conditions_in(text).is_empty(), "{text:?}");
        }
    }

    #[test]
    fn reverse_dns_wins_over_generic_dns() {
        let found = conditions_in("crash on connect when reverse dns is broken");
        assert!(found.contains(&ConditionKind::ReverseDnsMissing));
    }

    #[test]
    fn multiple_conditions_all_reported_sorted_deduped() {
        let text =
            "full file system and a race condition between threads; also the file system is full";
        let found = conditions_in(text);
        assert_eq!(found, {
            let mut v = vec![ConditionKind::FileSystemFull, ConditionKind::RaceCondition];
            v.sort_unstable();
            v
        });
    }

    #[test]
    fn matching_is_case_insensitive() {
        assert_eq!(
            conditions_in("RACE CONDITION in the scheduler"),
            vec![ConditionKind::RaceCondition]
        );
    }

    #[test]
    fn rules_cover_every_condition_kind() {
        use std::collections::BTreeSet;
        let covered: BTreeSet<ConditionKind> = RULES.iter().map(|r| r.kind).collect();
        for kind in ConditionKind::ALL {
            assert!(covered.contains(&kind), "no lexicon rule produces {kind}");
        }
    }
}
