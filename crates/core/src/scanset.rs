//! The shared scan set: every fixed pattern the classifier looks for in
//! report text, compiled into **one** Aho–Corasick automaton.
//!
//! The [`lexicon`](crate::lexicon) conjunction rules (~60 distinct
//! substrings) and the [`evidence`](crate::evidence) reproducibility and
//! retry cue lists used to traverse each report's text independently,
//! for roughly 95 traversals plus three `to_lowercase` allocations per
//! report. This module registers all of those patterns (91 distinct)
//! with a single [`Automaton`], compiled lazily once per process via
//! [`OnceLock`], so one allocation-free pass per report field yields a
//! [`HitSet`] that answers every question at once. Rule conjunctions and
//! cue disjunctions are then bitset probes.
//!
//! The mining funnel's §4 keyword stage does not read the shared scan:
//! `faultstudy-mining`'s `KeywordQuery` compiles its four keywords into
//! an automaton of its own, small enough for the bit-parallel engine,
//! which scans a report in about half the time of this 91-pattern DFA.
//!
//! # Example
//!
//! ```
//! use faultstudy_core::scanset;
//!
//! let set = scanset::shared();
//! let hits = set.hits_text("the file system is full and the server crashed");
//! assert!(!set.conditions(&hits).is_empty());
//! ```

use crate::evidence::{DETERMINISTIC_CUES, NONDETERMINISTIC_CUES, RETRY_SUCCESS_CUES};
use crate::lexicon::RULES;
use crate::report::BugReport;
use faultstudy_env::condition::ConditionKind;
use faultstudy_textscan::{Automaton, HitSet, PatternId, PatternSetBuilder};
use std::sync::OnceLock;

/// The compiled shared automaton plus the pattern-id views each consumer
/// evaluates against a scan's [`HitSet`].
#[derive(Debug)]
pub struct ScanSet {
    automaton: Automaton,
    /// `rule_masks[i]` holds the pattern ids of `RULES[i].all_of` as a
    /// bitmask paired with the rule's condition: the conjunction holds iff
    /// the scan's [`HitSet`] is a superset of the mask.
    rule_masks: Vec<(HitSet, ConditionKind)>,
    /// Union of every rule's mask: when a scan intersects none of it, no
    /// conjunction can hold and the rule loop is skipped entirely.
    rule_union: HitSet,
    /// Whether some rule has an empty `all_of` (holds on any text); none
    /// does today, but the `rule_union` short-circuit would be wrong then.
    has_unconditional_rule: bool,
    deterministic: HitSet,
    nondeterministic: HitSet,
    retry: HitSet,
}

/// The process-wide scan set, compiled on first use.
pub fn shared() -> &'static ScanSet {
    static SHARED: OnceLock<ScanSet> = OnceLock::new();
    SHARED.get_or_init(ScanSet::compile)
}

impl ScanSet {
    fn compile() -> ScanSet {
        let mut b = PatternSetBuilder::new();
        let mut register =
            |patterns: &[&str]| -> Vec<PatternId> { patterns.iter().map(|p| b.add(p)).collect() };
        let rule_masks: Vec<(HitSet, ConditionKind)> =
            RULES.iter().map(|r| (HitSet::of(&register(r.all_of)), r.kind)).collect();
        let deterministic = HitSet::of(&register(DETERMINISTIC_CUES));
        let nondeterministic = HitSet::of(&register(NONDETERMINISTIC_CUES));
        let retry = HitSet::of(&register(RETRY_SUCCESS_CUES));
        let mut rule_union = HitSet::EMPTY;
        for (mask, _) in &rule_masks {
            rule_union.or_assign(mask);
        }
        let has_unconditional_rule = rule_masks.iter().any(|(mask, _)| mask.is_empty());
        ScanSet {
            automaton: b.build(),
            rule_masks,
            rule_union,
            has_unconditional_rule,
            deterministic,
            nondeterministic,
            retry,
        }
    }

    /// The underlying automaton.
    pub fn automaton(&self) -> &Automaton {
        &self.automaton
    }

    /// Scans one text in a single pass (no per-call heap allocation on
    /// ASCII input).
    pub fn hits_text(&self, text: &str) -> HitSet {
        self.automaton.scan(text)
    }

    /// Scans every searchable field of `report` — the same text
    /// [`BugReport::full_text`] concatenates — without materializing the
    /// concatenation.
    pub fn hits_report(&self, report: &BugReport) -> HitSet {
        self.hits_segments(&[
            &report.title,
            &report.body,
            &report.how_to_repeat,
            &report.developer_notes,
        ])
    }

    /// Scans borrowed text segments as one logical text with a break
    /// between segments — the input shape of
    /// [`flat::ReportColumns::text_segments`](crate::flat::ReportColumns::text_segments),
    /// so arena-backed archives scan without materializing any report.
    pub(crate) fn hits_segments(&self, segments: &[&str]) -> HitSet {
        self.automaton.scan_segments(segments)
    }

    /// Evaluates every lexicon rule conjunction against `hits`, returning
    /// the indicated conditions sorted and deduplicated — bit-identical to
    /// the naive [`crate::lexicon::conditions_in_naive`] scan.
    pub fn conditions(&self, hits: &HitSet) -> Vec<ConditionKind> {
        if !self.has_unconditional_rule && !hits.intersects(&self.rule_union) {
            return Vec::new(); // no rule pattern hit, so no conjunction holds
        }
        let mut found: Vec<ConditionKind> = self
            .rule_masks
            .iter()
            .filter(|(mask, _)| hits.is_superset(mask))
            .map(|&(_, kind)| kind)
            .collect();
        found.sort_unstable();
        found.dedup();
        found
    }

    /// The deterministic-reproduction verdict: `Some(false)` if any
    /// nondeterministic cue hit (they dominate), `Some(true)` if only
    /// deterministic cues hit, `None` if the text is silent.
    pub(crate) fn deterministic_repro(&self, hits: &HitSet) -> Option<bool> {
        if hits.intersects(&self.nondeterministic) {
            Some(false)
        } else if hits.intersects(&self.deterministic) {
            Some(true)
        } else {
            None
        }
    }

    /// Whether any retry-success cue hit.
    pub(crate) fn retry_succeeded(&self, hits: &HitSet) -> bool {
        hits.intersects(&self.retry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::taxonomy::AppKind;

    #[test]
    fn shared_set_compiles_once_and_covers_all_pattern_families() {
        let set = shared();
        assert!(std::ptr::eq(set, shared()), "OnceLock returns the same instance");
        assert!(set.automaton().is_ascii(), "every registered pattern is ASCII");
        assert_eq!(set.rule_masks.len(), RULES.len());
        assert_eq!(set.deterministic.len(), DETERMINISTIC_CUES.len());
        assert_eq!(set.nondeterministic.len(), NONDETERMINISTIC_CUES.len());
        assert_eq!(set.retry.len(), RETRY_SUCCESS_CUES.len());
        // Patterns shared between families (e.g. "works on a retry" is both
        // a lexicon pattern and a retry cue) deduplicate in the automaton.
        let registered: usize = RULES.iter().map(|r| r.all_of.len()).sum::<usize>()
            + DETERMINISTIC_CUES.len()
            + NONDETERMINISTIC_CUES.len()
            + RETRY_SUCCESS_CUES.len();
        assert!(set.automaton().pattern_count() < registered, "duplicates collapsed");
        assert_eq!(set.automaton().pattern_count(), 91);
    }

    #[test]
    fn one_scan_answers_every_consumer() {
        let set = shared();
        let hits = set
            .hits_text("the daemon DIED with a race condition; sometimes works after restarting");
        assert_eq!(set.conditions(&hits), vec![ConditionKind::RaceCondition]);
        assert_eq!(set.deterministic_repro(&hits), Some(false));
        assert!(set.retry_succeeded(&hits));
    }

    #[test]
    fn report_scan_covers_every_field() {
        let set = shared();
        let r = BugReport::builder(AppKind::Gnome, 1)
            .title("panel freeze")
            .body("desktop hangs whenever an applet loads")
            .how_to_repeat("open two applets")
            .developer_notes("race condition in the applet registry")
            .build();
        let hits = set.hits_report(&r);
        assert_eq!(set.conditions(&hits), vec![ConditionKind::RaceCondition]);
        assert_eq!(set.deterministic_repro(&hits), Some(true), "'whenever' is in the body");
    }
}
