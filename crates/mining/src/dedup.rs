//! Duplicate-report detection: the "unique bugs" step of the §4 funnel.
//!
//! Two mechanisms are combined, mirroring how a human curator works:
//! explicit duplicate links (trackers record `duplicate_of`), and a
//! normalized-title comparison that catches re-reports which were never
//! formally linked (mailing lists have no link field). Normalization
//! lowercases, strips punctuation and the "(again)" style re-post markers,
//! and collapses whitespace, so `"(again) Server crashed!"` and
//! `"server crashed"` coincide.

use std::collections::HashSet;

/// Normalizes a title for duplicate comparison.
///
/// Single pass, single allocation: characters are lowercased one at a
/// time (`char::to_lowercase` yields the same stream `str::to_lowercase`
/// would, without materializing the intermediate copy) and appended
/// straight into the output buffer, splitting on non-alphanumerics as we
/// go. Leading re-post markers are dropped by truncating the buffer when
/// a just-finished first word turns out to be a marker.
pub fn normalize_title(title: &str) -> String {
    let mut out = String::with_capacity(title.len());
    // Whether we are still before the first non-marker word; while true,
    // `out` holds at most the current (candidate marker) word.
    let mut skipping_markers = true;
    let mut in_word = false;
    let mut finish_word = |out: &mut String, in_word: &mut bool| {
        if *in_word {
            *in_word = false;
            if skipping_markers {
                if matches!(out.as_str(), "again" | "re" | "fwd") {
                    out.clear();
                } else {
                    skipping_markers = false;
                }
            }
        }
    };
    for ch in title.chars().flat_map(char::to_lowercase) {
        if ch.is_alphanumeric() {
            if !in_word {
                if !out.is_empty() {
                    out.push(' ');
                }
                in_word = true;
            }
            out.push(ch);
        } else {
            finish_word(&mut out, &mut in_word);
        }
    }
    finish_word(&mut out, &mut in_word);
    out
}

/// Retains the first report of each distinct fault, dropping explicit
/// duplicates and title-level re-posts. Works on indices into any report
/// storage: all it needs from a report is its archive id and duplicate
/// link, supplied by `key` per index, so arena-backed archives pass their
/// id/duplicate columns directly instead of materializing reports.
///
/// `selected` are the indices still in the funnel (any order) and
/// `norms[i]` must be [`normalize_title`] of report `selected[i]`'s title;
/// callers compute the norms in parallel (normalization is the per-report
/// cost; this scan is inherently sequential because each keep decision
/// depends on every earlier one). Returns the kept indices ordered by
/// report id; among duplicates the earliest archive id survives.
///
/// # Panics
///
/// Panics if `norms.len() != selected.len()`.
pub fn dedup_indices_keyed<K>(key: K, selected: Vec<usize>, norms: Vec<String>) -> Vec<usize>
where
    K: Fn(usize) -> (u64, Option<u64>),
{
    assert_eq!(selected.len(), norms.len(), "one normalized title per report");
    let mut paired: Vec<(usize, String)> = selected.into_iter().zip(norms).collect();
    // Earliest report first so the primary survives (stable, so equal ids
    // keep their incoming order).
    paired.sort_by_key(|&(i, _)| key(i).0);
    let mut seen_titles: HashSet<String> = HashSet::new();
    let mut kept_ids: HashSet<u64> = HashSet::new();
    let mut out = Vec::with_capacity(paired.len());
    for (i, norm) in paired {
        let (id, duplicate_of) = key(i);
        if let Some(primary) = duplicate_of {
            if kept_ids.contains(&primary) {
                continue; // formally linked duplicate of a kept report
            }
        }
        if !norm.is_empty() && !seen_titles.insert(norm) {
            continue; // same fault re-reported under an equivalent title
        }
        kept_ids.insert(id);
        out.push(i);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use faultstudy_core::report::BugReport;
    use faultstudy_core::taxonomy::{AppKind, Severity};

    fn report(id: u64, title: &str) -> BugReport {
        BugReport::builder(AppKind::Apache, id).title(title).severity(Severity::Severe).build()
    }

    /// The reports [`dedup_indices_keyed`] keeps, in its order.
    fn dedup_reports(reports: Vec<BugReport>) -> Vec<BugReport> {
        let norms = reports.iter().map(|r| normalize_title(&r.title)).collect();
        let key = |i: usize| (reports[i].id, reports[i].duplicate_of);
        let kept = dedup_indices_keyed(key, (0..reports.len()).collect(), norms);
        kept.into_iter().map(|i| reports[i].clone()).collect()
    }

    #[test]
    fn normalization_strips_markers_and_punctuation() {
        assert_eq!(normalize_title("(again) Server crashed!"), "server crashed");
        assert_eq!(normalize_title("RE: re: server crashed"), "server crashed");
        assert_eq!(normalize_title("Server   CRASHED..."), "server crashed");
        assert_eq!(normalize_title(""), "");
    }

    #[test]
    fn explicit_duplicates_removed() {
        let mut dup = report(5, "totally different words");
        dup.duplicate_of = Some(1);
        let out = dedup_reports(vec![report(1, "server crashed"), dup]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].id, 1);
    }

    #[test]
    fn title_level_duplicates_removed_keeping_earliest() {
        let out = dedup_reports(vec![
            report(9, "(again) server crashed"),
            report(2, "Server crashed!"),
            report(4, "unrelated other bug"),
        ]);
        let ids: Vec<u64> = out.iter().map(|r| r.id).collect();
        assert_eq!(ids, [2, 4]);
    }

    #[test]
    fn unlinked_duplicate_with_distinct_title_survives() {
        // A formally-linked duplicate whose primary was itself dropped (not
        // in the input) is kept: the link alone is not enough to discard
        // the only report of a fault.
        let mut dup = report(3, "the only report of this fault");
        dup.duplicate_of = Some(999);
        let out = dedup_reports(vec![dup]);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn dedup_is_idempotent() {
        let input = vec![report(1, "a crash"), report(2, "(again) a crash"), report(3, "b crash")];
        let once = dedup_reports(input);
        let twice = dedup_reports(once.clone());
        assert_eq!(once, twice);
        assert_eq!(once.len(), 2);
    }

    #[test]
    fn empty_titles_do_not_collide() {
        let out = dedup_reports(vec![report(1, ""), report(2, "")]);
        assert_eq!(out.len(), 2, "empty titles carry no duplicate signal");
    }

    #[test]
    fn normalization_handles_marker_edge_cases() {
        // Markers only strip from the front; interior ones are content.
        assert_eq!(normalize_title("crash again"), "crash again");
        assert_eq!(normalize_title("re fwd again re crash"), "crash");
        assert_eq!(normalize_title("re: re: re:"), "");
        assert_eq!(normalize_title("  RE:   (again)  Fwd: boom  "), "boom");
        // Idempotent.
        let once = normalize_title("(again) Server CRASHED!!");
        assert_eq!(normalize_title(&once), once);
    }
}
