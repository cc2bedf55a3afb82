//! Differential property tests: the automaton agrees with the naive
//! lowercase-and-`contains` predicate on arbitrary text, on Shift-And and
//! on the naive path alike.

use faultstudy_textscan::{Automaton, PatternSetBuilder};
use proptest::prelude::*;

/// Pattern shapes drawn from the lexicon: short words, two-word
/// phrases, overlapping prefixes/suffixes.
fn pattern_strategy() -> impl Strategy<Value = String> {
    prop::sample::select(vec![
        "crash".to_owned(),
        "race".to_owned(),
        "race condition".to_owned(),
        "dns".to_owned(),
        "reverse dns".to_owned(),
        "full".to_owned(),
        "full file system".to_owned(),
        "file system".to_owned(),
        "no space left".to_owned(),
        "a".to_owned(),
        "ab".to_owned(),
        "abc".to_owned(),
    ])
}

/// Text built from fragments that deliberately collide with the patterns
/// (prefixes, suffixes, case variants) plus arbitrary filler.
fn text_strategy() -> impl Strategy<Value = String> {
    prop::collection::vec(
        prop::sample::select(vec![
            "crash".to_owned(),
            "CRASHED".to_owned(),
            "race".to_owned(),
            "condition".to_owned(),
            "race condition".to_owned(),
            "reverse".to_owned(),
            "dns".to_owned(),
            "file".to_owned(),
            "system full".to_owned(),
            "ful".to_owned(),
            "ab".to_owned(),
            "abcabc".to_owned(),
            " ".to_owned(),
            "\n".to_owned(),
            "xyz".to_owned(),
        ]),
        0..12,
    )
    .prop_map(|fragments| fragments.concat())
}

proptest! {
    /// Every pattern the automaton reports is exactly the set the naive
    /// per-pattern `contains` scan finds.
    #[test]
    fn automaton_agrees_with_naive_contains(
        patterns in prop::collection::vec(pattern_strategy(), 1..8),
        text in text_strategy(),
    ) {
        let mut b = PatternSetBuilder::new();
        let ids: Vec<_> = patterns.iter().map(|p| b.add(p)).collect();
        let automaton = b.build();
        let hits = automaton.scan(&text);
        let lower = text.to_lowercase();
        for (pattern, &id) in patterns.iter().zip(&ids) {
            prop_assert_eq!(
                hits.contains(id),
                lower.contains(pattern.as_str()),
                "pattern {:?} in text {:?}", pattern, &text
            );
        }
    }

    /// Scanning fields separately equals scanning them joined by '\n'
    /// (the `full_text` layout), for patterns without newlines.
    #[test]
    fn segment_scan_equals_joined_scan(
        patterns in prop::collection::vec(pattern_strategy(), 1..6),
        a in "[a-z ]{0,20}",
        b in "[a-z ]{0,20}",
        c in "[a-z ]{0,20}",
    ) {
        let mut builder = PatternSetBuilder::new();
        for p in &patterns {
            builder.add(p);
        }
        let automaton = builder.build();
        let joined = format!("{a}\n{b}\n{c}");
        prop_assert_eq!(automaton.scan_segments(&[&a, &b, &c]), automaton.scan(&joined));
    }

    /// At Shift-And's 64-bit boundary, where larger sets take the naive
    /// path, `scan` and `scan_segments` equal the naive scan. The sets overlap heavily (`aa`/`aaa`, shared
    /// prefixes and suffixes), repeat patterns and often hold the empty
    /// one, and the text mixes case variants with U+212A KELVIN SIGN,
    /// which lowercases to the alphabet's `k`.
    #[test]
    fn both_engines_agree_with_naive_at_the_boundary(
        patterns in boundary_set_strategy(),
        a in boundary_text_strategy(),
        b in boundary_text_strategy(),
        c in boundary_text_strategy(),
    ) {
        let mut builder = PatternSetBuilder::new();
        let ids: Vec<_> = patterns.iter().map(|p| builder.add(p)).collect();
        let automaton = builder.build();
        let text = format!("{a}{b}{c}");
        let lower = text.to_lowercase();
        let segments = [a.as_str(), b.as_str(), c.as_str()];
        let lowered: Vec<String> = segments.iter().map(|s| s.to_lowercase()).collect();
        let hits = automaton.scan(&text);
        let segment_hits = automaton.scan_segments(&segments);
        for (pattern, &id) in patterns.iter().zip(&ids) {
            let pattern = pattern.to_lowercase();
            prop_assert_eq!(
                hits.contains(id),
                lower.contains(&pattern),
                "pattern {:?} in text {:?} (set {:?})", &pattern, &text, &patterns
            );
            prop_assert_eq!(
                segment_hits.contains(id),
                lowered.iter().any(|s| s.contains(&pattern)),
                "pattern {:?} in segments {:?} (set {:?})", &pattern, &segments, &patterns
            );
        }
    }
}

/// Pattern sets whose distinct patterns total 56–72 bytes, drawn from a
/// three-letter alphabet with both cases of `a`. A repeat, such as `aA`
/// beside `aa`, counts once, so the total is what the automaton compiles.
fn boundary_set_strategy() -> impl Strategy<Value = Vec<String>> {
    (56usize..73, prop::collection::vec("[aAbk]{0,6}", 60..61)).prop_map(|(target, words)| {
        let mut set: Vec<String> = Vec::new();
        let mut total = 0;
        for word in words {
            let word = word[..word.len().min(target - total)].to_owned();
            if !set.iter().any(|p| p.eq_ignore_ascii_case(&word)) {
                total += word.len();
            }
            set.push(word);
            if total == target {
                break;
            }
        }
        set
    })
}

/// Text over the boundary sets' alphabet: case variants, repeats, and now
/// and then the KELVIN SIGN, which sends its segment down the naive path.
fn boundary_text_strategy() -> impl Strategy<Value = String> {
    prop::collection::vec(
        prop::sample::select(vec![
            "a".to_owned(),
            "A".to_owned(),
            "b".to_owned(),
            "B".to_owned(),
            "k".to_owned(),
            "K".to_owned(),
            "aa".to_owned(),
            "aAa".to_owned(),
            "ab".to_owned(),
            "bak".to_owned(),
            "kkA".to_owned(),
            " ".to_owned(),
            "\u{212A}".to_owned(),
        ]),
        0..10,
    )
    .prop_map(|fragments| fragments.concat())
}

fn compiled(patterns: &[String]) -> Automaton {
    let mut builder = PatternSetBuilder::new();
    for p in patterns {
        builder.add(p);
    }
    builder.build()
}

/// Every end of an occurrence of any of `patterns` in the lowercased
/// `text`, ascending and without repeats. `str::match_indices` skips
/// occurrences that overlap an earlier one (`racecar` twice in
/// `racecaracecar`), so this tries every start.
fn naive_match_ends(patterns: &[String], text: &str) -> Vec<usize> {
    let lower = text.to_lowercase();
    let mut ends = std::collections::BTreeSet::new();
    for pattern in patterns {
        let pattern = pattern.to_lowercase();
        for start in 0..lower.len() {
            if lower.as_bytes()[start..].starts_with(pattern.as_bytes()) {
                ends.insert(start + pattern.len());
            }
        }
    }
    ends.into_iter().collect()
}

/// Patterns that share prefixes and suffixes and overlap one another and
/// themselves: `racecar` ends where it begins.
fn lane_pattern_strategy() -> impl Strategy<Value = Vec<String>> {
    prop::collection::vec(
        prop::sample::select(vec![
            "race".to_owned(),
            "racecar".to_owned(),
            "ace".to_owned(),
            "e".to_owned(),
            "car".to_owned(),
            "cec".to_owned(),
        ]),
        1..5,
    )
}

/// ASCII text of 0 to 1,000 bytes from fragments of those patterns in
/// both cases, so matches land on chunk edges, across the bytes two lanes
/// share, and in the tail.
fn lane_text_strategy() -> impl Strategy<Value = String> {
    prop::collection::vec(
        prop::sample::select(vec![
            "race".to_owned(),
            "RACECAR".to_owned(),
            "aceca".to_owned(),
            "rAc".to_owned(),
            "e".to_owned(),
            "c".to_owned(),
            "xyz".to_owned(),
            "  ".to_owned(),
            "-------------".to_owned(),
        ]),
        0..200,
    )
    .prop_map(|fragments| {
        let mut text = fragments.concat();
        text.truncate(1_000);
        text
    })
}

proptest! {
    /// `match_ends` equals every end of every occurrence the naive scan
    /// finds, on texts short enough for one lane and long enough for
    /// four.
    #[test]
    fn match_ends_equals_the_naive_ends(
        patterns in lane_pattern_strategy(),
        text in lane_text_strategy(),
    ) {
        prop_assert_eq!(
            compiled(&patterns).match_ends(&text),
            Some(naive_match_ends(&patterns, &text)),
            "set {:?} in {} bytes {:?}", &patterns, text.len(), &text
        );
    }

    /// `match_ends` cannot answer for non-ASCII text, wherever its first
    /// non-ASCII byte sits, nor for a set holding the empty pattern.
    #[test]
    fn match_ends_declines_what_it_cannot_answer(
        patterns in lane_pattern_strategy(),
        text in lane_text_strategy(),
        at in 0usize..1_001,
    ) {
        let mut accented = text.clone();
        accented.insert(at.min(text.len()), '\u{e9}');
        prop_assert_eq!(compiled(&patterns).match_ends(&accented), None);
        let with_empty = [patterns, vec![String::new()]].concat();
        prop_assert_eq!(compiled(&with_empty).match_ends(&text), None);
    }
}

/// Long texts give every lane many chunks, so lane states carry across
/// chunk edges and a scan resumes mid-chunk after each match, as it does
/// over an archive's arena.
#[test]
fn match_ends_equals_the_naive_ends_over_long_texts() {
    let fragments = ["race", "RACECAR", "aceca", "rAc", "e", "c", "xyz", "  ", "-------------"];
    let patterns: Vec<String> = ["race", "racecar", "ace", "cec"].map(String::from).to_vec();
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    for len in [4_096, 20_000, 65_537] {
        let mut text = String::new();
        while text.len() < len {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            text.push_str(fragments[(state % fragments.len() as u64) as usize]);
        }
        let ends = compiled(&patterns).match_ends(&text);
        assert_eq!(ends, Some(naive_match_ends(&patterns, &text)), "{} bytes", text.len());
    }
}
