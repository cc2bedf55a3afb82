//! Differential property tests: the automaton agrees with the naive
//! lowercase-and-`contains` predicate on arbitrary text, with either
//! engine.

use faultstudy_textscan::PatternSetBuilder;
use proptest::prelude::*;

/// Pattern shapes drawn from the real scan set: short words, two-word
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

    /// At the engines' 64-byte boundary, `scan` and `scan_segments` equal
    /// the naive scan. The sets overlap heavily (`aa`/`aaa`, shared
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
