//! Single-pass, allocation-free multi-pattern text scanning.
//!
//! The mining funnel's §4 keyword stage asks one question of every
//! report: *which of these fixed substrings occur in this text,
//! case-insensitively?* Answered naively that is one `to_lowercase`
//! allocation plus one `contains` traversal per pattern. This crate
//! compiles the patterns once into an [`Automaton`] and answers with a
//! single left-to-right pass over the text, ASCII case folding built into
//! its masks, which produces a [`HitSet`]: a fixed-size stack bitset
//! recording every pattern that occurs.
//!
//! The bytewise engine is a bit-parallel **Shift-And** loop over one
//! `u64`: one `lea` and one `and` per byte. It holds a set whose
//! non-empty patterns' bytes, plus one spacer bit between each two, total
//! at most 64 (the §4 keyword query takes 28), and scans ASCII text with
//! **zero heap allocations**. Every other set, and all non-ASCII text,
//! takes the naive path.
//!
//! For one long text, such as a whole archive's arena,
//! [`Automaton::match_ends`] runs the Shift-And engine as four
//! interleaved lanes and returns where each occurrence ends, so a caller
//! can find the few rows that hold a match without scanning row by row.
//!
//! Byte-identical semantics with the naive implementation are preserved:
//!
//! - A pattern is "hit" exactly when `text.to_lowercase()` contains the
//!   Unicode-lowercased pattern, the same predicate the naive scans use.
//! - Non-ASCII text (or a non-ASCII pattern set) cannot be case folded
//!   bytewise, so [`Automaton::scan`] transparently falls back to the
//!   naive lowercase-and-`contains` path for that input. The fast path
//!   covers every ASCII input to a Shift-And set, which is all of the
//!   paper's corpora.
//!
//! # Example
//!
//! ```
//! use faultstudy_textscan::PatternSetBuilder;
//!
//! let mut b = PatternSetBuilder::new();
//! let crash = b.add("crash");
//! let race = b.add("race condition");
//! let automaton = b.build();
//!
//! let hits = automaton.scan("Server CRASHED under load");
//! assert!(hits.contains(crash));
//! assert!(!hits.contains(race));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Identifier of one pattern inside an [`Automaton`], assigned by
/// [`PatternSetBuilder::add`] in insertion order (duplicates collapse onto
/// the first id).
pub type PatternId = u16;

/// Number of 64-bit words in a [`HitSet`].
const WORDS: usize = 4;

/// Maximum number of distinct patterns one automaton can hold: the
/// [`HitSet`] capacity. Sets past Shift-And's 64 bits hold at most this
/// many and take the naive path.
pub const MAX_PATTERNS: usize = WORDS * 64;

/// The byte alphabet the Shift-And masks cover. Patterns are ASCII, but
/// every byte value has a mask, so the scan loop needs no per-byte range
/// or case check: an uppercase byte's mask equals its lowercase twin's,
/// and a non-ASCII byte's mask is empty.
const ALPHABET: usize = 256;

/// A fixed-capacity bitset of pattern hits — `Copy`, stack-allocated, and
/// therefore free to create per report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HitSet {
    words: [u64; WORDS],
}

impl HitSet {
    /// The empty set.
    pub const EMPTY: HitSet = HitSet { words: [0; WORDS] };

    /// Marks `id` as hit.
    pub(crate) fn insert(&mut self, id: PatternId) {
        self.words[usize::from(id) / 64] |= 1 << (usize::from(id) % 64);
    }

    /// Whether `id` was hit.
    pub fn contains(&self, id: PatternId) -> bool {
        self.words[usize::from(id) / 64] & (1 << (usize::from(id) % 64)) != 0
    }

    /// Unions `other` into `self`.
    pub(crate) fn or_assign(&mut self, other: &HitSet) {
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w |= o;
        }
    }

    /// Whether no pattern was hit.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|w| *w == 0)
    }
}

/// Collects patterns (deduplicated, case folded) and compiles them into an
/// [`Automaton`].
#[derive(Debug, Default)]
pub struct PatternSetBuilder {
    patterns: Vec<String>,
}

impl PatternSetBuilder {
    /// An empty builder.
    pub fn new() -> PatternSetBuilder {
        PatternSetBuilder::default()
    }

    /// Registers `pattern` (stored Unicode-lowercased, matching the naive
    /// scans' case folding) and returns its id. Adding the same pattern
    /// twice returns the first id.
    ///
    /// # Panics
    ///
    /// Panics if the set would exceed [`MAX_PATTERNS`].
    pub fn add(&mut self, pattern: &str) -> PatternId {
        let lowered = pattern.to_lowercase();
        if let Some(pos) = self.patterns.iter().position(|p| *p == lowered) {
            return pos as PatternId;
        }
        assert!(self.patterns.len() < MAX_PATTERNS, "pattern set exceeds {MAX_PATTERNS} patterns");
        self.patterns.push(lowered);
        (self.patterns.len() - 1) as PatternId
    }

    /// Compiles the collected patterns.
    pub fn build(self) -> Automaton {
        Automaton::compile(self.patterns)
    }
}

/// A compiled multi-pattern matcher: one scan of the text reports every
/// registered pattern that occurs in it.
///
/// [`PatternSetBuilder::build`] compiles a non-empty, all-ASCII pattern
/// set whose non-empty patterns' bytes plus one spacer bit between each
/// two total at most 64 to **Shift-And** (Baeza-Yates & Gonnet, "A new
/// approach to text searching", CACM 1992): every pattern byte is one bit
/// of a `u64`, and each text byte costs one `lea` and one `and` on that
/// word. The §4 keyword query (25 bytes, 28 bits) takes this engine.
///
/// An empty, non-ASCII or larger pattern set takes the naive path, which
/// lowercases the text and runs one `contains` per pattern. Either way
/// the scan reports exactly the naive predicate's hits.
#[derive(Debug, Clone)]
pub struct Automaton {
    engine: Engine,
    /// The lowercased patterns, indexed by [`PatternId`]; retained for the
    /// naive path and introspection.
    patterns: Vec<String>,
}

/// The engine behind an [`Automaton`].
#[derive(Debug, Clone)]
enum Engine {
    /// An empty, non-ASCII or larger pattern set: every scan takes the
    /// naive path (an empty set trivially returns).
    Naive,
    /// A non-empty ASCII set whose non-empty patterns, with one spacer bit
    /// between each two, total at most [`SHIFT_AND_BITS`] bits.
    ShiftAnd(Box<ShiftAnd>),
}

/// Bit-parallel Shift-And over the concatenated non-empty patterns, one
/// spacer bit after each: bit `j` of the state word is set when the text
/// read so far ends with the first `j - start + 1` bytes of the pattern
/// occupying bits `start..`.
#[derive(Debug, Clone)]
struct ShiftAnd {
    /// `masks[b]` has bit `j` set when byte `b` equals, ASCII case folded,
    /// pattern byte `j`. Non-ASCII bytes have empty masks, and no mask sets
    /// a spacer bit.
    masks: [u64; ALPHABET],
    /// The first bit of every pattern: a match may begin at any byte.
    starts: u64,
    /// The last bit of every pattern: set in the state word when the
    /// pattern has just been read.
    ends: u64,
    /// `ids[j]` is the pattern whose last byte is bit `j` of `ends`.
    ids: [PatternId; SHIFT_AND_BITS],
    /// The empty patterns, which hit every scanned text.
    empty: HitSet,
    /// Bytes in the longest pattern: the state after a byte depends on
    /// that many bytes of text and no more.
    longest: usize,
}

/// Bits of the Shift-And state word: the non-empty patterns' bytes plus
/// one spacer between each two must fit.
const SHIFT_AND_BITS: usize = 64;

/// Text bytes each lane of [`Automaton::match_ends`] reads between two
/// ASCII checks: eight `u64` words.
const CHUNK: usize = 64;

/// Independent Shift-And state words [`Automaton::match_ends`] advances
/// side by side, each over its own piece of the text.
const LANES: usize = 4;

/// The high bit of every byte of a `u64`: set in a word's OR exactly when
/// one of its bytes is not ASCII.
const HIGH_BITS: u64 = 0x8080_8080_8080_8080;

/// Bits the Shift-And engine needs for `patterns`: every non-empty
/// pattern's bytes plus one spacer between each two.
fn shift_and_bits(patterns: &[String]) -> usize {
    patterns.iter().filter(|p| !p.is_empty()).map(|p| p.len() + 1).sum::<usize>().saturating_sub(1)
}

impl ShiftAnd {
    fn compile(patterns: &[String]) -> ShiftAnd {
        let mut engine = ShiftAnd {
            masks: [0; ALPHABET],
            starts: 0,
            ends: 0,
            ids: [0; SHIFT_AND_BITS],
            empty: HitSet::EMPTY,
            longest: 0,
        };
        let mut bit = 0;
        for (id, pattern) in patterns.iter().enumerate() {
            if pattern.is_empty() {
                engine.empty.insert(id as PatternId);
                continue;
            }
            engine.starts |= 1 << bit;
            for &b in pattern.as_bytes() {
                // Patterns are lowercase: the uppercase twin matches too.
                engine.masks[usize::from(b)] |= 1 << bit;
                engine.masks[usize::from(b.to_ascii_uppercase())] |= 1 << bit;
                bit += 1;
            }
            engine.ends |= 1 << (bit - 1);
            engine.ids[bit - 1] = id as PatternId;
            engine.longest = engine.longest.max(pattern.len());
            // The spacer: no mask sets it, so the carry out of the
            // pattern's last bit dies there.
            bit += 1;
        }
        engine
    }

    /// One byte of the scan. State words never hold a spacer bit, so
    /// `state << 1` never meets a pattern's first bit, and the add equals
    /// an or without a carry: one `lea` and one `and` on the dependent
    /// chain.
    #[inline(always)]
    fn step(&self, state: u64, byte: u8) -> u64 {
        ((state << 1) + self.starts) & self.masks[usize::from(byte)]
    }

    /// Unions the patterns occurring in `text` into `hits`, or returns
    /// false, touching nothing, when `text` is not ASCII. The ASCII check
    /// rides in the scan loop: a non-ASCII byte has an empty mask, so the
    /// state words it leaves are discarded with the rest of the scan.
    fn scan_into(&self, hits: &mut HitSet, text: &str) -> bool {
        let mut state = 0u64;
        let mut seen = 0u64;
        let mut high = 0u8;
        for &b in text.as_bytes() {
            state = self.step(state, b);
            seen |= state;
            high |= b;
        }
        if !high.is_ascii() {
            return false;
        }
        hits.or_assign(&self.empty);
        let mut ended = seen & self.ends;
        while ended != 0 {
            hits.insert(self.ids[ended.trailing_zeros() as usize]);
            ended &= ended - 1;
        }
        true
    }

    /// Every end of a pattern occurrence in `text`, or `None` when `text`
    /// is not ASCII. See [`Automaton::match_ends`].
    fn match_ends(&self, text: &[u8]) -> Option<Vec<usize>> {
        let mut ends = Vec::new();
        // Lane `l` reads `chunks` whole chunks from `l * stride`. It owns
        // the bytes from where lane `l - 1` stops on, and starts `warmup`
        // bytes before them, so its state is exact on every byte it owns.
        // The last lane then runs on alone to the end of the text.
        let warmup = self.longest - 1;
        let chunks = (text.len() + (LANES - 1) * warmup) / (LANES * CHUNK);
        let stride = (chunks * CHUNK).saturating_sub(warmup);
        let mut lanes = Lanes { states: [0; LANES], chunk: 0, read: 0 };
        while self.run_lanes(text, stride, chunks, &mut lanes)? {
            for (lane, state) in lanes.states.iter().enumerate() {
                let end = lane * stride + lanes.chunk * CHUNK + lanes.read;
                if state & self.ends != 0 && (lane == 0 || end > lane * stride + warmup) {
                    ends.push(end);
                }
            }
        }
        let at = if chunks > 0 { (LANES - 1) * stride + chunks * CHUNK } else { 0 };
        let tail = &text[at..];
        if !tail.is_ascii() {
            return None;
        }
        let mut state = if chunks > 0 { lanes.states[LANES - 1] } else { 0 };
        for (i, &b) in tail.iter().enumerate() {
            state = self.step(state, b);
            if state & self.ends != 0 {
                ends.push(at + i + 1);
            }
        }
        // Each lane's ends are ascending, but the lanes interleave.
        ends.sort_unstable();
        Some(ends)
    }

    /// Steps every lane on from where `lanes` stands. Returns true as soon
    /// as some lane has just read a pattern's last byte, false once the
    /// lanes' chunks are done, and `None` at a chunk holding a non-ASCII
    /// byte. Never inlined: the loop makes no call, so its state words,
    /// pointers and masks all stay in registers.
    #[inline(never)]
    fn run_lanes(
        &self,
        text: &[u8],
        stride: usize,
        chunks: usize,
        lanes: &mut Lanes,
    ) -> Option<bool> {
        let mut states = lanes.states;
        if lanes.read == CHUNK {
            lanes.chunk += 1;
            lanes.read = 0;
        }
        while lanes.chunk < chunks {
            let pieces: [&[u8; CHUNK]; LANES] = std::array::from_fn(|lane| {
                let from = lane * stride + lanes.chunk * CHUNK;
                text[from..from + CHUNK].try_into().expect("a whole chunk")
            });
            if lanes.read == 0 && !pieces.iter().all(|piece| is_ascii(piece)) {
                return None;
            }
            for i in lanes.read..CHUNK {
                for (state, piece) in states.iter_mut().zip(&pieces) {
                    *state = self.step(*state, piece[i]);
                }
                if states.iter().fold(0, |any, state| any | state) & self.ends != 0 {
                    lanes.states = states;
                    lanes.read = i + 1;
                    return Some(true);
                }
            }
            lanes.chunk += 1;
            lanes.read = 0;
        }
        lanes.states = states;
        Some(false)
    }
}

/// Where the lanes of [`ShiftAnd::match_ends`] stand: every lane is
/// `read` bytes into its chunk number `chunk`.
struct Lanes {
    states: [u64; LANES],
    chunk: usize,
    read: usize,
}

/// Whether the 64 bytes of `chunk` are ASCII, a word at a time.
fn is_ascii(chunk: &[u8; CHUNK]) -> bool {
    let words = chunk.chunks_exact(8).map(|w| u64::from_le_bytes(w.try_into().expect("8 bytes")));
    words.fold(0, |high, word| high | word) & HIGH_BITS == 0
}

impl Automaton {
    fn compile(patterns: Vec<String>) -> Automaton {
        let ascii = !patterns.is_empty() && patterns.iter().all(|p| p.is_ascii());
        let engine = if ascii && shift_and_bits(&patterns) <= SHIFT_AND_BITS {
            Engine::ShiftAnd(Box::new(ShiftAnd::compile(&patterns)))
        } else {
            Engine::Naive
        };
        Automaton { engine, patterns }
    }

    /// Scans `text` once and returns the set of patterns occurring in it.
    pub fn scan(&self, text: &str) -> HitSet {
        let mut hits = HitSet::EMPTY;
        self.scan_into(&mut hits, text);
        hits
    }

    /// Every byte offset in `text` at which an occurrence of a pattern
    /// ends (the offset just past its last byte), ascending and without
    /// repeats: the ends of every occurrence, overlapping ones included,
    /// that the naive lowercase-and-`contains` predicate sees.
    ///
    /// Built for long texts such as a whole archive's arena: the scan
    /// advances four Shift-And state words side by side, each over its
    /// own quarter of the text, so the CPU overlaps their dependent
    /// chains. Each lane starts as many bytes before its quarter as the
    /// longest pattern has minus one, so every end falls in exactly one
    /// lane's own bytes; text is read in 64-byte chunks, each checked
    /// for ASCII a word at a time.
    ///
    /// Returns `None` when it cannot answer bytewise: `text` is not ASCII,
    /// the set takes the naive path (it is empty, non-ASCII, or too
    /// large), or it holds the empty pattern, which ends everywhere.
    /// Allocates only the returned vector.
    ///
    /// ```
    /// use faultstudy_textscan::PatternSetBuilder;
    ///
    /// let mut b = PatternSetBuilder::new();
    /// b.add("race");
    /// b.add("ace");
    /// let automaton = b.build();
    /// assert_eq!(automaton.match_ends("a RACE, a race"), Some(vec![6, 14]));
    /// assert_eq!(automaton.match_ends("caf\u{e9} race"), None);
    /// ```
    pub fn match_ends(&self, text: &str) -> Option<Vec<usize>> {
        match &self.engine {
            Engine::ShiftAnd(engine) if engine.empty.is_empty() => {
                engine.match_ends(text.as_bytes())
            }
            _ => None,
        }
    }

    /// Scans several independent text segments (e.g. the fields of a bug
    /// report), accumulating hits across all of them. The engine state
    /// resets between segments, so no match spans a segment boundary —
    /// exactly the semantics of scanning fields joined by `'\n'` with
    /// patterns that contain no newline, which is how the naive scans
    /// consume `BugReport::full_text()`.
    pub fn scan_segments(&self, segments: &[&str]) -> HitSet {
        let mut hits = HitSet::EMPTY;
        let mut scanned_any = false;
        for segment in segments {
            if !segment.is_empty() {
                self.scan_into(&mut hits, segment);
                scanned_any = true;
            }
        }
        // Empty segments can be skipped except when *all* were empty: a
        // registered empty pattern still matches "" (as it matches any
        // scanned text), so run one empty scan to report it.
        if !scanned_any && !segments.is_empty() {
            self.scan_into(&mut hits, "");
        }
        hits
    }

    /// Unions the patterns occurring in `text` into `hits`.
    pub(crate) fn scan_into(&self, hits: &mut HitSet, text: &str) {
        let answered = match &self.engine {
            Engine::ShiftAnd(engine) => engine.scan_into(hits, text),
            // An empty set hits nothing; any other set here is non-ASCII
            // or too large for Shift-And.
            Engine::Naive => self.patterns.is_empty(),
        };
        if !answered {
            // Bytewise case folding would be wrong for non-ASCII text (e.g.
            // U+212A KELVIN SIGN lowercases to ASCII 'k'), and Shift-And
            // left `hits` untouched: scan the whole segment naively.
            self.scan_naive(hits, text);
        }
    }

    /// The reference path: one lowercase allocation plus one `contains`
    /// traversal per pattern. Used for non-ASCII input, where bytewise
    /// case folding would be wrong (e.g. U+212A KELVIN SIGN lowercases to
    /// ASCII `k`), and for every set Shift-And cannot hold.
    fn scan_naive(&self, hits: &mut HitSet, text: &str) {
        let lower = text.to_lowercase();
        for (id, pattern) in self.patterns.iter().enumerate() {
            if lower.contains(pattern.as_str()) {
                hits.insert(id as PatternId);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl HitSet {
        /// Number of patterns hit.
        fn len(&self) -> usize {
            self.words.iter().map(|w| w.count_ones() as usize).sum()
        }

        /// The set containing exactly `ids`.
        fn of(ids: &[PatternId]) -> HitSet {
            let mut set = HitSet::EMPTY;
            for &id in ids {
                set.insert(id);
            }
            set
        }
    }

    impl Automaton {
        /// Number of distinct patterns.
        fn pattern_count(&self) -> usize {
            self.patterns.len()
        }
    }

    /// `patterns` as the builder compiles them plus, when the builder
    /// picks Shift-And, the same set on the naive path, so each case below
    /// checks both paths that can hold the set.
    fn engines(patterns: &[&str]) -> Vec<(Automaton, Vec<PatternId>)> {
        let mut b = PatternSetBuilder::new();
        let ids: Vec<PatternId> = patterns.iter().map(|p| b.add(p)).collect();
        let built = b.build();
        let mut engines = Vec::new();
        if matches!(built.engine, Engine::ShiftAnd(_)) {
            let naive = Automaton { engine: Engine::Naive, patterns: built.patterns.clone() };
            engines.push((naive, ids.clone()));
        }
        engines.push((built, ids));
        engines
    }

    fn compiled(patterns: &[&str]) -> Automaton {
        let mut b = PatternSetBuilder::new();
        for p in patterns {
            b.add(p);
        }
        b.build()
    }

    #[test]
    fn single_pattern_basic_hits() {
        for (a, ids) in engines(&["crash"]) {
            assert!(a.scan("the server crashed").contains(ids[0]));
            assert!(a.scan("CRASH").contains(ids[0]));
            assert!(!a.scan("all fine").contains(ids[0]));
            assert!(!a.scan("").contains(ids[0]));
        }
    }

    #[test]
    fn overlapping_patterns_all_reported() {
        // "dns" is a suffix of "reverse dns"; "he" overlaps "she" and
        // "hers" shares its prefix — the classic Aho-Corasick example.
        for (a, ids) in engines(&["he", "she", "his", "hers"]) {
            let hits = a.scan("ushers");
            assert!(hits.contains(ids[0]), "he inside ushers");
            assert!(hits.contains(ids[1]), "she inside ushers");
            assert!(!hits.contains(ids[2]), "no his");
            assert!(hits.contains(ids[3]), "hers inside ushers");
            assert_eq!(hits.len(), 3);
        }

        for (a, ids) in engines(&["reverse dns", "dns"]) {
            let hits = a.scan("reverse dns lookup failed");
            assert!(hits.contains(ids[0]) && hits.contains(ids[1]));
            let hits = a.scan("plain dns lookup failed");
            assert!(!hits.contains(ids[0]) && hits.contains(ids[1]));
        }
    }

    #[test]
    fn pattern_at_end_of_text() {
        for (a, ids) in engines(&["full", "disk"]) {
            let hits = a.scan("the disk is full");
            assert!(hits.contains(ids[0]));
            assert!(hits.contains(ids[1]));
            // Exact-length text: the match consumes the final byte.
            assert!(a.scan("full").contains(ids[0]));
        }
    }

    #[test]
    fn empty_pattern_set_matches_nothing() {
        let a = PatternSetBuilder::new().build();
        assert_eq!(a.pattern_count(), 0);
        assert!(a.scan("any text at all").is_empty());
        assert!(a.scan("").is_empty());
        assert!(a.scan_segments(&["a", "b"]).is_empty());
    }

    #[test]
    fn empty_pattern_matches_everything() {
        for (a, ids) in engines(&["", "crash"]) {
            assert!(a.scan("").contains(ids[0]));
            assert!(a.scan("no keywords here").contains(ids[0]));
            let hits = a.scan("crash");
            assert!(hits.contains(ids[0]) && hits.contains(ids[1]));
        }
    }

    #[test]
    fn non_ascii_input_falls_back_to_naive() {
        for (a, ids) in engines(&["network", "crash"]) {
            // U+212A KELVIN SIGN Unicode-lowercases to ASCII 'k': the naive
            // predicate matches, so the fallback must too.
            let text = "networ\u{212A} trouble";
            assert!(text.to_lowercase().contains("network"));
            assert!(a.scan(text).contains(ids[0]));
            // Plain non-ASCII text with an ASCII match elsewhere.
            let hits = a.scan("caf\u{e9} server crash");
            assert!(hits.contains(ids[1]));
            assert!(!hits.contains(ids[0]));
        }
    }

    #[test]
    fn non_ascii_pattern_set_always_uses_naive_path() {
        for (a, ids) in engines(&["caf\u{e9}", "crash"]) {
            assert!(matches!(a.engine, Engine::Naive));
            assert!(a.scan("visit the CAF\u{c9}").contains(ids[0]));
            assert!(a.scan("plain ascii crash").contains(ids[1]));
            assert!(!a.scan("nothing relevant").contains(ids[0]));
        }
    }

    #[test]
    fn duplicate_patterns_collapse_to_one_id() {
        let mut b = PatternSetBuilder::new();
        let first = b.add("crash");
        let second = b.add("CRASH");
        assert_eq!(first, second);
        let a = b.build();
        assert_eq!(a.pattern_count(), 1);
    }

    #[test]
    fn segments_do_not_match_across_boundaries() {
        for (a, ids) in engines(&["race condition"]) {
            // Naive semantics: fields are joined by '\n', so "race" at the
            // end of the title and "condition" at the start of the body is
            // not a match.
            assert!(!a.scan_segments(&["ends in race", "condition starts"]).contains(ids[0]));
            assert!(a.scan_segments(&["fine", "a race condition here"]).contains(ids[0]));
        }
    }

    #[test]
    fn scan_matches_naive_on_the_lexicon_shapes() {
        let patterns =
            ["file system", "full", "race condition", "dns", "reverse dns", "no space left"];
        for (a, ids) in engines(&patterns) {
            for text in [
                "Full File System on /var",
                "a race condition between reverse dns lookups",
                "no space left on device",
                "perfectly healthy",
                "",
                "fulfil is not full-, wait, full",
            ] {
                let lower = text.to_lowercase();
                for (pattern, &id) in patterns.iter().zip(&ids) {
                    assert_eq!(
                        a.scan(text).contains(id),
                        lower.contains(pattern),
                        "{pattern:?} in {text:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn a_set_filling_64_bits_with_its_spacers_compiles_to_the_bit_engine() {
        // Seven 8-byte patterns and a 1-byte one take 57 bits, and the
        // seven spacers between them the other 7: the last pattern ends on
        // bit 63. An empty pattern takes no bit.
        let patterns = [
            "segfault", "deadlock", "overflow", "hostname", "too many", "timeouts", "datafile",
            "x", "",
        ];
        let a = compiled(&patterns);
        assert!(matches!(a.engine, Engine::ShiftAnd(_)));
        let hits = a.scan("the DATAFILE, X");
        assert_eq!(hits, HitSet::of(&[6, 7, 8]), "the last two patterns and the empty one");
    }

    #[test]
    fn one_bit_more_takes_the_naive_path() {
        let patterns = [
            "segfault", "deadlock", "overflow", "hostname", "too many", "timeouts", "datafile",
            "xy",
        ];
        let a = compiled(&patterns);
        assert!(matches!(a.engine, Engine::Naive));
        assert_eq!(a.scan("the DATAFILE, XY"), HitSet::of(&[6, 7]));
    }

    #[test]
    fn the_papers_keyword_query_compiles_to_the_bit_engine() {
        // The §4 MySQL search keywords: 25 bytes.
        let a = compiled(&["crash", "segmentation", "race", "died"]);
        assert!(matches!(a.engine, Engine::ShiftAnd(_)));
        assert_eq!(a.scan("Segmentation fault: the server DIED"), HitSet::of(&[1, 3]));
    }

    #[test]
    fn hitset_operations() {
        let mut h = HitSet::EMPTY;
        assert!(h.is_empty());
        assert_eq!(h.len(), 0);
        h.insert(0);
        h.insert(63);
        h.insert(64);
        h.insert(255);
        assert_eq!(h.len(), 4);
        assert!(h.contains(63) && h.contains(64) && h.contains(255));
        assert!(!h.contains(1));
        let mut other = HitSet::EMPTY;
        other.insert(7);
        h.or_assign(&other);
        assert!(h.contains(7));
    }

    #[test]
    #[should_panic(expected = "pattern set exceeds")]
    fn capacity_overflow_panics() {
        let mut b = PatternSetBuilder::new();
        for i in 0..=MAX_PATTERNS {
            b.add(&format!("pattern-{i}"));
        }
    }
}
