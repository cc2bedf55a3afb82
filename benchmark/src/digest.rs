//! A stable 64-bit digest of report bytes.
//!
//! FNV-1a is used instead of the standard hasher because its output is
//! fixed by definition: two builds, two toolchains or two hosts print the
//! same digest for the same bytes, which is what lets a performance change
//! show that its output is byte-identical to its parent's.

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over the concatenation of `parts`, with each part's length
/// folded in first so that part boundaries matter.
pub fn fnv1a(parts: &[&[u8]]) -> u64 {
    let mut hash = OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(PRIME);
        }
    };
    for part in parts {
        eat(&(part.len() as u64).to_le_bytes());
        eat(part);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_fixed_and_boundary_sensitive() {
        assert_eq!(fnv1a(&[]), OFFSET);
        assert_eq!(fnv1a(&[b"ab"]), fnv1a(&[b"ab"]));
        assert_ne!(fnv1a(&[b"ab", b"c"]), fnv1a(&[b"a", b"bc"]));
    }
}
