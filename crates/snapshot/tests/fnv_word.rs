//! `Fnv1a::word` folds a word's high zero bytes into one multiply; it must
//! hash exactly what feeding the word's eight little-endian bytes one at a
//! time hashes, from any state.

use proptest::prelude::*;
use spam_snapshot::Fnv1a;

/// The words where the number of high zero bytes changes, or none are set.
const EDGES: [u64; 5] = [0, 1, 255, 256, u64::MAX];

/// A state reached by feeding `seed`'s bytes.
fn state(seed: u64) -> Fnv1a {
    let mut h = Fnv1a::default();
    h.bytes(&seed.to_le_bytes());
    h
}

/// `word` and the bytewise reference from the same state.
fn both(seed: u64, w: u64) -> (u64, u64) {
    let (mut folded, mut bytewise) = (state(seed), state(seed));
    folded.word(w);
    bytewise.bytes(&w.to_le_bytes());
    (folded.finish(), bytewise.finish())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Every edge word and one random word of a random bit length hash
    /// as their bytes do, from a random state and from the initial one.
    #[test]
    fn word_hashes_its_le_bytes(seed in any::<u64>(), bits in 0u32..64, random in any::<u64>()) {
        let short = random >> (63 - bits);
        for w in EDGES.into_iter().chain([short, random]) {
            let (folded, bytewise) = both(seed, w);
            prop_assert_eq!(folded, bytewise, "word {:#x} from state {:#x}", w, seed);
            let (mut a, mut b) = (Fnv1a::default(), Fnv1a::default());
            a.word(w);
            b.bytes(&w.to_le_bytes());
            prop_assert_eq!(a.finish(), b.finish());
        }
    }
}

/// Every bit length from 0 to 64, from one state, exhaustively.
#[test]
fn every_bit_length_hashes_its_le_bytes() {
    for bits in 0..=64u32 {
        let w = u64::MAX.checked_shr(64 - bits).unwrap_or(0);
        let (folded, bytewise) = both(0x9E37_79B9_7F4A_7C15, w);
        assert_eq!(folded, bytewise, "{bits} bits");
    }
}
