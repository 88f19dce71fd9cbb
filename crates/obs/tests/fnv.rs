//! The FNV-1a kernel against the byte-serial definition it shortcuts:
//! every entry point, from arbitrary start states, over words biased
//! toward the zero bytes and fixed blocks the shortcuts are about.

use lossless_obs::fnv::Block;
use lossless_obs::Fnv;
use proptest::prelude::*;

/// The definition: `h ← (h ⊕ b)·P` per byte.
fn serial(h: u64, bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes
        .into_iter()
        .fold(h, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100000001b3))
}

fn le_bytes(words: &[u64]) -> Vec<u8> {
    words.iter().flat_map(|w| w.to_le_bytes()).collect()
}

/// Words with many zero bytes: all-zero and all-ones words, small
/// values (zero high bytes), and words with random bytes cleared
/// (internal zero bytes).
fn word() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(0u64),
        Just(u64::MAX),
        0u64..256,
        0u64..1 << 20,
        (any::<u64>(), any::<u8>()).prop_map(|(x, keep)| {
            (0..8)
                .filter(|i| keep >> i & 1 == 1)
                .fold(0, |acc, i| acc | (x & 0xff << (8 * i)))
        }),
        any::<u64>(),
    ]
}

/// Start states, including ones whose low byte is 0 or 0xff.
fn state() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(Fnv::new().finish()),
        any::<u64>(),
        any::<u64>().prop_map(|h| h & !0xff),
        any::<u64>().prop_map(|h| h | 0xff),
        0u64..256,
    ]
}

#[test]
fn published_test_vectors() {
    for (input, digest) in [
        ("", 0xcbf29ce484222325u64),
        ("a", 0xaf63dc4c8601ec8c),
        ("foobar", 0x85944171f73967e8),
    ] {
        let mut f = Fnv::new();
        f.bytes(input.as_bytes());
        assert_eq!(f.finish(), digest, "{input:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn write_u64_is_the_serial_fold(h in state(), words in proptest::collection::vec(word(), 0..12)) {
        let mut f = Fnv::from_state(h);
        for &w in &words {
            f.write_u64(w);
        }
        prop_assert_eq!(f.finish(), serial(h, le_bytes(&words)));
    }

    #[test]
    fn bytes_is_the_serial_fold(h in state(), words in proptest::collection::vec(word(), 0..6), cut in 0usize..48) {
        let mut bytes = le_bytes(&words);
        bytes.truncate(cut);
        let mut f = Fnv::from_state(h);
        f.bytes(&bytes);
        prop_assert_eq!(f.finish(), serial(h, bytes.iter().copied()));
    }

    #[test]
    fn block_is_the_serial_fold(h in state(), words in proptest::collection::vec(word(), 0..8)) {
        let block = Block::of_words(&words);
        let mut f = Fnv::from_state(h);
        f.block(&block);
        prop_assert_eq!(f.finish(), serial(h, le_bytes(&words)));
    }

    #[test]
    fn entry_points_compose(h in state(), a in word(), tail in proptest::collection::vec(word(), 1..6), b in word()) {
        let block = Block::of_words(&tail);
        let mut f = Fnv::from_state(h);
        f.write_u64(a);
        f.block(&block);
        f.bytes(&b.to_le_bytes()[..3]);
        let mut bytes = le_bytes(&[a]);
        bytes.extend(le_bytes(&tail));
        bytes.extend(&b.to_le_bytes()[..3]);
        prop_assert_eq!(f.finish(), serial(h, bytes));
    }
}
