//! 64-bit FNV-1a, the one hash behind every digest the repo pins: run
//! fingerprints, the golden trace header, sweep merges, the metrics
//! registry and the flight recorder.
//!
//! Every digest is the plain byte-serial fold `h ← (h ⊕ b)·P` from the
//! offset basis; two identities of that step let most bytes skip it:
//!
//! * **A zero byte is one multiply.** `h ⊕ 0 = h`, so `k` zero bytes are
//!   `h·P^k`. [`Fnv::write_u64`] folds only a word's significant low bytes
//!   and multiplies through its zero high bytes with one power of `P`.
//! * **A fixed byte block is one multiply and one table read.** XOR with a
//!   byte touches only the low byte of `h`, and adding a multiple of 256
//!   never carries into it, so for `h = 256·H + l` the fold over a block
//!   `B` is `256·H·P^|B| + fold(l, B)`. A [`Block`] holds `P^|B|` and
//!   `fold(l, B)` for all 256 `l`, built at compile time.
//!
//! Both give the byte-serial digest bit for bit (`tests/fnv.rs` checks
//! them against it).

/// FNV-1a-64 offset basis: the state before any byte.
const OFFSET: u64 = 0xcbf29ce484222325;
/// FNV-1a-64 prime.
const PRIME: u64 = 0x100000001b3;

/// `PRIME^k` for `k = 0..=8`: the cost of a word's `k` zero high bytes.
const POW: [u64; 9] = {
    let mut pow = [1u64; 9];
    let mut acc = 1u64;
    let mut rest: &mut [u64] = &mut pow;
    while let Some((p, tail)) = rest.split_first_mut() {
        *p = acc;
        acc = acc.wrapping_mul(PRIME);
        rest = tail;
    }
    pow
};

/// The byte-serial fold of `words`' little-endian bytes from state `h`.
const fn fold_words(mut h: u64, mut words: &[u64]) -> u64 {
    while let Some((&w, rest)) = words.split_first() {
        let mut k = 0;
        while k < 8 {
            h = (h ^ ((w >> (8 * k)) & 0xff)).wrapping_mul(PRIME);
            k += 1;
        }
        words = rest;
    }
    h
}

/// A fixed run of bytes folded in one step: `P^len` and the fold of the
/// run from each of the 256 possible low bytes of the state.
#[derive(Debug)]
pub struct Block {
    pow: u64,
    tail: [u64; 256],
}

impl Block {
    /// The block of `words`' little-endian bytes, in order. Meant for a
    /// `static`, so the 256-entry table is built at compile time.
    pub const fn of_words(words: &[u64]) -> Block {
        let mut tail = [0u64; 256];
        let mut low = 0;
        let mut rest: &mut [u64] = &mut tail;
        while let Some((t, next)) = rest.split_first_mut() {
            *t = fold_words(low, words);
            low += 1;
            rest = next;
        }
        let mut pow = 1u64;
        let mut n = 0;
        while n < 8 * words.len() {
            pow = pow.wrapping_mul(PRIME);
            n += 1;
        }
        Block { pow, tail }
    }
}

/// Incremental FNV-1a-64.
#[derive(Debug)]
pub struct Fnv {
    h: u64,
}

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv::new()
    }
}

impl Fnv {
    /// A fresh digest (the offset basis).
    pub const fn new() -> Fnv {
        Fnv { h: OFFSET }
    }

    /// A digest resumed from state `h`.
    pub const fn from_state(h: u64) -> Fnv {
        Fnv { h }
    }

    /// Fold `x`'s 8 little-endian bytes: the significant low bytes one
    /// by one, the zero high bytes as one multiply.
    #[inline]
    pub fn write_u64(&mut self, x: u64) {
        let zeros = x.leading_zeros() / 8;
        let (mut h, mut v) = (self.h, x);
        for _ in zeros..8 {
            h = (h ^ (v & 0xff)).wrapping_mul(PRIME);
            v >>= 8;
        }
        // `zeros` <= 8, so the read never misses.
        self.h = h.wrapping_mul(POW.get(zeros as usize).copied().unwrap_or(0));
    }

    /// Fold `bytes` in order.
    pub fn bytes(&mut self, bytes: &[u8]) {
        let (words, rest) = bytes.as_chunks::<8>();
        for w in words {
            self.write_u64(u64::from_le_bytes(*w));
        }
        for &b in rest {
            self.h = (self.h ^ u64::from(b)).wrapping_mul(PRIME);
        }
    }

    /// Fold `block`'s bytes in one multiply and one table read.
    #[inline]
    pub fn block(&mut self, block: &Block) {
        // The index is the state's low byte, so the read never misses.
        let low = block
            .tail
            .get((self.h & 0xff) as usize)
            .copied()
            .unwrap_or(0);
        self.h = (self.h & !0xff).wrapping_mul(block.pow).wrapping_add(low);
    }

    /// The digest so far.
    pub const fn finish(&self) -> u64 {
        self.h
    }
}
