//! A small, fast, unkeyed hasher for dense ids.
//!
//! Every key the evaluation and provenance hot paths hash is a handful of
//! small integers: tuple ids, clause ids, symbols, argument slices of
//! constants. [`FxHasher`] folds each integer into the state with one
//! rotate, xor and multiply (the scheme of rustc's `FxHasher`), where the
//! standard library's SipHash-1-3 runs a keyed permutation per key. The
//! multiplier is odd, so dense ids map one-to-one onto the low bits that
//! `HashMap` uses to pick a bucket, while the high bits it keeps as a tag
//! are the well-mixed top of the product.
//!
//! The hasher is deliberately unkeyed, so a caller who controls the keys
//! can force collisions. That is no new exposure: the keys are the tuples
//! of a program the caller already runs, and evaluation of a hostile
//! program can be exponential anyway. The defence against such programs
//! is an evaluation budget, not hash randomisation.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// The odd multiplier of rustc's `FxHasher` (64-bit).
const K: u64 = 0x517c_c1b7_2722_0a95;

/// A multiply–rotate hasher for short integer keys. See the module docs.
#[derive(Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.add(u64::from_le_bytes(word.try_into().expect("8-byte chunk")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// Builds [`FxHasher`]s; the `S` parameter of the map and set aliases.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` hashed with [`FxHasher`]. Create it with
/// `FxHashMap::default()`.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` hashed with [`FxHasher`]. Create it with
/// `FxHashSet::default()`.
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Const;
    use std::hash::{BuildHasher, Hash};

    fn hash<T: Hash + ?Sized>(value: &T) -> u64 {
        FxBuildHasher::default().hash_one(value)
    }

    #[test]
    fn equal_keys_hash_equally_and_boxed_slices_match_borrowed_ones() {
        let args = [Const::Int(3), Const::Int(4)];
        let boxed: Box<[Const]> = args.to_vec().into_boxed_slice();
        assert_eq!(hash(&args[..]), hash(&*boxed));
        assert_eq!(hash(&7u32), hash(&7u32));
    }

    #[test]
    fn dense_ids_spread_over_the_low_bits() {
        // The bucket index is the low bits of the hash: a run of dense ids
        // fills every bucket once.
        let buckets: HashSet<u64> = (0u32..1024).map(|i| hash(&i) & 1023).collect();
        assert_eq!(buckets.len(), 1024);
        // Tuple argument keys of small ids spread too.
        let pairs: HashSet<u64> = (0..32i64)
            .flat_map(|a| (0..32i64).map(move |b| hash(&[Const::Int(a), Const::Int(b)][..]) & 1023))
            .collect();
        assert!(pairs.len() > 600, "{} distinct buckets", pairs.len());
    }

    #[test]
    fn byte_writes_cover_a_partial_last_word() {
        assert_ne!(hash("abcdefghi"), hash("abcdefghj"));
        assert_ne!(hash(&[1u8, 2, 3][..]), hash(&[1u8, 2, 4][..]));
    }
}
