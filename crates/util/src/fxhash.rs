//! FxHash: the rustc/Firefox multiply-rotate hash, for internal maps.
//!
//! `std`'s default SipHash is DoS-resistant but costs ~1ns/byte and
//! dominates profiles that hash millions of short strings — postings
//! dictionaries, graph label/property indexes. FxHash is a few
//! instructions per word and, unlike `RandomState`, deterministic
//! across processes, which keeps recovery behavior reproducible.
//!
//! Use it only for maps keyed by internal or already-bounded data; it
//! has no flooding protection.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` with the Fx hasher.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// `HashSet` with the Fx hasher.
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

/// Zero-sized `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// Creates an [`FxHashMap`] with room for `capacity` entries.
pub fn map_with_capacity<K, V>(capacity: usize) -> FxHashMap<K, V> {
    FxHashMap::with_capacity_and_hasher(capacity, FxBuildHasher::default())
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// One multiply and one rotate per word of input.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8 bytes")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            // Fold the length in so "ab" and "ab\0" differ.
            word[7] = rest.len() as u8;
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_behave_like_std() {
        let mut m: FxHashMap<String, usize> = FxHashMap::default();
        for i in 0..1000 {
            m.insert(format!("key-{i}"), i);
        }
        assert_eq!(m.len(), 1000);
        for i in 0..1000 {
            assert_eq!(m.get(&format!("key-{i}")), Some(&i));
        }
        assert_eq!(m.get("key-1000"), None);
    }

    #[test]
    fn deterministic_across_hashers() {
        use std::hash::BuildHasher;
        let build = FxBuildHasher::default();
        let hash = |s: &str| build.hash_one(s);
        assert_eq!(hash("fever"), hash("fever"));
        assert_ne!(hash("fever"), hash("cough"));
        // Length folding distinguishes zero-padded tails.
        assert_ne!(hash("ab"), hash("ab\0"));
    }

    #[test]
    fn set_deduplicates() {
        let mut s: FxHashSet<u64> = FxHashSet::default();
        assert!(s.insert(7));
        assert!(!s.insert(7));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn with_capacity_helper() {
        let m: FxHashMap<u32, u32> = map_with_capacity(64);
        assert!(m.capacity() >= 64);
    }
}
