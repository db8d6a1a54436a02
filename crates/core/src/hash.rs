//! A fast, deterministic hasher for the simulator's hash maps.
//!
//! The highly associative tag arrays index their resident blocks by
//! [`BlockAddr`](crate::types::BlockAddr), and the compiler model keys
//! its register assignments by virtual register. `std`'s default SipHash
//! is keyed for HashDoS resistance the simulator does not need (all keys
//! come from the trace, not a network), and its setup cost dominates a
//! probe of a small map. This module provides the classic Fibonacci
//! multiply-xor construction instead: a couple of arithmetic instructions
//! per word, no per-map random state, identical across runs and machines.
//!
//! Determinism is a feature beyond speed: map iteration order becomes a
//! pure function of the insertion sequence, so replays and golden tests
//! can never diverge on hasher seeding.

// nbl-allow(determinism): this module builds the fixed-seed wrapper everyone else uses
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplier from the 64-bit Fibonacci hashing constant (2^64 / φ),
/// forced odd — the same diffusion constant splitmix64 derives from.
const K: u64 = 0x9e37_79b9_7f4a_7c15;

/// A multiply-xor hasher over 64-bit words. Not collision-resistant
/// against adversarial keys; the simulator only hashes block addresses,
/// set indices and destination ids it generated itself.
#[derive(Debug, Clone, Copy, Default)]
pub struct FastHasher {
    state: u64,
}

impl FastHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.state = (self.state.rotate_left(26) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        // Final avalanche so low-entropy keys (aligned addresses) spread
        // into the table-index bits HashMap actually uses.
        let mut h = self.state;
        h ^= h >> 32;
        h = h.wrapping_mul(K);
        h ^ (h >> 29)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            // nbl-allow(no-panic): chunks_exact(8) yields exactly 8-byte slices
            self.mix(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.mix(u64::from_le_bytes(tail) ^ (rest.len() as u64) << 56);
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.mix(u64::from(n));
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.mix(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.mix(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.mix(n as u64);
    }
}

/// Zero-state `BuildHasher`: every map hashes identically, every run.
pub type FastBuildHasher = BuildHasherDefault<FastHasher>;

/// A `HashMap` using [`FastHasher`] — drop-in for the hot-path maps.
/// `FastMap::default()` replaces `HashMap::new()` (the std constructor is
/// only defined for the SipHash build hasher).
// nbl-allow(determinism): std HashMap is deterministic under FastBuildHasher's zero seed
pub type FastMap<K, V> = HashMap<K, V, FastBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::BlockAddr;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: &T) -> u64 {
        FastBuildHasher::default().hash_one(v)
    }

    #[test]
    fn deterministic_across_builders() {
        for key in [0u64, 1, 0xdead_beef, u64::MAX] {
            assert_eq!(hash_of(&BlockAddr(key)), hash_of(&BlockAddr(key)));
        }
    }

    #[test]
    fn aligned_block_addresses_spread() {
        // Cache blocks differ only in low-ish bits; the table index uses
        // the hash's low bits, so nearby blocks must not collide there.
        let mut low_bits: Vec<u64> = (0..256u64).map(|b| hash_of(&b) & 0xff).collect();
        low_bits.sort_unstable();
        low_bits.dedup();
        assert!(
            low_bits.len() > 128,
            "sequential keys collapse to {} distinct low bytes",
            low_bits.len()
        );
    }

    #[test]
    fn map_behaves_like_std() {
        let mut m: FastMap<BlockAddr, u32> = FastMap::default();
        for b in 0..100u64 {
            m.insert(BlockAddr(b), b as u32);
        }
        assert_eq!(m.len(), 100);
        for b in 0..100u64 {
            assert_eq!(m.get(&BlockAddr(b)), Some(&(b as u32)));
        }
        assert_eq!(m.remove(&BlockAddr(50)), Some(50));
        assert!(!m.contains_key(&BlockAddr(50)));
    }

    #[test]
    fn byte_streams_include_length() {
        // Tail handling must distinguish [1] from [1, 0].
        let mut a = FastHasher::default();
        a.write(&[1]);
        let mut b = FastHasher::default();
        b.write(&[1, 0]);
        assert_ne!(a.finish(), b.finish());
    }
}
