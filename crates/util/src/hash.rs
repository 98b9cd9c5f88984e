//! 64-bit key hashing and the offset/tag decomposition of §3.1.
//!
//! The FASTER index addresses a bucket with the first `k` bits of the hash
//! (the *offset*) and disambiguates entries within the bucket with the next
//! 15 bits (the *tag*), raising the effective resolution to `k + 15` bits.
//! [`KeyHash`] packages a 64-bit hash value together with that decomposition
//! so the index and the store never disagree about which bits mean what.
//!
//! The hash function itself is a from-scratch implementation of the
//! xxHash64-style avalanche mixer: cheap (a handful of multiplies and shifts
//! per 8 bytes), statistically strong (passes the unit-level avalanche checks
//! below), and — critically for the index — with well-mixed *high* bits, since
//! the offset is taken from the top of the word.

/// Default number of tag bits, matching Fig 2 (15 bits + 1 tentative bit).
pub const DEFAULT_TAG_BITS: u8 = 15;

const PRIME64_1: u64 = 0x9E37_79B1_85EB_CA87;
const PRIME64_2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const PRIME64_3: u64 = 0x1656_67B1_9E37_79F9;
const PRIME64_4: u64 = 0x85EB_CA77_C2B2_AE63;
const PRIME64_5: u64 = 0x27D4_EB2F_1656_67C5;

/// Final avalanche: every input bit affects every output bit.
#[inline(always)]
fn avalanche(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(PRIME64_2);
    h ^= h >> 29;
    h = h.wrapping_mul(PRIME64_3);
    h ^= h >> 32;
    h
}

/// Hashes a single 64-bit word. This is the hot path for the paper's 8-byte
/// YCSB keys, so it is a straight-line sequence with no branches.
#[inline]
pub fn hash_u64(key: u64) -> u64 {
    let mut h = PRIME64_5.wrapping_add(8);
    let k = key.wrapping_mul(PRIME64_2).rotate_left(31).wrapping_mul(PRIME64_1);
    h ^= k;
    h = h.rotate_left(27).wrapping_mul(PRIME64_1).wrapping_add(PRIME64_4);
    avalanche(h)
}

/// Hashes an arbitrary byte slice (used for variable-length keys).
#[inline]
pub fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut h = PRIME64_5.wrapping_add(bytes.len() as u64);
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let k = u64::from_le_bytes(c.try_into().expect("chunk of 8"));
        let k = k.wrapping_mul(PRIME64_2).rotate_left(31).wrapping_mul(PRIME64_1);
        h ^= k;
        h = h.rotate_left(27).wrapping_mul(PRIME64_1).wrapping_add(PRIME64_4);
    }
    for &b in chunks.remainder() {
        h ^= (b as u64).wrapping_mul(PRIME64_5);
        h = h.rotate_left(11).wrapping_mul(PRIME64_1);
    }
    avalanche(h)
}

/// A 64-bit key hash plus the §3.1 offset/tag views over it.
///
/// The *offset* (bucket index) is taken from the **high** bits and the *tag*
/// from the bits immediately below it, so that growing the index by one bit
/// (Appendix B resizing) splits every bucket into exactly two child buckets —
/// the property the chunked-split algorithm relies on.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct KeyHash(pub u64);

impl KeyHash {
    /// Wraps a raw 64-bit hash value.
    #[inline]
    pub const fn new(h: u64) -> Self {
        Self(h)
    }

    /// Computes the hash of a 64-bit key.
    #[inline]
    pub fn of_u64(key: u64) -> Self {
        Self(hash_u64(key))
    }

    /// Computes the hash of any fixed-size POD key from its byte image. This
    /// is the canonical key→hash mapping for the store: every component that
    /// hashes a key (scalar ops, batched ops, recovery) must agree with it.
    #[inline]
    pub fn of_pod<K: crate::pod::Pod>(key: &K) -> Self {
        Self(hash_bytes(crate::pod::bytes_of(key)))
    }

    /// The bucket index in a table of `2^k_bits` buckets: top `k_bits` bits.
    #[inline]
    pub fn bucket_index(self, k_bits: u8) -> usize {
        debug_assert!(k_bits as u32 <= 63);
        if k_bits == 0 {
            0
        } else {
            (self.0 >> (64 - k_bits)) as usize
        }
    }

    /// The tag used inside the bucket entry: `tag_bits` bits right below the
    /// offset bits. Returns 0 when `tag_bits == 0` (tags disabled — the
    /// §7.2.2 "0-bit tag" configuration).
    #[inline]
    pub fn tag(self, k_bits: u8, tag_bits: u8) -> u16 {
        debug_assert!(tag_bits <= 15, "entry format reserves 15 bits for the tag");
        if tag_bits == 0 {
            return 0;
        }
        let shift = 64 - k_bits as u32 - tag_bits as u32;
        ((self.0 >> shift) as u16) & ((1u16 << tag_bits) - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn hash_is_deterministic_and_spread() {
        assert_eq!(hash_u64(42), hash_u64(42));
        assert_ne!(hash_u64(42), hash_u64(43));
        let set: HashSet<u64> = (0..10_000u64).map(hash_u64).collect();
        assert_eq!(set.len(), 10_000, "no collisions on small sequential keys");
    }

    #[test]
    fn avalanche_quality_high_bits() {
        // Flipping one input bit should flip ~half the output bits; the index
        // uses the *high* bits, so specifically check they move.
        let mut total = 0u32;
        for i in 0..64 {
            let a = hash_u64(0xDEAD_BEEF);
            let b = hash_u64(0xDEAD_BEEF ^ (1 << i));
            let diff = (a ^ b).count_ones();
            assert!(diff >= 16, "bit {i} produced weak diffusion: {diff}");
            assert!((a ^ b) >> 48 != 0, "high bits unaffected by input bit {i}");
            total += diff;
        }
        let avg = total as f64 / 64.0;
        assert!((24.0..40.0).contains(&avg), "avg flipped bits {avg}");
    }

    #[test]
    fn bytes_hash_matches_width() {
        assert_ne!(hash_bytes(b"abc"), hash_bytes(b"abd"));
        assert_ne!(hash_bytes(b"abc"), hash_bytes(b"abcd"));
        assert_eq!(hash_bytes(b""), hash_bytes(b""));
        // 8-byte slices and hash_u64 need not agree, but must both be stable.
        let k = 0x0102_0304_0506_0708u64;
        assert_eq!(hash_bytes(&k.to_le_bytes()), hash_bytes(&k.to_le_bytes()));
    }

    #[test]
    fn offset_tag_decomposition() {
        let h = KeyHash::new(0xFFFF_0000_0000_0000);
        assert_eq!(h.bucket_index(16), 0xFFFF);
        assert_eq!(h.tag(16, 15), 0);
        let h = KeyHash::new(0x0000_FFFE_0000_0000);
        assert_eq!(h.bucket_index(16), 0);
        // bits 47..33 (15 bits below the 16 offset bits)
        assert_eq!(h.tag(16, 15), 0x7FFF);
        // zero tag bits always yields tag 0
        assert_eq!(h.tag(16, 0), 0);
    }

    #[test]
    fn bucket_index_bounds() {
        for k in [1u8, 4, 8, 20] {
            for key in 0..1000u64 {
                let h = KeyHash::of_u64(key);
                assert!(h.bucket_index(k) < (1usize << k));
                assert!(h.tag(k, 15) <= 0x7FFF);
                assert!(h.tag(k, 4) <= 0xF);
                assert!(h.tag(k, 1) <= 1);
            }
        }
    }

    #[test]
    fn k_bits_zero_single_bucket() {
        assert_eq!(KeyHash::of_u64(123).bucket_index(0), 0);
    }
}
