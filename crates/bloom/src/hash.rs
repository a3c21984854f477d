//! From-scratch 64-bit hash functions used by every filter in this crate.
//!
//! Two independent families are provided:
//!
//! * [`xxh64`] — an implementation of the XXH64 algorithm, used as the
//!   primary hash.
//! * [`fnv1a64`] — seeded FNV-1a with a final avalanche, used as the
//!   secondary hash for double hashing.
//!
//! [`KeyFingerprint`] combines the two via the Kirsch–Mitzenmacher
//! construction `g_i(x) = h1(x) + i * h2(x)`, which the Bloom-filter
//! literature shows preserves the asymptotic false-positive behaviour
//! while needing only two real hash computations per key.

const PRIME64_1: u64 = 0x9E37_79B1_85EB_CA87;
const PRIME64_2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const PRIME64_3: u64 = 0x1656_67B1_9E37_79F9;
const PRIME64_4: u64 = 0x85EB_CA77_C2B2_AE63;
const PRIME64_5: u64 = 0x27D4_EB2F_1656_67C5;

#[inline]
fn xxh64_round(mut acc: u64, input: u64) -> u64 {
    acc = acc.wrapping_add(input.wrapping_mul(PRIME64_2));
    acc = acc.rotate_left(31);
    acc.wrapping_mul(PRIME64_1)
}

#[inline]
fn xxh64_merge_round(mut hash: u64, acc: u64) -> u64 {
    hash ^= xxh64_round(0, acc);
    hash.wrapping_mul(PRIME64_1).wrapping_add(PRIME64_4)
}

#[inline]
fn xxh64_avalanche(mut hash: u64) -> u64 {
    hash ^= hash >> 33;
    hash = hash.wrapping_mul(PRIME64_2);
    hash ^= hash >> 29;
    hash = hash.wrapping_mul(PRIME64_3);
    hash ^= hash >> 32;
    hash
}

#[inline]
fn read_u64(data: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(data[at..at + 8].try_into().expect("8 bytes"))
}

#[inline]
fn read_u32(data: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(data[at..at + 4].try_into().expect("4 bytes"))
}

/// XXH64 hash of `data` under `seed`.
///
/// Matches the canonical xxHash specification; the empty-input /
/// zero-seed vector `0xEF46DB3751D8E999` is asserted in the tests.
pub fn xxh64(data: &[u8], seed: u64) -> u64 {
    let len = data.len();
    let mut hash: u64;
    let mut at = 0usize;

    if len >= 32 {
        let mut v1 = seed.wrapping_add(PRIME64_1).wrapping_add(PRIME64_2);
        let mut v2 = seed.wrapping_add(PRIME64_2);
        let mut v3 = seed;
        let mut v4 = seed.wrapping_sub(PRIME64_1);
        while at + 32 <= len {
            v1 = xxh64_round(v1, read_u64(data, at));
            v2 = xxh64_round(v2, read_u64(data, at + 8));
            v3 = xxh64_round(v3, read_u64(data, at + 16));
            v4 = xxh64_round(v4, read_u64(data, at + 24));
            at += 32;
        }
        hash = v1
            .rotate_left(1)
            .wrapping_add(v2.rotate_left(7))
            .wrapping_add(v3.rotate_left(12))
            .wrapping_add(v4.rotate_left(18));
        hash = xxh64_merge_round(hash, v1);
        hash = xxh64_merge_round(hash, v2);
        hash = xxh64_merge_round(hash, v3);
        hash = xxh64_merge_round(hash, v4);
    } else {
        hash = seed.wrapping_add(PRIME64_5);
    }

    hash = hash.wrapping_add(len as u64);

    while at + 8 <= len {
        hash ^= xxh64_round(0, read_u64(data, at));
        hash = hash
            .rotate_left(27)
            .wrapping_mul(PRIME64_1)
            .wrapping_add(PRIME64_4);
        at += 8;
    }
    if at + 4 <= len {
        hash ^= u64::from(read_u32(data, at)).wrapping_mul(PRIME64_1);
        hash = hash
            .rotate_left(23)
            .wrapping_mul(PRIME64_2)
            .wrapping_add(PRIME64_3);
        at += 4;
    }
    while at < len {
        hash ^= u64::from(data[at]).wrapping_mul(PRIME64_5);
        hash = hash.rotate_left(11).wrapping_mul(PRIME64_1);
        at += 1;
    }

    xxh64_avalanche(hash)
}

/// Seeded FNV-1a over `data`, strengthened with a splitmix64-style
/// finalizer so that short integer keys avalanche well.
pub fn fnv1a64(data: &[u8], seed: u64) -> u64 {
    const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut hash = FNV_OFFSET ^ seed.wrapping_mul(PRIME64_1);
    for &byte in data {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    // splitmix64 finalizer
    hash = hash.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = hash;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A key that can be fed to the filters in this crate.
///
/// Keys are hashed via their little-endian byte representation, so
/// hashes are stable across platforms and process restarts.
pub trait BloomKey {
    /// Write the canonical byte representation into `buf` and return
    /// the number of bytes written. `buf` is at least 16 bytes.
    fn write_bytes(&self, buf: &mut [u8; 16]) -> usize;
}

impl BloomKey for u64 {
    #[inline]
    fn write_bytes(&self, buf: &mut [u8; 16]) -> usize {
        buf[..8].copy_from_slice(&self.to_le_bytes());
        8
    }
}

impl BloomKey for i64 {
    #[inline]
    fn write_bytes(&self, buf: &mut [u8; 16]) -> usize {
        buf[..8].copy_from_slice(&self.to_le_bytes());
        8
    }
}

impl BloomKey for u32 {
    #[inline]
    fn write_bytes(&self, buf: &mut [u8; 16]) -> usize {
        buf[..4].copy_from_slice(&self.to_le_bytes());
        4
    }
}

impl BloomKey for u128 {
    #[inline]
    fn write_bytes(&self, buf: &mut [u8; 16]) -> usize {
        buf.copy_from_slice(&self.to_le_bytes());
        16
    }
}

/// The two base hashes of a key, from which all `k` probe positions
/// are derived by double hashing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyFingerprint {
    h1: u64,
    h2: u64,
}

impl KeyFingerprint {
    /// Compute the fingerprint of `key` under `seed`.
    #[inline]
    pub fn new<K: BloomKey>(key: &K, seed: u64) -> Self {
        let mut buf = [0u8; 16];
        let len = key.write_bytes(&mut buf);
        Self::from_bytes(&buf[..len], seed)
    }

    /// Compute the fingerprint of raw `bytes` under `seed`.
    #[inline]
    pub fn from_bytes(bytes: &[u8], seed: u64) -> Self {
        let h1 = xxh64(bytes, seed);
        // Force h2 odd so that successive probes never collapse onto a
        // single bit even when m is a power of two.
        let h2 = fnv1a64(bytes, seed) | 1;
        Self { h1, h2 }
    }

    /// The `i`-th probe position modulo `m`.
    ///
    /// Kirsch–Mitzenmacher double hashing (`h1 + i·h2 mod m`) is *not*
    /// used directly: taken mod a small `m`, its positions depend only
    /// on `(h1 mod m, h2 mod m)`, so distinct keys collide on entire
    /// probe sets with probability ~`2/m²`. BF-leaves split a page's
    /// bits into one filter per data page — often under 100 bits each —
    /// where that floor (~10⁻³) dwarfs any target fpp below it. Mixing
    /// the combined 64-bit value through a finalizer before the modulo
    /// restores full 64-bit entropy per probe; whole-set collisions
    /// then require full `(h1, h2)` equality (~2⁻¹²⁸).
    #[inline]
    pub fn probe(&self, i: u32, m: u64) -> u64 {
        debug_assert!(m > 0);
        mix64(self.h1.wrapping_add(u64::from(i).wrapping_mul(self.h2))) % m
    }
}

/// `splitmix64` finalizer: a 64-bit bijection with strong avalanche.
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xxh64_empty_matches_reference_vector() {
        assert_eq!(xxh64(b"", 0), 0xEF46_DB37_51D8_E999);
    }

    #[test]
    fn xxh64_is_seed_sensitive() {
        let a = xxh64(b"bf-tree", 0);
        let b = xxh64(b"bf-tree", 1);
        assert_ne!(a, b);
    }

    #[test]
    fn xxh64_covers_all_length_classes() {
        // Exercise the <4, <8, <32 and >=32 byte paths; values must be
        // deterministic and pairwise distinct.
        let inputs: Vec<Vec<u8>> = vec![
            vec![1u8; 1],
            vec![2u8; 5],
            vec![3u8; 9],
            vec![4u8; 31],
            vec![5u8; 32],
            vec![6u8; 67],
        ];
        let hashes: Vec<u64> = inputs.iter().map(|v| xxh64(v, 7)).collect();
        for i in 0..hashes.len() {
            for j in (i + 1)..hashes.len() {
                assert_ne!(hashes[i], hashes[j], "inputs {i} and {j} collided");
            }
            assert_eq!(hashes[i], xxh64(&inputs[i], 7), "not deterministic");
        }
    }

    #[test]
    fn fnv_finalizer_avalanches_small_ints() {
        // Consecutive integers should not hash to consecutive values.
        let h0 = fnv1a64(&0u64.to_le_bytes(), 0);
        let h1 = fnv1a64(&1u64.to_le_bytes(), 0);
        let diff = (h0 ^ h1).count_ones();
        assert!(diff >= 16, "poor avalanche: {diff} differing bits");
    }

    #[test]
    fn fingerprint_h2_is_odd() {
        for key in 0u64..256 {
            let fp = KeyFingerprint::new(&key, 42);
            assert_eq!(fp.h2 & 1, 1);
        }
    }

    #[test]
    fn probe_sequence_yields_k_probes_in_range() {
        let fp = KeyFingerprint::new(&123u64, 9);
        let m = 1000;
        let probes: Vec<u64> = (0..7).map(|i| fp.probe(i, m)).collect();
        assert_eq!(probes.len(), 7);
        assert!(probes.iter().all(|&p| p < m));
    }

    #[test]
    fn probe_positions_spread_over_table() {
        // With m = 2^20 and 3 probes per key, 1000 distinct keys should
        // touch a large number of distinct bits.
        let m = 1 << 20;
        let mut seen = std::collections::HashSet::new();
        for key in 0u64..1000 {
            let fp = KeyFingerprint::new(&key, 1);
            seen.extend((0..3).map(|i| fp.probe(i, m)));
        }
        assert!(seen.len() > 2900, "only {} distinct bits", seen.len());
    }

    #[test]
    fn u32_and_u128_keys_hash() {
        let fp32 = KeyFingerprint::new(&7u32, 0);
        let fp128 = KeyFingerprint::new(&7u128, 0);
        // Different byte lengths must produce different fingerprints.
        assert_ne!(fp32, fp128);
    }
}
