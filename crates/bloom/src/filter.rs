//! The classic Bloom filter (Bloom, 1970) with double hashing.

use crate::hash::{BloomKey, KeyFingerprint, ProbeSequence};
use crate::math;

/// A standard Bloom filter over `m` bits with `k` hash functions.
///
/// Supports insertion and membership tests; never yields false
/// negatives, and yields false positives with a probability governed by
/// Equation 1 of the paper. Filters are deterministic given the seed.
///
/// ```
/// use bftree_bloom::BloomFilter;
///
/// let mut bf = BloomFilter::with_capacity(1_000, 0.01, 0);
/// bf.insert(&42u64);
/// assert!(bf.contains(&42u64));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BloomFilter {
    bits: Vec<u64>,
    m: u64,
    k: u32,
    seed: u64,
    n_inserted: u64,
}

impl BloomFilter {
    /// Create a filter with exactly `m_bits` bits and `k` hash
    /// functions. `m_bits` is rounded up to a multiple of 64.
    pub fn new(m_bits: u64, k: u32, seed: u64) -> Self {
        assert!(m_bits > 0, "filter must have at least one bit");
        assert!(k > 0, "filter needs at least one hash function");
        let words = m_bits.div_ceil(64) as usize;
        Self {
            bits: vec![0u64; words],
            m: words as u64 * 64,
            k,
            seed,
            n_inserted: 0,
        }
    }

    /// Create a filter sized for `n` keys at false-positive probability
    /// `p` with the optimal number of hash functions (Equation 1).
    pub fn with_capacity(n: u64, p: f64, seed: u64) -> Self {
        let m = math::bits_for(n.max(1), p).max(64);
        let k = math::optimal_k(m, n.max(1));
        Self::new(m, k, seed)
    }

    /// Number of bits `m`.
    #[inline]
    pub fn m_bits(&self) -> u64 {
        self.m
    }

    /// Number of hash functions `k`.
    #[inline]
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Hash seed.
    #[inline]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of insert operations performed (duplicates count).
    #[inline]
    pub fn n_inserted(&self) -> u64 {
        self.n_inserted
    }

    #[inline]
    fn set_bit(&mut self, bit: u64) {
        self.bits[(bit / 64) as usize] |= 1u64 << (bit % 64);
    }

    #[inline]
    fn get_bit(&self, bit: u64) -> bool {
        self.bits[(bit / 64) as usize] & (1u64 << (bit % 64)) != 0
    }

    /// Insert `key`.
    #[inline]
    pub fn insert<K: BloomKey>(&mut self, key: &K) {
        self.insert_fingerprint(KeyFingerprint::new(key, self.seed));
    }

    /// Insert a precomputed fingerprint (lets callers hash once and
    /// probe many filters, as BF-leaves do).
    #[inline]
    pub fn insert_fingerprint(&mut self, fp: KeyFingerprint) {
        for i in 0..self.k {
            self.set_bit(fp.probe(i, self.m));
        }
        self.n_inserted += 1;
    }

    /// Membership test for `key`.
    #[inline]
    pub fn contains<K: BloomKey>(&self, key: &K) -> bool {
        self.contains_fingerprint(KeyFingerprint::new(key, self.seed))
    }

    /// Membership test for a precomputed fingerprint.
    #[inline]
    pub fn contains_fingerprint(&self, fp: KeyFingerprint) -> bool {
        for i in 0..self.k {
            if !self.get_bit(fp.probe(i, self.m)) {
                return false;
            }
        }
        true
    }

    /// Probe positions a key maps to (exposed for the counting /
    /// deletable variants and for tests).
    pub fn probes<K: BloomKey>(&self, key: &K) -> ProbeSequence {
        ProbeSequence::new(KeyFingerprint::new(key, self.seed), self.m, self.k)
    }

    /// Number of set bits.
    pub fn ones(&self) -> u64 {
        self.bits.iter().map(|w| u64::from(w.count_ones())).sum()
    }

    /// Fraction of bits set.
    pub fn fill_ratio(&self) -> f64 {
        self.ones() as f64 / self.m as f64
    }

    /// Expected false-positive rate given the current fill ratio:
    /// `fill^k`. This tracks the *actual* state of the filter, so it
    /// reflects insert-driven degradation (Figure 14).
    pub fn current_fpp(&self) -> f64 {
        self.fill_ratio().powi(self.k as i32)
    }

    /// True if no bit is set.
    pub fn is_empty(&self) -> bool {
        self.bits.iter().all(|&w| w == 0)
    }

    /// Clear all bits and reset the insert counter.
    pub fn clear(&mut self) {
        self.bits.fill(0);
        self.n_inserted = 0;
    }

    /// Serialize the filter into a byte buffer:
    /// `[m: u64][k: u32][seed: u64][n: u64][bits...]` (little endian).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(28 + self.bits.len() * 8);
        out.extend_from_slice(&self.m.to_le_bytes());
        out.extend_from_slice(&self.k.to_le_bytes());
        out.extend_from_slice(&self.seed.to_le_bytes());
        out.extend_from_slice(&self.n_inserted.to_le_bytes());
        for w in &self.bits {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out
    }

    /// Deserialize a filter previously written by [`Self::to_bytes`].
    pub fn from_bytes(data: &[u8]) -> Option<Self> {
        if data.len() < 28 {
            return None;
        }
        let m = u64::from_le_bytes(data[0..8].try_into().ok()?);
        let k = u32::from_le_bytes(data[8..12].try_into().ok()?);
        let seed = u64::from_le_bytes(data[12..20].try_into().ok()?);
        let n = u64::from_le_bytes(data[20..28].try_into().ok()?);
        let words = (m / 64) as usize;
        if data.len() < 28 + words * 8 || m % 64 != 0 || k == 0 {
            return None;
        }
        let bits = data[28..28 + words * 8]
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
            .collect();
        Some(Self {
            bits,
            m,
            k,
            seed,
            n_inserted: n,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_false_negatives() {
        let mut bf = BloomFilter::with_capacity(10_000, 0.01, 3);
        for key in 0u64..10_000 {
            bf.insert(&key);
        }
        for key in 0u64..10_000 {
            assert!(bf.contains(&key), "false negative for {key}");
        }
    }

    #[test]
    fn empirical_fpp_close_to_design() {
        let p = 0.01;
        let n = 20_000u64;
        let mut bf = BloomFilter::with_capacity(n, p, 7);
        for key in 0..n {
            bf.insert(&key);
        }
        let trials = 100_000u64;
        let fps = (n..n + trials).filter(|k| bf.contains(k)).count();
        let measured = fps as f64 / trials as f64;
        assert!(
            measured < p * 1.5 && measured > p * 0.5,
            "measured fpp {measured}, designed {p}"
        );
    }

    #[test]
    fn fill_ratio_near_half_at_capacity() {
        // At design capacity with optimal k the fill ratio approaches 50%.
        let mut bf = BloomFilter::with_capacity(5_000, 1e-3, 0);
        for key in 0u64..5_000 {
            bf.insert(&key);
        }
        let fill = bf.fill_ratio();
        assert!((0.44..0.55).contains(&fill), "fill = {fill}");
    }

    #[test]
    fn serialization_roundtrip() {
        let mut bf = BloomFilter::new(1 << 14, 5, 99);
        for key in 0u64..1000 {
            bf.insert(&(key * 31));
        }
        let bytes = bf.to_bytes();
        let back = BloomFilter::from_bytes(&bytes).expect("deserialize");
        assert_eq!(bf, back);
    }

    #[test]
    fn from_bytes_rejects_truncation_and_garbage() {
        let bf = BloomFilter::new(4096, 3, 1);
        let bytes = bf.to_bytes();
        assert!(BloomFilter::from_bytes(&bytes[..10]).is_none());
        assert!(BloomFilter::from_bytes(&bytes[..bytes.len() - 1]).is_none());
        assert!(BloomFilter::from_bytes(&[]).is_none());
    }

    #[test]
    fn clear_empties_filter() {
        let mut bf = BloomFilter::new(256, 3, 0);
        bf.insert(&1u64);
        assert!(!bf.is_empty());
        bf.clear();
        assert!(bf.is_empty());
        assert_eq!(bf.n_inserted(), 0);
    }

    #[test]
    fn current_fpp_grows_with_inserts() {
        let mut bf = BloomFilter::with_capacity(1_000, 1e-4, 0);
        let mut last = bf.current_fpp();
        for chunk in 0..5 {
            for key in (chunk * 1000)..((chunk + 1) * 1000u64) {
                bf.insert(&key);
            }
            let now = bf.current_fpp();
            assert!(now > last);
            last = now;
        }
    }

    #[test]
    fn seeds_give_independent_filters() {
        let mut a = BloomFilter::new(1 << 12, 3, 1);
        let mut b = BloomFilter::new(1 << 12, 3, 2);
        for k in 0u64..200 {
            a.insert(&k);
            b.insert(&k);
        }
        assert_ne!(a.to_bytes(), b.to_bytes());
    }
}
