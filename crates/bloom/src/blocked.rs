//! Cache-line-blocked Bloom filters (Putze, Sanders & Singler,
//! "Cache-, Hash- and Space-Efficient Bloom Filters", WEA 2007).
//!
//! A standard Bloom filter pays up to `k` cache misses per membership
//! test: its `k` probe positions scatter over the whole bit array. The
//! blocked variant spends the *first* hash choosing one 512-bit
//! (cache-line-sized) block and keeps the remaining probes inside it,
//! so a test touches exactly one cache line. The price is accuracy:
//! keys Poisson-distribute over blocks, and overloaded blocks run a
//! locally higher false-positive rate — [`crate::math::blocked_fpp`]
//! quantifies the penalty analytically, and the seeded measurement
//! tests pin the implementation against it.

use crate::hash::{BloomKey, KeyFingerprint};
use crate::math;

/// Bits per block: one 64-byte cache line.
pub const BLOCK_BITS: u64 = 512;

/// How a filter (or each member of a [`crate::BloomGroup`]) lays its
/// probe positions out in memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FilterLayout {
    /// All `k` probes range over the whole bit array (Bloom 1970).
    /// Best accuracy; up to `k` cache misses per test.
    #[default]
    Standard,
    /// The first hash selects one [`BLOCK_BITS`]-bit block, the
    /// remaining probes stay inside it: one cache miss per test, at
    /// the fpp penalty of [`crate::math::blocked_fpp`]. Regions no
    /// larger than one block behave identically to [`Self::Standard`].
    Blocked,
}

impl FilterLayout {
    /// Stable lowercase label ("standard" / "blocked") for reports.
    pub fn label(self) -> &'static str {
        match self {
            FilterLayout::Standard => "standard",
            FilterLayout::Blocked => "blocked",
        }
    }

    /// Probe geometry for a bit region of `m` bits: the offset of the
    /// selected block within the region and the modulus the `k` probe
    /// positions range over. [`FilterLayout::Standard`] (and any
    /// region that fits one block) uses the whole region.
    #[inline]
    pub fn probe_window(self, fp: &KeyFingerprint, m: u64) -> (u64, u64) {
        match self {
            FilterLayout::Standard => (0, m),
            FilterLayout::Blocked => {
                let n_blocks = m.div_ceil(BLOCK_BITS);
                if n_blocks <= 1 {
                    (0, m)
                } else {
                    let start = fp.block(n_blocks) * BLOCK_BITS;
                    (start, (m - start).min(BLOCK_BITS))
                }
            }
        }
    }
}

/// A register-blocked Bloom filter over `m` bits: every key's `k`
/// probes land in one 512-bit block.
///
/// Same construction surface as [`crate::BloomFilter`] — geometry
/// (`m`, `k`, seed) plus inserts determine the bits exactly.
///
/// ```
/// use bftree_bloom::BlockedBloomFilter;
///
/// let mut bf = BlockedBloomFilter::with_capacity(1_000, 0.01, 0);
/// bf.insert(&42u64);
/// assert!(bf.contains(&42u64));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockedBloomFilter {
    bits: Vec<u64>,
    m: u64,
    k: u32,
    seed: u64,
    n_inserted: u64,
}

impl BlockedBloomFilter {
    /// Create a filter with `m_bits` bits (rounded up to a multiple of
    /// 64) and `k` hash functions.
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

    /// Create a filter sized for `n` keys at *standard-layout*
    /// false-positive probability `p` with the optimal `k`. The
    /// realized rate is the slightly larger
    /// [`math::blocked_fpp`]`(m, 512, k, n)`.
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

    /// Insert a precomputed fingerprint.
    pub fn insert_fingerprint(&mut self, fp: KeyFingerprint) {
        let (base, window) = FilterLayout::Blocked.probe_window(&fp, self.m);
        for i in 0..self.k {
            self.set_bit(base + fp.probe(i, window));
        }
        self.n_inserted += 1;
    }

    /// Membership test for `key`.
    #[inline]
    pub fn contains<K: BloomKey>(&self, key: &K) -> bool {
        self.contains_fingerprint(KeyFingerprint::new(key, self.seed))
    }

    /// Membership test for a precomputed fingerprint.
    pub fn contains_fingerprint(&self, fp: KeyFingerprint) -> bool {
        let (base, window) = FilterLayout::Blocked.probe_window(&fp, self.m);
        (0..self.k).all(|i| self.get_bit(base + fp.probe(i, window)))
    }

    /// Number of set bits.
    pub fn ones(&self) -> u64 {
        self.bits.iter().map(|w| u64::from(w.count_ones())).sum()
    }

    /// Fraction of bits set.
    pub fn fill_ratio(&self) -> f64 {
        self.ones() as f64 / self.m as f64
    }

    /// Clear all bits and reset the insert counter.
    pub fn clear(&mut self) {
        self.bits.fill(0);
        self.n_inserted = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_false_negatives() {
        let mut bf = BlockedBloomFilter::with_capacity(10_000, 0.01, 3);
        for key in 0u64..10_000 {
            bf.insert(&key);
        }
        for key in 0u64..10_000 {
            assert!(bf.contains(&key), "false negative for {key}");
        }
    }

    #[test]
    fn probes_stay_within_one_block() {
        // Every key's set bits must span less than BLOCK_BITS.
        for key in 0u64..200 {
            let mut bf = BlockedBloomFilter::new(1 << 16, 7, 11);
            bf.insert(&key);
            let set: Vec<u64> = (0..bf.m_bits()).filter(|&b| bf.get_bit(b)).collect();
            let span = set.last().unwrap() - set.first().unwrap();
            assert!(span < BLOCK_BITS, "key {key} spans {span} bits");
            // And inside the block the hash selected.
            let fp = KeyFingerprint::new(&key, 11);
            let block = fp.block(bf.m_bits() / BLOCK_BITS);
            assert_eq!(set.first().unwrap() / BLOCK_BITS, block);
        }
    }

    #[test]
    fn single_block_filter_matches_standard_layout() {
        // m <= 512: blocked degenerates to the classic filter, bit for
        // bit (same probes mod m).
        let mut blocked = BlockedBloomFilter::new(512, 5, 9);
        let mut standard = crate::BloomFilter::new(512, 5, 9);
        for key in 0u64..60 {
            blocked.insert(&key);
            standard.insert(&key);
        }
        for key in 0u64..2_000 {
            assert_eq!(blocked.contains(&key), standard.contains(&key), "{key}");
        }
    }

    #[test]
    fn measured_fpp_within_analytic_bound() {
        let n = 20_000u64;
        let mut bf = BlockedBloomFilter::with_capacity(n, 0.01, 7);
        for key in 0..n {
            bf.insert(&key);
        }
        let trials = 100_000u64;
        let fps = (n..n + trials).filter(|k| bf.contains(k)).count();
        let measured = fps as f64 / trials as f64;
        let bound = math::blocked_fpp(bf.m_bits(), BLOCK_BITS, bf.k(), n);
        assert!(
            measured < bound * 1.5,
            "measured {measured} vs analytic {bound}"
        );
        // And the penalty is real but bounded: worse than the standard
        // design point, not wildly so.
        assert!(bound > 0.01 && bound < 0.1, "bound = {bound}");
    }

    #[test]
    fn clear_and_counters() {
        let mut bf = BlockedBloomFilter::new(1024, 3, 0);
        bf.insert(&1u64);
        assert_eq!(bf.n_inserted(), 1);
        assert!(bf.fill_ratio() > 0.0);
        bf.clear();
        assert_eq!(bf.n_inserted(), 0);
        assert_eq!(bf.ones(), 0);
    }

    #[test]
    fn layout_labels() {
        assert_eq!(FilterLayout::Standard.label(), "standard");
        assert_eq!(FilterLayout::Blocked.label(), "blocked");
        assert_eq!(FilterLayout::default(), FilterLayout::Standard);
    }
}
