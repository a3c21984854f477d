//! Property 1 of Section 3: splitting one Bloom filter into `S`
//! smaller ones.
//!
//! *"If a BF with size M bits can store the membership information of N
//! elements with false positive p, then S BFs with size M/S bits each
//! can store the membership information of N/S elements each with the
//! same p."*
//!
//! [`BloomGroup`] packages exactly that: a total bit budget divided
//! evenly across `S` member filters, each covering one *bucket* (in the
//! BF-Tree, one data page or one group of consecutive pages). It is the
//! in-memory shape of a BF-leaf's filter block.
//!
//! Members are **bit-packed into one shared array**: member `b` owns
//! bits `[b·per, (b+1)·per)`. This matters because a BF-leaf's budget
//! is one fixed page — with thousands of pages per leaf at loose fpps,
//! members are only a handful of bits each, and rounding every member
//! up to a word would silently inflate the node ~10× past its page
//! budget (and understate the measured false-positive rate just as
//! much).

use crate::blocked::FilterLayout;
use crate::hash::{BloomKey, KeyFingerprint};

/// `S` Bloom filters bit-packed into one shared budget — equally sized
/// ([`Self::new`]) or sized proportionally to each member's expected
/// load ([`Self::new_weighted`]), each member laid out
/// [`FilterLayout::Standard`] or cache-line-[`FilterLayout::Blocked`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BloomGroup {
    words: Vec<u64>,
    /// Uniform fast path: bits per member. 0 when weighted.
    per_filter_bits: u64,
    /// Weighted layout: member `b` owns bits `[starts[b], starts[b+1])`.
    /// Empty for the uniform layout.
    starts: Vec<u64>,
    s: usize,
    k: u32,
    n_inserted: u64,
    seed: u64,
    /// Per-member probe layout. Blocked members confine a key's `k`
    /// probes to one 512-bit block of the member's range; members that
    /// fit a single block behave identically under both layouts.
    layout: FilterLayout,
}

impl BloomGroup {
    /// Divide `total_bits` evenly across `s` member filters, each with
    /// `k` hash functions, in the [`FilterLayout::Standard`] layout.
    ///
    /// The division is honest: members get `total_bits / s` bits even
    /// when that is tiny — loose-fpp BF-leaves over long page ranges
    /// really do run filters of a few bits; that *is* the accuracy
    /// being traded away. The only floor is 1 bit per member.
    pub fn new(total_bits: u64, s: usize, k: u32, seed: u64) -> Self {
        Self::new_with_layout(total_bits, s, k, seed, FilterLayout::Standard)
    }

    /// [`Self::new`] with an explicit per-member probe layout.
    pub fn new_with_layout(
        total_bits: u64,
        s: usize,
        k: u32,
        seed: u64,
        layout: FilterLayout,
    ) -> Self {
        assert!(s > 0, "group needs at least one filter");
        assert!(k >= 1, "need at least one hash function");
        let per = (total_bits / s as u64).max(1);
        let words = vec![0u64; (per * s as u64).div_ceil(64) as usize];
        Self {
            words,
            per_filter_bits: per,
            starts: Vec::new(),
            s,
            k,
            n_inserted: 0,
            seed,
            layout,
        }
    }

    /// Divide `total_bits` across `weights.len()` members
    /// proportionally to `weights` (each member's expected key count).
    ///
    /// Property 1 preserves the fpp only when keys split *evenly*
    /// across members; when the per-page key distribution is skewed —
    /// high-cardinality attributes leave most pages' filters empty
    /// while a few carry several keys — a uniform split lets the
    /// loaded members' fpp blow up (fpp is convex in load).
    /// Proportional allocation keeps bits-per-key, and therefore the
    /// realized fpp, constant across members. Zero-weight members get
    /// one bit that is never set, so they reject every probe for free.
    pub fn new_weighted(total_bits: u64, weights: &[u64], k: u32, seed: u64) -> Self {
        Self::new_weighted_with_layout(total_bits, weights, k, seed, FilterLayout::Standard)
    }

    /// [`Self::new_weighted`] with an explicit per-member probe layout.
    pub fn new_weighted_with_layout(
        total_bits: u64,
        weights: &[u64],
        k: u32,
        seed: u64,
        layout: FilterLayout,
    ) -> Self {
        assert!(!weights.is_empty(), "group needs at least one filter");
        assert!(k >= 1, "need at least one hash function");
        let s = weights.len();
        let total_weight: u64 = weights.iter().sum::<u64>().max(1);
        // Reserve the 1-bit floors, spread the rest by weight.
        let spare = total_bits.saturating_sub(s as u64);
        let mut starts = Vec::with_capacity(s + 1);
        let mut acc = 0u64;
        let mut carry = 0u64; // running share in weight units
        starts.push(0);
        for &w in weights {
            carry += w * spare;
            let share = carry / total_weight;
            carry %= total_weight;
            acc += 1 + share;
            starts.push(acc);
        }
        let words = vec![0u64; acc.div_ceil(64) as usize];
        Self {
            words,
            per_filter_bits: 0,
            starts,
            s,
            k,
            n_inserted: 0,
            seed,
            layout,
        }
    }

    /// Member `b`'s bit range `(base, len)`.
    #[inline]
    fn member_range(&self, b: usize) -> (u64, u64) {
        if self.starts.is_empty() {
            (b as u64 * self.per_filter_bits, self.per_filter_bits)
        } else {
            (self.starts[b], self.starts[b + 1] - self.starts[b])
        }
    }

    /// Bits owned by member `b`.
    pub fn member_bits(&self, b: usize) -> u64 {
        self.member_range(b).1
    }

    /// Number of member filters `S`.
    #[inline]
    pub fn len(&self) -> usize {
        self.s
    }

    /// True if the group has no member filters (never constructed so).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.s == 0
    }

    /// Per-member probe layout.
    #[inline]
    pub fn layout(&self) -> FilterLayout {
        self.layout
    }

    /// Total bits across members.
    pub fn total_bits(&self) -> u64 {
        if self.starts.is_empty() {
            self.per_filter_bits * self.s as u64
        } else {
            *self.starts.last().expect("starts non-empty")
        }
    }

    /// Hash count per member.
    #[inline]
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Shared hash seed.
    #[inline]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    #[inline]
    fn set_bit(&mut self, bit: u64) {
        self.words[(bit / 64) as usize] |= 1u64 << (bit % 64);
    }

    #[inline]
    fn get_bit(&self, bit: u64) -> bool {
        self.words[(bit / 64) as usize] & (1u64 << (bit % 64)) != 0
    }

    /// Insert `key` into the filter of `bucket`.
    #[inline]
    pub fn insert<K: BloomKey>(&mut self, bucket: usize, key: &K) {
        assert!(
            bucket < self.s,
            "bucket {bucket} out of range (S = {})",
            self.s
        );
        let fp = KeyFingerprint::new(key, self.seed);
        let (base, m) = self.member_range(bucket);
        let (off, window) = self.layout.probe_window(&fp, m);
        for i in 0..self.k {
            let bit = base + off + fp.probe(i, window);
            self.set_bit(bit);
        }
        self.n_inserted += 1;
    }

    /// Test `key` against a single bucket.
    #[inline]
    pub fn contains<K: BloomKey>(&self, bucket: usize, key: &K) -> bool {
        let fp = KeyFingerprint::new(key, self.seed);
        self.contains_fp(bucket, &fp)
    }

    #[inline]
    fn contains_fp(&self, bucket: usize, fp: &KeyFingerprint) -> bool {
        let (base, m) = self.member_range(bucket);
        let (off, window) = self.layout.probe_window(fp, m);
        (0..self.k).all(|i| self.get_bit(base + off + fp.probe(i, window)))
    }

    /// Probe all buckets, appending matches to a caller-provided
    /// buffer (the hot path avoids per-probe allocation). The key is
    /// hashed once; its `k` in-filter offsets are then tested against
    /// every bucket's bit range.
    pub fn matching_buckets_into<K: BloomKey>(&self, key: &K, out: &mut Vec<usize>) {
        let fp = KeyFingerprint::new(key, self.seed);
        self.matching_buckets_fp_range_into(&fp, 0, self.s, out)
    }

    /// [`Self::matching_buckets_into`] over a precomputed fingerprint —
    /// batched probes hash each key once and sweep many groups with the
    /// same fingerprint (probe positions depend only on each member's
    /// geometry, not on which group is being swept).
    pub fn matching_buckets_fp_into(&self, fp: &KeyFingerprint, out: &mut Vec<usize>) {
        self.matching_buckets_fp_range_into(fp, 0, self.s, out)
    }

    /// [`Self::matching_buckets_fp_into`] restricted to buckets in
    /// `lo..hi`.
    pub fn matching_buckets_fp_range_into(
        &self,
        fp: &KeyFingerprint,
        lo: usize,
        hi: usize,
        out: &mut Vec<usize>,
    ) {
        assert!(
            lo <= hi && hi <= self.s,
            "bucket range {lo}..{hi} out of 0..{}",
            self.s
        );
        let k = self.k.min(64) as usize;
        if self.starts.is_empty() {
            // Uniform fast path: members share one geometry, so the
            // block choice and probe-offset set are computed once and
            // serve every bucket. Under the blocked layout all k
            // offsets land inside one 512-bit window of each member.
            let (off, window) = self.layout.probe_window(fp, self.per_filter_bits);
            let mut offsets = [0u64; 64];
            for (i, slot) in offsets.iter_mut().take(k).enumerate() {
                *slot = off + fp.probe(i as u32, window);
            }
            // Pad to four probes so the pre-test below needs no length
            // branch; re-testing a bit is a no-op.
            for i in k..4 {
                offsets[i] = offsets[i % k];
            }
            let w = self.words.as_slice();
            // Every probed bit lies below `hi · per` ≤ `s · per`, and
            // the words vector was sized to `ceil(s · per / 64)` at
            // construction (and only ever grows), so the word index of
            // any probe is in bounds — asserted once here so the hot
            // loop can skip per-load bounds checks.
            let max_bit = hi as u64 * self.per_filter_bits;
            assert!(
                max_bit.div_ceil(64) as usize <= w.len(),
                "probe range exceeds backing words"
            );
            #[inline(always)]
            fn bit64(w: &[u64], bit: u64) -> u64 {
                // SAFETY: `bit < max_bit` and the assertion above
                // guarantees `bit / 64 < w.len()`.
                (unsafe { *w.get_unchecked((bit >> 6) as usize) }) >> (bit & 63)
            }
            // Branchless 4-probe pre-test, two buckets per iteration.
            // A plain early-exit scan branches on every probe, and at
            // ~50% fill those branches are coin flips the predictor
            // cannot learn — the mispredicts dominate the whole sweep.
            // ANDing the first four probes' bits gives one
            // data-dependent branch per bucket that is taken for ~6%
            // of buckets; processing two buckets per iteration lets
            // the core overlap the two pre-tests' loads. Together this
            // measures ~3x faster across the sweep.
            let (o0, o1, o2, o3) = (offsets[0], offsets[1], offsets[2], offsets[3]);
            let rest = &offsets[4..k.max(4)];
            let per = self.per_filter_bits;
            let pre4 = |base: u64| {
                bit64(w, base + o0)
                    & bit64(w, base + o1)
                    & bit64(w, base + o2)
                    & bit64(w, base + o3)
                    & 1
            };
            let tail = |base: u64| rest.iter().all(|&o| bit64(w, base + o) & 1 != 0);
            let mut b = lo;
            let mut base = lo as u64 * per;
            while b + 1 < hi {
                let pre_a = pre4(base);
                let pre_b = pre4(base + per);
                if pre_a != 0 && tail(base) {
                    out.push(b);
                }
                if pre_b != 0 && tail(base + per) {
                    out.push(b + 1);
                }
                b += 2;
                base += 2 * per;
            }
            if b < hi && pre4(base) != 0 && tail(base) {
                out.push(b);
            }
        } else {
            // Weighted layout: member sizes differ, so probe positions
            // must be reduced per member.
            for b in lo..hi {
                if self.contains_fp(b, fp) {
                    out.push(b);
                }
            }
        }
    }

    /// Grow the group to `s` member filters (same geometry), e.g. when
    /// an insert lands on a page beyond the leaf's current page range
    /// (Algorithm 3's range extension). No-op if `s ≤ len`.
    pub fn extend_to(&mut self, s: usize) {
        if s <= self.s {
            return;
        }
        if self.starts.is_empty() {
            self.s = s;
            let need = (self.per_filter_bits * s as u64).div_ceil(64) as usize;
            if self.words.len() < need {
                self.words.resize(need, 0);
            }
        } else {
            // Weighted layout: append mean-sized members.
            let mean = (self.total_bits() / self.s as u64).max(1);
            let mut acc = self.total_bits();
            while self.s < s {
                acc += mean;
                self.starts.push(acc);
                self.s += 1;
            }
            let need = acc.div_ceil(64) as usize;
            if self.words.len() < need {
                self.words.resize(need, 0);
            }
        }
    }

    /// Total inserts across all members.
    pub fn n_inserted(&self) -> u64 {
        self.n_inserted
    }

    /// Set bits within member `bucket`'s range.
    pub fn ones(&self, bucket: usize) -> u64 {
        let (base, m) = self.member_range(bucket);
        (base..base + m).filter(|&b| self.get_bit(b)).count() as u64
    }

    /// Fill ratio of member `bucket`.
    pub fn fill_ratio(&self, bucket: usize) -> f64 {
        let (_, m) = self.member_range(bucket);
        self.ones(bucket) as f64 / m as f64
    }

    /// Estimated current false-positive probability of member `bucket`
    /// from its fill ratio: `fill^k`.
    pub fn current_fpp(&self, bucket: usize) -> f64 {
        self.fill_ratio(bucket).powi(self.k as i32)
    }

    /// Bit 31 of the serialized `s` word flags the blocked probe
    /// layout (member counts never approach 2³¹; groups written before
    /// the flag existed deserialize as `Standard`).
    const BLOCKED_FLAG: u32 = 1 << 31;

    /// Serialize:
    /// `[s: u32][k: u32][per: u64][seed: u64][n: u64][n_starts: u32]
    /// [starts...][words...]` — `n_starts` is 0 for the uniform bit
    /// division; bit 31 of `s` carries the probe layout.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(36 + self.starts.len() * 8 + self.words.len() * 8);
        let s_word = self.s as u32
            | match self.layout {
                FilterLayout::Standard => 0,
                FilterLayout::Blocked => Self::BLOCKED_FLAG,
            };
        out.extend_from_slice(&s_word.to_le_bytes());
        out.extend_from_slice(&self.k.to_le_bytes());
        out.extend_from_slice(&self.per_filter_bits.to_le_bytes());
        out.extend_from_slice(&self.seed.to_le_bytes());
        out.extend_from_slice(&self.n_inserted.to_le_bytes());
        out.extend_from_slice(&(self.starts.len() as u32).to_le_bytes());
        for v in &self.starts {
            out.extend_from_slice(&v.to_le_bytes());
        }
        for w in &self.words {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out
    }

    /// Deserialize a group written by [`Self::to_bytes`]; `None` for
    /// any image that is not one (the bytes may come from disk, so a
    /// group this returns never panics a probe).
    pub fn from_bytes(data: &[u8]) -> Option<Self> {
        if data.len() < 36 {
            return None;
        }
        let s_word = u32::from_le_bytes(data[0..4].try_into().ok()?);
        let layout = if s_word & Self::BLOCKED_FLAG != 0 {
            FilterLayout::Blocked
        } else {
            FilterLayout::Standard
        };
        let s = (s_word & !Self::BLOCKED_FLAG) as usize;
        let k = u32::from_le_bytes(data[4..8].try_into().ok()?);
        let per = u64::from_le_bytes(data[8..16].try_into().ok()?);
        let seed = u64::from_le_bytes(data[16..24].try_into().ok()?);
        let n_inserted = u64::from_le_bytes(data[24..32].try_into().ok()?);
        let n_starts = u32::from_le_bytes(data[32..36].try_into().ok()?) as usize;
        if s == 0 || k == 0 {
            return None;
        }
        if n_starts != 0 && n_starts != s + 1 {
            return None;
        }
        let mut at = 36;
        if data.len() < at + n_starts * 8 {
            return None;
        }
        let starts: Vec<u64> = data[at..at + n_starts * 8]
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("chunk of 8")))
            .collect();
        at += n_starts * 8;
        let total = if starts.is_empty() {
            if per == 0 {
                return None;
            }
            per.checked_mul(s as u64)?
        } else {
            // Member `b` owns `[starts[b], starts[b + 1])`: the offsets
            // begin at 0 and every member has at least one bit.
            if starts[0] != 0 || starts.windows(2).any(|w| w[0] >= w[1]) {
                return None;
            }
            *starts.last().expect("non-empty")
        };
        // More probes per key than the group has bits is no written
        // group, and a probe would spin through all of them.
        if u64::from(k) > total {
            return None;
        }
        let n_words = total.div_ceil(64) as usize;
        let body = &data[at..];
        if body.len() != n_words * 8 {
            return None;
        }
        let words = body
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("chunk of 8")))
            .collect();
        Some(Self {
            words,
            per_filter_bits: per,
            starts,
            s,
            k,
            n_inserted,
            seed,
            layout,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::math;

    #[test]
    fn routing_is_exact_per_bucket() {
        let mut g = BloomGroup::new(1 << 16, 8, 3, 0);
        for key in 0u64..800 {
            g.insert((key % 8) as usize, &key);
        }
        for key in 0u64..800 {
            assert!(g.contains((key % 8) as usize, &key));
        }
        assert_eq!(g.n_inserted(), 800);
    }

    #[test]
    fn property_1_split_preserves_fpp() {
        // One big filter with N keys at p vs. S filters with N/S keys
        // each: the measured fpp must agree within noise.
        let p = 0.01;
        let n = 32_000u64;
        let s = 16usize;
        let total_bits = math::bits_for(n, p);

        let mut big = crate::BloomFilter::new(total_bits, 3, 1);
        for key in 0..n {
            big.insert(&key);
        }

        let mut group = BloomGroup::new(total_bits, s, 3, 1);
        for key in 0..n {
            group.insert((key % s as u64) as usize, &key);
        }

        let trials = 50_000u64;
        let fp_big = (n..n + trials).filter(|k| big.contains(k)).count() as f64 / trials as f64;
        // For the group, measure per-bucket fpp (a key absent everywhere).
        let mut fp_group = 0usize;
        let mut probes = 0usize;
        for key in n..n + trials / 10 {
            for b in 0..s {
                probes += 1;
                if group.contains(b, &key) {
                    fp_group += 1;
                }
            }
        }
        let fp_group = fp_group as f64 / probes as f64;
        assert!(
            (fp_big - fp_group).abs() < 0.01,
            "big {fp_big} vs group {fp_group}"
        );
    }

    #[test]
    fn matching_buckets_finds_home_bucket() {
        let mut g = BloomGroup::new(1 << 18, 32, 3, 9);
        for key in 0u64..3_200 {
            g.insert((key % 32) as usize, &key);
        }
        let mut matches = Vec::new();
        for key in 0u64..3_200 {
            matches.clear();
            g.matching_buckets_into(&key, &mut matches);
            assert!(matches.contains(&((key % 32) as usize)));
        }
    }

    #[test]
    fn matching_buckets_into_matches_per_bucket_contains() {
        let mut g = BloomGroup::new(1 << 14, 10, 3, 2);
        for key in 0u64..500 {
            g.insert((key % 10) as usize, &key);
        }
        let mut buf = Vec::new();
        for key in 0u64..600 {
            buf.clear();
            g.matching_buckets_into(&key, &mut buf);
            let reference: Vec<usize> = (0..g.len()).filter(|&b| g.contains(b, &key)).collect();
            assert_eq!(buf, reference);
        }
    }

    #[test]
    fn fingerprint_sweep_matches_keyed_sweep() {
        use crate::hash::KeyFingerprint;
        let mut g = BloomGroup::new(1 << 14, 12, 3, 5);
        for key in 0u64..600 {
            g.insert((key % 12) as usize, &key);
        }
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for key in 0u64..800 {
            a.clear();
            b.clear();
            g.matching_buckets_into(&key, &mut a);
            let fp = KeyFingerprint::new(&key, g.seed());
            g.matching_buckets_fp_into(&fp, &mut b);
            assert_eq!(a, b, "key {key}");
        }
    }

    #[test]
    fn blocked_group_has_no_false_negatives_and_roundtrips() {
        let mut g = BloomGroup::new_with_layout(1 << 16, 8, 4, 3, FilterLayout::Blocked);
        assert_eq!(g.layout(), FilterLayout::Blocked);
        for key in 0u64..800 {
            g.insert((key % 8) as usize, &key);
        }
        for key in 0u64..800 {
            assert!(g.contains((key % 8) as usize, &key), "false neg {key}");
        }
        let back = BloomGroup::from_bytes(&g.to_bytes()).expect("roundtrip");
        assert_eq!(g, back);
        assert_eq!(back.layout(), FilterLayout::Blocked);
    }

    #[test]
    fn blocked_probes_confined_to_one_block_per_member() {
        // 8192-bit members = 16 blocks each: a single insert must set
        // bits spanning < 512 bits.
        let mut g = BloomGroup::new_with_layout(1 << 16, 8, 5, 7, FilterLayout::Blocked);
        g.insert(3, &99u64);
        let m = g.member_bits(3);
        let base = 3 * m;
        let set: Vec<u64> = (0..m).filter(|&b| g.get_bit(base + b)).collect();
        assert!(!set.is_empty());
        let span = set.last().unwrap() - set.first().unwrap();
        assert!(span < 512, "probe span {span} exceeds one block");
    }

    #[test]
    fn small_member_blocked_equals_standard() {
        // Members of <= 512 bits have a single block: both layouts
        // produce bit-identical groups.
        let mut std_g = BloomGroup::new(4096, 16, 3, 1); // 256 bits per member
        let mut blk_g = BloomGroup::new_with_layout(4096, 16, 3, 1, FilterLayout::Blocked);
        for key in 0u64..200 {
            std_g.insert((key % 16) as usize, &key);
            blk_g.insert((key % 16) as usize, &key);
        }
        for key in 0u64..1_000 {
            for b in 0..16 {
                assert_eq!(std_g.contains(b, &key), blk_g.contains(b, &key));
            }
        }
    }

    #[test]
    fn weighted_blocked_group_routes_exactly() {
        let weights = [10u64, 0, 40, 5, 120];
        let mut g =
            BloomGroup::new_weighted_with_layout(1 << 15, &weights, 3, 2, FilterLayout::Blocked);
        for key in 0u64..500 {
            g.insert((key % 5) as usize, &key);
        }
        for key in 0u64..500 {
            assert!(g.contains((key % 5) as usize, &key));
        }
        let back = BloomGroup::from_bytes(&g.to_bytes()).expect("roundtrip");
        assert_eq!(g, back);
    }

    #[test]
    fn group_serialization_roundtrip() {
        let mut g = BloomGroup::new(1 << 15, 7, 4, 11);
        for key in 0u64..700 {
            g.insert((key % 7) as usize, &(key * 13));
        }
        let bytes = g.to_bytes();
        let back = BloomGroup::from_bytes(&bytes).expect("roundtrip");
        assert_eq!(g, back);
    }

    #[test]
    fn group_from_bytes_rejects_truncation() {
        let g = BloomGroup::new(1 << 12, 4, 3, 0);
        let bytes = g.to_bytes();
        for cut in [0, 5, 11, bytes.len() - 3] {
            assert!(BloomGroup::from_bytes(&bytes[..cut]).is_none(), "cut {cut}");
        }
    }

    /// No image decodes to a group that panics: a valid uniform and a
    /// valid weighted image, truncated at every length and with each
    /// header field (and each `starts` entry) overwritten by boundary
    /// values, is `None` or a group on which a probe completes. Two
    /// of these used to die: a `per` whose product with `s` overflows
    /// (inside the decoder) and out-of-order `starts` (in the probe).
    #[test]
    fn from_bytes_is_none_or_a_group_that_probes() {
        fn probe_if_some(image: &[u8], case: &str) {
            if let Some(g) = BloomGroup::from_bytes(image) {
                let mut out = Vec::new();
                g.matching_buckets_into(&7u64, &mut out);
                assert!(out.iter().all(|&b| b < g.len()), "{case}");
            }
        }
        let mut uniform = BloomGroup::new(1 << 12, 4, 3, 0);
        let mut weighted = BloomGroup::new_weighted(1 << 12, &[10, 0, 40, 5], 3, 0);
        for key in 0u64..40 {
            uniform.insert((key % 4) as usize, &key);
            weighted.insert((key % 4) as usize, &key);
        }
        for (name, group) in [("uniform", uniform), ("weighted", weighted)] {
            let image = group.to_bytes();
            assert_eq!(BloomGroup::from_bytes(&image), Some(group.clone()));
            for cut in 0..image.len() {
                assert!(
                    BloomGroup::from_bytes(&image[..cut]).is_none(),
                    "{name}: cut {cut}"
                );
            }
            // (offset, width) of s, k, per, seed, n_inserted, n_starts
            // and every `starts` entry.
            let mut fields = vec![(0, 4), (4, 4), (8, 8), (16, 8), (24, 8), (32, 4)];
            fields.extend((0..group.starts.len()).map(|i| (36 + 8 * i, 8)));
            for (at, width) in fields {
                for value in [0u64, 1, u32::MAX as u64, u64::MAX] {
                    let mut bad = image.clone();
                    bad[at..at + width].copy_from_slice(&value.to_le_bytes()[..width]);
                    probe_if_some(&bad, &format!("{name}: {value:#x} at byte {at}"));
                }
            }
        }
    }

    #[test]
    fn division_is_honest_even_when_tiny() {
        // 32768 bits over 6800 members: ~4 bits each, physically packed
        // — the whole group still fits the page budget it was given.
        let g = BloomGroup::new(32_768, 6_800, 2, 0);
        assert_eq!(g.member_bits(0), 4);
        assert!(g.total_bits() <= 32_768);
        assert_eq!(BloomGroup::new(10, 40, 1, 0).member_bits(39), 1);
    }

    #[test]
    fn buckets_are_isolated() {
        // A key inserted in bucket 3 of a roomy group must not appear
        // in the other buckets (beyond fpp noise, which at 2^14 bits
        // per member and one key is ~0).
        let mut g = BloomGroup::new(1 << 18, 16, 5, 4);
        g.insert(3, &42u64);
        assert!(g.contains(3, &42u64));
        for b in (0..16).filter(|&b| b != 3) {
            assert!(!g.contains(b, &42u64), "leaked into bucket {b}");
        }
    }

    #[test]
    fn extend_to_grows_without_disturbing_existing_bits() {
        let mut g = BloomGroup::new(1 << 10, 4, 3, 0);
        g.insert(1, &7u64);
        g.extend_to(9);
        assert_eq!(g.len(), 9);
        assert!(g.contains(1, &7u64));
        g.insert(8, &9u64);
        assert!(g.contains(8, &9u64));
    }

    #[test]
    fn fill_and_fpp_estimates() {
        let mut g = BloomGroup::new(1 << 12, 2, 3, 0);
        assert_eq!(g.fill_ratio(0), 0.0);
        assert_eq!(g.current_fpp(0), 0.0);
        for key in 0u64..200 {
            g.insert(0, &key);
        }
        assert!(g.fill_ratio(0) > 0.0);
        assert!(g.fill_ratio(1) == 0.0, "bucket 1 untouched");
        assert!(g.current_fpp(0) > g.current_fpp(1));
    }
}
