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
//! **The image** ([`BloomGroup::to_bytes`]) is filter-major and
//! bit-packed: member `b` owns bits `[b·per, (b+1)·per)` of one shared
//! array. This matters because a BF-leaf's budget is one fixed page —
//! with thousands of pages per leaf at loose fpps, members are only a
//! handful of bits each, and rounding every member up to a word would
//! silently inflate the node ~10× past its page budget (and understate
//! the measured false-positive rate just as much).
//!
//! **In memory** an evenly divided group is stored the way Algorithm 1
//! reads it. A probe tests one key against *every* member, and members
//! of equal size share the key's `k` probe positions, so the group is
//! bit-sliced (position-major): members are taken in *tiles* of 64,
//! tile `c` is `per` words, and bit `b mod 64` of word `c·per + j` is
//! position `j` of member `b`. One word load then answers position `j`
//! for 64 members at once, and the sweep is `k` loads and ANDs per
//! tile instead of `64 · k` scattered bit probes. Tiles are 64 wide
//! because that is the word the AND runs on; growing the group
//! ([`BloomGroup::extend_to`]) fills the last tile's spare columns and
//! appends a zeroed tile only when `S` crosses a multiple of 64, so
//! nothing is ever laid out again. The image is converted at the
//! boundary (`to_bytes` / `from_bytes` transpose), so what a leaf's
//! page holds does not depend on it. The price is RAM for the last
//! tile's unused columns: `⌈S/64⌉·64 / S` times the image — 1.24× at
//! `S = 103`, and 64× (256 KB for a 4 KB page) for the single-filter
//! leaf an empty tree starts with, of which there is one per tree.
//!
//! Members sized by weight ([`BloomGroup::new_weighted`]) differ in
//! size and so in probe positions: they stay filter-major in memory
//! too and are swept member by member.

use crate::blocked::FilterLayout;
use crate::hash::{BloomKey, KeyFingerprint};

/// `S` Bloom filters sharing one bit budget — equally sized
/// ([`Self::new`]) or sized proportionally to each member's expected
/// load ([`Self::new_weighted`]), each member laid out
/// [`FilterLayout::Standard`] or cache-line-[`FilterLayout::Blocked`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BloomGroup {
    /// Uniform: `⌈s/64⌉` tiles of `per_filter_bits` words, bit-sliced
    /// (module docs); columns `≥ s` of the last tile stay zero.
    /// Weighted: the members' bits packed end to end.
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

/// Indices of the set bits of `word`, ascending.
#[inline]
fn set_bits(mut word: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let i = word.trailing_zeros() as usize;
            word &= word - 1;
            i
        })
    })
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
        let words = vec![0u64; per as usize * s.div_ceil(64)];
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

    /// Bits owned by member `b`.
    #[inline]
    pub fn member_bits(&self, b: usize) -> u64 {
        if self.starts.is_empty() {
            self.per_filter_bits
        } else {
            self.starts[b + 1] - self.starts[b]
        }
    }

    /// Word index and bit mask of position `pos` of member `b`.
    #[inline]
    fn locate(&self, b: usize, pos: u64) -> (usize, u64) {
        if self.starts.is_empty() {
            let tile = (b / 64) * self.per_filter_bits as usize;
            (tile + pos as usize, 1 << (b % 64))
        } else {
            let bit = self.starts[b] + pos;
            ((bit / 64) as usize, 1 << (bit % 64))
        }
    }

    #[inline]
    fn get(&self, b: usize, pos: u64) -> bool {
        let (word, mask) = self.locate(b, pos);
        self.words[word] & mask != 0
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

    /// Insert `key` into the filter of `bucket`.
    #[inline]
    pub fn insert<K: BloomKey>(&mut self, bucket: usize, key: &K) {
        assert!(
            bucket < self.s,
            "bucket {bucket} out of range (S = {})",
            self.s
        );
        let fp = KeyFingerprint::new(key, self.seed);
        let (off, window) = self.layout.probe_window(&fp, self.member_bits(bucket));
        for i in 0..self.k {
            let (word, mask) = self.locate(bucket, off + fp.probe(i, window));
            self.words[word] |= mask;
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
        let (off, window) = self.layout.probe_window(fp, self.member_bits(bucket));
        (0..self.k).all(|i| self.get(bucket, off + fp.probe(i, window)))
    }

    /// Probe all buckets, appending matches in ascending order to a
    /// caller-provided buffer (the hot path avoids per-probe
    /// allocation).
    pub fn matching_buckets_into<K: BloomKey>(&self, key: &K, out: &mut Vec<usize>) {
        let fp = KeyFingerprint::new(key, self.seed);
        self.matching_buckets_fp_into(&fp, out)
    }

    /// [`Self::matching_buckets_into`] over a precomputed fingerprint —
    /// a probe hashes its key once and sweeps every candidate group
    /// with the same fingerprint (probe positions depend only on each
    /// member's geometry, not on which group is being swept).
    pub fn matching_buckets_fp_into(&self, fp: &KeyFingerprint, out: &mut Vec<usize>) {
        if !self.starts.is_empty() {
            // Weighted layout: member sizes differ, so probe positions
            // must be reduced per member.
            out.extend((0..self.s).filter(|&b| self.contains_fp(b, fp)));
            return;
        }
        // Members share one geometry, so the block choice and the probe
        // positions are the same in every member: word `j` of a tile
        // answers position `j` for its 64 members, and ANDing the key's
        // `k` words leaves exactly the members that hold all of them.
        // At half fill each AND halves the survivors, so a tile without
        // a match is dropped after about six loads.
        let (off, window) = self.layout.probe_window(fp, self.per_filter_bits);
        let position = |i: u32| (off + fp.probe(i, window)) as usize;
        // The first 64 positions are computed once for all tiles; a
        // sparse member's `k` beyond that is reached only by a tile
        // that survived 64 ANDs.
        let mut head = [0usize; 64];
        let head = &mut head[..self.k.min(64) as usize];
        for (i, slot) in head.iter_mut().enumerate() {
            *slot = position(i as u32);
        }
        let tiles = self.words.chunks_exact(self.per_filter_bits as usize);
        for (c, tile) in tiles.enumerate() {
            let members = (self.s - c * 64).min(64);
            let mut hits = u64::MAX >> (64 - members);
            for j in head.iter().copied().chain((64..self.k).map(position)) {
                hits &= tile[j];
                if hits == 0 {
                    break;
                }
            }
            out.extend(set_bits(hits).map(|b| c * 64 + b));
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
            // New members take the last tile's spare columns; a zeroed
            // tile is appended when `s` crosses a multiple of 64.
            self.s = s;
            let need = self.per_filter_bits as usize * s.div_ceil(64);
            self.words.resize(need, 0);
        } else {
            // Weighted layout: append mean-sized members.
            let mean = (self.total_bits() / self.s as u64).max(1);
            let mut acc = self.total_bits();
            while self.s < s {
                acc += mean;
                self.starts.push(acc);
                self.s += 1;
            }
            self.words.resize(acc.div_ceil(64) as usize, 0);
        }
    }

    /// Total inserts across all members.
    pub fn n_inserted(&self) -> u64 {
        self.n_inserted
    }

    /// Set bits of member `bucket`.
    pub fn ones(&self, bucket: usize) -> u64 {
        let m = self.member_bits(bucket);
        (0..m).filter(|&pos| self.get(bucket, pos)).count() as u64
    }

    /// Fill ratio of member `bucket`.
    pub fn fill_ratio(&self, bucket: usize) -> f64 {
        self.ones(bucket) as f64 / self.member_bits(bucket) as f64
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
    /// division; bit 31 of `s` carries the probe layout. `words` is
    /// filter-major for both divisions (module docs): member `b`'s
    /// bits follow member `b - 1`'s.
    pub fn to_bytes(&self) -> Vec<u8> {
        let n_words = self.total_bits().div_ceil(64) as usize;
        let mut out = Vec::with_capacity(36 + self.starts.len() * 8 + n_words * 8);
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
        let transposed;
        let image = if self.starts.is_empty() {
            // Bit `b mod 64` of word `j` of tile `c` is image bit
            // `b·per + j`.
            let per = self.per_filter_bits as usize;
            let mut image = vec![0u64; n_words];
            for (at, &word) in self.words.iter().enumerate() {
                let (c, j) = (at / per, at % per);
                for b in set_bits(word) {
                    let bit = (c * 64 + b) * per + j;
                    image[bit / 64] |= 1u64 << (bit % 64);
                }
            }
            transposed = image;
            &transposed
        } else {
            &self.words
        };
        for w in image {
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
        let image = body
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("chunk of 8")));
        let words = if starts.is_empty() {
            // Image bit `b·per + j` is bit `b mod 64` of word `j` of
            // tile `b / 64`. The body's length was checked against
            // `per · s` above, so this allocates at most 64× the image
            // (`⌈s/64⌉ ≤ s`).
            let per = per as usize;
            let mut words = vec![0u64; per * s.div_ceil(64)];
            for (w, word) in image.enumerate() {
                for bit in set_bits(word).map(|i| w * 64 + i) {
                    let (b, j) = (bit / per, bit % per);
                    if b >= s {
                        return None; // set padding: not a written group
                    }
                    words[(b / 64) * per + j] |= 1u64 << (b % 64);
                }
            }
            words
        } else {
            image.collect()
        };
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
        // k = 220 is what `math::optimal_k` gives a 318-bit filter
        // expecting one key.
        for k in [3u32, 64, 65, 220] {
            let mut g = BloomGroup::new(1 << 14, 10, k, 2);
            for key in 0u64..500 {
                g.insert((key % 10) as usize, &key);
            }
            let mut buf = Vec::new();
            for key in 0u64..600 {
                buf.clear();
                g.matching_buckets_into(&key, &mut buf);
                let reference: Vec<usize> = (0..g.len()).filter(|&b| g.contains(b, &key)).collect();
                assert_eq!(buf, reference, "k {k}, key {key}");
            }
        }
    }

    /// A member that holds a key's first 64 probe positions and not
    /// the rest does not hold the key, and the sweep says so.
    #[test]
    fn sweep_tests_every_probe_beyond_the_first_64() {
        let mut g = BloomGroup::new(318 * 3, 3, 220, 0);
        g.insert(1, &1u64);
        let fp = KeyFingerprint::new(&1u64, 0);
        for i in 0..64 {
            let (word, mask) = g.locate(2, fp.probe(i, 318));
            g.words[word] |= mask;
        }
        assert!(!g.contains(2, &1u64));
        let mut out = Vec::new();
        g.matching_buckets_into(&1u64, &mut out);
        assert_eq!(out, [1]);
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
        let set: Vec<u64> = (0..g.member_bits(3)).filter(|&pos| g.get(3, pos)).collect();
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
                // A hostile `per`/`s` pair buys at most the tile
                // padding, never an allocation of its own choosing.
                assert!(g.words.len() * 8 <= 64 * image.len(), "{case}");
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

    /// The RAM the bit-sliced layout pays over the image is the last
    /// tile's unused columns and nothing else.
    #[test]
    fn in_memory_words_are_whole_tiles_of_per_words() {
        let mut g = BloomGroup::new(32_768, 103, 14, 0);
        assert_eq!(g.member_bits(0), 318);
        assert_eq!(g.words.len(), 2 * 318);
        g.extend_to(128);
        assert_eq!(g.words.len(), 2 * 318, "spare columns absorb growth");
        g.extend_to(129);
        assert_eq!(g.words.len(), 3 * 318);
        assert_eq!(BloomGroup::new(32_768, 1, 14, 0).words.len(), 32_768);
    }

    /// The serialized image is what the filter-major group of the
    /// parent commit wrote (length and `xxh64` under seed 0 of the
    /// bytes, recorded by running these constructions there).
    #[test]
    fn the_group_image_is_byte_identical_to_the_recorded_parent() {
        let mut standard = BloomGroup::new(32_768, 103, 14, 7);
        for key in 0u64..400 {
            standard.insert((key % 103) as usize, &key);
        }
        let mut blocked = BloomGroup::new_with_layout(1 << 16, 5, 4, 3, FilterLayout::Blocked);
        for key in 0u64..500 {
            blocked.insert((key % 5) as usize, &key);
        }
        let mut grown = BloomGroup::new(1 << 12, 60, 3, 9);
        for (step, s) in [60usize, 64, 65, 130].into_iter().enumerate() {
            grown.extend_to(s);
            for key in 0u64..50 {
                let key = key + 1_000 * step as u64;
                grown.insert((key % s as u64) as usize, &key);
            }
        }
        let mut weighted = BloomGroup::new_weighted(1 << 12, &[10, 0, 40, 5, 120], 3, 2);
        for key in 0u64..150 {
            weighted.insert((key % 5) as usize, &key);
        }
        weighted.extend_to(7);
        weighted.insert(6, &77u64);
        for (name, group, len, hash) in [
            ("standard", standard, 4132, 0xa96b_0543_406d_3a92u64),
            ("blocked", blocked, 8228, 0xf3d0_944e_a149_3ae2),
            ("grown", grown, 1148, 0x97af_78c7_4a01_2963),
            ("weighted", weighted, 820, 0x7168_5bf0_56df_b527),
        ] {
            let image = group.to_bytes();
            assert_eq!(image.len(), len, "{name}");
            assert_eq!(crate::hash::xxh64(&image, 0), hash, "{name}");
            assert_eq!(BloomGroup::from_bytes(&image), Some(group), "{name}");
        }
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
