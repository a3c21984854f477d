//! Property 1 of Section 3: splitting one Bloom filter into `S`
//! smaller ones.
//!
//! *"If a BF with size M bits can store the membership information of N
//! elements with false positive p, then S BFs with size M/S bits each
//! can store the membership information of N/S elements each with the
//! same p."*
//!
//! [`BloomGroup`] packages exactly that: a total bit budget divided
//! across `S` member filters, each covering one *bucket* (in the
//! BF-Tree, one data page or one group of consecutive pages) — evenly,
//! or in proportion to each member's expected load. It is the
//! in-memory shape of a BF-leaf's filter block.
//!
//! **The image** ([`BloomGroup::to_bytes`]) is filter-major and
//! bit-packed: member `b`'s bits follow member `b - 1`'s in one shared
//! array. This matters because a BF-leaf's budget is one fixed page —
//! with thousands of pages per leaf at loose fpps, members are only a
//! handful of bits each, and rounding every member up to a word would
//! silently inflate the node ~10× past its page budget (and understate
//! the measured false-positive rate just as much).
//!
//! **In memory** a group is stored the way Algorithm 1 reads it. A
//! probe tests one key against *every* member, and a member's probe
//! positions depend only on its bit count, so members of one size share
//! them: members are grouped into *classes* by exact bit count (classes
//! ascending by it, members ascending within one, so equal groups are
//! equal structures). Each class is bit-sliced (position-major): its
//! members are taken in *tiles* of 64 columns, tile `c` is `bits`
//! words, and bit `i` of word `c·bits + j` is position `j` of the
//! member in column `64·c + i`. One word load then answers position
//! `j` for 64 members, and the sweep is `k` loads and ANDs per tile
//! instead of `64 · k` scattered bit probes. An evenly divided group is
//! the one-class case; a weighted one has a class per member size.
//! Tiles are 64 wide because that is the word the AND runs on; growing
//! the group ([`BloomGroup::extend_to`]) fills the last tile's spare
//! columns and appends a zeroed tile only when a class crosses a
//! multiple of 64, so nothing is ever laid out again. `to_bytes` /
//! `from_bytes` transpose each class at the boundary, so what a leaf's
//! page holds does not depend on it. The price is RAM: each class's
//! last tile's unused columns (for one class `⌈S/64⌉·64 / S` times the
//! image — 1.24× at `S = 103`, and 64× for the single-filter leaf an
//! empty tree starts with) and 12 bytes per member for the class map.

use crate::blocked::FilterLayout;
use crate::hash::{BloomKey, KeyFingerprint};

/// `S` Bloom filters sharing one bit budget — equally sized
/// ([`Self::new`]) or sized proportionally to each member's expected
/// load ([`Self::new_weighted_with_layout`]), each member laid out
/// [`FilterLayout::Standard`] or cache-line-[`FilterLayout::Blocked`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BloomGroup {
    /// The members of each bit count, ascending by it (module docs).
    classes: Vec<SizeClass>,
    /// Member `b` is column `slots[b].1` of class `slots[b].0`.
    slots: Vec<(u32, u32)>,
    k: u32,
    n_inserted: u64,
    seed: u64,
    /// Per-member probe layout. Blocked members confine a key's `k`
    /// probes to one 512-bit block of the member's range; members that
    /// fit a single block behave identically under both layouts.
    layout: FilterLayout,
}

/// The members of one bit count, bit-sliced (module docs).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
struct SizeClass {
    /// Bits per member.
    bits: u64,
    /// Column `c` holds member `members[c]`; ascending.
    members: Vec<u32>,
    /// `⌈members/64⌉` tiles of `bits` words; spare columns stay zero.
    words: Vec<u64>,
}

impl SizeClass {
    /// Word index and bit mask of position `pos` of column `col`.
    #[inline]
    fn locate(&self, col: u32, pos: u64) -> (usize, u64) {
        let tile = (col as usize / 64) * self.bits as usize;
        (tile + pos as usize, 1 << (col % 64))
    }

    /// Whole tiles for the members: a zeroed one per 64th member.
    fn fit_tiles(&mut self) {
        self.words
            .resize(self.bits as usize * self.members.len().div_ceil(64), 0);
    }
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
        let per = (total_bits / s as u64).max(1);
        Self::with_sizes(&vec![per; s], k, seed, layout)
    }

    /// Divide `total_bits` across `weights.len()` members
    /// proportionally to `weights` (each member's expected key count),
    /// with an explicit per-member probe layout.
    ///
    /// Property 1 preserves the fpp only when keys split *evenly*
    /// across members; when the per-page key distribution is skewed —
    /// high-cardinality attributes leave most pages' filters empty
    /// while a few carry several keys — a uniform split lets the
    /// loaded members' fpp blow up (fpp is convex in load).
    /// Proportional allocation keeps bits-per-key, and therefore the
    /// realized fpp, constant across members. Zero-weight members get
    /// one bit that is never set, so they reject every probe for free.
    pub fn new_weighted_with_layout(
        total_bits: u64,
        weights: &[u64],
        k: u32,
        seed: u64,
        layout: FilterLayout,
    ) -> Self {
        assert!(!weights.is_empty(), "group needs at least one filter");
        let total_weight: u64 = weights.iter().sum::<u64>().max(1);
        // Reserve the 1-bit floors, spread the rest by weight.
        let spare = total_bits.saturating_sub(weights.len() as u64);
        let mut carry = 0u64; // running share in weight units
        let mut sizes = Vec::with_capacity(weights.len());
        for &w in weights {
            carry += w * spare;
            sizes.push(1 + carry / total_weight);
            carry %= total_weight;
        }
        Self::with_sizes(&sizes, k, seed, layout)
    }

    /// An empty group of `sizes[b]`-bit members `b`, in canonical order.
    fn with_sizes(sizes: &[u64], k: u32, seed: u64, layout: FilterLayout) -> Self {
        assert!(k >= 1, "need at least one hash function");
        let mut bits = sizes.to_vec();
        bits.sort_unstable();
        bits.dedup();
        let mut classes = vec![SizeClass::default(); bits.len()];
        let mut slots = Vec::with_capacity(sizes.len());
        for (b, m) in (0u32..).zip(sizes) {
            let at = bits.binary_search(m).expect("every size has its class");
            slots.push((at as u32, classes[at].members.len() as u32));
            classes[at].members.push(b);
        }
        for (class, &m) in classes.iter_mut().zip(&bits) {
            class.bits = m;
            class.fit_tiles();
        }
        Self {
            classes,
            slots,
            k,
            n_inserted: 0,
            seed,
            layout,
        }
    }

    #[inline]
    fn get(&self, b: usize, pos: u64) -> bool {
        let (class, col) = self.slots[b];
        let class = &self.classes[class as usize];
        let (word, mask) = class.locate(col, pos);
        class.words[word] & mask != 0
    }

    /// Bits owned by member `b`.
    #[inline]
    pub fn member_bits(&self, b: usize) -> u64 {
        self.classes[self.slots[b].0 as usize].bits
    }

    /// Number of member filters `S`.
    #[inline]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True if the group has no member filters (never constructed so).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Per-member probe layout.
    #[inline]
    pub fn layout(&self) -> FilterLayout {
        self.layout
    }

    /// Total bits across members.
    pub fn total_bits(&self) -> u64 {
        let class_bits = |c: &SizeClass| c.bits * c.members.len() as u64;
        self.classes.iter().map(class_bits).sum()
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
            bucket < self.len(),
            "bucket {bucket} out of range (S = {})",
            self.len()
        );
        let fp = KeyFingerprint::new(key, self.seed);
        let (class, col) = self.slots[bucket];
        let class = &mut self.classes[class as usize];
        let (off, window) = self.layout.probe_window(&fp, class.bits);
        for i in 0..self.k {
            let (word, mask) = class.locate(col, off + fp.probe(i, window));
            class.words[word] |= mask;
        }
        self.n_inserted += 1;
    }

    /// Test `key` against a single bucket.
    #[inline]
    pub fn contains<K: BloomKey>(&self, bucket: usize, key: &K) -> bool {
        let fp = KeyFingerprint::new(key, self.seed);
        let (off, window) = self.layout.probe_window(&fp, self.member_bits(bucket));
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
        let (first, lone) = (out.len(), self.classes.len() == 1);
        for class in &self.classes {
            // A class shares one block choice and one set of positions:
            // word `j` of a tile answers position `j` for its 64 members,
            // and ANDing the key's `k` words leaves exactly the members
            // that hold all of them. At half fill each AND halves the
            // survivors, so a tile without a match drops after ~6 loads.
            let (off, window) = self.layout.probe_window(fp, class.bits);
            let position = |i: u32| (off + fp.probe(i, window)) as usize;
            // The first 64 positions serve every tile; a sparse member's
            // `k` beyond them is reached only by a tile that survived 64.
            let mut head = [0usize; 64];
            let head = &mut head[..self.k.min(64) as usize];
            for (i, slot) in head.iter_mut().enumerate() {
                *slot = position(i as u32);
            }
            let n = class.members.len();
            for (t, tile) in class.words.chunks_exact(class.bits as usize).enumerate() {
                let mut hits = u64::MAX >> (64 - (n - 64 * t).min(64));
                for j in head.iter().copied().chain((64..self.k).map(position)) {
                    hits &= tile[j];
                    if hits == 0 {
                        break;
                    }
                }
                // A lone class holds members `0..S` in column order, so a
                // column is its member and the map's cache miss is skipped.
                if lone {
                    out.extend(set_bits(hits).map(|c| 64 * t + c));
                } else {
                    out.extend(set_bits(hits).map(|c| class.members[64 * t + c] as usize));
                }
            }
        }
        // Each class's matches ascend; several classes interleave.
        if !lone {
            out[first..].sort_unstable();
        }
    }

    /// Grow the group to `s` member filters, e.g. when an insert lands
    /// on a page beyond the leaf's current page range (Algorithm 3's
    /// range extension). New members take `total_bits / len` bits, an
    /// even group's one size. No-op if `s ≤ len`.
    pub fn extend_to(&mut self, s: usize) {
        let len = self.len();
        if s <= len {
            return;
        }
        let bits = self.total_bits() / len as u64;
        let found = self.classes.binary_search_by_key(&bits, |c| c.bits);
        let at = found.unwrap_or_else(|at| {
            // A new size: the classes after it move up one place.
            for slot in &mut self.slots {
                slot.0 += u32::from(slot.0 >= at as u32);
            }
            self.classes.insert(at, SizeClass::default());
            at
        });
        let class = &mut self.classes[at];
        class.bits = bits;
        for b in len..s {
            self.slots.push((at as u32, class.members.len() as u32));
            class.members.push(b as u32);
        }
        class.fit_tiles();
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

    /// Serialize: `[s: u32][k: u32][per: u64][seed: u64][n: u64]
    /// [n_starts: u32][starts...][words...]` — one member size writes it
    /// as `per` and no `starts`; more write `per = 0` and the `S + 1`
    /// offsets, member `b` owning bits `[starts[b], starts[b+1])` of
    /// the filter-major `words` (module docs). Bit 31 of `s` carries
    /// the probe layout.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut starts = vec![0u64; self.len() + 1];
        for b in 0..self.len() {
            starts[b + 1] = starts[b] + self.member_bits(b);
        }
        let (per, written) = match self.classes.as_slice() {
            [one] => (one.bits, &[][..]),
            _ => (0, &starts[..]),
        };
        let n_words = starts[self.len()].div_ceil(64) as usize;
        let mut out = Vec::with_capacity(36 + written.len() * 8 + n_words * 8);
        let s_word = self.len() as u32
            | match self.layout {
                FilterLayout::Standard => 0,
                FilterLayout::Blocked => Self::BLOCKED_FLAG,
            };
        out.extend_from_slice(&s_word.to_le_bytes());
        out.extend_from_slice(&self.k.to_le_bytes());
        out.extend_from_slice(&per.to_le_bytes());
        out.extend_from_slice(&self.seed.to_le_bytes());
        out.extend_from_slice(&self.n_inserted.to_le_bytes());
        out.extend_from_slice(&(written.len() as u32).to_le_bytes());
        for v in written {
            out.extend_from_slice(&v.to_le_bytes());
        }
        // Bit `i` of word `j` of tile `c` is image bit `starts[m] + j`,
        // `m` the class's member in column `64·c + i`.
        let mut image = vec![0u64; n_words];
        for class in &self.classes {
            let bits = class.bits as usize;
            for (at, &word) in class.words.iter().enumerate() {
                let (c, j) = (at / bits, at % bits);
                for i in set_bits(word) {
                    let bit = starts[class.members[c * 64 + i] as usize] as usize + j;
                    image[bit / 64] |= 1u64 << (bit % 64);
                }
            }
        }
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
        let body = &data[at..];
        if body.len() != total.div_ceil(64) as usize * 8 {
            return None;
        }
        // Every member has a bit of the body, so what follows allocates
        // at most 64× the image (`⌈n/64⌉ ≤ n` tiles per class).
        let sizes = if starts.is_empty() {
            vec![per; s]
        } else {
            starts.windows(2).map(|w| w[1] - w[0]).collect()
        };
        let mut group = Self::with_sizes(&sizes, k, seed, layout);
        group.n_inserted = n_inserted;
        // Set bits ascend; member `b` owns `[start, start + sizes[b])`.
        let (mut b, mut start) = (0usize, 0u64);
        for (w, word) in body.chunks_exact(8).enumerate() {
            let word = u64::from_le_bytes(word.try_into().expect("chunk of 8"));
            for bit in set_bits(word).map(|i| (w * 64 + i) as u64) {
                while bit - start >= sizes[b] {
                    start += sizes[b];
                    b += 1;
                    if b == s {
                        return None; // set padding: not a written group
                    }
                }
                let (class, col) = group.slots[b];
                let class = &mut group.classes[class as usize];
                let (word, mask) = class.locate(col, bit - start);
                class.words[word] |= mask;
            }
        }
        Some(group)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::math;
    use FilterLayout::Standard;

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
        let weights = [3u64, 0, 1, 1, 2, 0, 7, 1, 0, 2];
        for k in [3u32, 64, 65, 220] {
            let even = BloomGroup::new(1 << 14, 10, k, 2);
            let weighted = BloomGroup::new_weighted_with_layout(1 << 14, &weights, k, 2, Standard);
            for mut g in [even, weighted] {
                for key in 0u64..500 {
                    g.insert((key % 10) as usize, &key);
                }
                let mut buf = Vec::new();
                for key in 0u64..600 {
                    buf.clear();
                    g.matching_buckets_into(&key, &mut buf);
                    let reference: Vec<usize> =
                        (0..g.len()).filter(|&b| g.contains(b, &key)).collect();
                    assert_eq!(buf, reference, "k {k}, key {key}");
                }
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
        let (class, col) = g.slots[2];
        let class = &mut g.classes[class as usize];
        for i in 0..64 {
            let (word, mask) = class.locate(col, fp.probe(i, 318));
            class.words[word] |= mask;
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
                let words: usize = g.classes.iter().map(|c| c.words.len()).sum();
                assert!(words * 8 <= 64 * image.len(), "{case}");
            }
        }
        let mut uniform = BloomGroup::new(1 << 12, 4, 3, 0);
        let mut weighted =
            BloomGroup::new_weighted_with_layout(1 << 12, &[10, 0, 40, 5], 3, 0, Standard);
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
            let n_starts = u32::from_le_bytes(image[32..36].try_into().unwrap());
            fields.extend((0..n_starts as usize).map(|i| (36 + 8 * i, 8)));
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
        let words = |g: &BloomGroup| match g.classes.as_slice() {
            [one] => one.words.len(),
            _ => panic!("an even group is one class"),
        };
        let mut g = BloomGroup::new(32_768, 103, 14, 0);
        assert_eq!(g.member_bits(0), 318);
        assert_eq!(words(&g), 2 * 318);
        g.extend_to(128);
        assert_eq!(words(&g), 2 * 318, "spare columns absorb growth");
        g.extend_to(129);
        assert_eq!(words(&g), 3 * 318);
        assert_eq!(words(&BloomGroup::new(32_768, 1, 14, 0)), 32_768);
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
        let mut weighted =
            BloomGroup::new_weighted_with_layout(1 << 12, &[10, 0, 40, 5, 120], 3, 2, Standard);
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
