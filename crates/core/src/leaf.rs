//! The BF-leaf (§4.1): Bloom filters over a page range.

use bftree_bloom::hash::KeyFingerprint;
use bftree_bloom::BloomGroup;
use bftree_storage::PageId;

use crate::config::BfTreeConfig;

/// A BF-Tree leaf node.
///
/// Covers data pages `[min_pid, max_pid]` and keys
/// `[min_key, max_key]`, holding one Bloom filter per group of
/// `pages_per_bf` consecutive pages. The filters share the leaf page's
/// bit budget evenly (Property 1 keeps the fpp unchanged under that
/// split). `#keys` tracks how many distinct keys the leaf has indexed
/// so the tree can split it before the target fpp erodes.
#[derive(Debug, Clone)]
pub struct BfLeaf {
    /// Smallest indexed key.
    pub min_key: u64,
    /// Largest indexed key.
    pub max_key: u64,
    /// First covered data page.
    pub min_pid: PageId,
    /// Last covered data page.
    pub max_pid: PageId,
    /// The paper's `#keys`: distinct keys indexed.
    pub n_keys: u64,
    /// Right sibling (leaf arena index).
    pub next: Option<u32>,
    /// Left sibling (needed when a duplicate run spans leaves).
    pub prev: Option<u32>,
    /// Tombstones for logically deleted keys (§7's deleted-keys list).
    pub deleted: Vec<u64>,
    group: BloomGroup,
    pages_per_bf: u64,
}

impl BfLeaf {
    /// Build a leaf from per-page distinct key lists.
    ///
    /// `pages` holds `(pid, distinct keys in that page)` for a
    /// contiguous ascending pid range; `n_distinct` is the number of
    /// distinct keys across the whole leaf (a key spanning pages counts
    /// once, but is inserted into every page's filter, as Algorithm 2
    /// lines 20–29 prescribe).
    pub fn from_pages(
        config: &BfTreeConfig,
        pages: &[(PageId, Vec<u64>)],
        n_distinct: u64,
    ) -> Self {
        assert!(!pages.is_empty(), "leaf must cover at least one page");
        let min_pid = pages[0].0;
        let max_pid = pages[pages.len() - 1].0;
        debug_assert!(
            pages.windows(2).all(|w| w[1].0 == w[0].0 + 1),
            "pids must be contiguous"
        );

        let s = Self::buckets_for(min_pid, max_pid, config.pages_per_bf);
        let total_bits = config.leaf_filter_bits();
        let mut group = match config.bit_allocation {
            crate::config::BitAllocation::Uniform => {
                let per_filter_keys = (n_distinct.max(1)).div_ceil(s as u64);
                let k = config.k_for((total_bits / s as u64).max(1), per_filter_keys);
                BloomGroup::new(total_bits, s, k, config.seed)
            }
            crate::config::BitAllocation::Proportional => {
                // Weight each bucket by the keys it will receive, so
                // bits-per-key (and the fpp) stay uniform across
                // buckets regardless of per-page skew.
                let mut weights = vec![0u64; s];
                for (pid, keys) in pages {
                    weights[((pid - min_pid) / config.pages_per_bf) as usize] += keys.len() as u64;
                }
                // The global bits-per-key ratio sets k (Equation 1).
                let k = config.k_for(total_bits, n_distinct.max(1));
                BloomGroup::new_weighted(total_bits, &weights, k, config.seed)
            }
        };

        let mut min_key = u64::MAX;
        let mut max_key = 0u64;
        for (pid, keys) in pages {
            let bucket = ((pid - min_pid) / config.pages_per_bf) as usize;
            for &key in keys {
                group.insert(bucket, &key);
                min_key = min_key.min(key);
                max_key = max_key.max(key);
            }
        }
        if min_key == u64::MAX {
            // Leaf over empty pages: degenerate but legal.
            min_key = 0;
            max_key = 0;
        }

        Self {
            min_key,
            max_key,
            min_pid,
            max_pid,
            n_keys: n_distinct,
            next: None,
            prev: None,
            deleted: Vec::new(),
            group,
            pages_per_bf: config.pages_per_bf,
        }
    }

    /// An empty leaf anchored at page `pid` (the initial node of a
    /// freshly created BF-Tree, §4.2).
    pub fn empty(config: &BfTreeConfig, pid: PageId) -> Self {
        let total_bits = config.leaf_filter_bits();
        let k = config.k_for(total_bits, config.max_keys_per_leaf());
        Self {
            min_key: u64::MAX,
            max_key: 0,
            min_pid: pid,
            max_pid: pid,
            n_keys: 0,
            next: None,
            prev: None,
            deleted: Vec::new(),
            group: BloomGroup::new(total_bits, 1, k, config.seed),
            pages_per_bf: config.pages_per_bf,
        }
    }

    fn buckets_for(min_pid: PageId, max_pid: PageId, pages_per_bf: u64) -> usize {
        ((max_pid - min_pid + 1).div_ceil(pages_per_bf)) as usize
    }

    /// Number of data pages covered.
    pub fn n_pages(&self) -> u64 {
        if self.n_keys == 0 && self.min_key > self.max_key {
            0
        } else {
            self.max_pid - self.min_pid + 1
        }
    }

    /// Whether `key` falls into this leaf's key range (Algorithm 1,
    /// line 4).
    pub fn covers_key(&self, key: u64) -> bool {
        self.n_keys > 0 && (self.min_key..=self.max_key).contains(&key)
    }

    /// Whether `pid` falls into this leaf's page range.
    pub fn covers_pid(&self, pid: PageId) -> bool {
        (self.min_pid..=self.max_pid).contains(&pid)
    }

    /// Bucket (filter index) of data page `pid`.
    pub fn bucket_of(&self, pid: PageId) -> usize {
        debug_assert!(self.covers_pid(pid));
        ((pid - self.min_pid) / self.pages_per_bf) as usize
    }

    /// Whether `key` is tombstoned.
    pub fn is_deleted(&self, key: u64) -> bool {
        self.deleted.contains(&key)
    }

    /// Probe all `S` filters with `key` and append the candidate data
    /// pages (expanded from matching buckets) to `out`, in ascending
    /// pid order. Returns the number of filters probed. A one-key
    /// form: it hashes and allocates a bucket buffer per call, so
    /// loops over many keys use [`Self::matching_pages_fp`].
    pub fn matching_pages(&self, key: u64, out: &mut Vec<PageId>) -> u64 {
        let fp = KeyFingerprint::new(&key, self.group.seed());
        let mut buckets = Vec::new();
        self.matching_pages_fp(&fp, out, &mut buckets)
    }

    /// [`Self::matching_pages`] over a precomputed fingerprint and a
    /// caller-provided bucket buffer — the allocation-free entry every
    /// probe uses: it hashes the key once and sweeps each candidate
    /// leaf with the same fingerprint (probe positions depend only on
    /// member geometry, and all leaves share the tree's hash seed).
    pub fn matching_pages_fp(
        &self,
        fp: &KeyFingerprint,
        out: &mut Vec<PageId>,
        buckets: &mut Vec<usize>,
    ) -> u64 {
        buckets.clear();
        self.group.matching_buckets_fp_into(fp, buckets);
        bftree_obs::note_filter_probes(self.group.len() as u64);
        for &b in buckets.iter() {
            let start = self.min_pid + b as u64 * self.pages_per_bf;
            let end = (start + self.pages_per_bf - 1).min(self.max_pid);
            for pid in start..=end {
                out.push(pid);
            }
        }
        self.group.len() as u64
    }

    /// Insert `key` residing on page `pid` (Algorithm 3 lines 2–6):
    /// extends the key range, extends the page range (growing the
    /// filter group) if needed, sets the filter bits and bumps `#keys`.
    pub fn insert(&mut self, key: u64, pid: PageId) {
        if pid > self.max_pid {
            self.max_pid = pid;
            self.group.extend_to(Self::buckets_for(
                self.min_pid,
                self.max_pid,
                self.pages_per_bf,
            ));
        }
        assert!(
            pid >= self.min_pid,
            "cannot extend a leaf's page range downward"
        );
        if self.n_keys == 0 {
            self.min_key = key;
            self.max_key = key;
        } else {
            self.min_key = self.min_key.min(key);
            self.max_key = self.max_key.max(key);
        }
        let bucket = self.bucket_of(pid);
        self.group.insert(bucket, &key);
        self.n_keys += 1;
        self.deleted.retain(|&d| d != key); // re-inserted key is live again
    }

    /// Direct access to the filter group (used by `ProbeDomain` splits
    /// and the test suite).
    pub fn group(&self) -> &BloomGroup {
        &self.group
    }

    /// Indexing granularity: consecutive data pages per filter.
    pub fn pages_per_bf(&self) -> u64 {
        self.pages_per_bf
    }

    /// Reassemble a leaf from its stored parts (page-image
    /// deserialization); `config` is consulted only for validation.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        min_key: u64,
        max_key: u64,
        min_pid: PageId,
        max_pid: PageId,
        n_keys: u64,
        group: BloomGroup,
        pages_per_bf: u64,
        config: &BfTreeConfig,
    ) -> Self {
        config.validate();
        Self {
            min_key,
            max_key,
            min_pid,
            max_pid,
            n_keys,
            next: None,
            prev: None,
            deleted: Vec::new(),
            group,
            pages_per_bf,
        }
    }

    /// Estimated *current* fpp of the leaf's filters, from their fill
    /// ratios — this is what drifts upward under inserts (Figure 14).
    pub fn current_fpp(&self) -> f64 {
        if self.group.is_empty() {
            return 0.0;
        }
        let sum: f64 = (0..self.group.len())
            .map(|b| self.group.current_fpp(b))
            .sum();
        sum / self.group.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> BfTreeConfig {
        BfTreeConfig {
            fpp: 1e-3,
            ..BfTreeConfig::paper_default()
        }
    }

    fn leaf_over(pages: &[(PageId, Vec<u64>)]) -> BfLeaf {
        let distinct: std::collections::HashSet<u64> = pages
            .iter()
            .flat_map(|(_, ks)| ks.iter().copied())
            .collect();
        BfLeaf::from_pages(&cfg(), pages, distinct.len() as u64)
    }

    #[test]
    fn covers_and_ranges() {
        let l = leaf_over(&[(10, vec![100, 101]), (11, vec![102, 103]), (12, vec![104])]);
        assert_eq!(l.group().len(), 3);
        assert_eq!(l.n_pages(), 3);
        assert!(l.covers_key(102));
        assert!(!l.covers_key(99));
        assert!(!l.covers_key(105));
        assert!(l.covers_pid(11));
        assert!(!l.covers_pid(13));
        assert_eq!((l.min_key, l.max_key), (100, 104));
    }

    #[test]
    fn matching_pages_finds_home_page() {
        let pages: Vec<(PageId, Vec<u64>)> = (0..50u64)
            .map(|p| (p + 100, (p * 10..p * 10 + 10).collect()))
            .collect();
        let l = leaf_over(&pages);
        let mut out = Vec::new();
        for key in 0..500u64 {
            out.clear();
            let probed = l.matching_pages(key, &mut out);
            assert_eq!(probed, 50);
            assert!(
                out.contains(&(key / 10 + 100)),
                "key {key} home page missing"
            );
        }
    }

    #[test]
    fn spanning_key_matches_every_covering_page() {
        // Key 7 lives on pages 0,1,2.
        let l = leaf_over(&[(0, vec![7]), (1, vec![7]), (2, vec![7, 8])]);
        let mut out = Vec::new();
        l.matching_pages(7, &mut out);
        assert!(out.contains(&0) && out.contains(&1) && out.contains(&2));
    }

    #[test]
    fn coarser_granularity_reduces_filters_but_widens_fetches() {
        let config = BfTreeConfig {
            pages_per_bf: 4,
            ..cfg()
        };
        let pages: Vec<(PageId, Vec<u64>)> =
            (0..8u64).map(|p| (p, vec![p * 2, p * 2 + 1])).collect();
        let l = BfLeaf::from_pages(&config, &pages, 16);
        assert_eq!(l.group().len(), 2);
        let mut out = Vec::new();
        l.matching_pages(0, &mut out);
        // Bucket 0 expands to its whole 4-page group.
        assert!(out.windows(2).all(|w| w[1] == w[0] + 1));
        assert!(out.contains(&0) && out.contains(&3));
    }

    #[test]
    fn insert_extends_ranges_and_filters() {
        let mut l = BfLeaf::empty(&cfg(), 5);
        l.insert(42, 5);
        assert!(l.covers_key(42));
        assert_eq!(l.n_keys, 1);
        l.insert(50, 7); // extends page range by two pages
        assert_eq!(l.group().len(), 3);
        assert!(l.covers_pid(7));
        let mut out = Vec::new();
        l.matching_pages(50, &mut out);
        assert!(out.contains(&7));
        assert_eq!((l.min_key, l.max_key), (42, 50));
    }

    #[test]
    #[should_panic(expected = "downward")]
    fn insert_below_min_pid_panics() {
        let mut l = BfLeaf::empty(&cfg(), 5);
        l.insert(1, 4);
    }

    #[test]
    fn tombstones() {
        let mut l = BfLeaf::empty(&cfg(), 0);
        l.insert(9, 0);
        l.deleted.push(9);
        assert!(l.is_deleted(9));
        l.insert(9, 0);
        assert!(!l.is_deleted(9), "re-insert revives the key");
    }

    #[test]
    fn current_fpp_grows_with_load() {
        let mut l = BfLeaf::empty(&cfg(), 0);
        let before = l.current_fpp();
        for k in 0..5_000u64 {
            l.insert(k, 0);
        }
        assert!(l.current_fpp() > before);
    }

    #[test]
    fn empty_leaf_covers_nothing() {
        let l = BfLeaf::empty(&cfg(), 3);
        assert!(!l.covers_key(0));
        assert_eq!(l.n_keys, 0);
    }
}
