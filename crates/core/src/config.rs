//! BF-Tree tuning knobs.
//!
//! Two values no default selects stay because tests hold the defaults
//! against them as the paper's own references: [`KStrategy::Fixed`]
//! (the prototype's `k = 3`;
//! `crates/core/tests/bftree.rs::fixed_k3_matches_paper_prototype_behaviour`)
//! and [`SplitStrategy::ProbeDomain`] (Algorithm 2 as printed;
//! `tests/inserts_and_splits.rs::split_strategies_agree_on_enumerable_domains`).

use bftree_access::BuildError;
use bftree_bloom::math;

/// How many hash functions each Bloom filter uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KStrategy {
    /// `k = (m/n)·ln 2` per filter, the information-theoretic optimum
    /// assumed by the paper's Equation 1 and required to reach the very
    /// low fpps of its sweeps (10⁻¹⁵).
    Optimal,
    /// A fixed `k`. The paper's prototype fixes `k = 3`, which is
    /// near-optimal only for fpp ≳ 10⁻²; we expose both.
    Fixed(u32),
}

/// How duplicate occurrences of a key map into the per-page filters.
///
/// The choice resolves a tension in the paper: Algorithm 2 inserts a
/// key "in BFs corresponding to all pids", but Equations 5–6 size each
/// leaf by *distinct* keys — with non-unique attributes (ATT1's
/// avg. cardinality 11, TPCH's 2 400) all-pages insertion loads the
/// filters several-fold beyond Equation 5's budget and the realized
/// fpp drifts far above target. Both semantics are supported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DuplicateHandling {
    /// Paper-faithful: every page holding an occurrence of the key gets
    /// the key in its filter. Required when the data is merely
    /// *partitioned* on the key (duplicates may scatter inside the
    /// partition); the realized fpp exceeds the target by roughly
    /// `fpp^(1/spanning_factor)` (Equation 14 with the extra load as
    /// the insert ratio).
    AllCoveringPages,
    /// Ordered-data optimization: only the *first* covering page gets
    /// the key; probes scan forward through the contiguous duplicate
    /// run. Keeps filter load exactly at Equation 5's budget, so the
    /// realized fpp matches the target; invalid if duplicates are not
    /// contiguous.
    FirstPageOnly,
}

/// How the leaf's bit budget is divided among its per-page filters.
///
/// Both values stay because each is the right one somewhere, measured
/// at the default 64 MB scale and on `bfbench`. Built `Uniform`, the
/// paper figures lose their fidelity: `fig11_tpch`'s BF/B+ ratio at
/// 0 % hits goes from 1.00 to 56 540 (Mem/HDD), ATT1's false reads at
/// fpp 2·10⁻³ from 0.789 to 3.40, and the SHD capacity gain from 2.83
/// to 1.55. Built `Proportional`, `bfbench` moves `sim_us_per_op` by
/// +1.35 % on `ingest_file` and −5.6 % on `serve_wire` (one seed-101
/// run each). Both build the same bit-sliced groups: an even split is
/// one size class, a proportional one a class per member size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BitAllocation {
    /// Property 1's even split: every filter gets `total/S` bits. The
    /// realized fpp matches the target only when keys spread evenly
    /// over pages ("as long as the distribution of keys is not highly
    /// skewed", §4.1).
    Uniform,
    /// Bits proportional to each page's distinct-key count, measured at
    /// bulk-load time. Keeps bits-per-key — and therefore fpp — uniform
    /// across filters even when most pages hold no new keys (high
    /// per-key cardinality). Empty pages' filters reject for free. The
    /// leaf's image then also stores its `S + 1` member offsets, which
    /// the bit budget does not pay for, so such a leaf overflows its
    /// node (ROADMAP 12(c); `page_image::tests`).
    Proportional,
}

/// How Algorithm 2 rebuilds the filters of a splitting leaf.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SplitStrategy {
    /// Paper-faithful Algorithm 2: probe the old node's filters for
    /// every key in the leaf's (integer) key range. Only computable for
    /// domains of bounded span; splits are lossy-exact — the new
    /// filters inherit the old filters' false positives.
    ProbeDomain,
    /// Re-read the covered data pages and rebuild both new leaves
    /// exactly. Needs heap access at split time but works for any
    /// domain and resets accumulated false positives.
    RebuildFromData,
}

/// Full configuration of a BF-Tree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BfTreeConfig {
    /// Node (page) size in bytes; the whole page's bit budget backs the
    /// leaf's filters, as the paper's Equation 5 assumes.
    pub page_size: usize,
    /// Target false-positive probability per filter.
    pub fpp: f64,
    /// Indexing granularity: consecutive data pages per Bloom filter
    /// (the paper's knob (i); 1 = one BF per page, "which gives the
    /// best results").
    pub pages_per_bf: u64,
    /// Key size in bytes (internal-node fanout, Equation 2).
    pub key_size: usize,
    /// Pointer size in bytes (internal-node fanout, Equation 2).
    pub ptr_size: usize,
    /// Hash-count strategy.
    pub k_strategy: KStrategy,
    /// Split strategy for Algorithm 2.
    pub split: SplitStrategy,
    /// Duplicate-occurrence handling (see [`DuplicateHandling`]).
    pub duplicates: DuplicateHandling,
    /// Per-filter bit budgeting (see [`BitAllocation`]).
    pub bit_allocation: BitAllocation,
    /// Bytes of each leaf page reserved for the header (ranges,
    /// `#keys`, sibling pointers, delete count); the filters share
    /// the remainder. Equation 5 idealizes the whole page as filter
    /// bits — materializing leaves as real fixed-size nodes
    /// ([`crate::BfLeaf::to_page_bytes`]) needs this reserve, costing
    /// ~3 % of leaf capacity at the default 4 KB/128 B.
    pub leaf_header_reserve: usize,
    /// Hash seed (filters are deterministic given this).
    pub seed: u64,
}

impl BfTreeConfig {
    /// The paper's defaults: 4 KB pages, one BF per data page, 8 B keys
    /// and pointers, optimal k, fpp 10⁻³.
    pub fn paper_default() -> Self {
        Self {
            page_size: 4096,
            fpp: 1e-3,
            pages_per_bf: 1,
            key_size: 8,
            ptr_size: 8,
            k_strategy: KStrategy::Optimal,
            split: SplitStrategy::RebuildFromData,
            duplicates: DuplicateHandling::AllCoveringPages,
            bit_allocation: BitAllocation::Uniform,
            leaf_header_reserve: 128,
            seed: 0x5F1D_BF7E,
        }
    }

    /// [`Self::paper_default`] with the ordered-data duplicate
    /// optimization ([`DuplicateHandling::FirstPageOnly`]) — the right
    /// choice for relations fully *ordered* on the indexed attribute,
    /// like the paper's relation R, TPCH-on-shipdate and SHD datasets.
    pub fn ordered_default() -> Self {
        Self {
            duplicates: DuplicateHandling::FirstPageOnly,
            ..Self::paper_default()
        }
    }

    /// Equation 5: distinct keys one BF-leaf may index at the target
    /// fpp. The paper assumes the whole page's bits back the filters;
    /// here the header reserve is subtracted first so leaves really
    /// fit their fixed-size node.
    pub fn max_keys_per_leaf(&self) -> u64 {
        math::capacity_for(self.leaf_filter_bits(), self.fpp).max(1)
    }

    /// The hash count of a full leaf: `k` for the whole filter block at
    /// [`Self::max_keys_per_leaf`] keys. An empty leaf starts with it,
    /// and no leaf hashes more: for a fixed `k` the expected fpp
    /// `(1 − e^{−kn/m})^k` only grows with the occupancy `n`, so a leaf
    /// below capacity stays below a full leaf's fpp.
    pub fn full_leaf_k(&self) -> u32 {
        self.k_for(self.leaf_filter_bits(), self.max_keys_per_leaf())
    }

    /// Bits available to a leaf's filter block.
    pub fn leaf_filter_bits(&self) -> u64 {
        ((self.page_size - self.leaf_header_reserve) * 8) as u64
    }

    /// Equation 2: internal-node fanout.
    pub fn fanout(&self) -> usize {
        self.page_size / (self.key_size + self.ptr_size)
    }

    /// Hash count for a filter of `m` bits expected to hold `n` keys.
    pub fn k_for(&self, m_bits: u64, n_keys: u64) -> u32 {
        match self.k_strategy {
            KStrategy::Optimal => math::optimal_k(m_bits, n_keys.max(1)),
            KStrategy::Fixed(k) => k,
        }
    }

    /// Validate parameter sanity, returning a typed error — the
    /// checked entry point [`crate::BfTreeBuilder`] uses.
    pub fn try_validate(&self) -> Result<(), BuildError> {
        let invalid =
            |what: &'static str, detail: String| Err(BuildError::InvalidConfig { what, detail });
        if self.page_size < 512 {
            return invalid("page_size", "page size too small".into());
        }
        if !(self.fpp > 0.0 && self.fpp < 1.0) {
            return invalid("fpp", format!("fpp must be in (0,1), got {}", self.fpp));
        }
        if self.pages_per_bf < 1 {
            return invalid("pages_per_bf", "pages_per_bf must be >= 1".into());
        }
        if self.leaf_header_reserve + 64 > self.page_size {
            return invalid(
                "leaf_header_reserve",
                "header reserve leaves no room for filters".into(),
            );
        }
        if let KStrategy::Fixed(k) = self.k_strategy {
            if k < 1 {
                return invalid("k_strategy", "need at least one hash function".into());
            }
        }
        Ok(())
    }

    /// Validate parameter sanity; called by the tree constructors.
    /// Panics where [`Self::try_validate`] returns an error.
    pub fn validate(&self) {
        if let Err(e) = self.try_validate() {
            panic!("{e}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq5_matches_paper_table2_leaf_capacities() {
        // fpp 0.2 -> 9785 keys/leaf; 4M distinct PKs -> ~409 leaves,
        // matching Table 2's 406 (which also counts internal pages).
        let c = BfTreeConfig {
            fpp: 0.2,
            ..BfTreeConfig::paper_default()
        };
        let keys = c.max_keys_per_leaf();
        // 9785 by pure Eq 5; ~3% lower with the header reserve.
        assert!((9400..=9850).contains(&keys), "keys = {keys}");
        let leaves = 4_000_000u64.div_ceil(keys);
        assert!((405..=430).contains(&leaves), "leaves = {leaves}");

        // fpp 1e-15 -> ~455 keys/leaf -> ~8780 leaves vs Table 2's 8565.
        let c = BfTreeConfig {
            fpp: 1e-15,
            ..BfTreeConfig::paper_default()
        };
        let keys = c.max_keys_per_leaf();
        assert!((435..=462).contains(&keys), "keys = {keys}");
    }

    #[test]
    fn fanout_matches_eq2() {
        assert_eq!(BfTreeConfig::paper_default().fanout(), 256);
    }

    #[test]
    fn k_strategies() {
        let c = BfTreeConfig::paper_default();
        assert_eq!(c.k_for(1000, 100), 7);
        let f = BfTreeConfig {
            k_strategy: KStrategy::Fixed(3),
            ..c
        };
        assert_eq!(f.k_for(1000, 100), 3);
    }

    #[test]
    #[should_panic(expected = "fpp must be in (0,1)")]
    fn validate_rejects_bad_fpp() {
        BfTreeConfig {
            fpp: 0.0,
            ..BfTreeConfig::paper_default()
        }
        .validate();
    }
}
