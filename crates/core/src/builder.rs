//! Typed, fallible construction of a [`BfTree`].
//!
//! The builder replaces panicking positional construction with a
//! fluent API over a [`Relation`]:
//!
//! ```
//! use bftree::BfTree;
//! use bftree_storage::{Duplicates, HeapFile, Relation, TupleLayout};
//! use bftree_storage::tuple::PK_OFFSET;
//!
//! let mut heap = HeapFile::new(TupleLayout::new(256));
//! for pk in 0..10_000u64 {
//!     heap.append_record(pk, pk / 11);
//! }
//! let relation = Relation::new(heap, PK_OFFSET, Duplicates::Unique)?;
//!
//! let tree = BfTree::builder()
//!     .fpp(1e-3)
//!     .pages_per_bf(4)
//!     .build(&relation)?;
//! assert!(tree.total_pages() < 100);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::ops::RangeInclusive;

use bftree_access::BuildError;
use bftree_storage::{Duplicates, Relation};

use crate::config::{BfTreeConfig, BitAllocation, DuplicateHandling, KStrategy, SplitStrategy};
use crate::tree::BfTree;

/// Fluent builder for [`BfTree`]; obtain one with [`BfTree::builder`].
///
/// Every knob defaults to [`BfTreeConfig::paper_default`]; duplicate
/// handling is derived from the relation at build time (contiguous
/// duplicates get the first-page-only filter loading, scattered
/// duplicates the paper-faithful all-covering-pages semantics) unless
/// pinned with [`BfTreeBuilder::duplicates`].
#[derive(Debug, Clone)]
pub struct BfTreeBuilder {
    config: BfTreeConfig,
    duplicates_pin: Option<DuplicateHandling>,
}

impl Default for BfTreeBuilder {
    fn default() -> Self {
        Self {
            config: BfTreeConfig::paper_default(),
            duplicates_pin: None,
        }
    }
}

impl BfTreeBuilder {
    /// Target false-positive probability per filter (the paper's
    /// central accuracy/size knob).
    pub fn fpp(mut self, fpp: f64) -> Self {
        self.config.fpp = fpp;
        self
    }

    /// Consecutive data pages per Bloom filter (the paper's knob (i)).
    pub fn pages_per_bf(mut self, pages: u64) -> Self {
        self.config.pages_per_bf = pages;
        self
    }

    /// Node (page) size in bytes.
    pub fn page_size(mut self, bytes: usize) -> Self {
        self.config.page_size = bytes;
        self
    }

    /// Hash-count strategy.
    pub fn k_strategy(mut self, k: KStrategy) -> Self {
        self.config.k_strategy = k;
        self
    }

    /// Split strategy for Algorithm 2.
    pub fn split(mut self, split: SplitStrategy) -> Self {
        self.config.split = split;
        self
    }

    /// Per-filter bit budgeting.
    pub fn bit_allocation(mut self, alloc: BitAllocation) -> Self {
        self.config.bit_allocation = alloc;
        self
    }

    /// Hash seed (filters are deterministic given this).
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Pin duplicate handling instead of deriving it from the
    /// relation (ablations).
    pub fn duplicates(mut self, duplicates: DuplicateHandling) -> Self {
        self.duplicates_pin = Some(duplicates);
        self
    }

    /// Start from an explicit full configuration.
    pub fn config(mut self, config: BfTreeConfig) -> Self {
        self.config = config;
        self.duplicates_pin = Some(config.duplicates);
        self
    }

    /// Undo a duplicate-handling pin (including the one implied by
    /// [`BfTreeBuilder::config`]): derive it from the relation again.
    pub fn duplicates_from_relation(mut self) -> Self {
        self.duplicates_pin = None;
        self
    }

    /// The configuration `build` would use for `rel`.
    pub fn config_for(&self, rel: &Relation) -> BfTreeConfig {
        let duplicates = self.duplicates_pin.unwrap_or(match rel.duplicates() {
            // Runs of equal keys are contiguous: only a run's first
            // covering page enters the filters and the realized fpp
            // stays at target (see `DuplicateHandling`).
            Duplicates::Unique | Duplicates::Contiguous => DuplicateHandling::FirstPageOnly,
            Duplicates::Scattered => DuplicateHandling::AllCoveringPages,
        });
        BfTreeConfig {
            duplicates,
            ..self.config
        }
    }

    /// Bulk-load a BF-Tree over `rel` (the paper's two-pass §4.2
    /// load). Fails with a typed error instead of panicking on
    /// invalid parameters.
    pub fn build(&self, rel: &Relation) -> Result<BfTree, BuildError> {
        self.build_slice(rel, 0..=u64::MAX)
    }

    /// [`Self::build`] over only the tuples of `rel` whose key lies in
    /// `slice` (see [`BfTree::bulk_build`]): one shard's index.
    pub fn build_slice(
        &self,
        rel: &Relation,
        slice: RangeInclusive<u64>,
    ) -> Result<BfTree, BuildError> {
        let config = self.config_for(rel);
        config.try_validate()?;
        Ok(BfTree::bulk_build(config, rel.heap(), rel.attr(), slice))
    }

    /// An empty BF-Tree ready for inserts (§4.2: "The initial node of
    /// the BF-Tree is a BF node"), with duplicate handling derived
    /// from `rel`.
    pub fn empty(&self, rel: &Relation) -> Result<BfTree, BuildError> {
        let config = self.config_for(rel);
        config.try_validate()?;
        Ok(BfTree::new(config))
    }
}

impl BfTree {
    /// Start building a BF-Tree (see [`BfTreeBuilder`]).
    pub fn builder() -> BfTreeBuilder {
        BfTreeBuilder::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bftree_storage::tuple::{ATT1_OFFSET, PK_OFFSET};
    use bftree_storage::{HeapFile, TupleLayout};

    fn relation(duplicates: Duplicates) -> Relation {
        let mut heap = HeapFile::new(TupleLayout::new(256));
        for pk in 0..5_000u64 {
            heap.append_record(pk, pk / 11);
        }
        let attr = if duplicates == Duplicates::Unique {
            PK_OFFSET
        } else {
            ATT1_OFFSET
        };
        Relation::new(heap, attr, duplicates).unwrap()
    }

    #[test]
    fn builder_builds_and_derives_duplicates() {
        let rel = relation(Duplicates::Unique);
        let tree = BfTree::builder().fpp(1e-3).build(&rel).unwrap();
        assert_eq!(tree.config().duplicates, DuplicateHandling::FirstPageOnly);
        assert!(tree.n_keys() > 0);

        let rel = relation(Duplicates::Scattered);
        let tree = BfTree::builder().fpp(1e-3).build(&rel).unwrap();
        assert_eq!(
            tree.config().duplicates,
            DuplicateHandling::AllCoveringPages
        );
    }

    #[test]
    fn builder_rejects_bad_fpp_with_typed_error() {
        let rel = relation(Duplicates::Unique);
        let err = BfTree::builder().fpp(0.0).build(&rel).unwrap_err();
        assert!(matches!(err, BuildError::InvalidConfig { what: "fpp", .. }));
        assert!(err.to_string().contains("fpp must be in (0,1)"));
    }

    #[test]
    fn builder_pins_override_derivation() {
        let rel = relation(Duplicates::Unique);
        let tree = BfTree::builder()
            .duplicates(DuplicateHandling::AllCoveringPages)
            .build(&rel)
            .unwrap();
        assert_eq!(
            tree.config().duplicates,
            DuplicateHandling::AllCoveringPages
        );
    }

    #[test]
    fn empty_tree_is_insertable() {
        let rel = relation(Duplicates::Unique);
        let mut tree = BfTree::builder().empty(&rel).unwrap();
        tree.insert_batch(&[(42, 0)], Some(rel.heap()), rel.attr());
        assert_eq!(tree.n_keys(), 1);
    }

    #[test]
    fn knobs_reach_the_config() {
        let rel = relation(Duplicates::Unique);
        let tree = BfTree::builder()
            .fpp(1e-2)
            .pages_per_bf(2)
            .seed(7)
            .k_strategy(KStrategy::Fixed(3))
            .bit_allocation(BitAllocation::Proportional)
            .build(&rel)
            .unwrap();
        let c = tree.config();
        assert_eq!(c.fpp, 1e-2);
        assert_eq!(c.pages_per_bf, 2);
        assert_eq!(c.seed, 7);
        assert_eq!(c.k_strategy, KStrategy::Fixed(3));
        assert_eq!(c.bit_allocation, BitAllocation::Proportional);
    }
}
