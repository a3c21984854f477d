//! # BF-Tree: Approximate Tree Indexing
//!
//! From-scratch reproduction of the BF-Tree of Athanassoulis & Ailamaki
//! (PVLDB 7(14), VLDB 2014): a tree index whose leaves hold **Bloom
//! filters over page ranges** instead of exact `⟨key, pointer⟩` pairs,
//! trading a parameterizable amount of indexing accuracy (false
//! positive probability, *fpp*) for a drastically smaller index —
//! 2.2×–48× smaller than a B+-Tree in the paper's experiments.
//!
//! A BF-Tree assumes the data file is *ordered or partitioned* on the
//! indexed attribute (the paper's "implicit clustering"): each BF-leaf
//! covers a contiguous page range `[min_pid, max_pid]` and key range
//! `[min_key, max_key]`, and stores `S` Bloom filters, one per page (or
//! per group of `c` consecutive pages). A probe routes through ordinary
//! B+-Tree internal nodes to a BF-leaf, tests all its filters, and
//! fetches only the matching pages.
//!
//! ```
//! use bftree::BfTree;
//! use bftree_access::AccessMethod;
//! use bftree_storage::{Duplicates, HeapFile, IoContext, Relation, TupleLayout};
//! use bftree_storage::tuple::PK_OFFSET;
//!
//! // A small relation ordered on its primary key.
//! let mut heap = HeapFile::new(TupleLayout::new(256));
//! for pk in 0..10_000u64 {
//!     heap.append_record(pk, pk / 11);
//! }
//! let relation = Relation::new(heap, PK_OFFSET, Duplicates::Unique)?;
//!
//! let tree = BfTree::builder().fpp(1e-3).build(&relation)?;
//!
//! let index: &dyn AccessMethod = &tree;
//! let probe = index.probe(4242, &relation, &IoContext::unmetered())?;
//! assert_eq!(probe.matches.len(), 1);
//! assert!(tree.total_pages() < 100); // far smaller than a B+-Tree
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! Modules:
//! * [`config`] — tuning knobs: fpp, pages-per-BF granularity, hash
//!   strategy, split strategy.
//! * [`builder`] — typed, fallible construction over a
//!   [`bftree_storage::Relation`].
//! * [`access`] — the [`bftree_access::AccessMethod`] implementation.
//! * [`leaf`] — the BF-leaf (§4.1).
//! * [`tree`] — bulk load, Algorithm 1 (search), Algorithm 3 (insert),
//!   Algorithm 2 (split), deletes.
//! * [`scan`] — range scans over partitions (§7, Figure 13): the
//!   pull-based [`scan::BfRangeCursor`] core plus the §7
//!   boundary-probing scan.
//! * [`stats`] — one probe's outcome: matches, false reads, pages
//!   fetched, BFs probed (Table 3).
//! * [`page_image`] — a BF-leaf as one fixed-size node (§4.1): the
//!   check that the reported index size is honest, which proportionally
//!   divided leaves still fail (ROADMAP 12(c)).
//!
//! Drivers: every `figures <id>` that builds a BF-Tree, all four
//! `bfbench` workloads and the `examples/`. Of the paper's §7/§8
//! "could also" list, what is here is what one of those (or a test
//! that checks a default against it) runs; CHANGES.md (PR 21) lists
//! what was cut and why.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod access;
pub mod builder;
pub mod config;
pub mod leaf;
pub mod page_image;
pub mod scan;
pub mod stats;
pub mod tree;

pub use bftree_access::{AccessMethod, BuildError, IndexStats, Probe, ProbeError, RangeScan};
pub use builder::BfTreeBuilder;
pub use config::{
    BfTreeConfig, BitAllocation, DuplicateHandling, FilterLayout, KStrategy, SplitStrategy,
};
pub use leaf::BfLeaf;
pub use page_image::PageImageError;
pub use stats::ProbeResult;
pub use tree::BfTree;
