//! Page-based B+-Tree — the paper's principal baseline.
//!
//! The tree follows the classic disk-oriented design the paper assumes
//! (§1, §5): fixed-size nodes whose fanout is `page_size / (key_size +
//! ptr_size)` (Equation 2), a linked leaf level, bulk loading, point
//! search, range scans, inserts with node splits, and deletes.
//!
//! Two details matter for fidelity to the paper's numbers:
//!
//! * **Duplicate handling.** For non-unique *ordered* attributes the
//!   paper's B+-Tree stores one entry per distinct key (its Equation 3
//!   divides the key space by `avgcard`, and Table 2's ATT1 sizes only
//!   work out this way); consecutive duplicates are then read directly
//!   from the data file. [`DuplicateMode`] selects between that and a
//!   plain entry-per-tuple tree.
//! * **Fill factor.** Bulk loads can pack leaves to any occupancy; the
//!   paper's measured trees sit at ≈ 0.81, which the harness passes in
//!   when reproducing Table 2.
//!
//! Every node visit is charged to a [`bftree_storage::PageDevice`], so
//! the harness can place the index on memory / SSD / HDD.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod access;
pub mod node;
pub mod tree;
pub mod tupleref;

pub use access::relation_entries;
pub use node::{BTreeConfig, DuplicateMode};
pub use tree::{BPlusTree, FloorCursor};
pub use tupleref::TupleRef;
