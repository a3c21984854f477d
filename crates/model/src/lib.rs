//! # Section-5 analytical model of the BF-Tree paper
//!
//! Closed-form reproductions of Equations 1–14 of *BF-Tree:
//! Approximate Tree Indexing* (Athanassoulis & Ailamaki, PVLDB 7(14)):
//! size and point-probe cost models for the vanilla B+-Tree, the
//! key-prefix–compressed B+-Tree, the BF-Tree, the FD-Tree
//! (Li et al.), and SILT (Lim et al.), plus the Section-7 insert/delete
//! fpp-degradation rules.
//!
//! The models answer the paper's two analytical questions:
//!
//! * **Figure 4(a)** — for which fpp does the BF-Tree beat a B+-Tree on
//!   probe latency? ([`figure4::figure4_series`])
//! * **Figure 4(b)** — how small does it get while doing so?
//!
//! ```
//! use bftree_model::{BfTreeModel, BPlusTreeModel, ModelParams};
//!
//! let params = ModelParams { fpp: 1e-4, ..ModelParams::figure4() };
//! let bf = BfTreeModel::new(params);
//! let bp = BPlusTreeModel::new(params);
//!
//! // The Figure-4 scenario: competitive latency, far smaller index.
//! assert!(bf.probe_cost(true) <= bp.probe_cost(true));
//! assert!(bf.size_bytes() * 5 < bp.size_bytes());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bftree;
pub mod btree;
pub mod fdtree;
pub mod figure4;
pub mod inserts;
pub mod params;
pub mod silt;

pub use bftree::BfTreeModel;
pub use btree::{BPlusTreeModel, CompressedBPlusTreeModel};
pub use fdtree::FdTreeModel;
pub use figure4::{default_fpp_sweep, figure4_series, Figure4Point};
pub use inserts::{fpp_after_deletes, fpp_after_inserts};
pub use params::ModelParams;
pub use silt::{SiltModel, TrieResidency};
