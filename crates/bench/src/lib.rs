//! # Experiment harness for the BF-Tree reproduction
//!
//! Everything needed to regenerate the paper's tables and figures:
//!
//! * [`figures`] — one function per artifact of the paper's evaluation
//!   (Tables 2–3, Figures 1–14, the §7 comparison) in one table,
//!   [`figures::FIGURES`]; the crate's one binary runs them:
//!   `cargo run --release -p bftree-bench --bin figures -- fig5_pk`
//!   (`list` names them, `all` runs every one).
//! * [`scale`] — experiment sizing: a [`Scale`] read once from the
//!   environment and passed down (defaults preserve every ratio the
//!   figures are about at laptop scale).
//! * [`experiments`] — datasets, probe workloads and the fpp ×
//!   storage-configuration sweeps the figures share.
//! * [`indexes`] — builders for each competitor (BF-Tree, B+-Tree,
//!   hash index, FD-Tree) plus [`run_probes`], the one generic probe
//!   driver over `&dyn AccessMethod`.
//! * [`parallel`] — the concurrent counterpart: [`run_probes_parallel`]
//!   (N lock-free probe workers over one shared index) and
//!   [`run_mixed_parallel`] (YCSB-style read/insert mixes through a
//!   `ConcurrentIndex`), with per-op latency histograms in simulated
//!   time.
//! * [`report`] — aligned-table and CSV output.
//!
//! The stack's *performance* is measured elsewhere, by `benchmark/`
//! (`bfbench`); the assertions the retired experiment binaries held
//! live in `tests/` as named tests.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod experiments;
pub mod figures;
pub mod indexes;
pub mod parallel;
pub mod report;
pub mod scale;

pub use bftree_access::{AccessMethod, ConcurrentIndex};
pub use bftree_storage::{IoContext, Relation, StorageConfig};
pub use experiments::{
    att1_probes, baseline_btree, best_per_config, pk_probes, relation_r_att1, relation_r_pk,
    sweep_bftree, Dataset, SweepPoint,
};
pub use indexes::{
    build_bftree, build_btree, build_btree_with_mode, build_fdtree, build_hashindex, build_index,
    run_probes, IndexKind, RunResult,
};
pub use parallel::{
    run_mixed_parallel, run_probes_parallel, LatencyHistogram, ParallelRunResult, ThreadStats,
};
pub use report::{fmt_f, fmt_fpp, Report};
pub use scale::Scale;
