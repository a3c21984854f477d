//! # Experiment harness for the BF-Tree reproduction
//!
//! Everything needed to regenerate the paper's tables and figures:
//!
//! * [`configs`] — the five index/data storage configurations
//!   (Mem/HDD, SSD/HDD, HDD/HDD, Mem/SSD, SSD/SSD), re-exported from
//!   `bftree_storage` as [`StorageConfig`]/[`IoContext`].
//! * [`indexes`] — builders for each competitor (BF-Tree, B+-Tree,
//!   hash index, FD-Tree) plus [`run_probes`], the one generic probe
//!   driver over `&dyn AccessMethod` every experiment shares, and
//!   [`run_probes_batched`], the same driver with a batch-size knob
//!   over `AccessMethod::probe_batch` (drives the `probe_pipeline`
//!   experiment).
//! * [`parallel`] — the concurrent serving path:
//!   [`run_probes_parallel`] (N lock-free probe workers over one
//!   shared index), [`run_probes_parallel_batched`] (the same with a
//!   batch-size knob) and [`run_mixed_parallel`] (YCSB-style
//!   read/insert mixes through a `ConcurrentIndex`), with per-op
//!   latency histograms; drives the `scaling_threads` experiment.
//! * [`report`] — aligned-table and CSV output; [`json`] — the
//!   `BENCH_*.json` perf-baseline writer.
//! * [`scale`] — experiment sizing (env-overridable; defaults preserve
//!   every ratio the figures are about at laptop scale).
//!
//! One binary per table/figure lives in `src/bin/`; run them as
//! `cargo run --release -p bftree-bench --bin fig5_pk`. Dependency-free
//! micro-benchmarks live in `benches/`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod configs;
pub mod experiments;
pub mod figures;
pub mod indexes;
pub mod json;
pub mod microbench;
pub mod parallel;
pub mod report;
pub mod scale;
pub mod storage_args;

pub use bftree_access::{AccessMethod, ConcurrentIndex};
pub use bftree_storage::{IoContext, Relation, StorageConfig};
pub use experiments::{
    att1_probes, att1_probes_in_range_misses, baseline_btree, best_per_config, pk_probes,
    relation_r_att1, relation_r_pk, sweep_bftree, Dataset, SweepPoint,
};
pub use figures::{breakeven_figure, warm_caches_figure};
pub use indexes::{
    build_bftree, build_bftree_with_config, build_btree, build_btree_with_mode, build_fdtree,
    build_hashindex, build_index, run_probes, run_probes_batched, IndexKind, RunResult,
};
pub use json::{JsonObject, JsonValue};
pub use parallel::{
    run_mixed_parallel, run_probes_parallel, run_probes_parallel_batched, LatencyHistogram,
    ParallelRunResult, ThreadStats,
};
pub use report::{fmt_f, fmt_fpp, Report};
pub use storage_args::StorageArgs;
