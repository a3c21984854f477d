//! # bftree-repro — BF-Tree: Approximate Tree Indexing (VLDB 2014)
//!
//! Umbrella crate of the reproduction: re-exports the public surface
//! of every member crate so examples and downstream users can depend
//! on one package.
//!
//! * [`bftree`] — the BF-Tree itself (the paper's contribution).
//! * [`access`](bftree_access) — the unified [`bftree_access::AccessMethod`]
//!   trait every index implements.
//! * [`bloom`](bftree_bloom) — Bloom-filter substrate.
//! * [`storage`](bftree_storage) — pages, heap files, simulated devices,
//!   and the [`bftree_storage::Relation`]/[`bftree_storage::IoContext`]
//!   handles every query runs against.
//! * [`bufferpool`](bftree_bufferpool) — the shared, sharded
//!   [`bftree_bufferpool::BufferManager`] (one byte budget across all
//!   devices, pluggable eviction policies) behind the warm paths.
//! * [`btree`](bftree_btree) — B+-Tree baseline.
//! * [`hashindex`](bftree_hashindex) — in-memory hash-index baseline.
//! * [`fdtree`](bftree_fdtree) — FD-Tree baseline.
//! * [`wal`](bftree_wal) — write-ahead log: checksummed records,
//!   per-record/group-commit/async durability, torn-tail recovery
//!   reader (the durable write path under
//!   [`bftree_access::DurableIndex`]).
//! * [`model`](bftree_model) — Section-5 analytical model.
//! * [`workloads`](bftree_workloads) — synthetic R / TPCH / SHD.
//! * [`obs`](bftree_obs) — structured observability: spans, metrics
//!   registry, exportable traces.
//! * [`shard`](bftree_shard) — the sharded serving layer:
//!   [`bftree_shard::ShardedIndex`] range-partitions a relation across
//!   N durable shards behind a batch router, with
//!   [`bftree_shard::ShardedContinuation`] tokens resuming paginated
//!   scans across shard boundaries.
//! * [`net`](bftree_net) — the wire-protocol front end: a
//!   length-prefixed, CRC-framed binary protocol over TCP, a blocking
//!   [`bftree_net::Server`] and a pipelining [`bftree_net::Client`].
//!
//! ## Quickstart
//!
//! ```
//! use bftree::BfTree;
//! use bftree_access::AccessMethod;
//! use bftree_storage::{Duplicates, HeapFile, IoContext, Relation, TupleLayout};
//! use bftree_storage::tuple::PK_OFFSET;
//!
//! // A relation ordered on its primary key.
//! let mut heap = HeapFile::new(TupleLayout::new(256));
//! for pk in 0..10_000u64 {
//!     heap.append_record(pk, pk / 11);
//! }
//! let relation = Relation::new(heap, PK_OFFSET, Duplicates::Unique)?;
//!
//! // Build with the typed builder; probe through the trait.
//! let tree = BfTree::builder().fpp(1e-3).pages_per_bf(1).build(&relation)?;
//! let index: &dyn AccessMethod = &tree;
//! let probe = index.probe_first(4_242, &relation, &IoContext::unmetered())?;
//! assert!(probe.found());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]

pub use bftree;
pub use bftree_access;
pub use bftree_bloom;
pub use bftree_btree;
pub use bftree_bufferpool;
pub use bftree_fdtree;
pub use bftree_hashindex;
pub use bftree_model;
pub use bftree_net;
pub use bftree_obs;
pub use bftree_shard;
pub use bftree_storage;
pub use bftree_wal;
pub use bftree_workloads;
