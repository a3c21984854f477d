//! Sharded serving layer of the BF-Tree reproduction.
//!
//! The paper's index is a single-node structure; this crate is the
//! layer that serves it at fleet scale without touching any of the
//! single-node code:
//!
//! * [`ShardPlan`] — a range-partition map over the key domain, with
//!   load-aware quantile boundaries ([`ShardPlan::from_sample`]) so a
//!   skewed (Zipfian) workload still spreads evenly.
//! * [`RangeView`] — an [`AccessMethod`] facade that restricts any
//!   inner index to one shard's key slice; because it implements
//!   `build` as "index my slice", the whole durable write path
//!   (`DurableIndex`: memtable, WAL, crash recovery) shards verbatim.
//! * [`ShardedIndex`] — N durable stacks behind one `AccessMethod`: a
//!   router for batched probes (split the batch at shard boundaries,
//!   probe shard by shard on the calling thread, write each answer
//!   into its input position) and a range cursor that stitches shards
//!   together under the PR-5 continuation protocol. It starts no
//!   threads: the callers (one per connection in `bftree-net`) are the
//!   parallelism. Itself passes the full access-method conformance
//!   battery.
//! * [`ShardedContinuation`] — a pagination token stamped with the
//!   shard layout it was minted under, so resuming under a different
//!   layout fails typed ([`ShardError::LayoutMismatch`]) instead of
//!   silently scanning the wrong keys.
//! * [`ShardedIo`] — one [`bftree_storage::IoContext`] per shard, all
//!   drawing from ONE global buffer budget: adding shards never adds
//!   memory.
//!
//! The simulated-time cost model carries over: each shard accumulates
//! its own service clock, and the router's parallel cost is the
//! bottleneck shard's total ([`ShardedIndex::makespan_sim_ns`]) —
//! one device channel per shard, the same convention the bench crate
//! uses for thread scaling.
//!
//! [`AccessMethod`]: bftree_access::AccessMethod

#![forbid(unsafe_code)]

pub mod envelope;
pub mod index;
pub mod plan;
pub mod storage;
pub mod view;

pub use envelope::ShardedContinuation;
pub use index::{ShardStack, ShardedIndex};
pub use plan::ShardPlan;
pub use storage::ShardedIo;
pub use view::RangeView;

use bftree_access::ProbeError;

/// Errors of the sharded serving layer.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ShardError {
    /// A continuation token was minted under a layout with a
    /// different shard count.
    LayoutMismatch {
        /// Shards in the serving layout.
        expected_shards: usize,
        /// Shards in the layout the token was minted under.
        got_shards: usize,
    },
    /// Same shard count, different partition boundaries.
    BoundaryMismatch {
        /// Fingerprint of the serving layout.
        expected: u64,
        /// Fingerprint stamped in the token.
        got: u64,
    },
    /// An underlying probe failed.
    Probe(ProbeError),
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::LayoutMismatch {
                expected_shards,
                got_shards,
            } => write!(
                f,
                "continuation minted under a {got_shards}-shard layout, \
                 serving layout has {expected_shards}"
            ),
            ShardError::BoundaryMismatch { expected, got } => write!(
                f,
                "continuation minted under different shard boundaries \
                 (layout fingerprint {got:#018x}, serving {expected:#018x})"
            ),
            ShardError::Probe(e) => write!(f, "shard probe failed: {e}"),
        }
    }
}

impl std::error::Error for ShardError {}

impl From<ProbeError> for ShardError {
    fn from(e: ProbeError) -> Self {
        ShardError::Probe(e)
    }
}
