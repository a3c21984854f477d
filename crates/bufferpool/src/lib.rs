//! # Shared buffer manager for the BF-Tree reproduction
//!
//! The paper's central trade-off — a smaller index buys back buffer
//! headroom for data pages — needs a place where index and data
//! caching *compete for one memory budget*. This crate is that place:
//!
//! * [`manager`] — [`BufferManager`]: a concurrent, sharded page cache
//!   with a single byte-denominated budget shared by every pool
//!   (device) registered with it, prewarm, budget reservations (an
//!   index's resident footprint directly shrinks what is left for
//!   data pages), and a trace-replay exactness check for its counters.
//! * [`policy`] — the [`EvictionPolicy`] trait and three disciplines:
//!   strict [`Lru`], second-chance [`Clock`], and simplified [`TwoQ`].
//!
//! `bftree-storage`'s simulated devices delegate their warm paths
//! here; `tests/buffer_manager.rs` fixes each policy's eviction order
//! and the paper's memory-pressure story (a smaller index leaves more
//! of the budget to data pages).
//!
//! ```
//! use bftree_bufferpool::{BufferManager, PolicyKind};
//!
//! let mgr = BufferManager::new(8 * 4096, PolicyKind::Lru);
//! let data = mgr.register_pool("data");
//! assert!(!mgr.touch(data, 7, 4096).is_hit()); // cold miss
//! assert!(mgr.touch(data, 7, 4096).is_hit()); // resident
//! assert_eq!(mgr.stats().hit_rate(), 0.5);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod manager;
pub mod policy;

pub use manager::{Access, BufferManager, BufferStats, PoolId, ReplayCheck, Victims};
pub use policy::{Clock, EvictionPolicy, Lru, PolicyKind, TwoQ};
