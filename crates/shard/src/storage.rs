//! Per-shard I/O contexts behind ONE global buffer budget.
//!
//! The serving layer's memory rule: every shard gets its own device
//! channels (so per-shard I/O stays attributable and per-thread sim
//! clocks stay independent), but all of them draw cache frames and
//! index-footprint carve-outs from a single [`BufferManager`] budget —
//! adding shards never adds memory.

use std::sync::Arc;

use bftree_storage::{
    Backend, BufferManager, BufferStats, DeviceError, IoContext, PolicyKind, StorageConfig,
};

/// A fleet of [`IoContext`]s — one per shard — sharing one
/// [`BufferManager`].
///
/// Construction registers pools `shard{i}-index` / `shard{i}-data`
/// for each shard, so page ids of different shards never collide in
/// the cache. Each shard's device counters stay its own, but the
/// manager's residency, hits, evictions and carve-outs are
/// fleet-wide ([`ShardedIo::buffer_stats`], and the manager's metrics
/// carry no shard label): a carve-out made through any shard's
/// context ([`IoContext::reserve_index_footprint`]) shrinks every
/// shard's cache share.
#[derive(Debug)]
pub struct ShardedIo {
    manager: Arc<BufferManager>,
    ios: Vec<IoContext>,
}

impl ShardedIo {
    /// Build `shards` contexts on `backend` under one `budget_bytes`
    /// cache budget.
    pub fn new(
        backend: &Backend,
        config: StorageConfig,
        budget_bytes: u64,
        policy: PolicyKind,
        shards: usize,
    ) -> Result<Self, DeviceError> {
        assert!(shards > 0, "a fleet needs at least one shard");
        let manager = Arc::new(BufferManager::new(budget_bytes, policy));
        let ios = (0..shards)
            .map(|i| {
                IoContext::with_shared_manager_on(backend, config, &manager, &format!("shard{i}"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self { manager, ios })
    }

    /// All contexts, shard-indexed.
    pub fn ios(&self) -> &[IoContext] {
        &self.ios
    }

    /// Shard `s`'s context.
    pub fn io(&self, s: usize) -> &IoContext {
        &self.ios[s]
    }

    /// Dissolve the fleet into its owned contexts (shard-indexed) —
    /// what a serving front end keeps once set-up is done. The
    /// contexts still share the one budget arbiter.
    pub fn into_ios(self) -> Vec<IoContext> {
        self.ios
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.ios.len()
    }

    /// The shared budget arbiter.
    pub fn manager(&self) -> &Arc<BufferManager> {
        &self.manager
    }

    /// Global buffer statistics.
    pub fn buffer_stats(&self) -> BufferStats {
        self.manager.stats()
    }
}
