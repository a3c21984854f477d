//! [`IoContext`]: the pair of devices a query charges its page
//! accesses to, plus [`StorageConfig`] — the paper's five
//! index/data device placements (§6.2, Figures 5–12).

use std::sync::Arc;

use bftree_bufferpool::{BufferManager, BufferStats, PolicyKind};

use crate::backend::{Backend, PageDevice};
use crate::device::{DeviceKind, DeviceProfile};
use crate::file::DeviceError;
use crate::page::PageId;

/// One of the paper's index/data device placements.
///
/// The naming follows the paper's legend: `MemHdd` = index in memory,
/// data on HDD. Solid lines in Figures 5/8 are the `*/Hdd` trio,
/// dotted lines the `*/Ssd` pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StorageConfig {
    /// Index in memory, data on HDD.
    MemHdd,
    /// Index on SSD, data on HDD.
    SsdHdd,
    /// Index on HDD, data on HDD.
    HddHdd,
    /// Index in memory, data on SSD.
    MemSsd,
    /// Index on SSD, data on SSD.
    SsdSsd,
}

impl StorageConfig {
    /// All five configurations in the paper's plotting order.
    pub const ALL: [StorageConfig; 5] = [
        StorageConfig::MemHdd,
        StorageConfig::SsdHdd,
        StorageConfig::HddHdd,
        StorageConfig::MemSsd,
        StorageConfig::SsdSsd,
    ];

    /// The three configurations with a device-resident index — the only
    /// ones warm caches change (Figures 7, 10, 12(b)).
    pub const WARMABLE: [StorageConfig; 3] = [
        StorageConfig::SsdSsd,
        StorageConfig::SsdHdd,
        StorageConfig::HddHdd,
    ];

    /// Device kind holding the index.
    pub fn index_kind(self) -> DeviceKind {
        match self {
            StorageConfig::MemHdd | StorageConfig::MemSsd => DeviceKind::Memory,
            StorageConfig::SsdHdd | StorageConfig::SsdSsd => DeviceKind::Ssd,
            StorageConfig::HddHdd => DeviceKind::Hdd,
        }
    }

    /// Device kind holding the main data.
    pub fn data_kind(self) -> DeviceKind {
        match self {
            StorageConfig::MemHdd | StorageConfig::SsdHdd | StorageConfig::HddHdd => {
                DeviceKind::Hdd
            }
            StorageConfig::MemSsd | StorageConfig::SsdSsd => DeviceKind::Ssd,
        }
    }

    /// Legend label, paper style (`index/data`).
    pub fn label(self) -> &'static str {
        match self {
            StorageConfig::MemHdd => "Mem/HDD",
            StorageConfig::SsdHdd => "SSD/HDD",
            StorageConfig::HddHdd => "HDD/HDD",
            StorageConfig::MemSsd => "Mem/SSD",
            StorageConfig::SsdSsd => "SSD/SSD",
        }
    }
}

impl std::fmt::Display for StorageConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The pair of devices a query charges against: one holding index
/// nodes, one holding the heap file. Either may be cached in a pool of
/// one [`BufferManager`] (warm-cache and shared-budget experiments).
///
/// Cloning is cheap and shares both devices' stats and pools. An
/// `IoContext` may be charged from many threads at once: cold devices
/// (the default) record into sharded lock-free counters, so a shared
/// `&IoContext` is the natural argument of a multi-threaded probe
/// driver.
///
/// ```
/// use bftree_storage::{IoContext, StorageConfig};
///
/// let io = IoContext::cold(StorageConfig::SsdHdd);
/// io.index.read_random(7);
/// io.data.read_random(42);
/// assert!(io.sim_us() > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct IoContext {
    /// Device holding index nodes.
    pub index: PageDevice,
    /// Device holding the heap file.
    pub data: PageDevice,
    /// The buffer manager the devices' caches live in, if any.
    manager: Option<Arc<BufferManager>>,
}

impl IoContext {
    /// An explicit device pair.
    pub fn new(index: PageDevice, data: PageDevice) -> Self {
        let manager = index
            .shared_cache()
            .or_else(|| data.shared_cache())
            .map(|(m, _)| Arc::clone(m));
        Self {
            index,
            data,
            manager,
        }
    }

    /// Cold devices for `config` — the paper's default O_DIRECT runs.
    pub fn cold(config: StorageConfig) -> Self {
        Self::new(
            PageDevice::cold(config.index_kind()),
            PageDevice::cold(config.data_kind()),
        )
    }

    /// Cold devices for `config` on an explicit [`Backend`]:
    /// `Backend::Sim` is exactly [`IoContext::cold`]; a file backend
    /// puts each non-memory device in its own page store (`index.bfs`
    /// / `data.bfs`) under the backend's directory.
    pub fn cold_on(backend: &Backend, config: StorageConfig) -> Result<Self, DeviceError> {
        Ok(Self::new(
            backend.device(config.index_kind(), "index")?,
            backend.device(config.data_kind(), "data")?,
        ))
    }

    /// One buffer manager with a single `budget_bytes` memory budget
    /// shared by *both* devices of `config`: index pages and data
    /// pages compete for the same bytes under the given eviction
    /// policy — the setting where a smaller index directly buys data
    /// pages more cache (the BF-Tree's headline trade-off).
    ///
    /// Memory-kind devices stay uncached (a memory device *is* the
    /// buffer; caching it would double-count the budget). Carve the
    /// resident footprint of a memory-held index out of the budget
    /// with [`IoContext::reserve_index_footprint`] instead.
    pub fn with_shared_budget(
        config: StorageConfig,
        budget_bytes: u64,
        policy: PolicyKind,
    ) -> Self {
        Self::with_shared_budget_on(&Backend::Sim, config, budget_bytes, policy)
            .expect("sim backend cannot fail")
    }

    /// [`IoContext::with_shared_budget`] on an explicit [`Backend`]:
    /// file-backed devices keep the same shared-pool accounting, and
    /// only pool misses reach their page stores.
    pub fn with_shared_budget_on(
        backend: &Backend,
        config: StorageConfig,
        budget_bytes: u64,
        policy: PolicyKind,
    ) -> Result<Self, DeviceError> {
        let manager = Arc::new(BufferManager::new(budget_bytes, policy));
        Ok(Self {
            index: backend.device_in(config.index_kind(), "index", Some(&manager))?,
            data: backend.device_in(config.data_kind(), "data", Some(&manager))?,
            manager: Some(manager),
        })
    }

    /// Devices for `config` whose caches live in an **existing**
    /// shared [`BufferManager`] — how a sharded deployment gives every
    /// shard its own device channels while ONE global byte budget
    /// arbitrates all of their pages. Each call registers two fresh
    /// pools (`{label}-index`, `{label}-data`), so eviction and
    /// residency stay attributable per shard even though the budget is
    /// fleet-wide. (Dashes, not slashes: on file backends the pool
    /// label also names the backing store file.)
    ///
    /// Memory-kind devices stay uncached, exactly as in
    /// [`IoContext::with_shared_budget_on`].
    pub fn with_shared_manager_on(
        backend: &Backend,
        config: StorageConfig,
        manager: &Arc<BufferManager>,
        label: &str,
    ) -> Result<Self, DeviceError> {
        let device =
            |kind, role: &str| backend.device_in(kind, &format!("{label}-{role}"), Some(manager));
        Ok(Self {
            index: device(config.index_kind(), "index")?,
            data: device(config.data_kind(), "data")?,
            manager: Some(Arc::clone(manager)),
        })
    }

    /// The buffer manager the devices' caches live in, if any.
    pub fn buffer_manager(&self) -> Option<&Arc<BufferManager>> {
        self.manager.as_ref()
    }

    /// Carve `bytes` (an index's resident footprint) out of the shared
    /// budget, shrinking what is left for pages; returns the remaining
    /// page budget. No-op returning 0 on contexts without a shared
    /// manager.
    pub fn reserve_index_footprint(&self, bytes: u64) -> u64 {
        self.manager.as_ref().map_or(0, |m| m.reserve(bytes))
    }

    /// Counters and residency of the shared manager, if any.
    pub fn buffer_stats(&self) -> Option<BufferStats> {
        self.manager.as_ref().map(|m| m.stats())
    }

    /// Warm-cache devices (§6.2 "Warm caches"): the index device gets
    /// a strict-LRU cache (a one-shard [`BufferManager`] of
    /// `upper_pages` pages) sized to hold everything *above* the leaf
    /// level — callers prewarm it with the index's upper-node page
    /// ids, so "only accessing the leaf node would cause an I/O
    /// operation".
    /// The data device stays cold (the experiments' probe keys are
    /// random, so data re-reads are negligible and the paper's bars
    /// move only through the index component).
    pub fn warm(config: StorageConfig, upper_pages: usize) -> Self {
        Self::new(
            PageDevice::with_lru_cache(DeviceProfile::of(config.index_kind()), upper_pages.max(1)),
            PageDevice::cold(config.data_kind()),
        )
    }

    /// A context whose accesses are all memory-speed — for
    /// correctness-only runs where simulated latency is irrelevant
    /// (the replacement for the old `None` device arguments).
    pub fn unmetered() -> Self {
        Self::new(
            PageDevice::cold(DeviceKind::Memory),
            PageDevice::cold(DeviceKind::Memory),
        )
    }

    /// Pre-load index pages into the index device's pool (no charge).
    pub fn prewarm_index<I: IntoIterator<Item = PageId>>(&self, pages: I) {
        self.index.prewarm(pages);
    }

    /// Combined simulated time across both devices, in microseconds.
    pub fn sim_us(&self) -> f64 {
        self.index.snapshot().sim_us() + self.data.snapshot().sim_us()
    }

    /// Merged snapshot of both devices' counters.
    pub fn snapshot_total(&self) -> crate::io::IoSnapshot {
        self.index.snapshot().plus(&self.data.snapshot())
    }

    /// Reset both devices' counters (cache contents survive).
    pub fn reset(&self) {
        self.index.reset_stats();
        self.data.reset_stats();
    }
}

impl bftree_obs::MetricSource for IoContext {
    /// Register both devices' counters (labelled `device="index"` /
    /// `device="data"`), the shared buffer manager's stats when one is
    /// attached, and any file stores behind the devices.
    fn collect(&self, reg: &mut bftree_obs::MetricsRegistry) {
        self.index.snapshot().register_metrics(reg, "index");
        self.data.snapshot().register_metrics(reg, "data");
        if let Some(manager) = self.manager.as_ref() {
            reg.collect_from(manager.as_ref());
        }
        for (label, device) in [("index", &self.index), ("data", &self.data)] {
            if let Some(file) = device.file() {
                file.store().register_metrics(reg, label);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_and_kinds_are_consistent() {
        for c in StorageConfig::ALL {
            let label = c.label();
            let (idx, data) = label.split_once('/').unwrap();
            let kind_label = |k: DeviceKind| match k {
                DeviceKind::Memory => "Mem",
                DeviceKind::Ssd => "SSD",
                DeviceKind::Hdd => "HDD",
            };
            assert_eq!(kind_label(c.index_kind()), idx);
            assert_eq!(kind_label(c.data_kind()), data);
        }
    }

    #[test]
    fn warmable_subset_has_device_resident_indexes() {
        for c in StorageConfig::WARMABLE {
            assert_ne!(c.index_kind(), DeviceKind::Memory);
        }
    }

    #[test]
    fn cold_context_charges_both_devices() {
        let io = IoContext::cold(StorageConfig::SsdHdd);
        io.index.read_random(1);
        io.data.read_random(2);
        assert!(io.sim_us() > 0.0);
        io.reset();
        assert_eq!(io.sim_us(), 0.0);
    }

    #[test]
    fn warm_context_absorbs_prewarmed_upper_levels() {
        let io = IoContext::warm(StorageConfig::SsdSsd, 8);
        io.prewarm_index([1u64, 2, 3]);
        io.reset();
        io.index.read_random(2);
        assert_eq!(io.index.snapshot().device_reads(), 0);
        io.index.read_random(99);
        assert_eq!(io.index.snapshot().device_reads(), 1);
    }

    #[test]
    fn shared_budget_context_wires_both_devices_to_one_manager() {
        use crate::page::PAGE_SIZE;

        let io = IoContext::with_shared_budget(
            StorageConfig::SsdHdd,
            64 * PAGE_SIZE as u64,
            PolicyKind::Lru,
        );
        let mgr = io.buffer_manager().expect("manager attached");
        assert_eq!(mgr.policy(), PolicyKind::Lru);
        io.index.read_random(1);
        io.index.read_random(1);
        io.data.read_random(1);
        io.data.read_random(1);
        let stats = io.buffer_stats().unwrap();
        assert_eq!(stats.hits, 2, "one re-read per device");
        assert_eq!(stats.resident_pages, 2, "pools keep pages distinct");
        assert_eq!(io.snapshot_total().cache_hits, 2);

        // Reserving an index footprint shrinks the page budget.
        let remaining = io.reserve_index_footprint(60 * PAGE_SIZE as u64);
        assert_eq!(remaining, 4 * PAGE_SIZE as u64);
    }

    #[test]
    fn shared_budget_leaves_memory_devices_uncached() {
        let io = IoContext::with_shared_budget(StorageConfig::MemSsd, 1 << 20, PolicyKind::Clock);
        assert!(io.index.is_lock_free(), "memory index stays cold");
        assert!(io.index.shared_cache().is_none());
        assert!(io.data.shared_cache().is_some());
    }

    #[test]
    fn unmetered_counts_but_costs_memory_speed() {
        let io = IoContext::unmetered();
        io.index.read_random(1);
        io.data.read_random(2);
        assert_eq!(io.index.kind(), DeviceKind::Memory);
        assert_eq!(io.data.snapshot().device_reads(), 1);
    }
}
