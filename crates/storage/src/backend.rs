//! [`PageDevice`]: the one device type every layer above storage
//! charges page accesses to, and [`Backend`], the selector that
//! decides whether devices get a real file behind them.
//!
//! A `PageDevice` is a [`DeviceProfile`] (the §6 latency model) plus
//! [`IoStats`] (sharded counters + the simulated clock), an optional
//! pool of a [`BufferManager`] (the §6.2 "warm caches", or a byte
//! budget shared with other devices) and an optional [`FileStore`]
//! (real, checksum-verified I/O). Every charge method is written once:
//! cache lookup unless the store has the page quarantined → book
//! [`IoStats`] → hit the store if there is one. The file is touched
//! exactly when an access reaches the device, so operation counts are
//! identical with and without a store because there is a single code
//! path — the property the backend-conformance suite asserts.
//!
//! # Concurrency
//!
//! A `PageDevice` (and its clones, which share all state) may be
//! charged from many threads at once. With no cache and no store — the
//! paper's cold O_DIRECT runs — charging is lock-free: every access
//! lands in the calling thread's counter shard and totals are exact
//! under any interleaving. A cached device takes one buffer-manager
//! shard lock per access; a file-backed one serializes on its store.

use std::path::PathBuf;
use std::sync::Arc;

use bftree_bufferpool::{Access, BufferManager, PolicyKind, PoolId};

use crate::device::{DeviceKind, DeviceProfile};
use crate::file::{DeviceError, FileStore, IoOutcome, SyncPolicy, WallSnapshot};
use crate::io::{IoSnapshot, IoStats};
use crate::page::{PageId, PAGE_SIZE};

const PAGE_BYTES: u64 = PAGE_SIZE as u64;

/// Handle to the page store behind a file-backed [`PageDevice`] (see
/// [`PageDevice::file`]). It holds the store only; all charging goes
/// through the device.
#[derive(Debug, Clone)]
pub struct FileDevice {
    store: Arc<FileStore>,
}

impl FileDevice {
    /// The backing page store.
    pub fn store(&self) -> &Arc<FileStore> {
        &self.store
    }
}

/// The device every layer above storage charges. Cloning is cheap and
/// shares the stats, the cache pool and the store.
#[derive(Debug, Clone)]
pub struct PageDevice {
    profile: DeviceProfile,
    stats: Arc<IoStats>,
    /// The pool re-reads are served from; `None` = every access
    /// reaches the device (the paper's O_DIRECT runs).
    cache: Option<(Arc<BufferManager>, PoolId)>,
    /// The real file mirroring every device-reaching access.
    file: Option<FileDevice>,
}

impl PageDevice {
    /// A cold simulated device of the given kind.
    pub fn cold(kind: DeviceKind) -> Self {
        Self {
            profile: DeviceProfile::of(kind),
            stats: Arc::new(IoStats::new()),
            cache: None,
            file: None,
        }
    }

    /// A simulated device whose re-reads are absorbed by `pool` of
    /// `manager`: its pages compete with every other registered pool
    /// for the manager's single byte budget (the paper's index-vs-data
    /// memory trade-off). Pages are charged at [`PAGE_SIZE`] bytes.
    pub fn with_shared_cache(
        profile: DeviceProfile,
        manager: Arc<BufferManager>,
        pool: PoolId,
    ) -> Self {
        Self {
            profile,
            stats: Arc::new(IoStats::new()),
            cache: Some((manager, pool)),
            file: None,
        }
    }

    /// A simulated device with a cache of its own: a strict-LRU buffer
    /// manager of `pages` pages (one shard, so the LRU order is global)
    /// — the §6.2 warm-cache device.
    pub(crate) fn with_lru_cache(profile: DeviceProfile, pages: usize) -> Self {
        let budget = pages as u64 * PAGE_BYTES;
        let manager = Arc::new(BufferManager::with_shards(budget, PolicyKind::Lru, 1));
        let pool = manager.register_pool("lru");
        Self::with_shared_cache(profile, manager, pool)
    }

    /// This device with `store` behind it: every access that reaches
    /// the device also performs a verified read (or a checksummed
    /// write) against the store, and pages in the store's quarantine
    /// are neither served from nor admitted to the cache, so a corrupt
    /// page is re-verified against the file until repaired.
    pub fn with_store(mut self, store: Arc<FileStore>) -> Self {
        self.file = Some(FileDevice { store });
        self
    }

    /// The page store behind this device, when it is file-backed.
    pub fn file(&self) -> Option<&FileDevice> {
        self.file.as_ref()
    }

    /// The device's latency profile.
    pub fn profile(&self) -> DeviceProfile {
        self.profile
    }

    /// The device medium.
    pub fn kind(&self) -> DeviceKind {
        self.profile.kind
    }

    /// Charge a randomly-located read of `page`.
    #[inline]
    pub fn read_random(&self, page: PageId) {
        if !self.cache_absorbs(page) {
            self.stats
                .record_random_read(self.profile.random_read_ns, PAGE_BYTES);
            self.store_read(page);
        }
    }

    /// Charge the next page of a sequential run.
    #[inline]
    pub fn read_seq(&self, page: PageId) {
        if !self.cache_absorbs(page) {
            self.stats
                .record_seq_read(self.profile.seq_read_ns, PAGE_BYTES);
            self.store_read(page);
        }
    }

    /// Charge a batch of page reads given as a sorted list: the first
    /// page is random, each subsequent page is sequential if adjacent
    /// to its predecessor, random otherwise, and duplicates are free.
    /// This models the paper's "list of sorted disk accesses" handed
    /// to the controller (Equation 13's seqDtIO term for
    /// false-positive pages).
    pub fn read_sorted_batch(&self, pages: &[PageId]) {
        let mut prev: Option<PageId> = None;
        for &p in pages {
            match prev {
                Some(q) if p == q + 1 => self.read_seq(p),
                Some(q) if p == q => {} // duplicate, already fetched
                _ => self.read_random(p),
            }
            prev = Some(p);
        }
    }

    /// Charge a page write; a store gets a fresh checksummed image.
    /// The device write is always charged (write-through) and the page
    /// is installed into (or refreshed in) the cache, so a
    /// read-after-write is a hit. Installation never books a cache hit
    /// (nothing was served from memory), but an admission that
    /// displaces pages records their evictions. A write the store
    /// refuses even after retries drops the cached copy — memory must
    /// never claim bytes the device refused.
    #[inline]
    pub fn write(&self, page: PageId) {
        self.book_write(page);
        if let Some(file) = &self.file {
            if file.store.charged_write(page) != IoOutcome::Ok {
                self.invalidate(page);
            }
        }
    }

    /// Charge a page write carrying real bytes (the WAL's path). The
    /// simulated cost and counters are exactly those of
    /// [`PageDevice::write`]; a store persists `bytes` as the page's
    /// payload, retrying transient faults per its
    /// [`RetryPolicy`](crate::fault::RetryPolicy). Returns whether the
    /// bytes are safely down — always `true` without a store, which
    /// loses nothing by construction; `false` means the caller must
    /// not acknowledge anything depending on them.
    pub fn write_bytes(&self, page: PageId, bytes: &[u8]) -> bool {
        self.book_write(page);
        let Some(file) = &self.file else { return true };
        let landed = file.store.write_page_verified(page, bytes).is_ok();
        if !landed {
            self.invalidate(page);
        }
        landed
    }

    /// Charge a durability barrier: the device drains its volatile
    /// write cache and acknowledges that every preceding write is
    /// persistent — what a write-ahead log pays per commit (see
    /// `DeviceProfile::fsync_ns`). A store's [`SyncPolicy`] decides
    /// whether a real `fdatasync` is issued. Returns whether the
    /// barrier succeeded (always `true` without a store); on `false`
    /// the next successful barrier covers the same writes, so callers
    /// withhold acknowledgements rather than panic.
    #[inline]
    pub fn fsync(&self) -> bool {
        let _span = bftree_obs::span(bftree_obs::SpanKind::Fsync);
        self.stats.record_fsync(self.profile.fsync_ns);
        match &self.file {
            None => true,
            Some(file) => file.store.sync_verified().is_ok(),
        }
    }

    /// Pre-load `pages` into the cache (warm-up) without charging —
    /// and without touching any file.
    pub fn prewarm<I: IntoIterator<Item = PageId>>(&self, pages: I) {
        if let Some((manager, pool)) = &self.cache {
            manager.prewarm(*pool, pages, PAGE_BYTES);
        }
    }

    /// Drop `page` from the cache if resident (no-op on an uncached
    /// device). Returns whether a cached copy was dropped. Used when a
    /// page enters quarantine: the in-memory copy may predate the
    /// corruption, but serving it would mask the fault from the repair
    /// path.
    pub fn invalidate(&self, page: PageId) -> bool {
        match &self.cache {
            None => false,
            Some((manager, pool)) => manager.invalidate(*pool, page),
        }
    }

    /// Drop all cached pages of this device (other pools of the same
    /// manager keep their residency).
    pub fn drop_caches(&self) {
        if let Some((manager, pool)) = &self.cache {
            manager.evict_pool(*pool);
        }
    }

    /// Snapshot of the accumulated simulated statistics (all shards
    /// merged).
    pub fn snapshot(&self) -> IoSnapshot {
        self.stats.snapshot()
    }

    /// Wall-clock counters, when this device is file-backed.
    pub fn wall(&self) -> Option<WallSnapshot> {
        self.file.as_ref().map(|file| file.store.wall())
    }

    /// Reset simulated statistics (keeps cache and file contents).
    pub fn reset_stats(&self) {
        self.stats.reset();
    }

    /// Whether charging this device takes no lock: true with neither a
    /// cache nor a store, the default of every paper experiment.
    pub fn is_lock_free(&self) -> bool {
        self.cache.is_none() && self.file.is_none()
    }

    /// The buffer manager pool this device charges, if any.
    pub fn shared_cache(&self) -> Option<(&Arc<BufferManager>, PoolId)> {
        self.cache.as_ref().map(|(manager, pool)| (manager, *pool))
    }

    /// Look `page` up in the cache, booking the hit or the evictions
    /// its admission caused; returns whether the read was absorbed. A
    /// page in the store's quarantine is neither served nor admitted:
    /// the access must reach the device so the corruption is
    /// re-detected until repaired.
    #[inline]
    fn cache_absorbs(&self, page: PageId) -> bool {
        let Some((manager, pool)) = &self.cache else {
            return false;
        };
        if self.quarantined(page) {
            return false;
        }
        match manager.touch(*pool, page, PAGE_BYTES) {
            Access::Hit => {
                // Serving from the pool costs a memory access.
                self.stats
                    .record_cache_hit(DeviceProfile::memory().random_read_ns);
                true
            }
            Access::Miss { evicted } => {
                self.stats.record_cache_evictions(evicted.len() as u64);
                false
            }
        }
    }

    fn quarantined(&self, page: PageId) -> bool {
        self.file
            .as_ref()
            .is_some_and(|file| file.store.quarantine().contains(page))
    }

    /// Mirror a device-reaching read against the store (materializing
    /// the page on first access). A read that uncovers corruption
    /// quarantines the page; any cached copy is dropped so later reads
    /// keep hitting the device image until a repair lands.
    #[inline]
    fn store_read(&self, page: PageId) {
        if let Some(file) = &self.file {
            if file.store.charged_read(page) != IoOutcome::Ok {
                self.invalidate(page);
            }
        }
    }

    /// Book a write and install the page in the cache.
    #[inline]
    fn book_write(&self, page: PageId) {
        self.stats.record_write(self.profile.write_ns, PAGE_BYTES);
        if let Some((manager, pool)) = &self.cache {
            if self.quarantined(page) {
                return; // charged, but never installed while quarantined
            }
            if let Access::Miss { evicted } = manager.touch(*pool, page, PAGE_BYTES) {
                self.stats.record_cache_evictions(evicted.len() as u64);
            }
        }
    }
}

/// Which backend to materialize devices on — what `--storage=sim|file`
/// parses into.
#[derive(Debug, Clone)]
pub enum Backend {
    /// Simulated devices only (the default).
    Sim,
    /// File-backed devices: each named device gets a page store under
    /// `dir`, with a real `fdatasync` per barrier. Memory-kind devices
    /// stay simulated — a memory device *is* RAM, and timing file I/O
    /// for it would poison the calibration.
    File {
        /// Directory holding the per-device `<name>.bfs` stores.
        dir: PathBuf,
    },
}

impl Backend {
    /// The file backend rooted at `dir`.
    pub fn file(dir: impl Into<PathBuf>) -> Self {
        Backend::File { dir: dir.into() }
    }

    /// Short name (`"sim"` / `"file"`).
    pub fn label(&self) -> &'static str {
        match self {
            Backend::Sim => "sim",
            Backend::File { .. } => "file",
        }
    }

    /// A cold device of the given kind named `name` (the name keys the
    /// backing store file). Memory-kind devices are always simulated.
    pub fn device(&self, kind: DeviceKind, name: &str) -> Result<PageDevice, DeviceError> {
        self.device_in(kind, name, None)
    }

    /// The device of `kind` named `name` on this backend, cached in a
    /// fresh pool (labelled `name`) of `manager` when one is given.
    /// Memory-kind devices stay cold and simulated: a memory device
    /// *is* the buffer, so caching it would double-count the budget.
    pub(crate) fn device_in(
        &self,
        kind: DeviceKind,
        name: &str,
        manager: Option<&Arc<BufferManager>>,
    ) -> Result<PageDevice, DeviceError> {
        if kind == DeviceKind::Memory {
            return Ok(PageDevice::cold(kind));
        }
        let device = match manager {
            None => PageDevice::cold(kind),
            Some(manager) => PageDevice::with_shared_cache(
                DeviceProfile::of(kind),
                Arc::clone(manager),
                manager.register_pool(name),
            ),
        };
        Ok(match self {
            Backend::Sim => device,
            Backend::File { dir } => {
                std::fs::create_dir_all(dir).map_err(DeviceError::Io)?;
                let path = dir.join(format!("{name}.bfs"));
                let store = FileStore::open_or_create(path, SyncPolicy::PerRequest)?;
                device.with_store(Arc::new(store))
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::file::ScratchDir;

    fn store(dir: &ScratchDir, name: &str) -> Arc<FileStore> {
        let path = dir.path().join(format!("{name}.bfs"));
        Arc::new(FileStore::create(path, SyncPolicy::PerRequest).expect("create store"))
    }

    fn file_dev(kind: DeviceKind, dir: &ScratchDir, name: &str) -> PageDevice {
        PageDevice::cold(kind).with_store(store(dir, name))
    }

    fn lru(pages: usize) -> PageDevice {
        PageDevice::with_lru_cache(DeviceProfile::ssd(), pages)
    }

    #[test]
    fn cold_device_charges_every_read() {
        let dev = PageDevice::cold(DeviceKind::Ssd);
        dev.read_random(1);
        dev.read_random(1);
        let s = dev.snapshot();
        assert_eq!(s.random_reads, 2);
        assert_eq!(s.bytes_read, 2 * PAGE_BYTES);
        assert_eq!(s.sim_ns, 2 * DeviceProfile::ssd().random_read_ns);
    }

    #[test]
    fn lru_device_absorbs_rereads() {
        let dev = lru(16);
        dev.read_random(1);
        dev.read_random(1);
        dev.read_random(2);
        dev.read_seq(3);
        dev.read_seq(3);
        let s = dev.snapshot();
        assert_eq!((s.random_reads, s.seq_reads), (2, 1));
        assert_eq!(s.cache_hits, 2);
        assert_eq!(s.bytes_read, 3 * PAGE_BYTES, "hits move no bytes");
    }

    #[test]
    fn sorted_batch_charges_sequential_for_adjacent() {
        let dev = PageDevice::cold(DeviceKind::Hdd);
        dev.read_sorted_batch(&[10, 11, 12, 40, 41]);
        let s = dev.snapshot();
        assert_eq!(s.random_reads, 2, "pages 10 and 40");
        assert_eq!(s.seq_reads, 3, "pages 11, 12, 41");
    }

    #[test]
    fn sorted_batch_skips_duplicates() {
        let dev = PageDevice::cold(DeviceKind::Ssd);
        dev.read_sorted_batch(&[5, 5, 5]);
        assert_eq!(dev.snapshot().device_reads(), 1);
    }

    #[test]
    fn prewarm_makes_reads_hits() {
        let dev = lru(100);
        dev.prewarm(0..50u64);
        dev.read_random(25);
        let s = dev.snapshot();
        assert_eq!(s.random_reads, 0);
        assert_eq!(s.cache_hits, 1);
    }

    #[test]
    fn clones_share_stats() {
        let dev = PageDevice::cold(DeviceKind::Memory);
        let dev2 = dev.clone();
        dev.read_random(1);
        dev2.read_random(2);
        assert_eq!(dev.snapshot().random_reads, 2);
    }

    #[test]
    fn writes_are_charged() {
        let dev = PageDevice::cold(DeviceKind::Ssd);
        dev.write(3);
        let s = dev.snapshot();
        assert_eq!(s.writes, 1);
        assert_eq!(s.bytes_written, PAGE_BYTES);
        assert_eq!(s.sim_ns, DeviceProfile::ssd().write_ns);
    }

    #[test]
    fn write_installs_page_in_the_cache() {
        let dev = lru(8);
        dev.write(3);
        dev.read_random(3);
        let s = dev.snapshot();
        assert_eq!(s.writes, 1);
        assert_eq!(s.cache_hits, 1, "read-after-write is a hit");
        assert_eq!(s.random_reads, 0, "the re-read never reached the device");
    }

    #[test]
    fn write_installation_records_evictions_but_never_hits() {
        let dev = lru(2);
        dev.read_random(1);
        dev.read_random(2);
        dev.write(3); // admitting 3 evicts 1
        let s = dev.snapshot();
        assert_eq!(s.cache_evictions, 1);
        assert_eq!(s.cache_hits, 0, "installation is not a served read");
        dev.write(3); // already resident: refresh, no eviction
        assert_eq!(dev.snapshot().cache_evictions, 1);
    }

    #[test]
    fn cold_write_stays_cacheless() {
        let dev = PageDevice::cold(DeviceKind::Ssd);
        dev.write(3);
        dev.read_random(3);
        let s = dev.snapshot();
        assert_eq!(s.cache_hits, 0);
        assert_eq!(s.random_reads, 1, "cold devices never absorb");
    }

    #[test]
    fn drop_caches_returns_to_cold_behaviour() {
        let dev = lru(8);
        dev.read_random(1);
        dev.drop_caches();
        dev.read_random(1);
        assert_eq!(dev.snapshot().random_reads, 2);
    }

    #[test]
    fn only_a_cacheless_storeless_device_is_lock_free() {
        let dir = ScratchDir::new("backend-lockfree").unwrap();
        assert!(PageDevice::cold(DeviceKind::Ssd).is_lock_free());
        assert!(!lru(8).is_lock_free());
        assert!(!file_dev(DeviceKind::Ssd, &dir, "d").is_lock_free());
    }

    #[test]
    fn lru_device_counts_evictions() {
        let dev = lru(2);
        dev.read_random(1);
        dev.read_random(2);
        dev.read_random(3); // evicts 1
        dev.read_random(1); // evicts 2
        let s = dev.snapshot();
        assert_eq!(s.cache_evictions, 2);
        assert_eq!(s.cache_hits, 0);
        assert_eq!(s.cache_hit_rate(), 0.0);
    }

    #[test]
    fn shared_cache_devices_compete_for_one_budget() {
        let mgr = Arc::new(BufferManager::with_shards(
            2 * PAGE_BYTES,
            PolicyKind::Lru,
            1,
        ));
        let pooled = |profile, label| {
            PageDevice::with_shared_cache(profile, Arc::clone(&mgr), mgr.register_pool(label))
        };
        let index = pooled(DeviceProfile::ssd(), "index");
        let data = pooled(DeviceProfile::hdd(), "data");
        index.read_random(7);
        data.read_random(7); // same page id, different pool: both resident
        assert!(index.shared_cache().is_some());
        index.read_random(7);
        data.read_random(7);
        assert_eq!(index.snapshot().cache_hits, 1);
        assert_eq!(data.snapshot().cache_hits, 1);
        // A third distinct page overflows the shared 2-page budget.
        data.read_random(8);
        assert_eq!(data.snapshot().cache_evictions, 1);
        // Dropping one device's caches leaves the other pool resident.
        index.drop_caches();
        data.read_random(7);
        assert_eq!(data.snapshot().cache_hits, 2, "data pool survived");
    }

    #[test]
    fn invalidate_drops_cache_residency() {
        let dev = lru(4);
        dev.read_random(5);
        assert!(dev.invalidate(5));
        assert!(!dev.invalidate(5));
        dev.read_random(5);
        assert_eq!(dev.snapshot().random_reads, 2, "reached the device again");
        assert!(!PageDevice::cold(DeviceKind::Ssd).invalidate(5));
    }

    #[test]
    fn concurrent_charges_sum_exactly() {
        let dev = PageDevice::cold(DeviceKind::Ssd);
        std::thread::scope(|s| {
            for t in 0..4 {
                let dev = dev.clone();
                s.spawn(move || {
                    for p in 0..5_000u64 {
                        dev.read_random(t * 10_000 + p);
                    }
                });
            }
        });
        assert_eq!(dev.snapshot().random_reads, 20_000, "no lost updates");
    }

    /// The same access sequence, cold and cached, with and without a
    /// store behind the device: one code path, one `IoSnapshot`.
    #[test]
    fn store_backed_counts_match_simulated_cold_and_cached() {
        let dir = ScratchDir::new("backend-counts").unwrap();
        let pairs = [
            (
                PageDevice::cold(DeviceKind::Ssd),
                file_dev(DeviceKind::Ssd, &dir, "cold"),
            ),
            (lru(3), lru(3).with_store(store(&dir, "warm"))),
        ];
        for (sim, file) in pairs {
            for dev in [&sim, &file] {
                dev.read_random(1);
                dev.read_random(1);
                dev.read_sorted_batch(&[10, 11, 11, 13]);
                dev.write(2);
                dev.write_bytes(4, b"payload");
                dev.read_seq(2);
                assert!(dev.fsync());
            }
            assert_eq!(sim.snapshot(), file.snapshot());
            assert!(sim.snapshot().sim_ns > 0);
        }
    }

    #[test]
    fn file_device_really_touches_the_file() {
        let dir = ScratchDir::new("backend-touch").unwrap();
        let dev = file_dev(DeviceKind::Ssd, &dir, "d");
        dev.read_random(1);
        dev.read_random(1);
        dev.write(2);
        dev.fsync();
        let w = dev.wall().unwrap();
        assert_eq!(w.reads, 2);
        assert_eq!(w.materialized, 1, "page 1 stamped once");
        assert_eq!(w.writes, 2, "materialization + explicit write");
        assert_eq!(w.syncs_issued, 1);
        let store = dev.file().unwrap().store();
        assert!(store.contains(1) && store.contains(2));
        assert!(PageDevice::cold(DeviceKind::Ssd).wall().is_none());
    }

    #[test]
    fn warm_file_device_only_hits_file_on_misses() {
        let dir = ScratchDir::new("backend-warm").unwrap();
        let dev = lru(8).with_store(store(&dir, "d"));
        dev.read_random(1);
        dev.read_random(1);
        dev.read_random(1);
        assert_eq!(dev.snapshot().cache_hits, 2);
        assert_eq!(dev.wall().unwrap().reads, 1, "hits never reach the file");
    }

    #[test]
    fn quarantined_pages_bypass_the_cache_until_released() {
        let dir = ScratchDir::new("backend-quarantine").unwrap();
        let dev = lru(8).with_store(store(&dir, "d"));
        let q = Arc::clone(dev.file().unwrap().store().quarantine());
        let file_reads = || dev.wall().unwrap().reads;
        dev.read_random(1);
        dev.read_random(1);
        assert_eq!(file_reads(), 1, "cached while healthy");
        q.quarantine(1);
        assert!(dev.invalidate(1), "cached copy dropped on quarantine");
        dev.read_random(1);
        assert_eq!(file_reads(), 2, "quarantined reads reach the device");
        dev.write(1); // install attempt must be refused
        dev.read_random(1);
        assert_eq!(file_reads(), 3, "still uncached while quarantined");
        q.release(1);
        dev.read_random(1); // re-admitted ...
        dev.read_random(1);
        assert_eq!(file_reads(), 4, "... and cached again after release");
        assert_eq!(dev.snapshot().cache_hits, 2);
    }

    #[test]
    fn a_read_that_uncovers_corruption_drops_the_cached_copy() {
        let dir = ScratchDir::new("backend-rot").unwrap();
        let dev = lru(8).with_store(store(&dir, "d"));
        let store = Arc::clone(dev.file().unwrap().store());
        dev.read_random(1);
        dev.drop_caches();
        store.corrupt_page(1).unwrap();
        dev.read_random(1); // fails verification: quarantined, not cached
        assert!(store.quarantine().contains(1));
        assert!(!dev.invalidate(1), "no cached copy of a corrupt page");
        store.repair_page(1, None).unwrap();
        dev.read_random(1);
        dev.read_random(1);
        assert_eq!(dev.snapshot().cache_hits, 1, "cached again once repaired");
    }

    #[test]
    fn write_bytes_persists_payload_on_file_backend() {
        let dir = ScratchDir::new("backend-bytes").unwrap();
        let dev = file_dev(DeviceKind::Ssd, &dir, "log");
        assert!(dev.write_bytes(0, b"log page zero"));
        let store = dev.file().unwrap().store();
        assert_eq!(store.read_page(0).unwrap(), b"log page zero");
        // Without a store the same write is booked and nothing is lost.
        let sim = PageDevice::cold(DeviceKind::Ssd);
        assert!(sim.write_bytes(0, b"log page zero"));
        assert_eq!(sim.snapshot().writes, 1);
    }

    #[test]
    fn backend_selector_materializes_devices() {
        let dir = ScratchDir::new("backend-select").unwrap();
        let sim = Backend::Sim.device(DeviceKind::Ssd, "x").unwrap();
        assert!(sim.file().is_none());
        let backend = Backend::file(dir.path());
        let dev = backend.device(DeviceKind::Ssd, "x").unwrap();
        assert!(dev.file().is_some());
        let mem = backend.device(DeviceKind::Memory, "m").unwrap();
        assert!(mem.file().is_none(), "memory devices stay simulated");
        // Reopening the same name finds the same store file.
        dev.write(5);
        drop(dev);
        let again = backend.device(DeviceKind::Ssd, "x").unwrap();
        assert!(again.file().unwrap().store().contains(5));
    }
}
