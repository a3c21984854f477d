//! [`BufferManager`]: a concurrent, sharded buffer manager with one
//! byte-denominated memory budget shared by every pool (device) that
//! registers with it.
//!
//! # Shard layout
//!
//! Pages hash (splitmix64 over `(pool, page)`) to one of `N` shards;
//! each shard owns a slice of the byte budget, its own frame table,
//! its own [`EvictionPolicy`] instance, and its own mutex — so
//! concurrent probes touching different pages contend only when their
//! pages land in the same shard, never on global state. Each shard is
//! cache-line aligned, so two threads on different shards never share
//! a mutex word's line. Counters (hits/misses/evictions) are
//! maintained under the shard lock, which makes them exact under any
//! interleaving.
//!
//! A frame is an accounting record — `(pool, page, bytes)`, no page
//! bytes — so nothing is held while a caller reads: a page is admitted
//! by [`BufferManager::touch`] (hit/miss plus eviction in one lock
//! acquisition) or [`BufferManager::prewarm`], the page budget only
//! shrinks ([`BufferManager::reserve`]), and a shard never holds more
//! than its share. A touch stays in a few cache lines and, once the
//! shard's tables have grown to its budget, allocates nothing (tracing
//! off): the frame table hashes `(pool, page)` with a one-step
//! multiply-xor hasher, not SipHash, and a miss reports its victims in
//! [`Victims`], which holds one page inline and spills to a `Vec` only
//! when one admission evicts several.
//!
//! # Exactness verification
//!
//! With [`BufferManager::set_tracing`] enabled, every shard records
//! its serialized access sequence. [`BufferManager::verify_replay`]
//! then rebuilds a fresh manager with the same configuration and
//! replays each shard's trace on a single thread: hits, misses,
//! evictions, and residency must match the live counters exactly.
//! `tests/buffer_manager.rs` runs it on multi-threaded runs under
//! eviction pressure for every policy.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use crate::policy::{EvictionPolicy, PolicyKind};

/// Identifies one pool (typically: one simulated device) within a
/// [`BufferManager`]. Page ids from different pools never collide.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PoolId(u32);

/// Pages one admission evicted, in eviction order; derefs to a slice.
///
/// The first victim is held inline, so the common miss — a uniform
/// page size, one page out for one page in — allocates nothing; a
/// `Vec` takes over only when one admission evicts several pages.
#[derive(Clone, Default)]
pub struct Victims {
    /// The first victim, if any.
    first: Option<(PoolId, u64)>,
    /// Every victim once there are two or more.
    spill: Vec<(PoolId, u64)>,
}

impl Victims {
    fn push(&mut self, victim: (PoolId, u64)) {
        match self.first {
            None => self.first = Some(victim),
            Some(first) => {
                if self.spill.is_empty() {
                    self.spill.push(first);
                }
                self.spill.push(victim);
            }
        }
    }
}

impl std::ops::Deref for Victims {
    type Target = [(PoolId, u64)];

    fn deref(&self) -> &Self::Target {
        if self.spill.is_empty() {
            self.first.as_slice()
        } else {
            &self.spill
        }
    }
}

impl PartialEq for Victims {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for Victims {}

impl std::fmt::Debug for Victims {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Outcome of one [`BufferManager::touch`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Access {
    /// The page was resident.
    Hit,
    /// The page was not resident; it was admitted (unless larger than
    /// the shard budget) after evicting `evicted`.
    Miss {
        /// Pages evicted to make room, in eviction order.
        evicted: Victims,
    },
}

impl Access {
    /// Whether the access hit.
    pub fn is_hit(&self) -> bool {
        matches!(self, Access::Hit)
    }

    /// How many pages were evicted by this access.
    pub fn evicted(&self) -> u64 {
        match self {
            Access::Hit => 0,
            Access::Miss { evicted } => evicted.len() as u64,
        }
    }
}

/// Counters and residency of a [`BufferManager`], merged over shards.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BufferStats {
    /// Accesses served from a resident frame.
    pub hits: u64,
    /// Accesses that found no resident frame.
    pub misses: u64,
    /// Frames evicted to make room.
    pub evictions: u64,
    /// Bytes currently resident.
    pub resident_bytes: u64,
    /// Pages currently resident.
    pub resident_pages: u64,
    /// Total byte budget (before reservations).
    pub budget_bytes: u64,
    /// Bytes carved out by [`BufferManager::reserve`].
    pub reserved_bytes: u64,
}

impl BufferStats {
    /// Fraction of accesses served from residency.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Outcome of [`BufferManager::verify_replay`].
#[derive(Debug, Clone, Copy)]
pub struct ReplayCheck {
    /// Counters of the live (possibly concurrent) run.
    pub live: BufferStats,
    /// Counters of the single-threaded replay.
    pub replayed: BufferStats,
    /// Whether hits, misses, evictions, and residency all match.
    pub exact: bool,
}

#[derive(Debug, Clone, Copy)]
enum TraceOp {
    Touch {
        pool: u32,
        page: u64,
        bytes: u64,
    },
    Prewarm {
        pool: u32,
        page: u64,
        bytes: u64,
    },
    /// This shard's budget changed mid-trace ([`BufferManager::reserve`]).
    SetBudget {
        budget: u64,
    },
    /// Every frame of `pool` was dropped ([`BufferManager::evict_pool`]).
    EvictPool {
        pool: u32,
    },
    /// One page was force-dropped ([`BufferManager::invalidate`]) —
    /// the fault path ejecting a quarantined page.
    Invalidate {
        pool: u32,
        page: u64,
    },
}

#[derive(Debug)]
struct Frame {
    pool: u32,
    page: u64,
    bytes: u64,
}

/// The frame table's hasher: one multiply-xor step per word of the
/// `(pool, page)` key. Deterministic, like [`mix`], and a few cycles
/// against SipHash's rounds — the table is looked up on every touch
/// (and a miss hashes three times: lookup, victim removal, insert).
/// Its keys are page ids the program assigns itself, never input from
/// outside, so SipHash's resistance to crafted collisions buys nothing.
#[derive(Debug, Default, Clone, Copy)]
struct FrameHasher(u64);

impl FrameHasher {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;

    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(Self::K);
    }
}

impl Hasher for FrameHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }
}

#[derive(Debug)]
struct ShardState {
    budget: u64,
    used: u64,
    map: HashMap<(u32, u64), usize, BuildHasherDefault<FrameHasher>>,
    frames: Vec<Option<Frame>>,
    free: Vec<usize>,
    policy: Box<dyn EvictionPolicy>,
    hits: u64,
    misses: u64,
    evictions: u64,
    trace: Vec<TraceOp>,
}

impl ShardState {
    fn new(budget: u64, policy: PolicyKind) -> Self {
        Self {
            budget,
            used: 0,
            map: HashMap::default(),
            frames: Vec::new(),
            free: Vec::new(),
            policy: policy.build(),
            hits: 0,
            misses: 0,
            evictions: 0,
            trace: Vec::new(),
        }
    }

    /// Evict until `incoming` more bytes fit the budget. Returns the
    /// evicted keys in eviction order.
    fn evict_to_fit(&mut self, incoming: u64) -> Victims {
        let mut evicted = Victims::default();
        while self.used + incoming > self.budget {
            let victim = self
                .policy
                .victim()
                .expect("a shard over budget holds a frame");
            let frame = self.remove(victim);
            self.evictions += 1;
            evicted.push((PoolId(frame.pool), frame.page));
        }
        evicted
    }

    /// Take the frame out of `slot`: unmap it, return its bytes to the
    /// budget and free the slot. The policy's own entry is the
    /// caller's (a victim is already dequeued).
    fn remove(&mut self, slot: usize) -> Frame {
        let frame = self.frames[slot].take().expect("slot is resident");
        self.map.remove(&(frame.pool, frame.page));
        self.used -= frame.bytes;
        self.free.push(slot);
        frame
    }

    /// Evict until `bytes` more fit, then admit. Returns the evicted
    /// keys in eviction order.
    fn admit(&mut self, pool: u32, page: u64, bytes: u64) -> Victims {
        if bytes > self.budget {
            // A page larger than the whole shard budget is served but
            // never admitted (matching a zero-capacity pool).
            return Victims::default();
        }
        let evicted = self.evict_to_fit(bytes);
        let slot = self.free.pop().unwrap_or_else(|| {
            self.frames.push(None);
            self.frames.len() - 1
        });
        self.frames[slot] = Some(Frame { pool, page, bytes });
        self.map.insert((pool, page), slot);
        self.used += bytes;
        self.policy.on_admit(slot);
        evicted
    }

    /// Shrink the shard budget to `budget`, evicting down to fit.
    fn set_budget(&mut self, budget: u64) {
        self.budget = budget;
        self.evict_to_fit(0);
    }
}

/// One shard behind its own mutex, alone on its cache line(s): threads
/// touching neighbouring shards never bounce each other's lock word.
#[derive(Debug)]
#[repr(align(64))]
struct Shard {
    state: Mutex<ShardState>,
}

/// A concurrent, sharded buffer manager with one byte-denominated
/// memory budget shared by all registered pools. See the
/// [module docs](self) for shard layout and the replay cross-check.
#[derive(Debug)]
pub struct BufferManager {
    shards: Box<[Shard]>,
    budget_bytes: u64,
    reserved: AtomicU64,
    policy: PolicyKind,
    pools: Mutex<Vec<String>>,
    tracing: AtomicBool,
    /// Bytes reserved at the moment tracing was switched on — the
    /// replay twin's starting reservation ([`TraceOp::SetBudget`]
    /// entries then reproduce mid-trace changes).
    trace_base_reserved: AtomicU64,
    /// Serializes [`BufferManager::reserve`]'s update + per-shard
    /// fan-out (two racing reserves would otherwise leave a mix of
    /// each call's shard shares).
    reserve_lock: Mutex<()>,
}

/// splitmix64: the deterministic page→shard hash (std's default
/// `HashMap` hasher is per-process randomized, which would make shard
/// placement — and therefore golden tests — irreproducible). Within a
/// shard, the frame table keys by the cheaper [`FrameHasher`]: its
/// placement orders nothing a caller sees, so it needs only spread,
/// not splitmix64's full avalanche.
fn mix(pool: u32, page: u64) -> u64 {
    let mut z = page ^ ((pool as u64) << 56) ^ 0x9E37_79B9_7F4A_7C15;
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl BufferManager {
    /// Default shard count — matches `IoStats`' counter sharding: wide
    /// enough for any plausible probe-thread count on the machines
    /// this harness targets.
    pub const DEFAULT_SHARDS: usize = 16;

    /// Minimum bytes per shard `new` aims for (16 pages of 4 KB):
    /// below this, fewer shards beat budget fragmentation — a shard
    /// whose share is smaller than one page can never admit anything.
    pub const MIN_SHARD_BYTES: u64 = 64 * 1024;

    /// A manager with `budget_bytes` shared across up to
    /// [`BufferManager::DEFAULT_SHARDS`] shards; small budgets get
    /// proportionally fewer shards so each keeps at least
    /// [`BufferManager::MIN_SHARD_BYTES`].
    pub fn new(budget_bytes: u64, policy: PolicyKind) -> Self {
        let shards =
            (budget_bytes / Self::MIN_SHARD_BYTES).clamp(1, Self::DEFAULT_SHARDS as u64) as usize;
        Self::with_shards(budget_bytes, policy, shards)
    }

    /// A manager with an explicit shard count (1 gives globally exact
    /// policy semantics, e.g. strict LRU across the whole budget — the
    /// per-device compatibility mode).
    pub fn with_shards(budget_bytes: u64, policy: PolicyKind, shards: usize) -> Self {
        let n = shards.max(1);
        let shards = (0..n)
            .map(|i| Shard {
                state: Mutex::new(ShardState::new(
                    Self::shard_share(budget_bytes, i, n),
                    policy,
                )),
            })
            .collect();
        Self {
            shards,
            budget_bytes,
            reserved: AtomicU64::new(0),
            policy,
            pools: Mutex::new(Vec::new()),
            tracing: AtomicBool::new(false),
            trace_base_reserved: AtomicU64::new(0),
            reserve_lock: Mutex::new(()),
        }
    }

    /// Shard `i`'s slice of `total` bytes (remainder spread over the
    /// first shards).
    fn shard_share(total: u64, i: usize, n: usize) -> u64 {
        total / n as u64 + u64::from((i as u64) < total % n as u64)
    }

    /// The replacement policy every shard runs.
    pub fn policy(&self) -> PolicyKind {
        self.policy
    }

    /// Total byte budget (before reservations).
    pub fn budget_bytes(&self) -> u64 {
        self.budget_bytes
    }

    /// Register a pool (device namespace); its label shows up in
    /// debugging output only — page ids from different pools never
    /// collide in the frame table.
    pub fn register_pool(&self, label: &str) -> PoolId {
        let mut pools = self.pools.lock().unwrap_or_else(|e| e.into_inner());
        pools.push(label.to_string());
        PoolId(pools.len() as u32 - 1)
    }

    fn lock_shard(&self, i: usize) -> std::sync::MutexGuard<'_, ShardState> {
        self.shards[i]
            .state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    fn shard_of(&self, pool: u32, page: u64) -> usize {
        (mix(pool, page) % self.shards.len() as u64) as usize
    }

    /// Touch `(pool, page)` of `bytes`: hit if resident, else admit
    /// (evicting as needed) and report a miss. One shard-lock
    /// acquisition; counters update under the same lock.
    pub fn touch(&self, pool: PoolId, page: u64, bytes: u64) -> Access {
        let shard = self.shard_of(pool.0, page);
        let mut state = self.lock_shard(shard);
        if self.tracing.load(Ordering::Relaxed) {
            state.trace.push(TraceOp::Touch {
                pool: pool.0,
                page,
                bytes,
            });
        }
        Self::touch_locked(&mut state, pool.0, page, bytes)
    }

    fn touch_locked(state: &mut ShardState, pool: u32, page: u64, bytes: u64) -> Access {
        if let Some(&slot) = state.map.get(&(pool, page)) {
            state.hits += 1;
            state.policy.on_hit(slot);
            Access::Hit
        } else {
            state.misses += 1;
            let evicted = state.admit(pool, page, bytes);
            Access::Miss { evicted }
        }
    }

    /// Admit `pages` of `bytes` each without counting hits or misses —
    /// cache warm-up. Recorded in the trace (replay must reproduce the
    /// same starting state).
    pub fn prewarm<I: IntoIterator<Item = u64>>(&self, pool: PoolId, pages: I, bytes: u64) {
        for page in pages {
            let shard = self.shard_of(pool.0, page);
            let mut state = self.lock_shard(shard);
            if self.tracing.load(Ordering::Relaxed) {
                state.trace.push(TraceOp::Prewarm {
                    pool: pool.0,
                    page,
                    bytes,
                });
            }
            Self::prewarm_locked(&mut state, pool.0, page, bytes);
        }
    }

    fn prewarm_locked(state: &mut ShardState, pool: u32, page: u64, bytes: u64) {
        if let Some(&slot) = state.map.get(&(pool, page)) {
            state.policy.on_hit(slot);
        } else {
            let before = state.evictions;
            state.admit(pool, page, bytes);
            state.evictions = before; // warm-up evictions are not workload evictions
        }
    }

    /// Whether `(pool, page)` is resident, without touching recency.
    pub fn contains(&self, pool: PoolId, page: u64) -> bool {
        let state = self.lock_shard(self.shard_of(pool.0, page));
        state.map.contains_key(&(pool.0, page))
    }

    /// Carve `bytes` out of the shared budget (e.g. an index's
    /// resident footprint), shrinking every shard's share and evicting
    /// down to fit. Reservations accumulate and saturate at the total
    /// budget. Returns the budget remaining for pages.
    ///
    /// Concurrent `reserve` calls are serialized (a lock guards the
    /// update and the per-shard fan-out), so shard budgets always sum
    /// to `budget - reserved` once the call returns.
    pub fn reserve(&self, bytes: u64) -> u64 {
        let _serialize = self.reserve_lock.lock().unwrap_or_else(|e| e.into_inner());
        let reserved = self
            .reserved
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |r| {
                Some(r.saturating_add(bytes).min(self.budget_bytes))
            })
            .expect("fetch_update closure always returns Some")
            .saturating_add(bytes)
            .min(self.budget_bytes);
        let remaining = self.budget_bytes - reserved;
        let n = self.shards.len();
        let tracing = self.tracing.load(Ordering::Relaxed);
        for i in 0..n {
            let share = Self::shard_share(remaining, i, n);
            let mut state = self.lock_shard(i);
            if tracing {
                state.trace.push(TraceOp::SetBudget { budget: share });
            }
            state.set_budget(share);
        }
        remaining
    }

    /// Drop every resident page of `pool` (the per-device
    /// `drop_caches`). Not counted as evictions.
    pub fn evict_pool(&self, pool: PoolId) {
        for i in 0..self.shards.len() {
            let mut state = self.lock_shard(i);
            if self.tracing.load(Ordering::Relaxed) {
                state.trace.push(TraceOp::EvictPool { pool: pool.0 });
            }
            Self::evict_pool_locked(&mut state, pool.0);
        }
    }

    /// Force-drop one page if resident. Returns whether a frame was
    /// dropped. The fault path uses this to eject a
    /// quarantined page so stale bytes are never served from memory
    /// while the on-device image is known-corrupt. Not counted as an
    /// eviction (nothing displaced it); recorded in the trace so
    /// replay stays exact.
    pub fn invalidate(&self, pool: PoolId, page: u64) -> bool {
        let shard = self.shard_of(pool.0, page);
        let mut state = self.lock_shard(shard);
        if self.tracing.load(Ordering::Relaxed) {
            state.trace.push(TraceOp::Invalidate { pool: pool.0, page });
        }
        Self::invalidate_locked(&mut state, pool.0, page)
    }

    fn invalidate_locked(state: &mut ShardState, pool: u32, page: u64) -> bool {
        let Some(&slot) = state.map.get(&(pool, page)) else {
            return false;
        };
        state.policy.on_remove(slot);
        state.remove(slot);
        true
    }

    fn evict_pool_locked(state: &mut ShardState, pool: u32) {
        let slots: Vec<usize> = state
            .map
            .iter()
            .filter(|(&(p, _), _)| p == pool)
            .map(|(_, &slot)| slot)
            .collect();
        for slot in slots {
            state.policy.on_remove(slot);
            state.remove(slot);
        }
    }

    /// Merged counters and residency across shards.
    pub fn stats(&self) -> BufferStats {
        let mut out = BufferStats {
            budget_bytes: self.budget_bytes,
            reserved_bytes: self.reserved.load(Ordering::Relaxed),
            ..BufferStats::default()
        };
        for i in 0..self.shards.len() {
            let state = self.lock_shard(i);
            out.hits += state.hits;
            out.misses += state.misses;
            out.evictions += state.evictions;
            out.resident_bytes += state.used;
            out.resident_pages += state.map.len() as u64;
        }
        out
    }

    /// Enable or disable access-trace recording (off by default; a
    /// trace costs one `Vec` push per access). Enabling also snapshots
    /// the current reservation so a later [`BufferManager::verify_replay`]
    /// starts its twin from the same budget. Traces cover every call
    /// that changes a shard: `touch`, `prewarm`, `reserve`,
    /// `invalidate` and `evict_pool`.
    pub fn set_tracing(&self, on: bool) {
        self.tracing.store(on, Ordering::Relaxed);
        if on {
            self.trace_base_reserved
                .store(self.reserved.load(Ordering::Relaxed), Ordering::Relaxed);
        } else {
            for i in 0..self.shards.len() {
                self.lock_shard(i).trace.clear();
            }
        }
    }

    /// Rebuild a fresh manager with this manager's configuration and
    /// replay every shard's recorded access sequence on the calling
    /// thread; the live counters must match the replay exactly (shard
    /// locks serialize each shard's accesses, and shards are
    /// independent, so any bookkeeping race shows up as a divergence).
    ///
    /// Requires tracing to have been enabled for the whole run being
    /// verified ([`BufferManager::set_tracing`]).
    pub fn verify_replay(&self) -> ReplayCheck {
        let twin = Self::with_shards(self.budget_bytes, self.policy, self.shards.len());
        let base_reserved = self.trace_base_reserved.load(Ordering::Relaxed);
        if base_reserved > 0 {
            twin.reserve(base_reserved);
        }
        for i in 0..self.shards.len() {
            let trace: Vec<TraceOp> = self.lock_shard(i).trace.clone();
            let mut state = twin.lock_shard(i);
            for op in trace {
                match op {
                    TraceOp::Touch { pool, page, bytes } => {
                        Self::touch_locked(&mut state, pool, page, bytes);
                    }
                    TraceOp::Prewarm { pool, page, bytes } => {
                        Self::prewarm_locked(&mut state, pool, page, bytes);
                    }
                    TraceOp::SetBudget { budget } => state.set_budget(budget),
                    TraceOp::EvictPool { pool } => Self::evict_pool_locked(&mut state, pool),
                    TraceOp::Invalidate { pool, page } => {
                        Self::invalidate_locked(&mut state, pool, page);
                    }
                }
            }
        }
        let live = self.stats();
        let replayed = twin.stats();
        let exact = live.hits == replayed.hits
            && live.misses == replayed.misses
            && live.evictions == replayed.evictions
            && live.resident_bytes == replayed.resident_bytes
            && live.resident_pages == replayed.resident_pages;
        ReplayCheck {
            live,
            replayed,
            exact,
        }
    }
}

impl bftree_obs::MetricSource for BufferManager {
    /// Register the manager's merged counters and residency (the
    /// `bftree_buffer_*` family).
    fn collect(&self, reg: &mut bftree_obs::MetricsRegistry) {
        let s = self.stats();
        reg.counter(
            "bftree_buffer_hits_total",
            "Accesses served from a resident frame",
            &[],
            s.hits,
        );
        reg.counter(
            "bftree_buffer_misses_total",
            "Accesses that found no resident frame",
            &[],
            s.misses,
        );
        reg.counter(
            "bftree_buffer_evictions_total",
            "Frames evicted to make room",
            &[],
            s.evictions,
        );
        reg.gauge(
            "bftree_buffer_resident_bytes",
            "Bytes currently resident",
            &[],
            s.resident_bytes as f64,
        );
        reg.gauge(
            "bftree_buffer_resident_pages",
            "Pages currently resident",
            &[],
            s.resident_pages as f64,
        );
        reg.gauge(
            "bftree_buffer_budget_bytes",
            "Total byte budget before reservations",
            &[],
            s.budget_bytes as f64,
        );
        reg.gauge(
            "bftree_buffer_reserved_bytes",
            "Bytes carved out by reservations",
            &[],
            s.reserved_bytes as f64,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::TwoQ;

    const PAGE: u64 = 4096;

    fn single_shard(pages: u64, policy: PolicyKind) -> (BufferManager, PoolId) {
        let mgr = BufferManager::with_shards(pages * PAGE, policy, 1);
        let pool = mgr.register_pool("test");
        (mgr, pool)
    }

    #[test]
    fn miss_then_hit() {
        let (mgr, p) = single_shard(4, PolicyKind::Lru);
        assert!(!mgr.touch(p, 1, PAGE).is_hit());
        assert!(mgr.touch(p, 1, PAGE).is_hit());
        let s = mgr.stats();
        assert_eq!((s.hits, s.misses, s.evictions), (1, 1, 0));
        assert_eq!(s.resident_bytes, PAGE);
    }

    #[test]
    fn byte_budget_evicts_lru_victim() {
        let (mgr, p) = single_shard(2, PolicyKind::Lru);
        mgr.touch(p, 1, PAGE);
        mgr.touch(p, 2, PAGE);
        mgr.touch(p, 1, PAGE); // 1 MRU, 2 LRU
        let Access::Miss { evicted } = mgr.touch(p, 3, PAGE) else {
            panic!("page 3 was never touched");
        };
        assert_eq!(*evicted, [(p, 2)]);
        assert!(mgr.contains(p, 1));
        assert!(!mgr.contains(p, 2));
        assert!(mgr.contains(p, 3));
    }

    #[test]
    fn mixed_page_sizes_account_in_bytes() {
        // Budget of 4 small pages; one double-size page displaces two.
        let (mgr, p) = single_shard(4, PolicyKind::Lru);
        for page in 0..4 {
            mgr.touch(p, page, PAGE);
        }
        let access = mgr.touch(p, 100, 2 * PAGE);
        assert_eq!(
            access.evicted(),
            2,
            "a 2-page admit evicts two 1-page frames"
        );
        let s = mgr.stats();
        assert_eq!(s.resident_bytes, 4 * PAGE);
        assert_eq!(s.resident_pages, 3);
    }

    #[test]
    fn oversized_page_is_never_admitted() {
        let (mgr, p) = single_shard(2, PolicyKind::Lru);
        mgr.touch(p, 1, PAGE);
        let access = mgr.touch(p, 9, 3 * PAGE);
        assert_eq!(access.evicted(), 0);
        assert!(!mgr.contains(p, 9));
        assert!(mgr.contains(p, 1), "resident pages survive");
    }

    #[test]
    fn zero_budget_never_hits() {
        let (mgr, p) = single_shard(0, PolicyKind::Clock);
        for page in 0..10 {
            assert!(!mgr.touch(p, page, PAGE).is_hit());
            assert!(!mgr.touch(p, page, PAGE).is_hit());
        }
        assert_eq!(mgr.stats().resident_pages, 0);
    }

    #[test]
    fn pools_do_not_collide() {
        let (mgr, a) = single_shard(4, PolicyKind::Lru);
        let b = mgr.register_pool("other");
        mgr.touch(a, 7, PAGE);
        assert!(!mgr.touch(b, 7, PAGE).is_hit(), "same page id, other pool");
        assert!(mgr.touch(a, 7, PAGE).is_hit());
        assert!(mgr.touch(b, 7, PAGE).is_hit());
    }

    #[test]
    fn reserve_shrinks_page_budget_and_evicts() {
        let (mgr, p) = single_shard(4, PolicyKind::Lru);
        for page in 0..4 {
            mgr.touch(p, page, PAGE);
        }
        let remaining = mgr.reserve(2 * PAGE);
        assert_eq!(remaining, 2 * PAGE);
        let s = mgr.stats();
        assert_eq!(s.resident_pages, 2, "evicted down to the reduced budget");
        assert_eq!(s.reserved_bytes, 2 * PAGE);
        // Reservations saturate at the total budget.
        assert_eq!(mgr.reserve(100 * PAGE), 0);
        assert_eq!(mgr.stats().resident_pages, 0);
    }

    #[test]
    fn prewarm_counts_no_hits_or_misses() {
        let (mgr, p) = single_shard(8, PolicyKind::Lru);
        mgr.prewarm(p, 0..4u64, PAGE);
        let s = mgr.stats();
        assert_eq!((s.hits, s.misses), (0, 0));
        assert_eq!(s.resident_pages, 4);
        assert!(mgr.touch(p, 3, PAGE).is_hit());
    }

    #[test]
    fn evict_pool_clears_only_that_pool() {
        let (mgr, a) = single_shard(8, PolicyKind::TwoQ);
        let b = mgr.register_pool("other");
        mgr.touch(a, 1, PAGE);
        mgr.touch(b, 1, PAGE);
        mgr.evict_pool(a);
        assert!(!mgr.contains(a, 1));
        assert!(mgr.contains(b, 1));
        mgr.evict_pool(b);
        assert!(!mgr.contains(b, 1));
        assert_eq!(mgr.stats().resident_bytes, 0);
    }

    #[test]
    fn sharded_manager_partitions_budget() {
        let mgr = BufferManager::with_shards(10 * PAGE, PolicyKind::Lru, 4);
        let shares: Vec<u64> = (0..4)
            .map(|i| BufferManager::shard_share(10 * PAGE, i, 4))
            .collect();
        assert_eq!(shares.iter().sum::<u64>(), 10 * PAGE, "no byte lost");
        // An uneven byte total spreads its remainder over the first shards.
        assert_eq!(
            (0..4)
                .map(|i| BufferManager::shard_share(10, i, 4))
                .collect::<Vec<_>>(),
            vec![3, 3, 2, 2]
        );
        assert_eq!(mgr.shards.len(), 4);
    }

    #[test]
    fn concurrent_touches_lose_no_counts() {
        let mgr = BufferManager::new(64 * PAGE, PolicyKind::Clock);
        let pool = mgr.register_pool("data");
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let mgr = &mgr;
                s.spawn(move || {
                    for i in 0..10_000u64 {
                        mgr.touch(pool, (t * 17 + i) % 256, PAGE);
                    }
                });
            }
        });
        let s = mgr.stats();
        assert_eq!(s.hits + s.misses, 80_000, "every access counted once");
        assert_eq!(
            s.misses,
            s.evictions + s.resident_pages,
            "flow conservation"
        );
    }

    #[test]
    fn trace_replay_is_exact_under_concurrency() {
        for policy in PolicyKind::ALL {
            let mgr = BufferManager::new(32 * PAGE, policy);
            let pool = mgr.register_pool("data");
            mgr.set_tracing(true);
            mgr.prewarm(pool, 0..8u64, PAGE);
            std::thread::scope(|s| {
                for t in 0..8u64 {
                    let mgr = &mgr;
                    s.spawn(move || {
                        let mut x = t + 1;
                        for _ in 0..5_000 {
                            x = x
                                .wrapping_mul(6364136223846793005)
                                .wrapping_add(1442695040888963407);
                            mgr.touch(pool, (x >> 33) % 128, PAGE);
                        }
                    });
                }
            });
            let check = mgr.verify_replay();
            assert!(
                check.exact,
                "{policy}: live {:?} != replay {:?}",
                check.live, check.replayed
            );
            assert_eq!(check.live.hits + check.live.misses, 40_000);
        }
    }

    #[test]
    fn concurrent_reserves_leave_consistent_shard_budgets() {
        let mgr = BufferManager::with_shards(64 * PAGE, PolicyKind::Lru, 4);
        let pool = mgr.register_pool("data");
        std::thread::scope(|s| {
            for _ in 0..8 {
                let mgr = &mgr;
                s.spawn(move || {
                    mgr.reserve(4 * PAGE);
                });
            }
        });
        let stats = mgr.stats();
        assert_eq!(stats.reserved_bytes, 32 * PAGE);
        // Admission capacity must reflect the full reservation: fill
        // far past the page budget and check residency stays within
        // budget - reserved.
        for page in 0..256u64 {
            mgr.touch(pool, page, PAGE);
        }
        assert!(
            mgr.stats().resident_bytes <= 32 * PAGE,
            "shards over-admitted past the reserved budget"
        );
    }

    #[test]
    fn replay_reproduces_midtrace_reserve_and_pool_eviction() {
        for policy in PolicyKind::ALL {
            let mgr = BufferManager::with_shards(16 * PAGE, policy, 2);
            let a = mgr.register_pool("a");
            let b = mgr.register_pool("b");
            // No shard ever holds more than its share of what is left.
            let within_share = |step: &str| {
                let s = mgr.stats();
                assert!(
                    s.resident_bytes <= s.budget_bytes - s.reserved_bytes,
                    "{policy} after {step}: {s:?}"
                );
            };
            mgr.reserve(2 * PAGE); // pre-trace reservation: snapshot at set_tracing
            within_share("pre-trace reserve");
            mgr.set_tracing(true);
            for page in 0..10 {
                mgr.touch(a, page, PAGE);
                within_share("touch a");
                mgr.touch(b, page, PAGE);
                within_share("touch b");
            }
            mgr.reserve(4 * PAGE); // mid-trace: shrinks budgets, evicts
            within_share("mid-trace reserve");
            let resident = (0..10).find(|&page| mgr.contains(b, page));
            assert!(mgr.invalidate(b, resident.expect("pool b holds a page")));
            within_share("invalidate");
            mgr.evict_pool(a); // mid-trace: drops pool a
            within_share("evict_pool");
            for page in 0..10 {
                mgr.touch(a, page, PAGE);
                within_share("touch a again");
            }
            let check = mgr.verify_replay();
            assert!(
                check.exact,
                "{policy}: live {:?} != replay {:?}",
                check.live, check.replayed
            );
            assert!(check.live.evictions > 0, "{policy}: pressure was real");
        }
    }

    #[test]
    fn invalidate_drops_resident_frames() {
        let (mgr, p) = single_shard(4, PolicyKind::Lru);
        mgr.touch(p, 1, PAGE);
        assert!(mgr.invalidate(p, 1));
        assert!(!mgr.invalidate(p, 1), "already gone");
        assert!(!mgr.contains(p, 1));
        assert!(!mgr.invalidate(p, 99), "never resident");
        assert_eq!(mgr.stats().evictions, 0, "invalidation is not eviction");
    }

    #[test]
    fn invalidate_is_replay_exact() {
        let (mgr, p) = single_shard(4, PolicyKind::Lru);
        mgr.set_tracing(true);
        for page in 0..6 {
            mgr.touch(p, page, PAGE);
        }
        mgr.invalidate(p, 4);
        mgr.invalidate(p, 4); // no-op invalidations must replay too
        for page in 0..6 {
            mgr.touch(p, page, PAGE);
        }
        let check = mgr.verify_replay();
        assert!(
            check.exact,
            "live {:?} != replay {:?}",
            check.live, check.replayed
        );
    }

    #[test]
    fn single_shard_lru_matches_reference_model() {
        // The sharded manager with one shard must behave as one strict
        // LRU over the whole byte budget.
        let cap = 8usize;
        let (mgr, p) = single_shard(cap as u64, PolicyKind::Lru);
        let mut model: Vec<u64> = Vec::new(); // front = MRU
        let mut state = 12345u64;
        for _ in 0..10_000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let page = (state >> 33) % 24;
            let model_hit = model.contains(&page);
            if model_hit {
                model.retain(|&q| q != page);
            } else if model.len() == cap {
                model.pop();
            }
            model.insert(0, page);
            assert_eq!(
                mgr.touch(p, page, PAGE).is_hit(),
                model_hit,
                "divergence on page {page}"
            );
        }
        for q in &model {
            assert!(mgr.contains(p, *q));
        }
    }

    /// One resident page of a [`ModelShard`].
    #[derive(Debug, Clone, Copy)]
    struct Entry {
        key: (u32, u64),
        bytes: u64,
        /// Clock's reference bit.
        referenced: bool,
    }

    /// A naive model of one shard under `policy`: resident pages in
    /// plain `Vec`s, every step a linear scan.
    struct ModelShard {
        policy: PolicyKind,
        budget: u64,
        /// LRU and 2Q's protected queue: front = MRU. Clock's ring:
        /// front = the hand.
        main: Vec<Entry>,
        /// 2Q's probationary FIFO: front = oldest.
        probation: Vec<Entry>,
    }

    impl ModelShard {
        fn resident(&self) -> impl Iterator<Item = &Entry> {
            self.main.iter().chain(&self.probation)
        }

        /// Take `key` out of whichever queue holds it.
        fn unlink(&mut self, key: (u32, u64)) -> Option<Entry> {
            [&mut self.probation, &mut self.main]
                .into_iter()
                .find_map(|queue| {
                    let i = queue.iter().position(|e| e.key == key)?;
                    Some(queue.remove(i))
                })
        }

        fn victim(&mut self) -> Entry {
            match self.policy {
                PolicyKind::Lru => self.main.pop().expect("resident"),
                PolicyKind::Clock => loop {
                    let mut e = self.main.remove(0);
                    if !e.referenced {
                        return e;
                    }
                    e.referenced = false;
                    self.main.push(e);
                },
                PolicyKind::TwoQ => {
                    let resident = self.probation.len() + self.main.len();
                    if self.probation.len() * 100 > resident * TwoQ::KIN_PERCENT
                        || self.main.is_empty()
                    {
                        self.probation.remove(0)
                    } else {
                        self.main.pop().expect("resident")
                    }
                }
            }
        }

        /// A reference to `key`: `None` on a hit, else the victims in
        /// eviction order.
        fn touch(&mut self, key: (u32, u64), bytes: u64) -> Option<Vec<(u32, u64)>> {
            if self.policy == PolicyKind::Clock {
                if let Some(e) = self.main.iter_mut().find(|e| e.key == key) {
                    e.referenced = true;
                    return None;
                }
            } else if let Some(e) = self.unlink(key) {
                self.main.insert(0, e);
                return None;
            }
            let mut evicted = Vec::new();
            if bytes <= self.budget {
                while self.resident().map(|e| e.bytes).sum::<u64>() + bytes > self.budget {
                    evicted.push(self.victim().key);
                }
                let e = Entry {
                    key,
                    bytes,
                    referenced: false,
                };
                match self.policy {
                    PolicyKind::Lru => self.main.insert(0, e),
                    PolicyKind::Clock => self.main.push(e),
                    PolicyKind::TwoQ => self.probation.push(e),
                }
            }
            Some(evicted)
        }
    }

    /// Each policy, driven through one shard by a seeded mix of
    /// `touch`, `prewarm`, `invalidate` and `evict_pool` over two pools
    /// with one- and two-page frames (and one frame larger than the
    /// budget), evicts exactly the pages a naive `Vec` model of it
    /// evicts, in the same order, and keeps the same pages resident.
    #[test]
    fn single_shard_policies_match_reference_models() {
        let budget = 8 * PAGE;
        let pages = 20u64;
        let size = |pool: u32, page: u64| match (pool, page) {
            (1, 19) => 9 * PAGE,
            (1, p) if p % 3 == 0 => 2 * PAGE,
            _ => PAGE,
        };
        for policy in PolicyKind::ALL {
            let mgr = BufferManager::with_shards(budget, policy, 1);
            let pools = [mgr.register_pool("a"), mgr.register_pool("b")];
            let mut model = ModelShard {
                policy,
                budget,
                main: Vec::new(),
                probation: Vec::new(),
            };
            let mut spills = 0;
            for step in 0..4_000u64 {
                let r = mix(0x5EED, step);
                let key = ((r & 1) as u32, (r >> 8) % pages);
                let (id, bytes) = (pools[key.0 as usize], size(key.0, key.1));
                let at = format!("{policy} step {step}: {key:?}");
                match (r >> 32) % 100 {
                    0..=79 => {
                        let got = match mgr.touch(id, key.1, bytes) {
                            Access::Hit => None,
                            Access::Miss { evicted } => {
                                spills += usize::from(evicted.len() > 1);
                                Some(evicted.iter().map(|&(q, p)| (q.0, p)).collect())
                            }
                        };
                        assert_eq!(got, model.touch(key, bytes), "{at}: touch");
                    }
                    80..=89 => {
                        mgr.prewarm(id, [key.1], bytes);
                        model.touch(key, bytes);
                    }
                    90..=97 => {
                        let dropped = model.unlink(key).is_some();
                        assert_eq!(mgr.invalidate(id, key.1), dropped, "{at}: invalidate");
                    }
                    _ => {
                        mgr.evict_pool(id);
                        model.main.retain(|e| e.key.0 != key.0);
                        model.probation.retain(|e| e.key.0 != key.0);
                    }
                }
                for (q, &id) in pools.iter().enumerate() {
                    for p in 0..pages {
                        let resident = model.resident().any(|e| e.key == (q as u32, p));
                        assert_eq!(mgr.contains(id, p), resident, "{at}: pool {q} page {p}");
                    }
                }
            }
            assert!(spills > 0, "{policy}: some admission evicted two pages");
        }
    }
}
