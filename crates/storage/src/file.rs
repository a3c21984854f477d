//! [`FileStore`]: a real, byte-hitting page store behind the device
//! abstraction.
//!
//! Every number the simulator produces comes from an analytic cost
//! model; this module is the half of the calibration story that
//! actually touches the medium. A `FileStore` keeps fixed-size page
//! slots in one file, each slot carrying a header with a CRC-32
//! checksum and a page LSN that are **verified on every read** — a
//! flipped bit, a torn (short) page, or a zeroed header surfaces as a
//! typed [`DeviceError`], never as silent garbage.
//!
//! # File layout
//!
//! ```text
//! +--------------+----------------+-----+----------------+----------------+-----+
//! |  superblock  |    slot 0      | ... | slot count - 1 |  zeroed slot   | ... |
//! |  (4096 B)    | header+payload |     | header+payload | (extent tail)  |     |
//! +--------------+----------------+-----+----------------+----------------+-----+
//! ```
//!
//! * **superblock** — magic, version, page size, slot count, free-list
//!   head, and the next page id to hand out; rewritten whenever the
//!   allocation state changes, so a drop + reopen finds the same free
//!   list and id horizon.
//! * **slot** — a 40-byte header (`magic, state, page_id, lsn,
//!   payload_len, crc32, next_free`) followed by up to
//!   [`PAGE_SIZE`] payload bytes. The CRC
//!   covers `page_id ++ lsn ++ payload_len ++ payload`, so header
//!   tampering and payload corruption both fail the same check.
//! * **free list** — freed slots form a linked stack through their
//!   `next_free` header field, head in the superblock. [`FileStore::alloc`]
//!   pops the list before growing the file, so freed space is always
//!   reused first.
//! * **extent tail** — the file is grown ahead of its slots. When a new
//!   slot reaches the end of the written file, one `pwrite` of zeros
//!   appends an extent of slots: as many as the store already holds,
//!   at least `MIN_EXTENT_SLOTS` and at most `MAX_EXTENT_SLOTS`
//!   (about 1 MiB). Every later new slot, and every growing rewrite of
//!   a short page such as the log's tail, then overwrites allocated
//!   blocks instead of extending the file. The reason is the barrier:
//!   an `fdatasync` after a size change must also commit the
//!   filesystem's journal, one after an overwrite need not. A zeroed
//!   slot is no page (its magic is 0), the superblock's slot count never
//!   covers it until it is handed out, and [`FileStore::open`] derives
//!   the written capacity from the file length, so a file without a
//!   tail (an older store) opens unchanged and grows its first extent
//!   from its slot count, past a short last slot.
//!
//! # Durability
//!
//! Writes are plain `pwrite`s — no `O_DSYNC` — and become durable
//! through explicit [`FileStore::sync`] barriers that a
//! [`SyncPolicy`] either issues or defers (batching barriers is the
//! WAL's job, one layer up: `DurabilityMode::GroupCommit`).
//! Wall-clock nanoseconds of every read, write, and issued fsync
//! accumulate in a [`WallSnapshot`], the measured twin of the
//! simulator's `sim_ns`. An extent is not a page write: it rolls no
//! fault and counts in `extents` and `extent_ns`, so `write_ns /
//! writes` stays the cost of one page write.

use bftree_obs::WallTimer;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::codec::{crc32_update, DecodeError, Put, Reader};
use crate::fault::{FaultInjector, FaultKind, FaultStats, Quarantine, RetryPolicy};
use crate::page::{PageId, PAGE_SIZE};

/// Superblock magic ("BFPS" little-endian).
const SUPER_MAGIC: u32 = 0x5350_4642;
/// Page-header magic ("BFPG" little-endian).
const PAGE_MAGIC: u32 = 0x4750_4642;
/// On-disk format version.
const VERSION: u32 = 1;
/// Superblock size (one page-sized region before slot 0).
const SUPER_SIZE: u64 = PAGE_SIZE as u64;
/// Bytes of the superblock's image.
const SUPER_LEN: usize = 56;
/// Slots a superblock may claim: every slot's offset, and the next
/// one's, fit a `u64`.
const MAX_SLOTS: u64 = (u64::MAX - SUPER_SIZE) / SLOT_SIZE as u64 - 1;
/// Per-slot header bytes.
pub const PAGE_HEADER: usize = 40;
/// Bytes per slot: header plus a full page of payload capacity.
const SLOT_SIZE: usize = PAGE_HEADER + PAGE_SIZE;
/// "No slot" sentinel in free-list links.
const NO_SLOT: u64 = u64::MAX;
/// Slots of the smallest extent the file grows by (a fresh store's
/// first).
const MIN_EXTENT_SLOTS: u64 = 8;
/// Slots of the largest extent the file grows by.
const MAX_EXTENT_SLOTS: u64 = 256;
/// The zeros every extent is written from.
static ZERO_EXTENT: [u8; MAX_EXTENT_SLOTS as usize * SLOT_SIZE] =
    [0; MAX_EXTENT_SLOTS as usize * SLOT_SIZE];

/// Slot state: holds a live page.
const STATE_LIVE: u32 = 1;
/// Slot state: on the free list.
const STATE_FREE: u32 = 2;

/// Why a [`FileStore`] operation failed. Every corruption mode the
/// fault-injection battery exercises has its own variant — callers
/// can tell a flipped bit from a torn write from a zeroed header.
#[derive(Debug)]
#[non_exhaustive]
pub enum DeviceError {
    /// The page id was never written (and never allocated) here.
    UnknownPage {
        /// The requested page.
        page: PageId,
    },
    /// The slot ended before its header + payload did — a torn write
    /// or a truncated file.
    ShortRead {
        /// The requested page.
        page: PageId,
        /// Bytes the slot should have held.
        wanted: usize,
        /// Bytes actually readable.
        got: usize,
    },
    /// The slot header is not a valid page header (bad magic, bad
    /// state, or a page id that does not match the slot map) — what a
    /// zeroed or overwritten header reads as.
    BadHeader {
        /// The requested page.
        page: PageId,
        /// What exactly was wrong.
        reason: &'static str,
    },
    /// Header and structure parse, but the CRC-32 over
    /// `page_id ++ lsn ++ payload_len ++ payload` does not match — a
    /// flipped bit somewhere in the covered bytes.
    ChecksumMismatch {
        /// The requested page.
        page: PageId,
        /// CRC stored in the header.
        expected: u32,
        /// CRC computed over the bytes read.
        actual: u32,
    },
    /// The page was freed; reading it is a use-after-free.
    FreedPage {
        /// The requested page.
        page: PageId,
    },
    /// The payload exceeds one page.
    PayloadTooLarge {
        /// The requested page.
        page: PageId,
        /// Offending payload length.
        len: usize,
    },
    /// The superblock is not a `FileStore` image (wrong magic,
    /// version, or page size, or too short).
    BadSuperblock(DecodeError),
    /// An underlying I/O error.
    Io(io::Error),
}

impl DeviceError {
    /// Whether a retry can plausibly succeed without anyone fixing the
    /// medium first.
    ///
    /// | variant | class | rationale |
    /// |---|---|---|
    /// | `Io` | transient | `EINTR`/`EIO` style conditions clear on retry |
    /// | `ShortRead` | transient | the next read may see the full slot |
    /// | `ChecksumMismatch` | permanent | stored bits are wrong until repaired |
    /// | `BadHeader` | permanent | the slot content itself is corrupt |
    /// | `BadSuperblock` | permanent | the store image is not openable |
    /// | `UnknownPage` | permanent | retrying cannot invent the page |
    /// | `FreedPage` | permanent | use-after-free is a logic error |
    /// | `PayloadTooLarge` | permanent | the request itself is invalid |
    pub fn is_transient(&self) -> bool {
        matches!(self, DeviceError::Io(_) | DeviceError::ShortRead { .. })
    }
}

impl std::fmt::Display for DeviceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeviceError::UnknownPage { page } => write!(f, "page {page} was never written"),
            DeviceError::ShortRead { page, wanted, got } => {
                write!(f, "short read of page {page}: wanted {wanted}, got {got}")
            }
            DeviceError::BadHeader { page, reason } => {
                write!(f, "bad header for page {page}: {reason}")
            }
            DeviceError::ChecksumMismatch {
                page,
                expected,
                actual,
            } => write!(
                f,
                "checksum mismatch on page {page}: header {expected:#010x}, computed {actual:#010x}"
            ),
            DeviceError::FreedPage { page } => write!(f, "page {page} is freed"),
            DeviceError::PayloadTooLarge { page, len } => {
                write!(f, "payload of {len} bytes for page {page} exceeds a page")
            }
            DeviceError::BadSuperblock(e) => write!(f, "bad superblock: {e}"),
            DeviceError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for DeviceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DeviceError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for DeviceError {
    fn from(e: io::Error) -> Self {
        DeviceError::Io(e)
    }
}

/// When [`FileStore::sync`] requests reach the medium.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// Every sync request issues a real `fdatasync`.
    PerRequest,
    /// Sync requests are counted but never issued on their own; only
    /// [`FileStore::flush`] reaches the medium.
    Deferred,
}

/// Wall-clock I/O counters of a [`FileStore`] — the measured twin of
/// the simulator's `IoSnapshot`, also usable as a delta via
/// [`WallSnapshot::since`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct WallSnapshot {
    /// Page reads issued against the file.
    pub reads: u64,
    /// Page writes issued against the file (materializations
    /// included).
    pub writes: u64,
    /// Pages materialized on first access (subset of `writes`).
    pub materialized: u64,
    /// Sync requests received (issued or deferred).
    pub sync_requests: u64,
    /// `fdatasync` barriers actually issued.
    pub syncs_issued: u64,
    /// Wall nanoseconds spent in reads.
    pub read_ns: u64,
    /// Wall nanoseconds spent in page writes.
    pub write_ns: u64,
    /// Wall nanoseconds spent in issued syncs.
    pub sync_ns: u64,
    /// Zero-filled extents written ahead of the slots (no page writes).
    pub extents: u64,
    /// Wall nanoseconds spent writing extents.
    pub extent_ns: u64,
}

impl WallSnapshot {
    /// Total wall nanoseconds across reads, writes, syncs, and extents.
    pub fn wall_ns(&self) -> u64 {
        self.read_ns + self.write_ns + self.sync_ns + self.extent_ns
    }

    /// Counter-wise difference `self - earlier`.
    pub fn since(&self, earlier: &WallSnapshot) -> WallSnapshot {
        WallSnapshot {
            reads: self.reads - earlier.reads,
            writes: self.writes - earlier.writes,
            materialized: self.materialized - earlier.materialized,
            sync_requests: self.sync_requests - earlier.sync_requests,
            syncs_issued: self.syncs_issued - earlier.syncs_issued,
            read_ns: self.read_ns - earlier.read_ns,
            write_ns: self.write_ns - earlier.write_ns,
            sync_ns: self.sync_ns - earlier.sync_ns,
            extents: self.extents - earlier.extents,
            extent_ns: self.extent_ns - earlier.extent_ns,
        }
    }
}

#[derive(Debug, Default)]
struct WallStats {
    reads: AtomicU64,
    writes: AtomicU64,
    materialized: AtomicU64,
    sync_requests: AtomicU64,
    syncs_issued: AtomicU64,
    read_ns: AtomicU64,
    write_ns: AtomicU64,
    sync_ns: AtomicU64,
    extents: AtomicU64,
    extent_ns: AtomicU64,
}

impl WallStats {
    fn snapshot(&self) -> WallSnapshot {
        WallSnapshot {
            reads: self.reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            materialized: self.materialized.load(Ordering::Relaxed),
            sync_requests: self.sync_requests.load(Ordering::Relaxed),
            syncs_issued: self.syncs_issued.load(Ordering::Relaxed),
            read_ns: self.read_ns.load(Ordering::Relaxed),
            write_ns: self.write_ns.load(Ordering::Relaxed),
            sync_ns: self.sync_ns.load(Ordering::Relaxed),
            extents: self.extents.load(Ordering::Relaxed),
            extent_ns: self.extent_ns.load(Ordering::Relaxed),
        }
    }
}

/// One parsed slot header.
#[derive(Debug, Clone, Copy)]
struct SlotHeader {
    magic: u32,
    state: u32,
    page_id: u64,
    lsn: u64,
    payload_len: u32,
    crc: u32,
    next_free: u64,
}

impl SlotHeader {
    fn read(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(Self {
            magic: r.u32()?,
            state: r.u32()?,
            page_id: r.u64()?,
            lsn: r.u64()?,
            payload_len: r.u32()?,
            crc: r.u32()?,
            next_free: r.u64()?,
        })
    }

    fn encode(&self) -> [u8; PAGE_HEADER] {
        let mut out = [0u8; PAGE_HEADER];
        let mut w = &mut out[..];
        w.put_u32(self.magic);
        w.put_u32(self.state);
        w.put_u64(self.page_id);
        w.put_u64(self.lsn);
        w.put_u32(self.payload_len);
        w.put_u32(self.crc);
        w.put_u64(self.next_free);
        out
    }

    /// CRC coverage: `page_id ++ lsn ++ payload_len ++ payload`, all
    /// little-endian — so a tampered id, lsn, or length fails the same
    /// check a flipped payload bit does.
    fn crc_of(&self, payload: &[u8]) -> u32 {
        let mut covered = [0u8; 20];
        let mut w = &mut covered[..];
        w.put_u64(self.page_id);
        w.put_u64(self.lsn);
        w.put_u32(self.payload_len);
        !crc32_update(crc32_update(!0, &covered), payload)
    }
}

/// The allocation state the superblock persists, after its magic,
/// version and page size (and before 8 reserved bytes).
#[derive(Debug, Clone, Copy)]
struct Superblock {
    slot_count: u64,
    free_head: u64,
    /// Next page id [`FileStore::alloc`] hands out.
    next_id: u64,
    free_len: u64,
}

impl Superblock {
    fn decode(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut r = Reader::new(bytes);
        if r.u32()? != SUPER_MAGIC {
            return Err(r.err("wrong magic"));
        }
        if r.u32()? != VERSION {
            return Err(r.err("unknown version"));
        }
        if r.u64()? != PAGE_SIZE as u64 {
            return Err(r.err("page size mismatch"));
        }
        let sb = Self {
            slot_count: r.u64()?,
            free_head: r.u64()?,
            next_id: r.u64()?,
            free_len: r.u64()?,
        };
        if sb.slot_count > MAX_SLOTS || sb.free_len > sb.slot_count {
            return Err(r.err("slot or free-list count out of range"));
        }
        r.bytes(8)?;
        Ok(sb)
    }

    fn encode(&self) -> [u8; SUPER_LEN] {
        let mut out = [0u8; SUPER_LEN];
        let mut w = &mut out[..];
        w.put_u32(SUPER_MAGIC);
        w.put_u32(VERSION);
        w.put_u64(PAGE_SIZE as u64);
        w.put_u64(self.slot_count);
        w.put_u64(self.free_head);
        w.put_u64(self.next_id);
        w.put_u64(self.free_len);
        out
    }
}

/// Mutable state behind the store's lock.
#[derive(Debug)]
struct Inner {
    file: File,
    /// Live page id → slot index.
    map: HashMap<PageId, u64>,
    sb: Superblock,
    /// Whole slots the file has been written out to: a new slot below
    /// it overwrites allocated blocks; one at or past it grows an
    /// extent first.
    capacity: u64,
    /// Next page LSN (monotone across the whole store).
    next_lsn: u64,
    /// Rolled by every read, write and issued sync once installed.
    injector: Option<Arc<FaultInjector>>,
    retry: RetryPolicy,
}

impl Inner {
    /// The slot holding live page `page`.
    fn slot(&self, page: PageId) -> Result<u64, DeviceError> {
        self.map
            .get(&page)
            .copied()
            .ok_or(DeviceError::UnknownPage { page })
    }
}

/// Outcome of a charging-path operation ([`FileStore::charged_read`]
/// / [`FileStore::charged_write`]) once the retry policy has run its
/// course. The charging API never panics on device faults; it reports
/// what the fault plane concluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoOutcome {
    /// The operation completed and verified (possibly after retries).
    Ok,
    /// Transient failures persisted through every retry attempt; the
    /// stored bytes are presumed intact, the op was simply not served.
    Unavailable,
    /// Permanent verification failure — the page is now quarantined
    /// and must be repaired before a read of it can succeed.
    Quarantined,
}

/// The fault-tolerance state of one store outside its lock: jitter
/// RNG, shared counters, and the page quarantine (the injector and
/// the retry policy sit in [`Inner`], read under the lock every
/// operation already holds).
#[derive(Debug)]
struct FaultPlane {
    /// Jitter stream for retry backoff — seeded at construction so
    /// backoff sequences are reproducible run to run.
    rng: Mutex<StdRng>,
    stats: Arc<FaultStats>,
    quarantine: Arc<Quarantine>,
}

impl Default for FaultPlane {
    fn default() -> Self {
        Self {
            rng: Mutex::new(StdRng::seed_from_u64(0xBF09)),
            stats: Arc::new(FaultStats::default()),
            quarantine: Arc::new(Quarantine::new()),
        }
    }
}

/// A page-granular file store: checksummed slots, a persistent free
/// list, fsync barriers, and wall-clock accounting. See the
/// [module docs](self) for the layout.
///
/// All methods take `&self`; a mutex serializes file access and a
/// clone-shared handle (via `Arc`) may be used from many threads.
#[derive(Debug)]
pub struct FileStore {
    path: PathBuf,
    inner: Mutex<Inner>,
    policy: SyncPolicy,
    wall: WallStats,
    faults: FaultPlane,
}

impl FileStore {
    /// Create a fresh store at `path` (truncating any existing file).
    pub fn create(path: impl Into<PathBuf>, policy: SyncPolicy) -> Result<Self, DeviceError> {
        let path = path.into();
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)?;
        let store = Self {
            path,
            inner: Mutex::new(Inner {
                file,
                map: HashMap::new(),
                sb: Superblock {
                    slot_count: 0,
                    free_head: NO_SLOT,
                    next_id: 0,
                    free_len: 0,
                },
                capacity: 0,
                next_lsn: 1,
                injector: None,
                retry: RetryPolicy::exponential(),
            }),
            policy,
            wall: WallStats::default(),
            faults: FaultPlane::default(),
        };
        store.persist_superblock(&mut store.lock())?;
        Ok(store)
    }

    /// Open an existing store, rebuilding the page map (and the LSN
    /// horizon) from the slot headers. Allocation state — free list,
    /// slot count, next page id — comes back exactly as persisted.
    pub fn open(path: impl Into<PathBuf>, policy: SyncPolicy) -> Result<Self, DeviceError> {
        let path = path.into();
        let file = OpenOptions::new().read(true).write(true).open(&path)?;
        let mut sb = [0u8; SUPER_LEN];
        let got = read_full_at(&file, &mut sb, 0)?;
        let sb = Superblock::decode(&sb[..got]).map_err(DeviceError::BadSuperblock)?;
        let capacity = file.metadata()?.len().saturating_sub(SUPER_SIZE) / SLOT_SIZE as u64;

        // Rebuild the live map and the LSN horizon from slot headers.
        let mut map = HashMap::new();
        let mut max_lsn = 0u64;
        for slot in 0..sb.slot_count {
            let mut hb = [0u8; PAGE_HEADER];
            let got = read_full_at(&file, &mut hb, slot_offset(slot))?;
            // A truncated tail slot ends the scan: unreadable pages
            // surface as typed errors at read time, not at open time.
            let Ok(h) = SlotHeader::read(&mut Reader::new(&hb[..got])) else {
                break;
            };
            if h.magic == PAGE_MAGIC && h.state == STATE_LIVE {
                // Headers are unverified here: an LSN with no successor
                // must not wrap the store's monotone horizon.
                if h.lsn == u64::MAX {
                    return Err(DeviceError::BadHeader {
                        page: h.page_id,
                        reason: "lsn horizon exhausted",
                    });
                }
                map.insert(h.page_id, slot);
                max_lsn = max_lsn.max(h.lsn);
            }
        }
        Ok(Self {
            path,
            inner: Mutex::new(Inner {
                file,
                map,
                sb,
                capacity,
                next_lsn: max_lsn + 1,
                injector: None,
                retry: RetryPolicy::exponential(),
            }),
            policy,
            wall: WallStats::default(),
            faults: FaultPlane::default(),
        })
    }

    /// Open `path` if it is a store, otherwise create it.
    pub fn open_or_create(
        path: impl Into<PathBuf>,
        policy: SyncPolicy,
    ) -> Result<Self, DeviceError> {
        let path = path.into();
        if path.exists() {
            Self::open(path, policy)
        } else {
            Self::create(path, policy)
        }
    }

    /// The backing file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn persist_superblock(&self, inner: &mut Inner) -> Result<(), DeviceError> {
        inner.file.write_all_at(&inner.sb.encode(), 0)?;
        Ok(())
    }

    /// Allocate a fresh page id backed by a slot: the free list is
    /// popped first; only when it is empty does the file grow. The
    /// page is written immediately (live header, empty payload), so
    /// the allocation itself survives a reopen.
    pub fn alloc(&self) -> Result<PageId, DeviceError> {
        let mut inner = self.lock();
        let page = inner.sb.next_id;
        inner.sb.next_id = page.checked_add(1).ok_or(DeviceError::BadHeader {
            page,
            reason: "page id horizon exhausted",
        })?;
        self.write_locked(&mut inner, page, Some(&[]), false)?;
        Ok(page)
    }

    /// Free `page`: its slot joins the free list (persisted) and the
    /// id stops resolving. Freeing an unknown page is an error.
    pub fn free(&self, page: PageId) -> Result<(), DeviceError> {
        let mut inner = self.lock();
        let slot = inner
            .map
            .remove(&page)
            .ok_or(DeviceError::UnknownPage { page })?;
        let header = SlotHeader {
            magic: PAGE_MAGIC,
            state: STATE_FREE,
            page_id: page,
            lsn: 0,
            payload_len: 0,
            crc: 0,
            next_free: inner.sb.free_head,
        };
        let t = WallTimer::start();
        inner
            .file
            .write_all_at(&header.encode(), slot_offset(slot))?;
        self.wall
            .write_ns
            .fetch_add(t.elapsed_ns(), Ordering::Relaxed);
        self.wall.writes.fetch_add(1, Ordering::Relaxed);
        inner.sb.free_head = slot;
        inner.sb.free_len += 1;
        self.persist_superblock(&mut inner)
    }

    /// Whether `page` currently resolves to a live slot.
    pub fn contains(&self, page: PageId) -> bool {
        self.lock().map.contains_key(&page)
    }

    /// Live pages.
    pub fn live_pages(&self) -> u64 {
        self.lock().map.len() as u64
    }

    /// Slots on the free list.
    pub fn free_slots(&self) -> u64 {
        self.lock().sb.free_len
    }

    /// Total slots the file holds (live + free).
    pub fn slot_count(&self) -> u64 {
        self.lock().sb.slot_count
    }

    /// Read and verify `page`, returning its payload. Every failure
    /// mode is a typed [`DeviceError`]; no bytes are returned unless
    /// the header parses, the id matches, and the checksum holds.
    ///
    /// This is one attempt, with fault injection armed when an
    /// injector is installed; [`FileStore::read_page_verified`] wraps
    /// it in the store's [`RetryPolicy`].
    pub fn read_page(&self, page: PageId) -> Result<Vec<u8>, DeviceError> {
        let mut buf = [0u8; SLOT_SIZE];
        let inner = self.lock();
        let len = self.read_slot(&inner, page, inner.slot(page)?, true, &mut buf)?;
        Ok(buf[PAGE_HEADER..PAGE_HEADER + len].to_vec())
    }

    /// One verified read of `page`'s image in `slot` (the slot
    /// [`Inner::slot`] resolves it to under the same lock) into `buf`:
    /// the payload is `buf[PAGE_HEADER..PAGE_HEADER + len]` for the
    /// returned `len`, and only once every check has passed.
    fn read_slot(
        &self,
        inner: &Inner,
        page: PageId,
        slot: u64,
        inject: bool,
        buf: &mut [u8; SLOT_SIZE],
    ) -> Result<usize, DeviceError> {
        if inject {
            self.inject_read_fault(inner, page, slot)?;
        }
        let t = WallTimer::start();
        let got = read_full_at(&inner.file, buf, slot_offset(slot))?;
        self.wall
            .read_ns
            .fetch_add(t.elapsed_ns(), Ordering::Relaxed);
        self.wall.reads.fetch_add(1, Ordering::Relaxed);
        let short = |wanted| DeviceError::ShortRead { page, wanted, got };
        let bad = |reason| Err(DeviceError::BadHeader { page, reason });
        let mut r = Reader::new(&buf[..got]);
        let h = SlotHeader::read(&mut r).map_err(|_| short(PAGE_HEADER))?;
        if h.magic != PAGE_MAGIC {
            return bad("wrong page magic");
        }
        match h.state {
            STATE_LIVE => {}
            STATE_FREE => return Err(DeviceError::FreedPage { page }),
            _ => return bad("unknown slot state"),
        }
        if h.page_id != page {
            return bad("slot holds a different page id");
        }
        let len = h.payload_len as usize;
        if len > PAGE_SIZE {
            return bad("payload length exceeds a page");
        }
        let payload = r.bytes(len).map_err(|_| short(PAGE_HEADER + len))?;
        let actual = h.crc_of(payload);
        if actual != h.crc {
            return Err(DeviceError::ChecksumMismatch {
                page,
                expected: h.crc,
                actual,
            });
        }
        Ok(len)
    }

    /// Roll the read-path injector; a fired fault either returns the
    /// corresponding typed error (transient kinds) or actually flips a
    /// stored bit (bit rot), letting the real verification catch it.
    fn inject_read_fault(&self, inner: &Inner, page: PageId, slot: u64) -> Result<(), DeviceError> {
        let Some(inj) = inner.injector.as_ref() else {
            return Ok(());
        };
        match inj.roll_read() {
            None => Ok(()),
            Some(FaultKind::TransientIo) => Err(DeviceError::Io(io::Error::other(
                "injected transient I/O error",
            ))),
            Some(FaultKind::ShortRead) => Err(DeviceError::ShortRead {
                page,
                wanted: PAGE_HEADER,
                got: 0,
            }),
            Some(_) => {
                // Bit rot (or any scheduled corruption kind routed to a
                // read): flip a real stored bit, then let the verified
                // read below fail its checksum honestly.
                self.corrupt_locked(inner, page, slot)?;
                Ok(())
            }
        }
    }

    /// Flip one deterministic bit of `page`'s stored image **on the
    /// medium** — the payload when there is one, the stored CRC field
    /// otherwise — without updating the checksum. The next verified
    /// read fails [`DeviceError::ChecksumMismatch`] until the page is
    /// rewritten. Public so tests and the chaos harness can plant
    /// corruption directly.
    pub fn corrupt_page(&self, page: PageId) -> Result<(), DeviceError> {
        let inner = self.lock();
        let slot = inner.slot(page)?;
        self.corrupt_locked(&inner, page, slot)
    }

    fn corrupt_locked(&self, inner: &Inner, page: PageId, slot: u64) -> Result<(), DeviceError> {
        let h = read_header(&inner.file, page, slot)?;
        let len = (h.payload_len as usize).min(PAGE_SIZE);
        let offset = if len > 0 {
            slot_offset(slot) + PAGE_HEADER as u64 + (page.wrapping_mul(31) % len as u64)
        } else {
            slot_offset(slot) + 28 // the stored CRC field
        };
        let mut byte = [0u8; 1];
        inner.file.read_exact_at(&mut byte, offset)?;
        byte[0] ^= 1 << (page % 8) as u8;
        inner.file.write_all_at(&byte, offset)?;
        Ok(())
    }

    /// Install a fault injector; every subsequent read, write, and
    /// issued sync rolls it.
    pub fn set_fault_injector(&self, injector: Arc<FaultInjector>) {
        self.lock().injector = Some(injector);
    }

    /// Set how transient errors are retried (default:
    /// [`RetryPolicy::exponential`]).
    pub fn set_retry_policy(&self, policy: RetryPolicy) {
        self.lock().retry = policy;
    }

    /// The active retry policy.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.lock().retry
    }

    /// The store's fault-plane counters.
    pub fn fault_stats(&self) -> &Arc<FaultStats> {
        &self.faults.stats
    }

    /// The store's page quarantine.
    pub fn quarantine(&self) -> &Arc<Quarantine> {
        &self.faults.quarantine
    }

    /// Quarantine `page` after a permanent verification failure.
    pub(crate) fn quarantine_page(&self, page: PageId) {
        if self.faults.quarantine.quarantine(page) {
            self.faults.stats.note_quarantined();
        }
    }

    /// Run `op` under the store's [`RetryPolicy`], the first attempt
    /// on the lock the caller already holds: transient errors wait out
    /// a bounded, jittered exponential backoff and retry; permanent
    /// errors (and exhaustion) escalate. The lock is released across
    /// each backoff and re-acquired for the next attempt.
    fn with_retries<'a, T>(
        &'a self,
        mut inner: MutexGuard<'a, Inner>,
        mut op: impl FnMut(&mut Inner) -> Result<T, DeviceError>,
    ) -> Result<T, DeviceError> {
        let policy = inner.retry;
        let mut attempt = 1u32;
        loop {
            match op(&mut inner) {
                Ok(v) => {
                    if attempt > 1 {
                        self.faults.stats.note_retry_success();
                    }
                    return Ok(v);
                }
                Err(e) if e.is_transient() => {
                    self.faults.stats.note_transient();
                    if attempt >= policy.max_attempts {
                        self.faults.stats.note_exhausted();
                        return Err(e);
                    }
                    drop(inner);
                    let wait = {
                        let mut rng = self.faults.rng.lock().unwrap_or_else(|e| e.into_inner());
                        policy.backoff_ns(attempt, &mut rng)
                    };
                    {
                        let mut span = bftree_obs::span(bftree_obs::SpanKind::FaultRetry);
                        span.set_detail(attempt as u64);
                        if wait > 0 {
                            std::thread::sleep(std::time::Duration::from_nanos(wait));
                        }
                    }
                    self.faults.stats.note_retry(wait);
                    attempt += 1;
                    inner = self.lock();
                }
                Err(e) => {
                    self.faults.stats.note_permanent();
                    return Err(e);
                }
            }
        }
    }

    /// [`FileStore::read_page`] under the store's retry policy:
    /// transient failures are retried with backoff, permanent ones
    /// escalate untouched.
    pub fn read_page_verified(&self, page: PageId) -> Result<Vec<u8>, DeviceError> {
        let mut buf = [0u8; SLOT_SIZE];
        let len = self.with_retries(self.lock(), |inner| {
            self.read_slot(inner, page, inner.slot(page)?, true, &mut buf)
        })?;
        Ok(buf[PAGE_HEADER..PAGE_HEADER + len].to_vec())
    }

    /// [`FileStore::write_page`] under the store's retry policy.
    pub fn write_page_verified(&self, page: PageId, payload: &[u8]) -> Result<u64, DeviceError> {
        self.with_retries(self.lock(), |inner| {
            self.write_locked(inner, page, Some(payload), false)
        })
    }

    /// Ids of every live page (the scrubber's sweep list), sorted.
    pub fn live_page_ids(&self) -> Vec<PageId> {
        let mut ids: Vec<PageId> = self.lock().map.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Rewrite `page` with a fresh LSN and checksum and release it
    /// from quarantine once a read-back verifies. `payload` is the
    /// authoritative bytes to restore; `None` re-stamps the
    /// deterministic charged image (index / charged pages carry no
    /// caller bytes). Repair runs on an injection-free path — it is
    /// the verified-write primitive the healing story bottoms out on.
    pub fn repair_page(&self, page: PageId, payload: Option<&[u8]>) -> Result<u64, DeviceError> {
        let mut inner = self.lock();
        let lsn = self.write_locked_impl(&mut inner, page, payload, false, false)?;
        let slot = inner.slot(page)?;
        self.read_slot(&inner, page, slot, false, &mut [0u8; SLOT_SIZE])?;
        if self.faults.quarantine.release(page) {
            self.faults.stats.note_repaired();
        }
        Ok(lsn)
    }

    /// The stored LSN of `page` (bumps on every write).
    pub fn page_lsn(&self, page: PageId) -> Result<u64, DeviceError> {
        let inner = self.lock();
        let slot = inner.slot(page)?;
        Ok(read_header(&inner.file, page, slot)?.lsn)
    }

    /// Write `payload` as the new contents of `page` (allocating a
    /// slot on first write — free list first, then growth), stamping
    /// a fresh LSN and checksum. Returns the page's new LSN.
    ///
    /// One attempt, fault injection armed;
    /// [`FileStore::write_page_verified`] adds the retry policy.
    pub fn write_page(&self, page: PageId, payload: &[u8]) -> Result<u64, DeviceError> {
        self.write_locked(&mut self.lock(), page, Some(payload), false)
    }

    /// Injection-armed write: a transient fault fails before touching
    /// the file; a torn write persists only a prefix of the frame —
    /// reporting success now and failing the page's next verified
    /// read, exactly like a real torn sector. A `None` payload is the
    /// charged image (see [`stamp_payload`]).
    fn write_locked(
        &self,
        inner: &mut Inner,
        page: PageId,
        payload: Option<&[u8]>,
        materialize: bool,
    ) -> Result<u64, DeviceError> {
        match inner.injector.as_ref().and_then(|inj| inj.roll_write()) {
            Some(FaultKind::TransientIo) => Err(DeviceError::Io(io::Error::other(
                "injected transient I/O error",
            ))),
            fault => {
                let torn = fault == Some(FaultKind::TornWrite);
                self.write_locked_impl(inner, page, payload, materialize, torn)
            }
        }
    }

    /// The write itself, injection-free unless `torn` (the repair
    /// path's primitive): header, payload and checksum are built in
    /// one slot-sized frame and land in one `pwrite`.
    fn write_locked_impl(
        &self,
        inner: &mut Inner,
        page: PageId,
        payload: Option<&[u8]>,
        materialize: bool,
        torn: bool,
    ) -> Result<u64, DeviceError> {
        let len = payload.map_or(PAGE_SIZE, <[u8]>::len);
        if len > PAGE_SIZE {
            return Err(DeviceError::PayloadTooLarge { page, len });
        }
        let lsn = inner.next_lsn;
        let next_lsn = lsn.checked_add(1).ok_or(DeviceError::BadHeader {
            page,
            reason: "lsn horizon exhausted",
        })?;
        let (slot, superblock_dirty) = match inner.map.get(&page) {
            Some(&slot) => (slot, false),
            None if inner.sb.free_head != NO_SLOT => {
                // Reuse a freed slot before growing the file. The head
                // comes from a superblock or a free slot's link, neither
                // verified: it may name a live page, which this write
                // must not clobber, or no slot at all.
                let slot = inner.sb.free_head;
                let not_free = DeviceError::BadHeader {
                    page,
                    reason: "free-list head is not a free slot",
                };
                if slot >= inner.sb.slot_count || inner.sb.free_len == 0 {
                    return Err(not_free);
                }
                let h = read_header(&inner.file, page, slot)?;
                if h.magic != PAGE_MAGIC || h.state != STATE_FREE {
                    return Err(not_free);
                }
                inner.sb.free_head = h.next_free;
                inner.sb.free_len -= 1;
                inner.map.insert(page, slot);
                (slot, true)
            }
            None => {
                let slot = inner.sb.slot_count;
                if slot >= inner.capacity {
                    self.grow_locked(inner, page)?;
                }
                inner.sb.slot_count += 1;
                inner.map.insert(page, slot);
                (slot, true)
            }
        };
        inner.next_lsn = next_lsn;
        let mut frame = [0u8; SLOT_SIZE];
        let mut header = SlotHeader {
            magic: PAGE_MAGIC,
            state: STATE_LIVE,
            page_id: page,
            lsn,
            payload_len: len as u32,
            crc: 0,
            next_free: NO_SLOT,
        };
        let body = &mut frame[PAGE_HEADER..PAGE_HEADER + len];
        match payload {
            Some(bytes) => body.copy_from_slice(bytes),
            None => stamp_payload(body, page, lsn),
        }
        header.crc = header.crc_of(body);
        frame[..PAGE_HEADER].copy_from_slice(&header.encode());
        if torn {
            // A torn write persists the header (with the full-payload
            // CRC) and the first half of the payload; the tail holds
            // garbage instead of the intended bytes, so the page's
            // next verified read fails its checksum.
            for b in &mut frame[PAGE_HEADER + len / 2..PAGE_HEADER + len] {
                *b ^= 0xFF;
            }
        }
        let t = WallTimer::start();
        inner
            .file
            .write_all_at(&frame[..PAGE_HEADER + len], slot_offset(slot))?;
        self.wall
            .write_ns
            .fetch_add(t.elapsed_ns(), Ordering::Relaxed);
        self.wall.writes.fetch_add(1, Ordering::Relaxed);
        if materialize {
            self.wall.materialized.fetch_add(1, Ordering::Relaxed);
        }
        if superblock_dirty {
            self.persist_superblock(inner)?;
        }
        Ok(lsn)
    }

    /// Write the zero-filled extent that makes slot `slot_count` (the
    /// one `page` is about to take) an overwrite, and every slot after
    /// it up to the new capacity. The extent starts at `slot_count`,
    /// never below, so a short last slot an older file ends with keeps
    /// its bytes. Not a page write: no fault roll, and it counts in
    /// `extents` and `extent_ns`, not in `writes` or `write_ns`.
    fn grow_locked(&self, inner: &mut Inner, page: PageId) -> Result<(), DeviceError> {
        let start = inner.sb.slot_count;
        let end = start
            .saturating_add(start.clamp(MIN_EXTENT_SLOTS, MAX_EXTENT_SLOTS))
            .min(MAX_SLOTS);
        if end <= start {
            return Err(DeviceError::BadHeader {
                page,
                reason: "slot horizon exhausted",
            });
        }
        let len = (end - start) as usize * SLOT_SIZE;
        let t = WallTimer::start();
        inner
            .file
            .write_all_at(&ZERO_EXTENT[..len], slot_offset(start))?;
        self.wall
            .extent_ns
            .fetch_add(t.elapsed_ns(), Ordering::Relaxed);
        self.wall.extents.fetch_add(1, Ordering::Relaxed);
        inner.capacity = end;
        Ok(())
    }

    /// Hot-path read for device charging: materialize the page on
    /// first access, then read and verify it under the retry policy —
    /// for a page the store already holds, in one lock acquisition
    /// and without touching the heap.
    ///
    /// Never panics on device faults. Transient failures that outlive
    /// every retry report [`IoOutcome::Unavailable`]; a permanent
    /// verification failure quarantines the page and reports
    /// [`IoOutcome::Quarantined`] — the caller (the device front)
    /// evicts it from any cache so no pool ever serves the bad image.
    pub fn charged_read(&self, page: PageId) -> IoOutcome {
        let mut inner = self.lock();
        let mut held = inner.map.get(&page).copied();
        if held.is_none() {
            let materialized = self.with_retries(inner, |inner| {
                if !inner.map.contains_key(&page) {
                    self.write_locked(inner, page, None, true)?;
                }
                Ok(())
            });
            if materialized.is_err() {
                return IoOutcome::Unavailable;
            }
            inner = self.lock();
        }
        let mut buf = [0u8; SLOT_SIZE];
        let read = self.with_retries(inner, |inner| {
            // The first attempt reads the slot looked up above, under
            // the same lock; a retry (or a page just materialized)
            // looks it up again, since the lock was dropped meanwhile.
            let slot = match held.take() {
                Some(slot) => slot,
                None => inner.slot(page)?,
            };
            self.read_slot(inner, page, slot, true, &mut buf)
        });
        match read {
            Ok(_) => IoOutcome::Ok,
            Err(e) if e.is_transient() => IoOutcome::Unavailable,
            Err(_) => {
                self.quarantine_page(page);
                IoOutcome::Quarantined
            }
        }
    }

    /// Hot-path write for device charging: stamp a fresh deterministic
    /// image (the simulator carries no payload bytes) under the retry
    /// policy. Transient exhaustion reports
    /// [`IoOutcome::Unavailable`]; a torn write reports `Ok` — torn
    /// writes are silent until the page's next verified read.
    pub fn charged_write(&self, page: PageId) -> IoOutcome {
        let wrote = self.with_retries(self.lock(), |inner| {
            self.write_locked(inner, page, None, false)
        });
        match wrote {
            Ok(_) => IoOutcome::Ok,
            Err(_) => IoOutcome::Unavailable,
        }
    }

    /// Request a durability barrier; the [`SyncPolicy`] decides
    /// whether a real `fdatasync` is issued now.
    ///
    /// After a failed barrier (injected or real) the next barrier on
    /// this store covers the same writes — `fdatasync` barriers are
    /// cumulative, which is what makes "retry on the next sync" a
    /// correct recovery.
    pub fn sync(&self) -> Result<(), DeviceError> {
        self.wall.sync_requests.fetch_add(1, Ordering::Relaxed);
        match self.policy {
            SyncPolicy::PerRequest => self.flush(),
            SyncPolicy::Deferred => Ok(()),
        }
    }

    /// [`FileStore::sync`] with the retry policy applied to the
    /// barrier itself (the request is counted once; only the issued
    /// `fdatasync` retries).
    pub fn sync_verified(&self) -> Result<(), DeviceError> {
        self.wall.sync_requests.fetch_add(1, Ordering::Relaxed);
        match self.policy {
            SyncPolicy::PerRequest => {
                self.with_retries(self.lock(), |inner| self.flush_locked(inner))
            }
            SyncPolicy::Deferred => Ok(()),
        }
    }

    /// Force a real barrier regardless of policy.
    pub fn flush(&self) -> Result<(), DeviceError> {
        self.flush_locked(&self.lock())
    }

    fn flush_locked(&self, inner: &Inner) -> Result<(), DeviceError> {
        let fault = inner.injector.as_ref().and_then(|inj| inj.roll_fsync());
        if fault.is_some() {
            // The writes stay dirty: the next barrier covers them.
            return Err(DeviceError::Io(io::Error::other("injected fsync failure")));
        }
        let t = WallTimer::start();
        inner.file.sync_data()?;
        self.wall
            .sync_ns
            .fetch_add(t.elapsed_ns(), Ordering::Relaxed);
        self.wall.syncs_issued.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// The configured sync policy.
    pub fn policy(&self) -> SyncPolicy {
        self.policy
    }

    /// Wall-clock counters so far.
    pub fn wall(&self) -> WallSnapshot {
        self.wall.snapshot()
    }

    /// Register the store's wall-clock counters into a metrics
    /// registry, labelled with the store's role (`index`, `data`,
    /// `wal`, …). [`bftree_obs::MetricSource`] delegates here with an
    /// empty label for standalone stores.
    pub fn register_metrics(&self, reg: &mut bftree_obs::MetricsRegistry, store: &str) {
        let w = self.wall();
        let l = &[("store", store)];
        reg.counter(
            "bftree_file_reads_total",
            "Page reads issued against the file",
            l,
            w.reads,
        );
        reg.counter(
            "bftree_file_writes_total",
            "Page writes issued against the file",
            l,
            w.writes,
        );
        reg.counter(
            "bftree_file_materialized_total",
            "Pages materialized on first access",
            l,
            w.materialized,
        );
        reg.counter(
            "bftree_file_sync_requests_total",
            "Sync requests received before batching",
            l,
            w.sync_requests,
        );
        reg.counter(
            "bftree_file_syncs_issued_total",
            "fdatasync barriers actually issued",
            l,
            w.syncs_issued,
        );
        reg.counter(
            "bftree_file_read_ns_total",
            "Wall nanoseconds spent in reads",
            l,
            w.read_ns,
        );
        reg.counter(
            "bftree_file_write_ns_total",
            "Wall nanoseconds spent in writes",
            l,
            w.write_ns,
        );
        reg.counter(
            "bftree_file_sync_ns_total",
            "Wall nanoseconds spent in issued syncs",
            l,
            w.sync_ns,
        );
        reg.counter(
            "bftree_file_extents_total",
            "Zero-filled extents written ahead of the slots",
            l,
            w.extents,
        );
        reg.counter(
            "bftree_file_extent_ns_total",
            "Wall nanoseconds spent writing extents",
            l,
            w.extent_ns,
        );
        self.faults.stats.register_metrics(reg, store);
        reg.gauge(
            "bftree_fault_quarantine_pages",
            "Pages currently quarantined",
            l,
            self.faults.quarantine.len() as f64,
        );
    }
}

impl bftree_obs::MetricSource for FileStore {
    fn collect(&self, reg: &mut bftree_obs::MetricsRegistry) {
        self.register_metrics(reg, "");
    }
}

impl Drop for FileStore {
    fn drop(&mut self) {
        // Best-effort: leave allocation state and data findable for a
        // reopen. Crash durability is what `sync`/`flush` are for.
        let mut inner = self.lock();
        let _ = self.persist_superblock(&mut inner);
        let _ = inner.file.sync_data();
    }
}

/// Fill `out` with the deterministic image of a charged `page` — what
/// the device front writes for a page that carries no caller bytes
/// (the simulator's pages have none), seeded with the write's LSN.
fn stamp_payload(out: &mut [u8], page: PageId, seed: u64) {
    for (i, chunk) in out.chunks_exact_mut(8).enumerate() {
        let word = page
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(seed)
            .wrapping_add(i as u64);
        chunk.copy_from_slice(&word.to_le_bytes());
    }
}

fn slot_offset(slot: u64) -> u64 {
    SUPER_SIZE + slot * SLOT_SIZE as u64
}

/// Read and parse the header of `page`'s `slot`; a slot shorter than
/// a header is a short read.
fn read_header(file: &File, page: PageId, slot: u64) -> Result<SlotHeader, DeviceError> {
    let mut hb = [0u8; PAGE_HEADER];
    let got = read_full_at(file, &mut hb, slot_offset(slot))?;
    SlotHeader::read(&mut Reader::new(&hb[..got])).map_err(|_| DeviceError::ShortRead {
        page,
        wanted: PAGE_HEADER,
        got,
    })
}

/// `read_at` until `buf` is full or EOF; returns bytes read (a short
/// count means the file ended — exactly the torn-write signal the
/// caller turns into [`DeviceError::ShortRead`]).
fn read_full_at(file: &File, buf: &mut [u8], mut offset: u64) -> Result<usize, DeviceError> {
    let mut done = 0;
    while done < buf.len() {
        match file.read_at(&mut buf[done..], offset) {
            Ok(0) => break,
            Ok(n) => {
                done += n;
                offset += n as u64;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    Ok(done)
}

/// A self-cleaning scratch directory under the system temp dir —
/// what tests and the calibration harness put their page files in.
/// The directory is removed on drop (best-effort).
#[derive(Debug)]
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    /// Create `…/bftree-<tag>-<pid>-<n>`.
    pub fn new(tag: &str) -> io::Result<Self> {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!("bftree-{tag}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(Self { path })
    }

    /// The directory's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::crc32_bytewise;

    fn scratch(tag: &str) -> (ScratchDir, PathBuf) {
        let dir = ScratchDir::new(tag).expect("temp dir");
        let path = dir.path().join("pages.bfs");
        (dir, path)
    }

    /// On-disk bytes recorded at the parent of the slicing-by-8 change
    /// (byte-loop CRC, `Vec`-built frames), for a fresh store after
    /// `write_page(7, b"abc")`, `charged_write(9)`, `charged_read(11)`.
    /// `VERSION` is still 1, so these may never move.
    const PINNED_SLOT_7_ABC: [u8; 43] = [
        0x42, 0x46, 0x50, 0x47, 0x01, 0x00, 0x00, 0x00, 0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x4F, 0xE5,
        0x6F, 0x46, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x61, 0x62, 0x63,
    ];
    const PINNED_HEADER_STAMPED_9: [u8; PAGE_HEADER] = [
        0x42, 0x46, 0x50, 0x47, 0x01, 0x00, 0x00, 0x00, 0x09, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x10, 0x00, 0x00, 0x39, 0x2B,
        0x59, 0xAF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
    ];
    const PINNED_HEADER_MATERIALIZED_11: [u8; PAGE_HEADER] = [
        0x42, 0x46, 0x50, 0x47, 0x01, 0x00, 0x00, 0x00, 0x0B, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x10, 0x00, 0x00, 0xBF, 0x85,
        0xCF, 0x31, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
    ];
    /// Byte-loop CRC-32 of the parent's whole 16 504-byte file image
    /// (superblock, three slots, both full stamped payloads): the file
    /// as it stood before stores grew in extents, and still the first
    /// `PINNED_IMAGE_LEN` bytes of the same store today.
    const PINNED_IMAGE_LEN: usize = 16_504;
    const PINNED_IMAGE_CRC: u32 = 0x26BB_AFC0;

    #[test]
    fn on_disk_format_is_byte_identical_to_the_recorded_parent() {
        let (_dir, path) = scratch("format-pin");
        {
            let store = FileStore::create(&path, SyncPolicy::Deferred).unwrap();
            assert_eq!(store.write_page(7, b"abc").unwrap(), 1);
            assert_eq!(store.charged_write(9), IoOutcome::Ok);
            assert_eq!(store.charged_read(11), IoOutcome::Ok);
        }
        let raw = std::fs::read(&path).unwrap();
        let slot = |i: u64| slot_offset(i) as usize;
        assert_eq!(raw[slot(0)..slot(0) + 43], PINNED_SLOT_7_ABC);
        assert_eq!(raw[slot(1)..slot(1) + PAGE_HEADER], PINNED_HEADER_STAMPED_9);
        assert_eq!(
            raw[slot(2)..slot(2) + PAGE_HEADER],
            PINNED_HEADER_MATERIALIZED_11
        );
        assert_eq!(crc32_bytewise(&raw[..PINNED_IMAGE_LEN]), PINNED_IMAGE_CRC);
        // Past the parent's image: the rest of the store's one extent,
        // zeros.
        assert_eq!(raw.len(), slot(MIN_EXTENT_SLOTS));
        assert!(raw[PINNED_IMAGE_LEN..].iter().all(|&b| b == 0));
        // ...and the new reader verifies what the old writer wrote,
        // with or without the tail.
        let parent = path.with_extension("parent");
        std::fs::write(&parent, &raw[..PINNED_IMAGE_LEN]).unwrap();
        for image in [&path, &parent] {
            let store = FileStore::open(image, SyncPolicy::Deferred).unwrap();
            assert_eq!(store.read_page(7).unwrap(), b"abc");
            assert_eq!(store.read_page(9).unwrap().len(), PAGE_SIZE);
            assert_eq!(store.charged_read(11), IoOutcome::Ok);
            assert_eq!(store.wall().materialized, 0);
        }
    }

    fn file_len(path: &Path) -> u64 {
        std::fs::metadata(path).unwrap().len()
    }

    #[test]
    fn the_file_grows_in_zeroed_extents_ahead_of_its_slots() {
        let (_dir, path) = scratch("extents");
        let store = FileStore::create(&path, SyncPolicy::Deferred).unwrap();
        // Extents double the store until they reach the largest.
        let mut ends = Vec::new();
        for page in 0..600u64 {
            store.write_page(page, &[page as u8; 100]).unwrap();
            let len = file_len(&path);
            if ends.last() != Some(&len) {
                ends.push(len);
            }
            // Bytes past the last live slot are zero.
            if page % 97 == 0 {
                let raw = std::fs::read(&path).unwrap();
                let live_end = slot_offset(page) as usize + PAGE_HEADER + 100;
                assert!(raw[live_end..].iter().all(|&b| b == 0), "page {page}");
            }
        }
        let slots = [8, 16, 32, 64, 128, 256, 512, 768];
        assert_eq!(ends, slots.map(slot_offset));
        assert_eq!(store.lock().capacity, 768);
        // An extent is not a page write.
        let wall = store.wall();
        assert_eq!((wall.writes, wall.extents), (600, slots.len() as u64));
    }

    #[test]
    fn allocations_inside_an_extent_leave_the_length_unchanged() {
        let (_dir, path) = scratch("extent-inside");
        let store = FileStore::create(&path, SyncPolicy::Deferred).unwrap();
        store.write_page(0, b"first").unwrap();
        let len = file_len(&path);
        assert_eq!(len, slot_offset(MIN_EXTENT_SLOTS));
        for page in 1..MIN_EXTENT_SLOTS {
            store.alloc().unwrap();
            store.write_page(100 + page, &[7; PAGE_SIZE]).unwrap();
            store.free(100 + page).unwrap();
            assert_eq!(file_len(&path), len, "page {page}");
        }
        // Freed slots are reused before the next extent.
        assert_eq!(store.slot_count(), MIN_EXTENT_SLOTS);
        store.write_page(1_000, b"reuses a freed slot").unwrap();
        assert_eq!(file_len(&path), len);
    }

    #[test]
    fn a_reopened_store_derives_its_capacity_and_allocates_without_growing() {
        let (_dir, path) = scratch("extent-reopen");
        {
            let store = FileStore::create(&path, SyncPolicy::Deferred).unwrap();
            for page in 0..3 {
                store.write_page(page, b"before").unwrap();
            }
        }
        let len = file_len(&path);
        let store = FileStore::open(&path, SyncPolicy::Deferred).unwrap();
        assert_eq!(store.lock().capacity, MIN_EXTENT_SLOTS);
        for page in 3..MIN_EXTENT_SLOTS {
            store.write_page(page, b"after").unwrap();
        }
        assert_eq!(file_len(&path), len);
        assert_eq!(store.slot_count(), MIN_EXTENT_SLOTS);
        store.write_page(99, b"grows").unwrap();
        assert_eq!(file_len(&path), slot_offset(2 * MIN_EXTENT_SLOTS));
    }

    #[test]
    fn a_short_last_slot_survives_the_next_extent() {
        let (_dir, path) = scratch("extent-short-slot");
        // A store as the parent's format left it: the file ends with
        // the short slot of `write_page(7, b"abc")`.
        FileStore::create(&path, SyncPolicy::Deferred)
            .unwrap()
            .write_page(7, b"abc")
            .unwrap();
        let short_end = slot_offset(0) + PINNED_SLOT_7_ABC.len() as u64;
        OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(short_end)
            .unwrap();
        let store = FileStore::open(&path, SyncPolicy::Deferred).unwrap();
        assert_eq!(store.lock().capacity, 0);
        store.write_page(8, b"next").unwrap();
        let raw = std::fs::read(&path).unwrap();
        assert_eq!(
            raw[slot_offset(0) as usize..short_end as usize],
            PINNED_SLOT_7_ABC
        );
        assert_eq!(raw.len() as u64, slot_offset(1 + MIN_EXTENT_SLOTS));
        assert_eq!(store.read_page(7).unwrap(), b"abc");
        assert_eq!(store.read_page(8).unwrap(), b"next");
        // A short slot at the end of a full extent: the next extent
        // starts after it.
        for page in 9..9 + MIN_EXTENT_SLOTS - 1 {
            store.write_page(page, b"abc").unwrap();
        }
        let last = slot_offset(store.slot_count() - 1) as usize;
        let before = std::fs::read(&path).unwrap()[last..last + 43].to_vec();
        store.write_page(100, b"grows").unwrap();
        assert!(std::fs::read(&path).unwrap()[last..last + 43] == before[..]);
        assert_eq!(store.read_page(9 + MIN_EXTENT_SLOTS - 2).unwrap(), b"abc");
    }

    /// Which of 40 fresh pages failed to write (`w`), read back corrupt
    /// (`c`), failed their read otherwise (`r`) or round-tripped (`.`),
    /// recorded at the parent of the extent tail: an extent rolls no
    /// fault, so the injector's ordinals still name the same page
    /// operations.
    const PINNED_FAULT_OUTCOMES: &str = "w.rr.r......r....r..c..rr......w.r..rc.r";
    const PINNED_FAULTS_INJECTED: u64 = 16;

    #[test]
    fn a_seeded_fault_schedule_fires_at_the_parents_ordinals() {
        use crate::fault::{FaultConfig, ScheduledFault};
        let (_dir, path) = scratch("extent-faults");
        let store = FileStore::create(&path, SyncPolicy::Deferred).unwrap();
        store.set_retry_policy(RetryPolicy::none());
        let injector = Arc::new(FaultInjector::new(FaultConfig {
            schedule: vec![ScheduledFault {
                op: 33,
                kind: FaultKind::TornWrite,
            }],
            ..FaultConfig::uniform(0.04, 44)
        }));
        store.set_fault_injector(Arc::clone(&injector));
        // 40 new pages cross the extents that start at slots 0, 8, 16
        // and 32.
        let outcomes: String = (0..40u64)
            .map(|page| {
                let wrote = store.write_page(page, &[page as u8; 200]);
                match (wrote, store.read_page(page)) {
                    (Err(_), _) => 'w',
                    (Ok(_), Err(DeviceError::ChecksumMismatch { .. })) => 'c',
                    (Ok(_), Err(_)) => 'r',
                    (Ok(_), Ok(_)) => '.',
                }
            })
            .collect();
        assert_eq!(outcomes, PINNED_FAULT_OUTCOMES);
        assert_eq!(injector.total_injected(), PINNED_FAULTS_INJECTED);
    }

    fn patch(path: &Path, offset: u64, bytes: &[u8]) {
        let file = OpenOptions::new().write(true).open(path).unwrap();
        file.write_all_at(bytes, offset).unwrap();
    }

    #[test]
    fn an_exhausted_lsn_horizon_is_a_typed_error_not_a_wrap() {
        let (_dir, path) = scratch("lsn-horizon");
        FileStore::create(&path, SyncPolicy::Deferred)
            .unwrap()
            .write_page(4, b"live")
            .unwrap();
        let lsn_at = slot_offset(0) + 16;
        patch(&path, lsn_at, &u64::MAX.to_le_bytes());
        assert!(matches!(
            FileStore::open(&path, SyncPolicy::Deferred),
            Err(DeviceError::BadHeader {
                page: 4,
                reason: "lsn horizon exhausted"
            })
        ));
        // One LSN short of the end opens, and the write that would
        // step past it fails typed instead of wrapping to 0.
        patch(&path, lsn_at, &(u64::MAX - 1).to_le_bytes());
        let store = FileStore::open(&path, SyncPolicy::Deferred).unwrap();
        assert!(matches!(
            store.write_page(5, b"x"),
            Err(DeviceError::BadHeader {
                page: 5,
                reason: "lsn horizon exhausted"
            })
        ));
        assert!(!store.contains(5), "a refused write allocates nothing");
    }

    #[test]
    fn a_free_list_head_on_a_live_slot_fails_the_write_and_spares_the_page() {
        let (_dir, path) = scratch("stale-free-head");
        {
            let store = FileStore::create(&path, SyncPolicy::Deferred).unwrap();
            store.write_page(1, b"live page").unwrap(); // slot 0
            store.write_page(2, b"doomed").unwrap(); // slot 1
            store.free(2).unwrap(); // free_head = 1
        }
        // A stale superblock: the free list now starts at slot 0.
        patch(&path, 24, &0u64.to_le_bytes());
        let store = FileStore::open(&path, SyncPolicy::Deferred).unwrap();
        let slots = store.slot_count();
        assert!(matches!(
            store.write_page(3, b"would clobber page 1"),
            Err(DeviceError::BadHeader {
                page: 3,
                reason: "free-list head is not a free slot"
            })
        ));
        assert_eq!(store.read_page(1).unwrap(), b"live page");
        assert!(!store.contains(3));
        assert_eq!((store.slot_count(), store.free_slots()), (slots, 1));
    }

    /// Found by `tests/decoder_mutations.rs`: superblock fields past
    /// the file's slots overflowed a slot offset, the free-list length
    /// or the page-id horizon on the next write or allocation.
    #[test]
    fn a_superblock_past_its_slots_fails_typed_not_by_overflow() {
        let (_dir, path) = scratch("superblock-bounds");
        FileStore::create(&path, SyncPolicy::Deferred)
            .unwrap()
            .write_page(1, b"live")
            .unwrap();
        let mutant = |at: usize, value: u64| {
            let mut raw = std::fs::read(&path).unwrap();
            raw[at..at + 8].copy_from_slice(&value.to_le_bytes());
            let mutant = path.with_extension("mutant");
            std::fs::write(&mutant, raw).unwrap();
            FileStore::open(&mutant, SyncPolicy::Deferred)
        };
        let free_head_past_the_slots = mutant(24, 1 << 62).unwrap();
        assert!(matches!(
            free_head_past_the_slots.write_page(2, b"new"),
            Err(DeviceError::BadHeader { page: 2, .. })
        ));
        drop(free_head_past_the_slots);
        let next_id_at_the_horizon = mutant(32, u64::MAX).unwrap();
        assert!(matches!(
            next_id_at_the_horizon.alloc(),
            Err(DeviceError::BadHeader { .. })
        ));
        drop(next_id_at_the_horizon);
        // A slot count at the horizon leaves no slot to grow into.
        let horizon = mutant(16, MAX_SLOTS).unwrap();
        assert!(matches!(
            horizon.write_page(2, b"new"),
            Err(DeviceError::BadHeader {
                page: 2,
                reason: "slot horizon exhausted"
            })
        ));
        drop(horizon);
        let slot_count_past_any_file = (16, u64::MAX);
        let free_len_past_the_slot_count = (40, 2);
        for (at, value) in [slot_count_past_any_file, free_len_past_the_slot_count] {
            assert!(matches!(
                mutant(at, value),
                Err(DeviceError::BadSuperblock { .. })
            ));
        }
    }

    #[test]
    fn write_read_round_trips_with_verification() {
        let (_dir, path) = scratch("roundtrip");
        let store = FileStore::create(&path, SyncPolicy::PerRequest).unwrap();
        let lsn1 = store.write_page(7, b"hello pages").unwrap();
        assert_eq!(store.read_page(7).unwrap(), b"hello pages");
        let lsn2 = store.write_page(7, b"rewritten").unwrap();
        assert!(lsn2 > lsn1, "LSN is monotone across rewrites");
        assert_eq!(store.read_page(7).unwrap(), b"rewritten");
        assert_eq!(store.page_lsn(7).unwrap(), lsn2);
    }

    #[test]
    fn unknown_and_oversized_pages_are_typed_errors() {
        let (_dir, path) = scratch("typed");
        let store = FileStore::create(&path, SyncPolicy::PerRequest).unwrap();
        assert!(matches!(
            store.read_page(99),
            Err(DeviceError::UnknownPage { page: 99 })
        ));
        let big = vec![0u8; PAGE_SIZE + 1];
        assert!(matches!(
            store.write_page(1, &big),
            Err(DeviceError::PayloadTooLarge { .. })
        ));
    }

    #[test]
    fn reopen_preserves_pages_and_allocation_state() {
        let (_dir, path) = scratch("reopen");
        {
            let store = FileStore::create(&path, SyncPolicy::PerRequest).unwrap();
            store.write_page(1, b"one").unwrap();
            store.write_page(2, b"two").unwrap();
            let a = store.alloc().unwrap();
            store.free(a).unwrap();
        }
        let store = FileStore::open(&path, SyncPolicy::PerRequest).unwrap();
        assert_eq!(store.read_page(1).unwrap(), b"one");
        assert_eq!(store.read_page(2).unwrap(), b"two");
        assert_eq!(store.free_slots(), 1, "free list survives reopen");
        let before = store.slot_count();
        store.write_page(50, b"reuse me").unwrap();
        assert_eq!(store.slot_count(), before, "freed slot reused, no growth");
    }

    #[test]
    fn freed_pages_stop_resolving_and_slots_get_reused() {
        let (_dir, path) = scratch("freelist");
        let store = FileStore::create(&path, SyncPolicy::PerRequest).unwrap();
        store.write_page(10, b"a").unwrap();
        store.write_page(11, b"b").unwrap();
        let slots = store.slot_count();
        store.free(10).unwrap();
        assert!(matches!(
            store.read_page(10),
            Err(DeviceError::UnknownPage { .. })
        ));
        store.write_page(12, b"c").unwrap();
        assert_eq!(store.slot_count(), slots, "slot of 10 recycled for 12");
        assert_eq!(store.read_page(11).unwrap(), b"b", "neighbor untouched");
    }

    #[test]
    fn deferred_policy_only_flushes_explicitly() {
        let (_dir, path) = scratch("deferred");
        let store = FileStore::create(&path, SyncPolicy::Deferred).unwrap();
        for _ in 0..100 {
            store.sync().unwrap();
        }
        assert_eq!(store.wall().syncs_issued, 0);
        store.flush().unwrap();
        assert_eq!(store.wall().syncs_issued, 1);
    }

    #[test]
    fn charged_reads_materialize_then_verify() {
        let (_dir, path) = scratch("charged");
        let store = FileStore::create(&path, SyncPolicy::Deferred).unwrap();
        assert_eq!(store.charged_read(1234), IoOutcome::Ok);
        assert_eq!(store.charged_read(1234), IoOutcome::Ok);
        let w = store.wall();
        assert_eq!(w.materialized, 1, "second access reuses the slot");
        assert_eq!(w.reads, 2);
        assert!(store.contains(1234));
    }

    #[test]
    fn transient_classification_pins_every_variant() {
        // Satellite contract: Io and ShortRead are the only transient
        // kinds; everything else requires a repair (or is a caller
        // bug) and must escalate.
        let transient: [DeviceError; 2] = [
            DeviceError::Io(io::Error::other("eio")),
            DeviceError::ShortRead {
                page: 1,
                wanted: 40,
                got: 3,
            },
        ];
        for e in &transient {
            assert!(e.is_transient(), "{e} should be transient");
        }
        let permanent: [DeviceError; 6] = [
            DeviceError::ChecksumMismatch {
                page: 1,
                expected: 1,
                actual: 2,
            },
            DeviceError::BadHeader {
                page: 1,
                reason: "x",
            },
            DeviceError::BadSuperblock(DecodeError { at: 0, what: "x" }),
            DeviceError::UnknownPage { page: 1 },
            DeviceError::FreedPage { page: 1 },
            DeviceError::PayloadTooLarge { page: 1, len: 9999 },
        ];
        for e in &permanent {
            assert!(!e.is_transient(), "{e} should be permanent");
        }
    }

    #[test]
    fn corrupt_page_fails_checksum_until_repaired() {
        let (_dir, path) = scratch("corrupt");
        let store = FileStore::create(&path, SyncPolicy::Deferred).unwrap();
        store.write_page(3, b"precious bytes").unwrap();
        store.corrupt_page(3).unwrap();
        assert!(matches!(
            store.read_page(3),
            Err(DeviceError::ChecksumMismatch { .. })
        ));
        // Quarantine via the charging path, then repair restores both
        // readability and the quarantine set.
        assert_eq!(store.charged_read(3), IoOutcome::Quarantined);
        assert!(store.quarantine().contains(3));
        store.repair_page(3, Some(b"precious bytes")).unwrap();
        assert!(!store.quarantine().contains(3));
        assert_eq!(store.read_page(3).unwrap(), b"precious bytes");
        assert_eq!(store.fault_stats().snapshot().repaired, 1);
    }

    #[test]
    fn corrupting_an_empty_payload_page_still_fails_verification() {
        let (_dir, path) = scratch("corrupt-empty");
        let store = FileStore::create(&path, SyncPolicy::Deferred).unwrap();
        let page = store.alloc().unwrap();
        assert_eq!(store.read_page(page).unwrap(), b"");
        store.corrupt_page(page).unwrap();
        assert!(matches!(
            store.read_page(page),
            Err(DeviceError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn live_page_ids_lists_the_scrub_sweep() {
        let (_dir, path) = scratch("livepages");
        let store = FileStore::create(&path, SyncPolicy::Deferred).unwrap();
        store.write_page(9, b"a").unwrap();
        store.write_page(2, b"b").unwrap();
        store.write_page(5, b"c").unwrap();
        store.free(5).unwrap();
        assert_eq!(store.live_page_ids(), vec![2, 9]);
    }

    #[test]
    fn wall_snapshot_deltas_subtract() {
        let (_dir, path) = scratch("delta");
        let store = FileStore::create(&path, SyncPolicy::PerRequest).unwrap();
        store.write_page(1, b"x").unwrap();
        let a = store.wall();
        store.read_page(1).unwrap();
        let d = store.wall().since(&a);
        assert_eq!(d.reads, 1);
        assert_eq!(d.writes, 0);
        assert!(d.wall_ns() >= d.read_ns);
    }

    #[test]
    fn opening_garbage_is_a_bad_superblock() {
        let (_dir, path) = scratch("garbage");
        std::fs::write(&path, b"not a page store").unwrap();
        assert!(matches!(
            FileStore::open(&path, SyncPolicy::PerRequest),
            Err(DeviceError::BadSuperblock { .. })
        ));
    }
}
