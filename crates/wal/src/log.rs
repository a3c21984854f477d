//! The log itself: append, durability modes, sync accounting, and the
//! torn-tail-tolerant recovery reader.

use bftree_storage::codec::Reader;
use bftree_storage::{PageDevice, PageId, PAGE_SIZE};

use crate::record::{WalRecord, MAX_PAYLOAD};

/// When an appended record becomes durable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DurabilityMode {
    /// Every append writes and fsyncs immediately — the strongest (and
    /// most expensive) guarantee: no acknowledged record is ever lost.
    PerRecord,
    /// Appends accumulate; the log syncs when the window fills. The
    /// window is sized in records and bytes (whichever trips first) —
    /// the size-window half of classical group commit. Time windows do
    /// not exist here: the clock is simulated, so "every N ms" has no
    /// deterministic meaning, and a size window bounds the exposed
    /// tail just as well.
    GroupCommit {
        /// Sync after this many buffered records.
        max_records: usize,
        /// … or after this many buffered bytes, whichever first.
        max_bytes: usize,
    },
    /// Appends never sync on their own; only explicit [`Wal::sync`]
    /// calls (e.g. at a checkpoint) make records durable. The cheapest
    /// mode and the weakest: a crash loses everything since the last
    /// explicit sync.
    Async,
}

impl DurabilityMode {
    /// Harness label ("per-record", "group-commit", "async").
    pub fn label(&self) -> &'static str {
        match self {
            DurabilityMode::PerRecord => "per-record",
            DurabilityMode::GroupCommit { .. } => "group-commit",
            DurabilityMode::Async => "async",
        }
    }
}

/// A write-ahead log over one simulated device.
///
/// The log is an append-only byte image; [`Wal::append`] frames a
/// [`WalRecord`] onto it and [`Wal::sync`] makes the tail durable,
/// charging the device sequential page writes for the dirty byte range
/// (page-granular, like an `O_DIRECT` log file) plus one fsync
/// barrier. [`Wal::durable_bytes`] is the prefix a crash is guaranteed
/// to preserve; [`Wal::bytes`] is the full image — after a real crash
/// anything between the two may or may not have reached the medium,
/// which is exactly the space of outcomes the kill-at-every-record
/// recovery tests enumerate.
#[derive(Debug)]
pub struct Wal {
    buf: Vec<u8>,
    mode: DurabilityMode,
    device: PageDevice,
    /// Bytes guaranteed durable (prefix length).
    synced_len: usize,
    /// Records appended since the last sync.
    pending_records: usize,
    records: u64,
    syncs: u64,
}

impl Wal {
    /// Open a fresh log on `device`, writing (and always syncing) the
    /// genesis checkpoint: the base index covers the first
    /// `tuple_count` heap tuples, everything after is replayed from
    /// here. A log whose creation was never durable cannot promise
    /// anything, so genesis ignores the durability mode.
    pub fn open(device: PageDevice, mode: DurabilityMode, tuple_count: u64) -> Self {
        let mut wal = Self {
            buf: Vec::new(),
            mode,
            device,
            synced_len: 0,
            pending_records: 0,
            records: 0,
            syncs: 0,
        };
        wal.push_record(&WalRecord::Checkpoint {
            tuple_count,
            flushed_ops: 0,
        });
        wal.sync();
        wal
    }

    fn push_record(&mut self, rec: &WalRecord) -> u64 {
        rec.encode_frame(&mut self.buf);
        self.pending_records += 1;
        self.records += 1;
        self.buf.len() as u64
    }

    /// Append one record, returning its end offset (the LSN a reader
    /// truncating at record boundaries would cut at). Depending on the
    /// mode this may sync immediately (per-record), when the group
    /// window fills, or never (async).
    pub fn append(&mut self, rec: &WalRecord) -> u64 {
        let _span = bftree_obs::span(bftree_obs::SpanKind::WalAppend);
        let lsn = self.push_record(rec);
        match self.mode {
            DurabilityMode::PerRecord => {
                self.sync();
            }
            DurabilityMode::GroupCommit {
                max_records,
                max_bytes,
            } => {
                if self.pending_records >= max_records
                    || self.buf.len() - self.synced_len >= max_bytes
                {
                    self.sync();
                }
            }
            DurabilityMode::Async => {}
        }
        lsn
    }

    /// Force the whole log durable: write the dirty page range
    /// sequentially, then fsync. No-op (returning `true`) when nothing
    /// is pending.
    ///
    /// Returns whether the tail is now durable. On a fault-injected
    /// file backend a page write or the barrier itself can fail even
    /// after retries; the log then keeps its durable prefix where it
    /// was — `false` tells the caller not to acknowledge the tail —
    /// and the next sync rewrites the same dirty range, so a later
    /// barrier heals the window.
    pub fn sync(&mut self) -> bool {
        if self.buf.len() == self.synced_len {
            return true;
        }
        // Page-granular log file: the sync rewrites every page the
        // dirty byte range [synced_len, len) touches — including the
        // partially-filled boundary page a previous sync already
        // wrote, exactly like an O_DIRECT log appending in place.
        let first = self.synced_len / PAGE_SIZE;
        let last = (self.buf.len() - 1) / PAGE_SIZE;
        let mut landed = true;
        for page in first..=last {
            // Simulated devices book the write; a file backend also
            // persists the page's real bytes, so the on-disk image
            // tracks the durable prefix exactly.
            let lo = page * PAGE_SIZE;
            let hi = self.buf.len().min(lo + PAGE_SIZE);
            landed &= self.device.write_bytes(page as PageId, &self.buf[lo..hi]);
        }
        landed &= self.device.fsync();
        if !landed {
            return false;
        }
        self.synced_len = self.buf.len();
        self.pending_records = 0;
        self.syncs += 1;
        true
    }

    /// The full log image (what survives a clean shutdown).
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// The durable prefix (what any crash is guaranteed to preserve).
    pub fn durable_bytes(&self) -> &[u8] {
        &self.buf[..self.synced_len]
    }

    /// Total appended bytes.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been appended (never true: the genesis
    /// checkpoint is written at open).
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Bytes guaranteed durable.
    pub fn synced_len(&self) -> usize {
        self.synced_len
    }

    /// Records appended since the last sync (the crash-exposed tail).
    pub fn pending_records(&self) -> usize {
        self.pending_records
    }

    /// Total records appended, including checkpoints.
    pub fn record_count(&self) -> u64 {
        self.records
    }

    /// Syncs performed (each = one fsync barrier on the device).
    pub fn sync_count(&self) -> u64 {
        self.syncs
    }

    /// The device the log charges (its `IoSnapshot` quantifies the
    /// durability cost of the chosen mode).
    pub fn device(&self) -> &PageDevice {
        &self.device
    }

    /// The configured durability mode.
    pub fn mode(&self) -> DurabilityMode {
        self.mode
    }

    /// Read the log image back from a file-backed device: concatenate
    /// page payloads `0, 1, 2, …` until a page is missing or fails
    /// verification. A corrupt or torn page ends the image at the last
    /// good page boundary — recovery's reader then truncates to the
    /// last record boundary within it, so the "longest valid prefix"
    /// contract survives real on-disk corruption. Returns `None` on
    /// simulated devices (which persist no bytes).
    pub fn load_image(device: &PageDevice) -> Option<Vec<u8>> {
        let file = device.file()?;
        let mut image = Vec::new();
        let mut page: PageId = 0;
        while let Ok(payload) = file.store().read_page(page) {
            image.extend_from_slice(&payload);
            page += 1;
        }
        Some(image)
    }

    /// [`Wal::load_image`] with self-healing: read the log's page
    /// chain with the store's retry policy, and when a page fails
    /// verification (bit rot, a torn log write), **truncate the log at
    /// the last good page** — the corrupt page and every live page
    /// after it are rewritten empty (frames can span pages, so nothing
    /// past a hole can be trusted), releasing them from quarantine.
    /// The returned image is additionally cut at the last record
    /// boundary, so it always drains [`TailState::Clean`].
    ///
    /// This is the WAL half of the repair story: log records protect
    /// data pages, and the log itself is repaired by truncation to its
    /// longest valid prefix — exactly the prefix a crash would have
    /// left. Returns `None` on simulated devices.
    pub fn repair_image(device: &PageDevice) -> Option<WalRepairOutcome> {
        let file = device.file()?;
        let store = file.store();
        let mut image = Vec::new();
        let mut page: PageId = 0;
        let mut corrupt_from: Option<PageId> = None;
        while store.contains(page) {
            match store.read_page_verified(page) {
                Ok(payload) => {
                    image.extend_from_slice(&payload);
                    page += 1;
                }
                Err(e) if e.is_transient() => break, // unavailable, not corrupt
                Err(_) => {
                    // Route the detection through the charged path so
                    // the page lands in quarantine with its stats.
                    let _ = store.charged_read(page);
                    corrupt_from = Some(page);
                    break;
                }
            }
        }
        let mut repaired_pages = 0u64;
        if let Some(first_bad) = corrupt_from {
            let mut span = bftree_obs::span(bftree_obs::SpanKind::Repair);
            let mut p = first_bad;
            while file.store().contains(p) {
                if store.repair_page(p, Some(&[])).is_ok() {
                    repaired_pages += 1;
                }
                p += 1;
            }
            span.set_detail(repaired_pages);
        }
        let valid_len = match WalReader::drain(&image).1 {
            TailState::Clean => image.len(),
            TailState::Torn { valid_len } => valid_len,
        };
        image.truncate(valid_len);
        Some(WalRepairOutcome {
            image,
            repaired_pages,
            valid_len,
        })
    }
}

/// What [`Wal::repair_image`] found and fixed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRepairOutcome {
    /// The longest valid log prefix, cut at a record boundary — feed
    /// it to `DurableIndex::recover` as the surviving log.
    pub image: Vec<u8>,
    /// Log pages rewritten empty (the corrupt page and its
    /// successors), each released from quarantine.
    pub repaired_pages: u64,
    /// Byte length of the returned image.
    pub valid_len: usize,
}

impl bftree_obs::MetricSource for Wal {
    fn collect(&self, reg: &mut bftree_obs::MetricsRegistry) {
        let mode = [("mode", self.mode.label())];
        reg.counter(
            "bftree_wal_records_total",
            "Records appended to the write-ahead log, including checkpoints.",
            &mode,
            self.records,
        );
        reg.counter(
            "bftree_wal_syncs_total",
            "Sync barriers issued by the log (each is one device fsync).",
            &mode,
            self.syncs,
        );
        reg.gauge(
            "bftree_wal_pending_records",
            "Records appended since the last sync (the crash-exposed tail).",
            &mode,
            self.pending_records as f64,
        );
        reg.gauge(
            "bftree_wal_len_bytes",
            "Total appended log bytes (the full image).",
            &mode,
            self.buf.len() as f64,
        );
        reg.gauge(
            "bftree_wal_synced_bytes",
            "Durable log prefix in bytes (what any crash preserves).",
            &mode,
            self.synced_len as f64,
        );
        self.device.snapshot().register_metrics(reg, "wal");
    }
}

/// Why a [`WalReader`] stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TailState {
    /// The log ended exactly on a record boundary.
    Clean,
    /// The bytes from `valid_len` on are not a well-formed record —
    /// an incomplete frame, an implausible length, a checksum
    /// mismatch, or an unknown tag. Recovery treats everything before
    /// `valid_len` as the log and discards the tail, which is the
    /// contract a crashed append requires.
    Torn {
        /// Length of the longest well-formed prefix.
        valid_len: usize,
    },
}

/// Streaming reader over a log byte image. Yields `(end_offset,
/// record)` pairs — `end_offset` is the boundary after the record,
/// which is what a kill-at-every-boundary test truncates at — and
/// stops cleanly at the first sign of a torn tail.
#[derive(Debug)]
pub struct WalReader<'a> {
    bytes: &'a [u8],
    at: usize,
    tail: TailState,
}

impl<'a> WalReader<'a> {
    /// Read `bytes` from the start.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self {
            bytes,
            at: 0,
            tail: TailState::Clean,
        }
    }

    /// How the log ended. Meaningful once the iterator returns `None`.
    pub fn tail(&self) -> TailState {
        self.tail
    }

    /// Drain `bytes` into the record list plus the tail verdict.
    pub fn drain(bytes: &'a [u8]) -> (Vec<(usize, WalRecord)>, TailState) {
        let mut reader = WalReader::new(bytes);
        let mut out = Vec::new();
        for item in reader.by_ref() {
            out.push(item);
        }
        (out, reader.tail())
    }
}

impl Iterator for WalReader<'_> {
    type Item = (usize, WalRecord);

    fn next(&mut self) -> Option<Self::Item> {
        if self.tail != TailState::Clean {
            return None;
        }
        if self.at == self.bytes.len() {
            return None;
        }
        let mut r = Reader::new(&self.bytes[self.at..]);
        match r.frame(MAX_PAYLOAD).and_then(WalRecord::decode_payload) {
            Ok(rec) => {
                self.at += r.at();
                Some((self.at, rec))
            }
            Err(_) => {
                self.tail = TailState::Torn { valid_len: self.at };
                None
            }
        }
    }
}
