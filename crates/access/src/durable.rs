//! [`DurableIndex`]: the durable write path — WAL + ingest memtable.
//!
//! Direct `insert` on a paged index pays structural maintenance per
//! record: the BF-Tree re-descends its upper structure, splits a
//! partition, and rebuilds Bloom filters the moment a leaf overflows.
//! The classical fix (and the shape the paper's write path assumes) is
//! to buffer writes in a sorted in-memory **memtable** and push them
//! into the base index in bulk, amortizing splits and filter rebuilds
//! across the whole batch — but a buffered write would evaporate in a
//! crash. [`DurableIndex`] closes the loop:
//!
//! 1. every `insert`/`delete` is appended to a write-ahead log first
//!    (`bftree_wal`), whose [`DurabilityMode`] sets the fsync policy
//!    (per-record, group commit, async);
//! 2. an insert is absorbed into the memtable, **immediately visible**
//!    to probes and range scans — the read path merges memtable
//!    matches with the base index through the same
//!    [`MatchSink`]/[`RangeCursor`] cores every index uses. A delete
//!    applies at once: it marks the key's buffered tuples dead in the
//!    heap and drops them, and the base index's [`AccessMethod::delete`]
//!    does the rest. It still counts one buffered operation;
//! 3. when `flush_batch` operations have accumulated, the memtable is
//!    drained into the base index via [`AccessMethod::insert_batch`]
//!    (one sorted bulk application) and a synced checkpoint record
//!    marks the flush.
//!
//! After a crash, [`DurableIndex::recover`] rebuilds the base index
//! over the heap prefix named by the log's genesis checkpoint and
//! replays every surviving record through the same front door — so a
//! recovered index answers **identically** to the uncrashed one, the
//! property the workspace's kill-at-every-record tests enforce for all
//! four access methods.
//!
//! The fault-recovery surface ([`DurableIndex::probe_degraded`],
//! [`DurableIndex::repair_quarantined`]) is driven by
//! `tests/self_healing.rs` only; it stays, as recovery code does.

use std::collections::BTreeMap;
use std::ops::{ControlFlow, RangeInclusive};

use bftree_storage::tuple::AttrOffset;
use bftree_storage::{HeapFile, IoContext, PageDevice, PageId, Relation};
use bftree_wal::{DurabilityMode, TailState, Wal, WalReader, WalRecord};

use crate::cursor::{Continuation, ProbeIo, RangeCursor, ScanIo};
use crate::sink::{stream_sorted_matches, MatchSink};
use crate::{AccessMethod, BuildError, IndexStats, ProbeError};

/// Tuning of a [`DurableIndex`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurableConfig {
    /// Buffered operations that trigger a memtable flush into the
    /// base index. `1` degenerates to write-through (every operation
    /// applied directly — the baseline the bulk path is measured
    /// against); larger values amortize more structural maintenance
    /// per flush at the cost of a bigger memtable.
    pub flush_batch: usize,
    /// When appended log records become durable (see
    /// [`DurabilityMode`]).
    pub durability: DurabilityMode,
}

impl Default for DurableConfig {
    fn default() -> Self {
        Self {
            flush_batch: 1024,
            durability: DurabilityMode::GroupCommit {
                max_records: 64,
                max_bytes: 16 * 1024,
            },
        }
    }
}

/// Rough resident bytes per buffered operation (B-tree-map node plus
/// one location) — what the memtable reserves from a shared buffer
/// budget per `flush_batch` slot.
const EST_OP_BYTES: u64 = 80;

/// The sorted write buffer: the heap locations inserted per key since
/// the last flush.
#[derive(Debug, Default)]
struct Memtable {
    keys: BTreeMap<u64, Vec<(PageId, usize)>>,
    /// Operations buffered since the last flush (inserts + deletes).
    ops: usize,
}

impl Memtable {
    /// Buffered heap locations across all keys.
    fn adds(&self) -> usize {
        self.keys.values().map(Vec::len).sum()
    }

    fn bytes(&self) -> u64 {
        (self.keys.len() as u64) * 64 + (self.adds() as u64) * 16
    }
}

/// Outcome of [`DurableIndex::recover`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Heap tuples the genesis checkpoint said the base index covers.
    pub base_tuples: u64,
    /// Insert records replayed.
    pub replayed_inserts: u64,
    /// Delete records replayed.
    pub replayed_deletes: u64,
    /// Log bytes replayed (everything after the genesis checkpoint in
    /// the surviving well-formed prefix).
    pub bytes_replayed: u64,
    /// Wall-clock time the replay loop took, in nanoseconds. Replay is
    /// CPU + simulated I/O, so this is host time, not sim time.
    pub replay_wall_ns: u64,
    /// How the surviving log image ended (a torn tail is normal after
    /// a crash: the incomplete record was, by definition, never
    /// acknowledged as durable).
    pub tail: TailState,
}

impl RecoveryReport {
    /// Records replayed (inserts + deletes).
    pub fn replayed_records(&self) -> u64 {
        self.replayed_inserts + self.replayed_deletes
    }

    /// Replay throughput in records per wall-clock second (0 when the
    /// replay was too fast for the clock to resolve).
    pub fn records_per_sec(&self) -> f64 {
        let secs = bftree_obs::ns_to_secs(self.replay_wall_ns);
        if secs > 0.0 {
            self.replayed_records() as f64 / secs
        } else {
            0.0
        }
    }
}

impl bftree_obs::MetricSource for RecoveryReport {
    fn collect(&self, reg: &mut bftree_obs::MetricsRegistry) {
        reg.counter(
            "bftree_recovery_replayed_inserts_total",
            "Insert records replayed during recovery.",
            &[],
            self.replayed_inserts,
        );
        reg.counter(
            "bftree_recovery_replayed_deletes_total",
            "Delete records replayed during recovery.",
            &[],
            self.replayed_deletes,
        );
        reg.counter(
            "bftree_recovery_bytes_replayed_total",
            "Log bytes replayed after the genesis checkpoint.",
            &[],
            self.bytes_replayed,
        );
        reg.gauge(
            "bftree_recovery_base_tuples",
            "Heap tuples covered by the genesis checkpoint.",
            &[],
            self.base_tuples as f64,
        );
        reg.gauge(
            "bftree_recovery_replay_wall_seconds",
            "Wall-clock seconds the replay loop took.",
            &[],
            bftree_obs::ns_to_secs(self.replay_wall_ns),
        );
        reg.gauge(
            "bftree_recovery_records_per_sec",
            "Replay throughput in records per wall-clock second.",
            &[],
            self.records_per_sec(),
        );
        reg.gauge(
            "bftree_recovery_tail_clean",
            "1 when the surviving log ended on a record boundary, 0 when torn.",
            &[],
            if self.tail == TailState::Clean {
                1.0
            } else {
                0.0
            },
        );
    }
}

/// Outcome of one [`DurableIndex::repair_quarantined`] sweep.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepairReport {
    /// Quarantined pages rewritten, verified, and released — across
    /// the index, data, and log devices.
    pub pages_repaired: u64,
    /// Pages whose rewrite itself failed; they stay quarantined for a
    /// later sweep.
    pub pages_failed: u64,
    /// WAL records whose frames the repaired log pages covered (the
    /// "records replayed" of a log-page repair).
    pub wal_records_replayed: u64,
}

impl RepairReport {
    /// True when nothing was left quarantined by this sweep.
    pub fn healed(&self) -> bool {
        self.pages_failed == 0
    }
}

/// A [`Probe`](crate::Probe) plus an honesty bit (see
/// [`DurableIndex::probe_degraded`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DegradedProbe {
    /// The matches that were reachable.
    pub probe: crate::Probe,
    /// `true` means the answer is authoritative: no page was
    /// quarantined while probing and no match sits on a page awaiting
    /// repair. `false` means matches may be missing — answer from
    /// memtable + surviving base pages only.
    pub complete: bool,
    /// Match-bearing data pages currently in quarantine (their tuples
    /// are in the answer, but the page needs repair before the next
    /// cold read).
    pub quarantined_matches: Vec<PageId>,
}

/// New-admission quarantine events across the context's file-backed
/// devices (sim devices contribute 0).
fn quarantine_events(io: &IoContext) -> u64 {
    [&io.index, &io.data]
        .into_iter()
        .filter_map(|dev| dev.file())
        .map(|file| file.store().quarantine().event_count())
        .sum()
}

/// How many drained records of `image` have a frame overlapping the
/// byte range `[lo, hi)` — the records a repaired log page covered.
fn records_covering(image: &[u8], lo: usize, hi: usize) -> u64 {
    let (records, _) = WalReader::drain(image);
    let mut covered = 0u64;
    let mut start = 0usize;
    for &(end, _) in &records {
        if start < hi && end > lo {
            covered += 1;
        }
        start = end;
    }
    covered
}

/// Why recovery failed.
#[derive(Debug)]
#[non_exhaustive]
pub enum RecoverError {
    /// The log image holds no genesis checkpoint — it is not a log
    /// this module wrote (or the medium lost even the synced genesis,
    /// which the durability contract rules out).
    MissingGenesis,
    /// Rebuilding the base index over the checkpointed heap prefix
    /// failed.
    Build(BuildError),
    /// Replaying a surviving record failed.
    Replay(ProbeError),
}

impl std::fmt::Display for RecoverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoverError::MissingGenesis => {
                write!(f, "log image has no genesis checkpoint")
            }
            RecoverError::Build(e) => write!(f, "rebuilding the base index failed: {e}"),
            RecoverError::Replay(e) => write!(f, "replaying a log record failed: {e}"),
        }
    }
}

impl std::error::Error for RecoverError {}

/// A crash-safe write-path wrapper around any [`AccessMethod`]: WAL in
/// front, sorted memtable in the middle, bulk flushes into the wrapped
/// index behind (see the [module docs](self)).
///
/// The wrapper is transparent to the read path: `probe_into` and
/// `range_cursor` merge memtable matches with the base index's, charge
/// memtable-held heap pages to the same data device under the same
/// adjacency rules, and honor sink breaks and [`Continuation`] tokens.
#[derive(Debug)]
pub struct DurableIndex<A> {
    inner: A,
    mem: Memtable,
    wal: Wal,
    config: DurableConfig,
    /// Heap tuples the base index was built over (the genesis
    /// checkpoint's `tuple_count`).
    base_tuples: u64,
    flushes: u64,
    flushed_ops: u64,
}

impl<A: AccessMethod> DurableIndex<A> {
    /// Wrap `inner` — which must already be built over `rel` — logging
    /// to a fresh WAL on `log_device`. The genesis checkpoint (synced
    /// immediately) records `rel`'s current tuple count as the base
    /// the log's records extend.
    pub fn new(inner: A, rel: &Relation, log_device: PageDevice, config: DurableConfig) -> Self {
        let base_tuples = rel.heap().tuple_count();
        Self {
            inner,
            mem: Memtable::default(),
            wal: Wal::open(log_device, config.durability, base_tuples),
            config,
            base_tuples,
            flushes: 0,
            flushed_ops: 0,
        }
    }

    /// Rebuild from a crash: parse `log_image` (tolerating a torn
    /// tail), rebuild `inner` over the heap prefix the genesis
    /// checkpoint names, then replay every surviving record through
    /// the normal write path — same memtable, same flush points — so
    /// the recovered index answers identically to the uncrashed one.
    /// A fresh log is started on `log_device` and the replayed
    /// operations are re-logged into it, leaving the recovered index
    /// itself crash-safe again.
    ///
    /// `rel` is the relation as found after the crash; heap pages are
    /// durable at append time, so the heap may run past what the log
    /// acknowledges — the index simply does not point at the excess.
    /// Delete marks do not survive a crash: replaying the surviving
    /// Delete records marks and unindexes their keys again.
    pub fn recover(
        mut inner: A,
        rel: &Relation,
        log_image: &[u8],
        log_device: PageDevice,
        config: DurableConfig,
    ) -> Result<(Self, RecoveryReport), RecoverError> {
        let (records, tail) = WalReader::drain(log_image);
        let Some(&(_, WalRecord::Checkpoint { tuple_count, .. })) = records.first() else {
            return Err(RecoverError::MissingGenesis);
        };
        let base_heap = rel.heap().truncated(tuple_count);
        let base_rel = Relation::new(base_heap, rel.attr(), rel.duplicates())
            .map_err(|e| RecoverError::Build(e.into()))?;
        inner.build(&base_rel).map_err(RecoverError::Build)?;
        let mut recovered = Self::new(inner, &base_rel, log_device, config);
        let mut replayed_inserts = 0;
        let mut replayed_deletes = 0;
        let genesis_end = records[0].0;
        let replayed_end = records.last().map_or(genesis_end, |&(end, _)| end);
        let mut replay_span = bftree_obs::span(bftree_obs::SpanKind::RecoveryReplay);
        let replay_timer = bftree_obs::WallTimer::start();
        for &(_, rec) in &records[1..] {
            match rec {
                WalRecord::Insert { key, page, slot } => {
                    recovered
                        .apply_insert(key, (page, slot as usize), rel)
                        .map_err(RecoverError::Replay)?;
                    replayed_inserts += 1;
                }
                WalRecord::Delete { key } => {
                    recovered
                        .apply_delete(key, rel)
                        .map_err(RecoverError::Replay)?;
                    replayed_deletes += 1;
                }
                // Flush markers need no replay: flush points are a
                // function of the operation sequence and the config,
                // so the replay reproduces them on its own.
                WalRecord::Checkpoint { .. } => {}
            }
        }
        replay_span.set_detail(replayed_inserts + replayed_deletes);
        drop(replay_span);
        let report = RecoveryReport {
            base_tuples: tuple_count,
            replayed_inserts,
            replayed_deletes,
            bytes_replayed: (replayed_end - genesis_end) as u64,
            replay_wall_ns: replay_timer.elapsed_ns(),
            tail,
        };
        Ok((recovered, report))
    }

    fn apply_insert(
        &mut self,
        key: u64,
        loc: (PageId, usize),
        rel: &Relation,
    ) -> Result<(), ProbeError> {
        self.wal.append(&WalRecord::Insert {
            key,
            page: loc.0,
            slot: loc.1 as u64,
        });
        self.mem.keys.entry(key).or_default().push(loc);
        self.mem.ops += 1;
        self.maybe_flush(rel)
    }

    /// Log the delete, mark the key's buffered tuples dead and drop
    /// them, then delete the key from the base index at once. Returns
    /// the tuples marked dead.
    fn apply_delete(&mut self, key: u64, rel: &Relation) -> Result<u64, ProbeError> {
        self.wal.append(&WalRecord::Delete { key });
        let adds = self.mem.keys.remove(&key).unwrap_or_default();
        self.mem.ops += 1;
        let buffered = adds.iter().filter(|&&(p, s)| rel.heap().delete_tuple(p, s));
        let marked = buffered.count() as u64 + self.inner.delete(key, rel)?;
        self.maybe_flush(rel)?;
        Ok(marked)
    }

    fn maybe_flush(&mut self, rel: &Relation) -> Result<(), ProbeError> {
        if self.mem.ops >= self.config.flush_batch.max(1) {
            self.flush(rel)?;
        }
        Ok(())
    }

    /// Drain the memtable into the base index: every buffered location
    /// as one sorted [`AccessMethod::insert_batch`] — the bulk
    /// application that amortizes the base index's structural
    /// maintenance. A synced checkpoint record marks the flush.
    /// Returns the operations drained (deletes included: they were
    /// applied when they arrived).
    pub fn flush(&mut self, rel: &Relation) -> Result<usize, ProbeError> {
        if self.mem.ops == 0 {
            return Ok(0);
        }
        let mut span = bftree_obs::span(bftree_obs::SpanKind::MemtableFlush);
        span.set_detail(self.mem.ops as u64);
        let mut entries: Vec<(u64, (PageId, usize))> = Vec::with_capacity(self.mem.adds());
        for (&key, adds) in self.mem.keys.iter() {
            entries.extend(adds.iter().map(|&loc| (key, loc)));
        }
        self.inner.insert_batch(&entries, rel)?;
        let drained = self.mem.ops;
        self.flushed_ops += drained as u64;
        self.wal.append(&WalRecord::Checkpoint {
            tuple_count: self.base_tuples,
            flushed_ops: self.flushed_ops,
        });
        self.wal.sync();
        self.mem = Memtable::default();
        self.flushes += 1;
        Ok(drained)
    }

    /// The write-ahead log (its device's `IoSnapshot` quantifies the
    /// durability cost of the configured mode).
    pub fn wal(&self) -> &Wal {
        &self.wal
    }

    /// Repair every quarantined page on the index, data, and log
    /// devices. The two payload sources:
    ///
    /// * **log-device pages** are rewritten byte-exact from the WAL's
    ///   in-memory image — the log *is* the authoritative copy of its
    ///   own pages, so a bit-rotted log page is replayed from it
    ///   directly (the report counts the WAL records whose frames the
    ///   repaired pages covered);
    /// * **index/data pages** are re-stamped with the store's
    ///   deterministic page image, which is exactly the payload a
    ///   fresh materialization would produce — the synthetic-image
    ///   equivalent of rebuilding the page from the heap.
    ///
    /// Pages whose rewrite itself keeps failing stay quarantined and
    /// are counted in `pages_failed`; a later sweep retries them.
    /// Sim-only devices have nothing to repair. Safe to call at any
    /// time — typically after a probe reported an incomplete answer or
    /// a scrub pass found rot.
    pub fn repair_quarantined(&self, io: &IoContext) -> RepairReport {
        let mut span = bftree_obs::span(bftree_obs::SpanKind::Repair);
        let mut report = RepairReport::default();
        for dev in [&io.index, &io.data] {
            let Some(file) = dev.file() else { continue };
            let store = file.store();
            for page in store.quarantine().pages() {
                match store.repair_page(page, None) {
                    Ok(_) => report.pages_repaired += 1,
                    Err(_) => report.pages_failed += 1,
                }
            }
        }
        if let Some(file) = self.wal.device().file() {
            let store = file.store();
            let image = self.wal.bytes();
            for page in store.quarantine().pages() {
                let lo = (page as usize).saturating_mul(bftree_storage::PAGE_SIZE);
                let hi = image.len().min(lo + bftree_storage::PAGE_SIZE);
                let payload: &[u8] = if lo < hi { &image[lo..hi] } else { &[] };
                match store.repair_page(page, Some(payload)) {
                    Ok(_) => {
                        report.pages_repaired += 1;
                        report.wal_records_replayed += records_covering(image, lo, hi);
                    }
                    Err(_) => report.pages_failed += 1,
                }
            }
        }
        span.set_detail(report.pages_repaired);
        report
    }

    /// A probe that reports *how much* of the answer it could reach
    /// instead of pretending. The probe itself never panics under
    /// faults — unreadable pages are quarantined by the storage layer
    /// and their matches may be missing — so the caller learns from
    /// [`DegradedProbe::complete`] whether the answer is authoritative
    /// or partial (memtable + surviving base pages only). On a partial
    /// answer, run [`DurableIndex::repair_quarantined`] and re-probe.
    pub fn probe_degraded(
        &self,
        key: u64,
        rel: &Relation,
        io: &IoContext,
    ) -> Result<DegradedProbe, ProbeError> {
        let events_before = quarantine_events(io);
        let probe = AccessMethod::probe(self, key, rel, io)?;
        let tripped = quarantine_events(io) > events_before;
        let quarantined_matches = match io.data.file() {
            None => Vec::new(),
            Some(file) => {
                let q = file.store().quarantine();
                let mut pages: Vec<PageId> = probe
                    .matches
                    .iter()
                    .map(|&(pid, _)| pid)
                    .filter(|&pid| q.contains(pid))
                    .collect();
                pages.dedup();
                pages
            }
        };
        let complete = !tripped && quarantined_matches.is_empty();
        Ok(DegradedProbe {
            probe,
            complete,
            quarantined_matches,
        })
    }

    /// The wrapped base index.
    pub fn inner(&self) -> &A {
        &self.inner
    }

    /// Unwrap, discarding log and memtable.
    pub fn into_inner(self) -> A {
        self.inner
    }

    /// The active tuning.
    pub fn config(&self) -> DurableConfig {
        self.config
    }

    /// Operations buffered since the last flush.
    pub fn buffered_ops(&self) -> usize {
        self.mem.ops
    }

    /// Memtable flushes performed.
    pub fn flush_count(&self) -> u64 {
        self.flushes
    }

    /// Estimated resident bytes of the current memtable.
    pub fn memtable_bytes(&self) -> u64 {
        self.mem.bytes()
    }

    /// Resident bytes a full memtable may reach — `flush_batch`
    /// buffered operations at worst-case (one key each) footprint.
    pub fn memtable_capacity_bytes(&self) -> u64 {
        self.config.flush_batch.max(1) as u64 * EST_OP_BYTES
    }

    /// Reserve the memtable's worst-case footprint from `io`'s shared
    /// buffer budget (see `IoContext::reserve_index_footprint`): the
    /// write buffer competes with cached data pages for the same
    /// memory, so a metered experiment charges it up front. Returns
    /// the bytes actually reserved (0 without a buffer manager).
    pub fn reserve_memtable_budget(&self, io: &IoContext) -> u64 {
        io.reserve_index_footprint(self.memtable_capacity_bytes())
    }

    /// Register write-path state into `reg`: flush counters, memtable
    /// occupancy gauges, and everything the wrapped WAL exposes
    /// (records, syncs, durable prefix, log-device I/O).
    pub fn register_metrics(&self, reg: &mut bftree_obs::MetricsRegistry) {
        reg.counter(
            "bftree_durable_flushes_total",
            "Memtable flushes drained into the base index.",
            &[],
            self.flushes,
        );
        reg.counter(
            "bftree_durable_flushed_ops_total",
            "Operations drained across all memtable flushes.",
            &[],
            self.flushed_ops,
        );
        reg.gauge(
            "bftree_durable_buffered_ops",
            "Operations buffered in the memtable since the last flush.",
            &[],
            self.mem.ops as f64,
        );
        reg.gauge(
            "bftree_durable_memtable_bytes",
            "Estimated resident bytes of the current memtable.",
            &[],
            self.mem.bytes() as f64,
        );
        reg.gauge(
            "bftree_durable_base_tuples",
            "Heap tuples the base index was built over.",
            &[],
            self.base_tuples as f64,
        );
        reg.collect_from(&self.wal);
    }

    fn merged_cursor<'c>(
        &'c self,
        base: Box<dyn RangeCursor + 'c>,
        lo: u64,
        hi: u64,
        rel: &'c Relation,
        io: &'c IoContext,
        frontier: Option<(PageId, usize)>,
    ) -> MergedCursor<'c> {
        let mut adds: Vec<(PageId, usize)> = self
            .mem
            .keys
            .range(lo..=hi)
            .flat_map(|(_, adds)| adds.iter().copied())
            .collect();
        adds.sort_unstable();
        if let Some((fpage, fslot)) = frontier {
            adds.retain(|&(p, s)| (p, s) >= (fpage, fslot));
        }
        MergedCursor {
            base,
            base_done: false,
            adds,
            adds_at: 0,
            buf: Vec::new(),
            loaded: false,
            loaded_page: None,
            consumed_base: false,
            consumed_adds: 0,
            prev: None,
            data: &io.data,
            heap: rel.heap(),
            attr: rel.attr(),
            extra: ScanIo::default(),
            lo,
            hi,
        }
    }
}

impl<A: AccessMethod> bftree_obs::MetricSource for DurableIndex<A> {
    fn collect(&self, reg: &mut bftree_obs::MetricsRegistry) {
        self.register_metrics(reg);
    }
}

impl<A: AccessMethod> AccessMethod for DurableIndex<A> {
    fn name(&self) -> &'static str {
        // Transparent wrapper: reports carry the base index's name.
        self.inner.name()
    }

    /// Rebuilds the base over `keys` and starts a fresh log. The log
    /// does not record the slice: [`DurableIndex::recover`] rebuilds
    /// `inner` with `build`, so a slice survives a crash only when
    /// `inner` keeps it itself, as a shard's range view does.
    fn build_slice(&mut self, rel: &Relation, keys: RangeInclusive<u64>) -> Result<(), BuildError> {
        self.inner.build_slice(rel, keys)?;
        self.base_tuples = rel.heap().tuple_count();
        self.mem = Memtable::default();
        // A rebuild obsoletes the old log: start a fresh one (same
        // device, so durability costs keep accumulating) whose genesis
        // covers the rebuilt base.
        self.wal = Wal::open(
            self.wal.device().clone(),
            self.config.durability,
            self.base_tuples,
        );
        self.flushes = 0;
        self.flushed_ops = 0;
        Ok(())
    }

    fn probe_into(
        &self,
        key: u64,
        rel: &Relation,
        io: &IoContext,
        sink: &mut dyn MatchSink,
    ) -> Result<ProbeIo, ProbeError> {
        let mut adds = self.mem.keys.get(&key).cloned().unwrap_or_default();
        let mut tracker = TrackBreak {
            inner: sink,
            broke: false,
            adds: &mut adds,
        };
        let mut total = self.inner.probe_into(key, rel, io, &mut tracker)?;
        if tracker.broke {
            return Ok(total);
        }
        if !adds.is_empty() {
            let extra = stream_sorted_matches(adds, &io.data, sink);
            total.pages_read += extra.pages_read;
            total.false_reads += extra.false_reads;
        }
        Ok(total)
    }

    fn range_cursor<'c>(
        &'c self,
        lo: u64,
        hi: u64,
        rel: &'c Relation,
        io: &'c IoContext,
    ) -> Result<Box<dyn RangeCursor + 'c>, ProbeError> {
        if lo > hi {
            return Err(ProbeError::InvertedRange { lo, hi });
        }
        let base = self.inner.range_cursor(lo, hi, rel, io)?;
        Ok(Box::new(self.merged_cursor(base, lo, hi, rel, io, None)))
    }

    fn resume_range_cursor<'c>(
        &'c self,
        cont: &Continuation,
        rel: &'c Relation,
        io: &'c IoContext,
    ) -> Result<Box<dyn RangeCursor + 'c>, ProbeError> {
        let base = self.inner.resume_range_cursor(cont, rel, io)?;
        Ok(Box::new(self.merged_cursor(
            base,
            cont.lo(),
            cont.hi(),
            rel,
            io,
            Some((cont.page(), cont.slot())),
        )))
    }

    fn insert(&mut self, key: u64, loc: (PageId, usize), rel: &Relation) -> Result<(), ProbeError> {
        self.apply_insert(key, loc, rel)
    }

    fn delete(&mut self, key: u64, rel: &Relation) -> Result<u64, ProbeError> {
        self.apply_delete(key, rel)
    }

    fn size_bytes(&self) -> u64 {
        self.inner.size_bytes() + self.mem.bytes()
    }

    fn resident_bytes(&self) -> u64 {
        self.inner.resident_bytes() + self.mem.bytes()
    }

    fn stats(&self) -> IndexStats {
        let mut stats = self.inner.stats();
        stats.bytes += self.mem.bytes();
        stats.entries += self.mem.adds() as u64;
        stats
    }
}

/// Sink adapter that remembers whether the wrapped sink broke — the
/// merge needs to know so it never streams memtable matches after the
/// consumer stopped.
struct TrackBreak<'s> {
    inner: &'s mut dyn MatchSink,
    broke: bool,
    /// The probed key's buffered locations not delivered yet: a base
    /// index that scans heap pages also finds the buffered tuples on
    /// the pages it reads, and each is delivered once.
    adds: &'s mut Vec<(PageId, usize)>,
}

impl MatchSink for TrackBreak<'_> {
    fn push(&mut self, pid: PageId, slot: usize) -> ControlFlow<()> {
        self.adds.retain(|&loc| loc != (pid, slot));
        let flow = self.inner.push(pid, slot);
        if flow.is_break() {
            self.broke = true;
        }
        flow
    }
}

/// Range cursor merging a base-index cursor with the memtable: page
/// groups are delivered in ascending page order across both sources,
/// and memtable-only pages are charged to the data device under the
/// same random/sequential adjacency rules as everything else. The base
/// cursor delivers only keys of `[lo, hi]`, whatever the buffer
/// appended behind them, so its matches pass through unfiltered.
struct MergedCursor<'c> {
    base: Box<dyn RangeCursor + 'c>,
    /// The base cursor proved exhaustion (`next_page_matches` → None).
    base_done: bool,
    /// In-range memtable locations, sorted by `(page, slot)`.
    adds: Vec<(PageId, usize)>,
    adds_at: usize,
    /// The loaded (delivered, pending advance) page group.
    buf: Vec<(PageId, usize)>,
    loaded: bool,
    /// Page of the loaded group (None for a base overhead page, whose
    /// id the base cursor does not expose).
    loaded_page: Option<PageId>,
    /// Advancing must advance the base cursor too.
    consumed_base: bool,
    /// Memtable entries the loaded group consumed.
    consumed_adds: usize,
    /// Last delivered page (adjacency chain for charging adds pages).
    prev: Option<PageId>,
    data: &'c PageDevice,
    heap: &'c HeapFile,
    attr: AttrOffset,
    /// Charges for memtable-only pages (the base cursor accounts its
    /// own).
    extra: ScanIo,
    lo: u64,
    hi: u64,
}

impl MergedCursor<'_> {
    /// End of the adds run on page `pid` starting at `adds_at`.
    fn adds_run_end(&self, pid: PageId) -> usize {
        let mut end = self.adds_at;
        while end < self.adds.len() && self.adds[end].0 == pid {
            end += 1;
        }
        end
    }

    fn charge_adds_page(&mut self, pid: PageId) {
        match self.prev {
            // The page was just delivered from the base side: already
            // fetched, duplicates are free.
            Some(prev) if pid == prev => {}
            Some(prev) if pid == prev + 1 => {
                self.data.read_seq(pid);
                self.extra.pages_read += 1;
            }
            _ => {
                self.data.read_random(pid);
                self.extra.pages_read += 1;
            }
        }
    }

    fn frontier_token(&self, pid: PageId, slot: usize) -> Continuation {
        let key = self.heap.attr(pid, slot, self.attr);
        Continuation::from_parts(self.lo, self.hi, key, pid, slot)
    }
}

impl RangeCursor for MergedCursor<'_> {
    fn next_page_matches(&mut self) -> Option<&[(PageId, usize)]> {
        if self.loaded {
            return Some(&self.buf);
        }
        // Peek the base frontier. The base cursor fetches (and
        // charges) its page on the peek; the charge order relative to
        // an earlier-sorting memtable page can differ from a pure
        // page-order replay, but the set of charged pages — and every
        // adjacency decision within each source — is identical.
        let mut base_group: Option<Vec<(PageId, usize)>> = None;
        if !self.base_done {
            match self.base.next_page_matches() {
                None => self.base_done = true,
                Some(group) => base_group = Some(group.to_vec()),
            }
        }
        if let Some(group) = &base_group {
            if group.is_empty() {
                // A base overhead page: deliver it as-is (it carries
                // no matches, so ordering against adds is moot).
                self.buf.clear();
                self.loaded = true;
                self.loaded_page = None;
                self.consumed_base = true;
                self.consumed_adds = 0;
                return Some(&self.buf);
            }
        }
        let add_page = self.adds.get(self.adds_at).map(|&(pid, _)| pid);
        let (buf, page, from_base, adds_end) = match (base_group, add_page) {
            (None, None) => return None,
            (Some(group), None) => {
                let pid = group[0].0;
                (group, pid, true, self.adds_at)
            }
            (None, Some(pid)) => {
                let end = self.adds_run_end(pid);
                self.charge_adds_page(pid);
                (self.adds[self.adds_at..end].to_vec(), pid, false, end)
            }
            (Some(group), Some(pid)) => {
                let base_pid = group[0].0;
                if pid < base_pid {
                    // The memtable page sorts first; the base keeps
                    // its (already fetched) frontier for a later pull.
                    let end = self.adds_run_end(pid);
                    self.charge_adds_page(pid);
                    (self.adds[self.adds_at..end].to_vec(), pid, false, end)
                } else if pid > base_pid {
                    (group, base_pid, true, self.adds_at)
                } else {
                    // Both sources on one page: one delivery, one
                    // fetch (the base's), slots in order. A base that
                    // scans the heap page sees the buffered tuples on
                    // it too; each is delivered once.
                    let end = self.adds_run_end(pid);
                    let mut both = group;
                    both.extend_from_slice(&self.adds[self.adds_at..end]);
                    both.sort_unstable();
                    both.dedup();
                    (both, pid, true, end)
                }
            }
        };
        self.buf = buf;
        self.loaded = true;
        self.loaded_page = Some(page);
        self.consumed_base = from_base;
        self.consumed_adds = adds_end - self.adds_at;
        Some(&self.buf)
    }

    fn advance(&mut self) {
        if !self.loaded {
            return;
        }
        if let Some(pid) = self.loaded_page {
            self.prev = Some(pid);
        }
        if self.consumed_base {
            self.base.advance();
        }
        self.adds_at += self.consumed_adds;
        self.loaded = false;
        self.loaded_page = None;
        self.consumed_base = false;
        self.consumed_adds = 0;
        self.buf.clear();
    }

    fn continuation(&self) -> Option<Continuation> {
        if self.loaded {
            if let Some(&(pid, slot)) = self.buf.first() {
                return Some(self.frontier_token(pid, slot));
            }
            // Loaded but empty (an overhead page): the frontier is
            // whatever comes next, below.
        }
        let base_token = if self.base_done {
            None
        } else {
            self.base.continuation()
        };
        let adds_token = self
            .adds
            .get(self.adds_at)
            .map(|&(pid, slot)| self.frontier_token(pid, slot));
        match (base_token, adds_token) {
            (None, None) => None,
            (Some(token), None) | (None, Some(token)) => Some(token),
            (Some(base), Some(adds)) => {
                if (base.page(), base.slot()) <= (adds.page(), adds.slot()) {
                    Some(base)
                } else {
                    Some(adds)
                }
            }
        }
    }

    fn io(&self) -> ScanIo {
        let base = self.base.io();
        ScanIo {
            pages_read: base.pages_read + self.extra.pages_read,
            overhead_pages: base.overhead_pages + self.extra.overhead_pages,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cursor::RangeCursorExt;
    use bftree_storage::tuple::PK_OFFSET;
    use bftree_storage::{DeviceKind, Duplicates, HeapFile, TupleLayout};

    /// Minimal exact base index: a sorted vec of (key, loc), charging
    /// data pages through the shared streaming cores so merges are
    /// exercised against realistic page groups.
    #[derive(Debug, Default)]
    struct MiniIndex {
        entries: Vec<(u64, (PageId, usize))>,
        batch_calls: usize,
    }

    impl AccessMethod for MiniIndex {
        fn name(&self) -> &'static str {
            "mini"
        }

        fn build_slice(
            &mut self,
            rel: &Relation,
            keys: RangeInclusive<u64>,
        ) -> Result<(), BuildError> {
            self.entries = rel
                .heap()
                .iter_attr(rel.attr())
                .filter(|(_, _, v)| keys.contains(v))
                .map(|(pid, slot, v)| (v, (pid, slot)))
                .collect();
            self.entries.sort_unstable();
            Ok(())
        }

        fn probe_into(
            &self,
            key: u64,
            _rel: &Relation,
            io: &IoContext,
            sink: &mut dyn MatchSink,
        ) -> Result<ProbeIo, ProbeError> {
            let matches = self
                .entries
                .iter()
                .filter(|&&(k, _)| k == key)
                .map(|&(_, loc)| loc)
                .collect();
            Ok(stream_sorted_matches(matches, &io.data, sink))
        }

        fn range_cursor<'c>(
            &'c self,
            lo: u64,
            hi: u64,
            _rel: &'c Relation,
            io: &'c IoContext,
        ) -> Result<Box<dyn RangeCursor + 'c>, ProbeError> {
            if lo > hi {
                return Err(ProbeError::InvertedRange { lo, hi });
            }
            let matches = self
                .entries
                .iter()
                .filter(|&&(k, _)| k >= lo && k <= hi)
                .map(|&(_, loc)| loc)
                .collect();
            Ok(Box::new(crate::PageBatchCursor::new(
                matches,
                &io.data,
                (lo, hi, lo),
                None,
            )))
        }

        fn resume_range_cursor<'c>(
            &'c self,
            cont: &Continuation,
            _rel: &'c Relation,
            io: &'c IoContext,
        ) -> Result<Box<dyn RangeCursor + 'c>, ProbeError> {
            let matches = self
                .entries
                .iter()
                .filter(|&&(k, _)| k >= cont.lo() && k <= cont.hi())
                .map(|&(_, loc)| loc)
                .collect();
            Ok(Box::new(crate::PageBatchCursor::new(
                matches,
                &io.data,
                (cont.lo(), cont.hi(), cont.key()),
                Some((cont.page(), cont.slot())),
            )))
        }

        fn insert(
            &mut self,
            key: u64,
            loc: (PageId, usize),
            _rel: &Relation,
        ) -> Result<(), ProbeError> {
            self.entries.push((key, loc));
            self.entries.sort_unstable();
            Ok(())
        }

        fn insert_batch(
            &mut self,
            entries: &[(u64, (PageId, usize))],
            _rel: &Relation,
        ) -> Result<(), ProbeError> {
            self.batch_calls += 1;
            self.entries.extend_from_slice(entries);
            self.entries.sort_unstable();
            Ok(())
        }

        fn delete(&mut self, key: u64, rel: &Relation) -> Result<u64, ProbeError> {
            let marked = crate::mark_dead(self, key, rel)?;
            self.entries.retain(|&(k, _)| k != key);
            Ok(marked)
        }

        fn size_bytes(&self) -> u64 {
            (self.entries.len() * 24) as u64
        }

        fn stats(&self) -> IndexStats {
            IndexStats {
                entries: self.entries.len() as u64,
                height: 1,
                bytes: self.size_bytes(),
                pages: 0,
            }
        }
    }

    /// 2048-byte tuples ⇒ 2 per page: locations spread across pages
    /// fast, exercising page grouping and adjacency.
    fn relation(n: u64) -> Relation {
        let mut heap = HeapFile::new(TupleLayout::new(2048));
        for pk in 0..n {
            heap.append_record(pk, pk);
        }
        Relation::new(heap, PK_OFFSET, Duplicates::Unique).unwrap()
    }

    fn durable(rel: &Relation, flush_batch: usize) -> DurableIndex<MiniIndex> {
        let mut inner = MiniIndex::default();
        inner.build(rel).unwrap();
        DurableIndex::new(
            inner,
            rel,
            PageDevice::cold(DeviceKind::Ssd),
            DurableConfig {
                flush_batch,
                durability: DurabilityMode::Async,
            },
        )
    }

    fn scan_keys(idx: &dyn AccessMethod, rel: &Relation, lo: u64, hi: u64) -> Vec<u64> {
        let io = IoContext::unmetered();
        idx.range_scan(lo, hi, rel, &io)
            .unwrap()
            .matches
            .iter()
            .map(|&(pid, slot)| rel.heap().attr(pid, slot, rel.attr()))
            .collect()
    }

    #[test]
    fn buffered_writes_are_visible_before_any_flush() {
        let mut rel = relation(10);
        let io = IoContext::unmetered();
        let mut idx = durable(&rel, 1_000);
        let loc = rel.append_tuple(77, 0, &io);
        idx.insert(77, loc, &rel).unwrap();
        assert_eq!(idx.buffered_ops(), 1, "not flushed yet");
        let probe = idx.probe(77, &rel, &io).unwrap();
        assert_eq!(probe.matches, vec![loc]);
        assert_eq!(
            scan_keys(&idx, &rel, 0, 100),
            (0..10).chain([77]).collect::<Vec<_>>(),
            "range scan merges the memtable in page order"
        );
    }

    #[test]
    fn buffered_delete_shadows_the_base_index() {
        let rel = relation(10);
        let io = IoContext::unmetered();
        let mut idx = durable(&rel, 1_000);
        let affected = idx.delete(4, &rel).unwrap();
        assert!(affected > 0);
        assert!(!idx.probe(4, &rel, &io).unwrap().found());
        assert_eq!(
            scan_keys(&idx, &rel, 0, 9),
            vec![0, 1, 2, 3, 5, 6, 7, 8, 9],
            "deleted base match filtered out of the scan"
        );
    }

    #[test]
    fn flush_drains_into_the_base_index_without_changing_answers() {
        let mut rel = relation(10);
        let io = IoContext::unmetered();
        let mut idx = durable(&rel, 3);
        idx.delete(2, &rel).unwrap();
        let loc = rel.append_tuple(50, 0, &io);
        idx.insert(50, loc, &rel).unwrap();
        assert_eq!(idx.flush_count(), 0);
        let loc2 = rel.append_tuple(51, 0, &io);
        idx.insert(51, loc2, &rel).unwrap(); // 3rd op trips the flush
        assert_eq!(idx.flush_count(), 1);
        assert_eq!(idx.buffered_ops(), 0);
        assert_eq!(idx.inner().batch_calls, 1, "one bulk application");
        assert!(!idx.probe(2, &rel, &io).unwrap().found());
        assert_eq!(idx.probe(50, &rel, &io).unwrap().matches, vec![loc]);
        assert_eq!(
            scan_keys(&idx, &rel, 0, 100),
            vec![0, 1, 3, 4, 5, 6, 7, 8, 9, 50, 51]
        );
    }

    #[test]
    fn delete_then_reinsert_keeps_the_reinsert_across_a_flush() {
        let mut rel = relation(10);
        let io = IoContext::unmetered();
        let mut idx = durable(&rel, 1_000);
        idx.delete(6, &rel).unwrap();
        let loc = rel.append_tuple(6, 0, &io);
        idx.insert(6, loc, &rel).unwrap();
        assert_eq!(idx.probe(6, &rel, &io).unwrap().matches, vec![loc]);
        idx.flush(&rel).unwrap();
        assert_eq!(
            idx.probe(6, &rel, &io).unwrap().matches,
            vec![loc],
            "flush applies the delete before the reinsert"
        );
    }

    #[test]
    fn pagination_tokens_cross_the_memtable_boundary() {
        let mut rel = relation(10);
        let io = IoContext::unmetered();
        let mut idx = durable(&rel, 1_000);
        let loc = rel.append_tuple(20, 0, &io);
        idx.insert(20, loc, &rel).unwrap();

        // First page of 3 matches, then resume for the remainder.
        let mut first = idx.range_cursor(0, 100, &rel, &io).unwrap().limit(3);
        let mut got = Vec::new();
        while let Some(page) = first.next_page_matches() {
            got.extend_from_slice(page);
            first.advance();
        }
        assert_eq!(got.len(), 3);
        let token = first.continuation().expect("remainder pending");
        let mut rest = idx.resume_range_cursor(&token, &rel, &io).unwrap();
        while let Some(page) = rest.next_page_matches() {
            got.extend_from_slice(page);
            rest.advance();
        }
        let keys: Vec<u64> = got
            .iter()
            .map(|&(pid, slot)| rel.heap().attr(pid, slot, rel.attr()))
            .collect();
        assert_eq!(
            keys,
            (0..10).chain([20]).collect::<Vec<_>>(),
            "nothing lost, nothing duplicated across the token"
        );
    }

    #[test]
    fn recovery_replays_the_full_log_to_identical_answers() {
        let mut rel = relation(10);
        let io = IoContext::unmetered();
        let mut idx = durable(&rel, 2);
        let loc_a = rel.append_tuple(30, 0, &io);
        idx.insert(30, loc_a, &rel).unwrap(); // flushes at 2 ops with the delete below
        idx.delete(1, &rel).unwrap();
        let loc_b = rel.append_tuple(31, 0, &io);
        idx.insert(31, loc_b, &rel).unwrap(); // buffered, unflushed

        // The crash keeps every appended tuple but no delete mark: the
        // replay must delete key 1 again.
        let mut crashed = relation(10);
        assert_eq!(crashed.append_tuple(30, 0, &io), loc_a);
        assert_eq!(crashed.append_tuple(31, 0, &io), loc_b);
        let image = idx.wal().bytes().to_vec();
        let (rec, report) = DurableIndex::recover(
            MiniIndex::default(),
            &crashed,
            &image,
            PageDevice::cold(DeviceKind::Ssd),
            idx.config(),
        )
        .unwrap();
        assert_eq!(report.base_tuples, 10);
        assert_eq!(report.replayed_inserts, 2);
        assert_eq!(report.replayed_deletes, 1);
        assert_eq!(report.tail, TailState::Clean);
        assert!(!crashed.heap().is_live(0, 1), "the replay marks key 1 dead");
        for key in 0..35 {
            assert_eq!(
                idx.probe(key, &rel, &io).unwrap().matches,
                rec.probe(key, &crashed, &io).unwrap().matches,
                "key {key} must answer identically after recovery"
            );
        }
        assert_eq!(
            scan_keys(&rec, &crashed, 0, 100),
            scan_keys(&idx, &rel, 0, 100)
        );
    }

    #[test]
    fn recovery_from_a_truncated_log_keeps_the_surviving_prefix() {
        let mut rel = relation(10);
        let io = IoContext::unmetered();
        let mut idx = durable(&rel, 1_000);
        let loc_a = rel.append_tuple(40, 0, &io);
        idx.insert(40, loc_a, &rel).unwrap();
        let loc_b = rel.append_tuple(41, 0, &io);
        idx.insert(41, loc_b, &rel).unwrap();

        // Cut mid-way through the last record: the torn tail drops it.
        let image = idx.wal().bytes();
        let cut = &image[..image.len() - 3];
        let (rec, report) = DurableIndex::recover(
            MiniIndex::default(),
            &rel,
            cut,
            PageDevice::cold(DeviceKind::Ssd),
            idx.config(),
        )
        .unwrap();
        assert_eq!(report.replayed_inserts, 1);
        assert!(matches!(report.tail, TailState::Torn { .. }));
        assert!(rec.probe(40, &rel, &io).unwrap().found());
        assert!(
            !rec.probe(41, &rel, &io).unwrap().found(),
            "lost with the tail"
        );
    }

    #[test]
    fn recovery_rejects_a_log_without_genesis() {
        let rel = relation(5);
        let err = match DurableIndex::recover(
            MiniIndex::default(),
            &rel,
            &[],
            PageDevice::cold(DeviceKind::Ssd),
            DurableConfig::default(),
        ) {
            Ok(_) => panic!("empty image must not recover"),
            Err(e) => e,
        };
        assert!(matches!(err, RecoverError::MissingGenesis));
        assert!(err.to_string().contains("genesis"));
    }

    #[test]
    fn probe_stops_streaming_memtable_matches_after_a_sink_break() {
        let mut rel = relation(10);
        let io = IoContext::unmetered();
        let mut idx = durable(&rel, 1_000);
        let loc = rel.append_tuple(3, 0, &io);
        idx.insert(3, loc, &rel).unwrap();
        // probe_first breaks on the base match for key 3; the
        // memtable's extra location must not be delivered after it.
        let first = idx.probe_first(3, &rel, &io).unwrap();
        assert_eq!(first.matches.len(), 1);
    }

    #[test]
    fn memtable_budget_reserves_from_the_shared_pool() {
        let rel = relation(5);
        let idx = durable(&rel, 128);
        assert_eq!(idx.memtable_capacity_bytes(), 128 * EST_OP_BYTES);
        // Without a buffer manager nothing is reserved.
        assert_eq!(idx.reserve_memtable_budget(&IoContext::unmetered()), 0);
    }

    #[test]
    fn rebuild_starts_a_fresh_log_over_the_new_base() {
        let mut rel = relation(10);
        let io = IoContext::unmetered();
        let mut idx = durable(&rel, 1_000);
        let loc = rel.append_tuple(99, 0, &io);
        idx.insert(99, loc, &rel).unwrap();
        idx.build(&rel).unwrap();
        assert_eq!(idx.buffered_ops(), 0);
        let (records, tail) = WalReader::drain(idx.wal().bytes());
        assert_eq!(tail, TailState::Clean);
        assert_eq!(records.len(), 1, "fresh genesis only");
        assert_eq!(
            idx.probe(99, &rel, &io).unwrap().matches,
            vec![loc],
            "the rebuilt base covers the appended tuple directly"
        );
    }
}
