//! The sharded index: N single-node stacks behind one `AccessMethod`.
//!
//! [`ShardedIndex`] range-partitions a [`Relation`]'s key domain with
//! a [`ShardPlan`]; each shard owns a full PR-4/PR-5 write path — a
//! [`DurableIndex`] wrapping a [`RangeView`] over any inner index,
//! with its own WAL — so durability, recovery, and memtable flushing
//! shard for free. The router splits a batched probe at the shard
//! boundaries and serves it shard by shard on the calling thread
//! (concurrent callers are the parallelism; every shard is behind its
//! own `RwLock`), and stitches range scans across shard boundaries
//! with a cursor that honors the PR-5 continuation protocol exactly.
//!
//! Each shard's simulated clock is the sum of the `thread_sim_ns`
//! deltas taken around the work done *for that shard*, whichever
//! thread did it, so the makespan needs no thread per shard.

use std::ops::RangeInclusive;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};

use bftree_access::{
    AccessMethod, BuildError, Continuation, DurableConfig, DurableIndex, IndexStats, MatchSink,
    Probe, ProbeError, ProbeIo, RangeCursor, RangeCursorExt, RecoverError, RecoveryReport, ScanIo,
};
use bftree_obs::{span, MetricSource, MetricsRegistry, SpanKind};
use bftree_storage::{thread_sim_ns, IoContext, PageDevice, PageId, Relation};

use crate::envelope::ShardedContinuation;
use crate::plan::ShardPlan;
use crate::view::RangeView;
use crate::ShardError;

/// What one shard holds: a full durable single-node stack.
pub type ShardStack = DurableIndex<RangeView<Box<dyn AccessMethod>>>;

/// One page of sharded range results: the matched `(page, slot)`
/// locations in key order, the continuation token when more remain,
/// and the I/O accounting for the pull.
pub type RangePage = (Vec<(PageId, usize)>, Option<ShardedContinuation>, ScanIo);

struct ShardCell {
    state: RwLock<ShardStack>,
    /// Simulated service nanoseconds accumulated by this shard — the
    /// per-shard clock whose maximum is the router's makespan.
    sim_ns: AtomicU64,
    probes: AtomicU64,
    inserts: AtomicU64,
    deletes: AtomicU64,
}

impl ShardCell {
    fn new(stack: ShardStack) -> Self {
        Self {
            state: RwLock::new(stack),
            sim_ns: AtomicU64::new(0),
            probes: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            deletes: AtomicU64::new(0),
        }
    }

    fn read(&self) -> RwLockReadGuard<'_, ShardStack> {
        self.state.read().unwrap_or_else(|e| e.into_inner())
    }

    fn write(&self) -> RwLockWriteGuard<'_, ShardStack> {
        self.state.write().unwrap_or_else(|e| e.into_inner())
    }

    /// Run `f` under the given guard acquisition while charging the
    /// calling thread's simulated-time delta to this shard's clock.
    fn timed<R>(&self, f: impl FnOnce() -> R) -> R {
        let t0 = thread_sim_ns();
        let out = f();
        self.sim_ns
            .fetch_add(thread_sim_ns().saturating_sub(t0), Ordering::Relaxed);
        out
    }
}

/// Which [`IoContext`] serves which shard.
///
/// The [`AccessMethod`] trait hands every call a single context;
/// serving deployments give each shard its own (sharing one
/// [`bftree_storage::BufferManager`] budget — see
/// `IoContext::with_shared_manager_on`).
#[derive(Clone, Copy)]
enum IoSel<'a> {
    One(&'a IoContext),
    Many(&'a [IoContext]),
}

impl<'a> IoSel<'a> {
    fn get(&self, shard: usize) -> &'a IoContext {
        match self {
            IoSel::One(io) => io,
            IoSel::Many(ios) => &ios[shard],
        }
    }
}

/// A range-partitioned, durable index behind a batch router — the serving
/// layer's data plane, itself a sixth [`AccessMethod`] implementation
/// so the whole single-node conformance battery applies verbatim.
pub struct ShardedIndex {
    plan: ShardPlan,
    shards: Vec<ShardCell>,
    scatters: AtomicU64,
}

impl std::fmt::Debug for ShardedIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedIndex")
            .field("shards", &self.plan.shards())
            .finish()
    }
}

impl ShardedIndex {
    /// Assemble a sharded index over `rel`.
    ///
    /// `factory(i)` supplies shard `i`'s inner index (any
    /// [`AccessMethod`]); `wal_device(i)` supplies the device backing
    /// shard `i`'s write-ahead log. Each shard gets the full durable
    /// write path (`durable` tunes every shard's memtable/WAL
    /// identically) restricted to its slice of the key domain.
    ///
    /// Each shard starts as the factory made its index: call
    /// [`AccessMethod::build`] to have every shard bulk-load its own
    /// key range of `rel`'s current contents.
    pub fn new(
        plan: ShardPlan,
        rel: &Relation,
        durable: DurableConfig,
        mut factory: impl FnMut(usize) -> Box<dyn AccessMethod>,
        mut wal_device: impl FnMut(usize) -> PageDevice,
    ) -> Self {
        let n = plan.shards();
        let shards = (0..n)
            .map(|s| {
                let view = RangeView::new(factory(s), plan.lo_of(s), plan.hi_of(s));
                ShardCell::new(DurableIndex::new(view, rel, wal_device(s), durable))
            })
            .collect();
        Self {
            plan,
            shards,
            scatters: AtomicU64::new(0),
        }
    }

    /// Recover every shard from its crash-cut WAL image and reassemble
    /// the fleet. `images[s]` is shard `s`'s log image as found after
    /// the crash — shards may be at arbitrarily different WAL
    /// positions; each recovers independently (rebuild from its genesis
    /// checkpoint's heap prefix, then replay its own log), and the
    /// merged view is exactly the union of the per-shard recoveries.
    ///
    /// # Panics
    /// If `images.len() != plan.shards()`.
    pub fn recover_all(
        plan: ShardPlan,
        rel: &Relation,
        durable: DurableConfig,
        mut factory: impl FnMut(usize) -> Box<dyn AccessMethod>,
        images: &[Vec<u8>],
        mut log_device: impl FnMut(usize) -> PageDevice,
    ) -> Result<(Self, Vec<RecoveryReport>), RecoverError> {
        let n = plan.shards();
        assert_eq!(images.len(), n, "one WAL image per shard");
        let mut shards = Vec::with_capacity(n);
        let mut reports = Vec::with_capacity(n);
        for (s, image) in images.iter().enumerate() {
            let view = RangeView::new(factory(s), plan.lo_of(s), plan.hi_of(s));
            let (stack, report) = DurableIndex::recover(view, rel, image, log_device(s), durable)?;
            shards.push(ShardCell::new(stack));
            reports.push(report);
        }
        Ok((
            Self {
                plan,
                shards,
                scatters: AtomicU64::new(0),
            },
            reports,
        ))
    }

    /// The partition map.
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.plan.shards()
    }

    /// Run `f` against shard `s`'s durable stack under a read lock —
    /// the inspection hatch for tests and the serving layer (WAL
    /// bytes, memtable occupancy, …).
    pub fn with_shard<R>(&self, s: usize, f: impl FnOnce(&ShardStack) -> R) -> R {
        f(&self.shards[s].read())
    }

    /// Simulated service nanoseconds shard `s` has accumulated.
    pub fn shard_sim_ns(&self, s: usize) -> u64 {
        self.shards[s].sim_ns.load(Ordering::Relaxed)
    }

    /// Bottleneck shard's accumulated simulated service time — the
    /// parallel cost of everything routed since the last
    /// [`ShardedIndex::reset_shard_clocks`], under the repo's one-
    /// device-channel-per-shard cost model.
    pub fn makespan_sim_ns(&self) -> u64 {
        (0..self.shards.len())
            .map(|s| self.shard_sim_ns(s))
            .max()
            .unwrap_or(0)
    }

    /// Sum of all shards' simulated service time (the serial cost).
    pub fn total_sim_ns(&self) -> u64 {
        (0..self.shards.len()).map(|s| self.shard_sim_ns(s)).sum()
    }

    /// Zero every shard's simulated clock (benchmark epoch boundary).
    pub fn reset_shard_clocks(&self) {
        for cell in &self.shards {
            cell.sim_ns.store(0, Ordering::Relaxed);
        }
    }

    /// Flush every shard's memtable into its base index.
    pub fn flush_all(&self, rel: &Relation) -> Result<usize, ProbeError> {
        let mut total = 0;
        for cell in &self.shards {
            total += cell.write().flush(rel)?;
        }
        Ok(total)
    }

    /// Insert through a shared reference: route `key` to its owning
    /// shard and take that shard's write lock only. This is the
    /// serving-layer entry point ([`AccessMethod::insert`] forwards
    /// here); concurrent inserts to different shards do not contend.
    pub fn route_insert(
        &self,
        key: u64,
        loc: (PageId, usize),
        rel: &Relation,
    ) -> Result<(), ProbeError> {
        let cell = &self.shards[self.plan.shard_of(key)];
        cell.inserts.fetch_add(1, Ordering::Relaxed);
        cell.timed(|| cell.write().insert(key, loc, rel))
    }

    /// Delete through a shared reference (see
    /// [`ShardedIndex::route_insert`]).
    pub fn route_delete(&self, key: u64, rel: &Relation) -> Result<u64, ProbeError> {
        let cell = &self.shards[self.plan.shard_of(key)];
        cell.deletes.fetch_add(1, Ordering::Relaxed);
        cell.timed(|| cell.write().delete(key, rel))
    }

    /// Route a probe batch with one [`IoContext`] per shard —
    /// the serving configuration, where each shard owns its device
    /// channels and all contexts share one buffer-manager budget.
    ///
    /// # Panics
    /// If `ios.len() != self.shard_count()`.
    pub fn probe_batch_sharded(
        &self,
        keys: &[u64],
        rel: &Relation,
        ios: &[IoContext],
    ) -> Result<Vec<Probe>, ProbeError> {
        assert_eq!(ios.len(), self.shard_count(), "one IoContext per shard");
        self.batch_on(keys, rel, IoSel::Many(ios))
    }

    /// One paginated slice of `[lo, hi]`: up to `limit` matches plus a
    /// resumable [`ShardedContinuation`] for the remainder (`None`
    /// when the scan has provably finished). Pass the previous page's
    /// token to continue; its layout stamp is validated against this
    /// index's plan first, so tokens minted under a different shard
    /// layout are rejected typed, not mis-routed.
    ///
    /// # Panics
    /// If `ios.len() != self.shard_count()`.
    pub fn range_page(
        &self,
        lo: u64,
        hi: u64,
        limit: u64,
        token: Option<&ShardedContinuation>,
        rel: &Relation,
        ios: &[IoContext],
    ) -> Result<RangePage, ShardError> {
        assert_eq!(ios.len(), self.shard_count(), "one IoContext per shard");
        let sel = IoSel::Many(ios);
        let cursor = match token {
            Some(t) => {
                t.validate(&self.plan)?;
                ShardedCursor::resume(self, t.inner(), rel, sel)
            }
            None => ShardedCursor::open(self, lo, hi, rel, sel).map_err(ShardError::Probe)?,
        };
        let mut cursor = cursor.limit(limit);
        let mut out = Vec::new();
        while let Some(page) = cursor.next_page_matches() {
            out.extend_from_slice(page);
            cursor.advance();
        }
        let cont = cursor
            .continuation()
            .map(|c| ShardedContinuation::new(&self.plan, c));
        Ok((out, cont, cursor.io()))
    }

    /// Router core: split the batch by shard boundary (remembering each
    /// key's input position), then — on the calling thread — visit the
    /// shards in ascending order, probing each one's keys under a single
    /// read lock and writing every answer straight into its input
    /// position. Callers are the parallelism: concurrent batches meet
    /// only on the shard read locks.
    fn batch_on(
        &self,
        keys: &[u64],
        rel: &Relation,
        ios: IoSel<'_>,
    ) -> Result<Vec<Probe>, ProbeError> {
        let mut by_shard: Vec<Vec<(usize, u64)>> = vec![Vec::new(); self.shard_count()];
        for (i, &key) in keys.iter().enumerate() {
            by_shard[self.plan.shard_of(key)].push((i, key));
        }
        let mut scatter_span = span(SpanKind::Scatter);
        self.scatters.fetch_add(1, Ordering::Relaxed);

        let mut out = vec![Probe::default(); keys.len()];
        let mut touched = 0;
        for (s, batch) in by_shard.iter().enumerate() {
            if batch.is_empty() {
                continue;
            }
            touched += 1;
            let cell = &self.shards[s];
            let io = ios.get(s);
            cell.probes.fetch_add(batch.len() as u64, Ordering::Relaxed);
            cell.timed(|| -> Result<(), ProbeError> {
                let guard = cell.read();
                for &(i, key) in batch {
                    out[i] = guard.probe(key, rel, io)?;
                }
                Ok(())
            })?;
        }
        scatter_span.set_detail(touched);
        Ok(out)
    }
}

impl AccessMethod for ShardedIndex {
    fn name(&self) -> &'static str {
        "sharded"
    }

    /// Each shard bulk-loads its own range of the plan intersected
    /// with `keys` (its [`RangeView`] clamps the slice).
    fn build_slice(&mut self, rel: &Relation, keys: RangeInclusive<u64>) -> Result<(), BuildError> {
        for cell in &mut self.shards {
            cell.state
                .get_mut()
                .unwrap_or_else(|e| e.into_inner())
                .build_slice(rel, keys.clone())?;
        }
        Ok(())
    }

    fn probe_into(
        &self,
        key: u64,
        rel: &Relation,
        io: &IoContext,
        sink: &mut dyn MatchSink,
    ) -> Result<ProbeIo, ProbeError> {
        let cell = &self.shards[self.plan.shard_of(key)];
        cell.probes.fetch_add(1, Ordering::Relaxed);
        cell.timed(|| cell.read().probe_into(key, rel, io, sink))
    }

    fn probe_batch(
        &self,
        keys: &[u64],
        rel: &Relation,
        io: &IoContext,
    ) -> Result<Vec<Probe>, ProbeError> {
        self.batch_on(keys, rel, IoSel::One(io))
    }

    fn range_cursor<'c>(
        &'c self,
        lo: u64,
        hi: u64,
        rel: &'c Relation,
        io: &'c IoContext,
    ) -> Result<Box<dyn RangeCursor + 'c>, ProbeError> {
        Ok(Box::new(ShardedCursor::open(
            self,
            lo,
            hi,
            rel,
            IoSel::One(io),
        )?))
    }

    fn resume_range_cursor<'c>(
        &'c self,
        cont: &Continuation,
        rel: &'c Relation,
        io: &'c IoContext,
    ) -> Result<Box<dyn RangeCursor + 'c>, ProbeError> {
        Ok(Box::new(ShardedCursor::resume(
            self,
            cont,
            rel,
            IoSel::One(io),
        )))
    }

    fn insert(&mut self, key: u64, loc: (PageId, usize), rel: &Relation) -> Result<(), ProbeError> {
        self.route_insert(key, loc, rel)
    }

    fn delete(&mut self, key: u64, rel: &Relation) -> Result<u64, ProbeError> {
        self.route_delete(key, rel)
    }

    fn size_bytes(&self) -> u64 {
        self.shards.iter().map(|c| c.read().size_bytes()).sum()
    }

    fn resident_bytes(&self) -> u64 {
        self.shards.iter().map(|c| c.read().resident_bytes()).sum()
    }

    fn stats(&self) -> IndexStats {
        let mut agg = IndexStats::default();
        for cell in &self.shards {
            let s = cell.read().stats();
            agg.pages += s.pages;
            agg.bytes += s.bytes;
            agg.entries += s.entries;
            agg.height = agg.height.max(s.height);
        }
        agg
    }
}

impl MetricSource for ShardedIndex {
    /// Per-shard operation counters, simulated clocks, and write-path
    /// occupancy, plus fleet-level router counters.
    fn collect(&self, reg: &mut MetricsRegistry) {
        reg.counter(
            "bftree_shard_scatters_total",
            "Batched operations fanned out across shards.",
            &[],
            self.scatters.load(Ordering::Relaxed),
        );
        for (s, cell) in self.shards.iter().enumerate() {
            let shard = s.to_string();
            let labels: &[(&str, &str)] = &[("shard", shard.as_str())];
            reg.counter(
                "bftree_shard_probes_total",
                "Point probes routed to this shard.",
                labels,
                cell.probes.load(Ordering::Relaxed),
            );
            reg.counter(
                "bftree_shard_inserts_total",
                "Inserts routed to this shard.",
                labels,
                cell.inserts.load(Ordering::Relaxed),
            );
            reg.counter(
                "bftree_shard_deletes_total",
                "Deletes routed to this shard.",
                labels,
                cell.deletes.load(Ordering::Relaxed),
            );
            reg.counter(
                "bftree_shard_sim_ns_total",
                "Simulated service nanoseconds accumulated by this shard.",
                labels,
                cell.sim_ns.load(Ordering::Relaxed),
            );
            let guard = cell.read();
            reg.gauge(
                "bftree_shard_memtable_bytes",
                "Resident bytes of this shard's write memtable.",
                labels,
                guard.memtable_bytes() as f64,
            );
            reg.gauge(
                "bftree_shard_wal_bytes",
                "Bytes in this shard's write-ahead log.",
                labels,
                guard.wal().bytes().len() as f64,
            );
            reg.gauge(
                "bftree_shard_entries",
                "Entries indexed by this shard.",
                labels,
                guard.stats().entries as f64,
            );
        }
    }
}

/// A range cursor stitched across shard boundaries.
///
/// Walks shards in key order; within a shard it opens the shard's own
/// cursor under a read lock **per page pull**, copies the page's
/// matches out, captures the pre- and post-advance continuation
/// tokens, and releases the lock — so a long paginated scan never
/// pins a shard against writers. Honors the full [`RangeCursor`]
/// protocol: idempotent pulls, frontier continuations (a loaded page
/// re-delivers until advanced), `None` once exhaustion is proven.
struct ShardedCursor<'c> {
    index: &'c ShardedIndex,
    rel: &'c Relation,
    ios: IoSel<'c>,
    lo: u64,
    hi: u64,
    /// Shard currently being walked.
    shard: usize,
    /// Last shard intersecting `[lo, hi]`.
    last_shard: usize,
    /// Token that (re)opens the current position in `shard`; `None`
    /// means "start of this shard's intersection with the range".
    entry: Option<Continuation>,
    /// Matches of the loaded frontier page (empty slice = overhead
    /// page, still a legal pull result).
    current: Option<Vec<(PageId, usize)>>,
    /// Token for the position *after* the loaded page; `None` = the
    /// current shard proved exhaustion past the loaded page.
    after: Option<Continuation>,
    io: ScanIo,
    done: bool,
}

impl<'c> ShardedCursor<'c> {
    fn open(
        index: &'c ShardedIndex,
        lo: u64,
        hi: u64,
        rel: &'c Relation,
        ios: IoSel<'c>,
    ) -> Result<Self, ProbeError> {
        if lo > hi {
            return Err(ProbeError::InvertedRange { lo, hi });
        }
        Ok(Self {
            index,
            rel,
            ios,
            lo,
            hi,
            shard: index.plan.shard_of(lo),
            last_shard: index.plan.shard_of(hi),
            entry: None,
            current: None,
            after: None,
            io: ScanIo::default(),
            done: false,
        })
    }

    /// Resume at a continuation frontier. The frontier key names the
    /// shard to resume in — including the synthetic start-of-shard
    /// tokens this cursor mints at shard boundaries.
    fn resume(
        index: &'c ShardedIndex,
        cont: &Continuation,
        rel: &'c Relation,
        ios: IoSel<'c>,
    ) -> Self {
        Self {
            index,
            rel,
            ios,
            lo: cont.lo(),
            hi: cont.hi(),
            shard: index.plan.shard_of(cont.key()),
            last_shard: index.plan.shard_of(cont.hi()),
            entry: Some(*cont),
            current: None,
            after: None,
            io: ScanIo::default(),
            done: false,
        }
    }

    /// Token representing the yet-untouched start of shard `s`'s
    /// intersection with the range: frontier key = the shard's first
    /// owned key (clamped into the range), page frontier (0, 0) so
    /// nothing is skipped. Resuming it delivers the shard's entire
    /// intersection — the stitch that makes pagination lossless across
    /// shard boundaries.
    fn start_of_shard(&self, s: usize) -> Continuation {
        let key = self.index.plan.lo_of(s).clamp(self.lo, self.hi);
        Continuation::from_parts(self.lo, self.hi, key, 0, 0)
    }

    /// Re-wrap a shard-minted token in the cursor's outer bounds. The
    /// shard's own cursor runs clamped to its slice ([`RangeView`]),
    /// so its tokens carry the clamped range; outward-facing tokens
    /// must carry the full range or resuming would drop every shard
    /// past this one.
    fn outer_token(&self, c: Continuation) -> Continuation {
        Continuation::from_parts(self.lo, self.hi, c.key(), c.page(), c.slot())
    }

    /// Load the next frontier page, walking forward through shards
    /// until one yields a page or all are proven exhausted.
    fn pull(&mut self) {
        while !self.done && self.current.is_none() {
            let cell = &self.index.shards[self.shard];
            let io = self.ios.get(self.shard);
            // The shard's stack clamps the range to its slice
            // (`RangeView`).
            let pulled = cell.timed(|| {
                let guard = cell.read();
                let mut cur = match &self.entry {
                    Some(t) => guard.resume_range_cursor(t, self.rel, io),
                    None => guard.range_cursor(self.lo, self.hi, self.rel, io),
                }
                // Per-shard open errors are structural (bad attr,
                // unsupported inner index) and identical across
                // shards, so the first shard surfaced them from
                // `ShardedIndex::range_cursor` already.
                .expect("mid-scan shard cursor open failed");
                let page = cur.next_page_matches().map(|m| m.to_vec());
                let frontier = cur.continuation();
                let after = page.is_some().then(|| {
                    cur.advance();
                    cur.continuation()
                });
                let io_used = cur.io();
                (page, frontier, after, io_used)
            });
            let (page, frontier, after, io_used) = pulled;
            self.io.pages_read += io_used.pages_read;
            self.io.overhead_pages += io_used.overhead_pages;
            match page {
                Some(matches) => {
                    // Keep `entry` pointing at the loaded page so
                    // `continuation()` re-delivers it until advanced;
                    // prefer the inner cursor's own frontier token when
                    // it minted one.
                    if let Some(f) = frontier {
                        self.entry = Some(self.outer_token(f));
                    }
                    self.current = Some(matches);
                    self.after = after.flatten().map(|c| self.outer_token(c));
                }
                None => self.next_shard(),
            }
        }
    }

    fn next_shard(&mut self) {
        if self.shard >= self.last_shard {
            self.done = true;
        } else {
            self.shard += 1;
            self.entry = None;
        }
        self.after = None;
    }
}

impl RangeCursor for ShardedCursor<'_> {
    fn next_page_matches(&mut self) -> Option<&[(PageId, usize)]> {
        if self.current.is_none() {
            self.pull();
        }
        self.current.as_deref()
    }

    fn advance(&mut self) {
        if self.current.take().is_none() {
            return;
        }
        match self.after.take() {
            Some(token) => self.entry = Some(token),
            None => self.next_shard(),
        }
    }

    fn continuation(&self) -> Option<Continuation> {
        if self.done {
            return None;
        }
        self.entry.or_else(|| Some(self.start_of_shard(self.shard)))
    }

    fn io(&self) -> ScanIo {
        self.io
    }
}
