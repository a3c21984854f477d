//! A range-restricted facade over any [`AccessMethod`].
//!
//! [`RangeView`] is what lets one shard reuse the whole single-node
//! stack unchanged: it wraps an inner index and clamps every build to
//! its `[lo, hi]` slice of the key domain, so the inner index
//! bulk-loads exactly the shard's own keys through
//! [`AccessMethod::build_slice`]. Everything downstream —
//! `DurableIndex`'s WAL replay, memtable flushes, crash recovery —
//! calls `build` through the trait and therefore shards for free.

use std::ops::RangeInclusive;

use bftree_access::{
    AccessMethod, BuildError, Continuation, IndexStats, MatchSink, PageBatchCursor, ProbeError,
    ProbeIo, RangeCursor,
};
use bftree_storage::{IoContext, PageId, Relation};

/// An [`AccessMethod`] that only ever indexes keys in `[lo, hi]`.
///
/// Probes for out-of-range keys return empty without touching the
/// inner index (the router should never send them here; answering
/// "no matches" keeps the trait contract honest if it does). Range
/// cursors are **clamped** to the view's slice before delegating.
/// Clamping is load-bearing, not defensive: a filter-based inner
/// index (the BF-Tree) resolves ranges to heap *page* spans and
/// re-scans them, so without the clamp a shard would happily surface
/// neighboring shards' tuples that share its pages.
#[derive(Debug)]
pub struct RangeView<A> {
    inner: A,
    lo: u64,
    hi: u64,
}

impl<A: AccessMethod> RangeView<A> {
    /// Restrict `inner` to the inclusive key range `[lo, hi]`.
    ///
    /// # Panics
    /// If `lo > hi`.
    pub fn new(inner: A, lo: u64, hi: u64) -> Self {
        assert!(lo <= hi, "inverted range view [{lo}, {hi}]");
        Self { inner, lo, hi }
    }

    /// The wrapped index.
    pub fn inner(&self) -> &A {
        &self.inner
    }

    fn in_range(&self, key: u64) -> bool {
        self.lo <= key && key <= self.hi
    }
}

impl<A: AccessMethod> AccessMethod for RangeView<A> {
    fn name(&self) -> &'static str {
        "range-view"
    }

    /// Build the inner index over only the tuples of `rel` whose key
    /// lies in both `keys` and the view's `[lo, hi]`: the slice is
    /// clamped and the inner index bulk-loads it.
    fn build_slice(&mut self, rel: &Relation, keys: RangeInclusive<u64>) -> Result<(), BuildError> {
        let (lo, hi) = (*keys.start(), *keys.end());
        self.inner
            .build_slice(rel, lo.max(self.lo)..=hi.min(self.hi))
    }

    fn probe_into(
        &self,
        key: u64,
        rel: &Relation,
        io: &IoContext,
        sink: &mut dyn MatchSink,
    ) -> Result<ProbeIo, ProbeError> {
        if !self.in_range(key) {
            return Ok(ProbeIo::default());
        }
        self.inner.probe_into(key, rel, io, sink)
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
        let (clo, chi) = (lo.max(self.lo), hi.min(self.hi));
        if clo > chi {
            // Range disjoint from the view: an already-exhausted
            // cursor (empty matches prove exhaustion immediately).
            return Ok(Box::new(PageBatchCursor::new(
                Vec::new(),
                &io.data,
                (lo, hi, lo),
                None,
            )));
        }
        self.inner.range_cursor(clo, chi, rel, io)
    }

    fn resume_range_cursor<'c>(
        &'c self,
        cont: &Continuation,
        rel: &'c Relation,
        io: &'c IoContext,
    ) -> Result<Box<dyn RangeCursor + 'c>, ProbeError> {
        let (clo, chi) = (cont.lo().max(self.lo), cont.hi().min(self.hi));
        if clo > chi || cont.key() < clo || cont.key() > chi {
            // Frontier outside the view's slice of the range: nothing
            // of ours is undelivered.
            return Ok(Box::new(PageBatchCursor::new(
                Vec::new(),
                &io.data,
                (cont.lo(), cont.hi(), cont.key()),
                None,
            )));
        }
        let clamped = Continuation::from_parts(clo, chi, cont.key(), cont.page(), cont.slot());
        self.inner.resume_range_cursor(&clamped, rel, io)
    }

    fn insert(&mut self, key: u64, loc: (PageId, usize), rel: &Relation) -> Result<(), ProbeError> {
        debug_assert!(
            self.in_range(key),
            "insert of {key} routed to view [{}, {}]",
            self.lo,
            self.hi
        );
        self.inner.insert(key, loc, rel)
    }

    fn insert_batch(
        &mut self,
        entries: &[(u64, (PageId, usize))],
        rel: &Relation,
    ) -> Result<(), ProbeError> {
        self.inner.insert_batch(entries, rel)
    }

    fn delete(&mut self, key: u64, rel: &Relation) -> Result<u64, ProbeError> {
        if !self.in_range(key) {
            return Ok(0);
        }
        self.inner.delete(key, rel)
    }

    fn size_bytes(&self) -> u64 {
        self.inner.size_bytes()
    }

    fn resident_bytes(&self) -> u64 {
        self.inner.resident_bytes()
    }

    fn stats(&self) -> IndexStats {
        self.inner.stats()
    }
}
