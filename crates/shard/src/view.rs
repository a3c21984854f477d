//! A range-restricted facade over any [`AccessMethod`].
//!
//! [`RangeView`] is what lets one shard reuse the whole single-node
//! stack unchanged: it wraps an inner index and implements `build` as
//! "index only the tuples whose key falls in my `[lo, hi]` slice of
//! the relation". Everything downstream — `DurableIndex`'s WAL replay,
//! memtable flushes, crash recovery — calls `build` through the trait
//! and therefore shards for free.

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

    /// Build the inner index over **only** the in-range tuples of
    /// `rel`: build it empty, then bulk-insert every `(key, loc)` pair
    /// whose key falls in `[lo, hi]`, sorted by key so batch-friendly
    /// indexes get their one-descent path.
    fn build(&mut self, rel: &Relation) -> Result<(), BuildError> {
        let empty =
            Relation::new(rel.heap().truncated(0), rel.attr(), rel.duplicates()).map_err(|e| {
                BuildError::IncompatibleRelation {
                    detail: e.to_string(),
                }
            })?;
        self.inner.build(&empty)?;
        let mut entries: Vec<(u64, (PageId, usize))> = rel
            .heap()
            .iter_attr(rel.attr())
            .filter(|&(_, _, v)| self.in_range(v))
            .map(|(pid, slot, v)| (v, (pid, slot)))
            .collect();
        entries.sort_unstable();
        self.inner
            .insert_batch(&entries, rel)
            .map_err(|e| BuildError::IncompatibleRelation {
                detail: format!("bulk-loading range view [{}, {}]: {e}", self.lo, self.hi),
            })
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
