//! [`ConcurrentIndex`]: serve reads and writes to one index from many
//! threads.
//!
//! Pure probe workloads need nothing from this module: the
//! [`AccessMethod`] read path takes `&self` and
//! the trait is `Send + Sync`, so a plain shared reference (or
//! `Arc<dyn AccessMethod>`) already fans out across threads without
//! locks. `ConcurrentIndex` is for the *mixed* case — YCSB-A/B-style
//! streams interleaving probes with inserts — where writers need
//! `&mut` access to a structure readers are traversing. It wraps the
//! index in an [`RwLock`]: probes share a read lock (concurrent among
//! themselves), mutations take the write lock (exclusive). With
//! read-mostly mixes (the paper's clustered-data setting) the write
//! lock is rarely held and probe concurrency is preserved.

use std::sync::{RwLock, RwLockReadGuard};

use bftree_storage::{IoContext, PageId, Relation};

use crate::{
    AccessMethod, BuildError, Continuation, IndexStats, MatchSink, Probe, ProbeError, ProbeIo,
    RangeCursor, RangeScan, ScanIo,
};

/// A shared-read / exclusive-write wrapper around any
/// [`AccessMethod`], for mixed probe/insert service from many threads.
///
/// ```
/// use std::sync::Arc;
/// use bftree_access::{AccessMethod, ConcurrentIndex};
/// # use bftree_storage::{Duplicates, HeapFile, IoContext, Relation, TupleLayout};
/// # use bftree_storage::tuple::PK_OFFSET;
/// # struct Noop;
/// # impl AccessMethod for Noop {
/// #     fn name(&self) -> &'static str { "noop" }
/// #     fn build_slice(&mut self, _: &Relation, _: std::ops::RangeInclusive<u64>) -> Result<(), bftree_access::BuildError> { Ok(()) }
/// #     fn probe_into(&self, _: u64, _: &Relation, _: &IoContext, _: &mut dyn bftree_access::MatchSink) -> Result<bftree_access::ProbeIo, bftree_access::ProbeError> { Ok(Default::default()) }
/// #     fn range_cursor<'c>(&'c self, lo: u64, hi: u64, _: &'c Relation, io: &'c IoContext) -> Result<Box<dyn bftree_access::RangeCursor + 'c>, bftree_access::ProbeError> { Ok(Box::new(bftree_access::PageBatchCursor::new(Vec::new(), &io.data, (lo, hi, lo), None))) }
/// #     fn resume_range_cursor<'c>(&'c self, c: &bftree_access::Continuation, rel: &'c Relation, io: &'c IoContext) -> Result<Box<dyn bftree_access::RangeCursor + 'c>, bftree_access::ProbeError> { self.range_cursor(c.key(), c.hi(), rel, io) }
/// #     fn insert(&mut self, _: u64, _: (u64, usize), _: &Relation) -> Result<(), bftree_access::ProbeError> { Ok(()) }
/// #     fn delete(&mut self, _: u64, _: &Relation) -> Result<u64, bftree_access::ProbeError> { Ok(0) }
/// #     fn size_bytes(&self) -> u64 { 0 }
/// #     fn stats(&self) -> bftree_access::IndexStats { Default::default() }
/// # }
/// let heap = HeapFile::new(TupleLayout::new(16));
/// let rel = Relation::new(heap, PK_OFFSET, Duplicates::Unique).unwrap();
/// let io = IoContext::unmetered();
/// let shared = Arc::new(ConcurrentIndex::new(Noop));
/// std::thread::scope(|s| {
///     let reader = shared.clone();
///     s.spawn(move || reader.probe(1, &rel, &io));
/// });
/// ```
#[derive(Debug)]
pub struct ConcurrentIndex<A: AccessMethod> {
    inner: RwLock<A>,
}

impl<A: AccessMethod> ConcurrentIndex<A> {
    /// Wrap `index` (typically already built) for concurrent service.
    pub fn new(index: A) -> Self {
        Self {
            inner: RwLock::new(index),
        }
    }

    /// Unwrap, giving the index back once all clones of the owning
    /// `Arc` are gone.
    pub fn into_inner(self) -> A {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }

    /// [`AccessMethod::probe`] under a shared read lock.
    pub fn probe(&self, key: u64, rel: &Relation, io: &IoContext) -> Result<Probe, ProbeError> {
        self.read().probe(key, rel, io)
    }

    /// [`AccessMethod::probe_into`] under a shared read lock: the lock
    /// is held only for the probe, but the sink's early termination
    /// still stops the index's I/O immediately.
    pub fn probe_into(
        &self,
        key: u64,
        rel: &Relation,
        io: &IoContext,
        sink: &mut dyn MatchSink,
    ) -> Result<ProbeIo, ProbeError> {
        self.read().probe_into(key, rel, io, sink)
    }

    /// [`AccessMethod::range_scan_into`] under a shared read lock.
    pub fn range_scan_into(
        &self,
        lo: u64,
        hi: u64,
        rel: &Relation,
        io: &IoContext,
        sink: &mut dyn MatchSink,
    ) -> Result<ScanIo, ProbeError> {
        self.read().range_scan_into(lo, hi, rel, io, sink)
    }

    /// [`AccessMethod::range_cursor`] under a shared read lock **held
    /// by the returned cursor**: writers block until the cursor is
    /// dropped, which is what keeps a paginated pull consistent while
    /// other threads keep probing (reads share the lock).
    pub fn range_cursor<'c>(
        &'c self,
        lo: u64,
        hi: u64,
        rel: &'c Relation,
        io: &'c IoContext,
    ) -> Result<ConcurrentRangeCursor<'c, A>, ProbeError> {
        ConcurrentRangeCursor::open(self.read(), rel, io, |index, rel, io| {
            index.range_cursor(lo, hi, rel, io)
        })
    }

    /// [`AccessMethod::resume_range_cursor`] under a shared read lock
    /// held by the returned cursor.
    pub fn resume_range_cursor<'c>(
        &'c self,
        cont: &Continuation,
        rel: &'c Relation,
        io: &'c IoContext,
    ) -> Result<ConcurrentRangeCursor<'c, A>, ProbeError> {
        ConcurrentRangeCursor::open(self.read(), rel, io, |index, rel, io| {
            index.resume_range_cursor(cont, rel, io)
        })
    }

    /// [`AccessMethod::probe_first`] under a shared read lock.
    pub fn probe_first(
        &self,
        key: u64,
        rel: &Relation,
        io: &IoContext,
    ) -> Result<Probe, ProbeError> {
        self.read().probe_first(key, rel, io)
    }

    /// [`AccessMethod::probe_batch`] under **one** shared read lock
    /// for the whole batch — mixed-workload servers pay one lock
    /// acquisition per batch instead of one per key.
    pub fn probe_batch(
        &self,
        keys: &[u64],
        rel: &Relation,
        io: &IoContext,
    ) -> Result<Vec<Probe>, ProbeError> {
        self.read().probe_batch(keys, rel, io)
    }

    /// [`AccessMethod::range_scan`] under a shared read lock.
    pub fn range_scan(
        &self,
        lo: u64,
        hi: u64,
        rel: &Relation,
        io: &IoContext,
    ) -> Result<RangeScan, ProbeError> {
        self.read().range_scan(lo, hi, rel, io)
    }

    /// [`AccessMethod::build`] under the exclusive write lock.
    pub fn build(&self, rel: &Relation) -> Result<(), BuildError> {
        self.write().build(rel)
    }

    /// [`AccessMethod::insert`] under the exclusive write lock. Note
    /// `&self`: the lock supplies the exclusivity the trait expresses
    /// as `&mut self`, which is what lets insert ops ride inside a
    /// shared multi-threaded op stream.
    pub fn insert(&self, key: u64, loc: (PageId, usize), rel: &Relation) -> Result<(), ProbeError> {
        self.write().insert(key, loc, rel)
    }

    /// [`AccessMethod::insert_batch`] under **one** exclusive write
    /// lock: the whole batch lands atomically with respect to
    /// concurrent probes, and the lock is paid once instead of per
    /// entry.
    pub fn insert_batch(
        &self,
        entries: &[(u64, (PageId, usize))],
        rel: &Relation,
    ) -> Result<(), ProbeError> {
        self.write().insert_batch(entries, rel)
    }

    /// [`AccessMethod::delete`] under the exclusive write lock.
    pub fn delete(&self, key: u64, rel: &Relation) -> Result<u64, ProbeError> {
        self.write().delete(key, rel)
    }

    /// [`AccessMethod::name`] (read lock).
    pub fn name(&self) -> &'static str {
        self.read().name()
    }

    /// [`AccessMethod::size_bytes`] (read lock).
    pub fn size_bytes(&self) -> u64 {
        self.read().size_bytes()
    }

    /// [`AccessMethod::stats`] (read lock).
    pub fn stats(&self) -> IndexStats {
        self.read().stats()
    }

    fn read(&self) -> std::sync::RwLockReadGuard<'_, A> {
        self.inner.read().unwrap_or_else(|e| e.into_inner())
    }

    fn write(&self) -> std::sync::RwLockWriteGuard<'_, A> {
        self.inner.write().unwrap_or_else(|e| e.into_inner())
    }
}

/// A [`RangeCursor`] over a [`ConcurrentIndex`] that **owns the read
/// guard**: the wrapped index cannot be mutated (or rebuilt under the
/// cursor's feet) until the cursor is dropped, while other readers
/// keep sharing the lock. Forwards every cursor operation to the
/// index's native cursor.
#[must_use]
pub struct ConcurrentRangeCursor<'c, A: AccessMethod> {
    // Field order is load-bearing: `cursor` borrows the index behind
    // `_guard` and must drop first.
    cursor: Box<dyn RangeCursor + 'c>,
    _guard: RwLockReadGuard<'c, A>,
}

impl<'c, A: AccessMethod> ConcurrentRangeCursor<'c, A> {
    fn open(
        guard: RwLockReadGuard<'c, A>,
        rel: &'c Relation,
        io: &'c IoContext,
        make: impl FnOnce(
            &'c A,
            &'c Relation,
            &'c IoContext,
        ) -> Result<Box<dyn RangeCursor + 'c>, ProbeError>,
    ) -> Result<Self, ProbeError> {
        // SAFETY: the reference points at the index inside the
        // `RwLock` owned by the `ConcurrentIndex` borrowed for `'c`,
        // so the referent outlives `'c`; the read guard stored next
        // to the cursor keeps every writer out for the cursor's whole
        // life, and the cursor (declared first) drops before the
        // guard releases the lock.
        let index: &'c A = unsafe { &*(&*guard as *const A) };
        let cursor = make(index, rel, io)?;
        Ok(Self {
            cursor,
            _guard: guard,
        })
    }
}

impl<A: AccessMethod> RangeCursor for ConcurrentRangeCursor<'_, A> {
    fn next_page_matches(&mut self) -> Option<&[(PageId, usize)]> {
        self.cursor.next_page_matches()
    }

    fn advance(&mut self) {
        self.cursor.advance()
    }

    fn continuation(&self) -> Option<Continuation> {
        self.cursor.continuation()
    }

    fn io(&self) -> ScanIo {
        self.cursor.io()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bftree_storage::tuple::PK_OFFSET;
    use bftree_storage::{Duplicates, HeapFile, TupleLayout};

    /// A minimal exact index: a sorted vec of (key, loc).
    #[derive(Default)]
    struct VecIndex {
        entries: Vec<(u64, (PageId, usize))>,
    }

    impl AccessMethod for VecIndex {
        fn name(&self) -> &'static str {
            "vec"
        }

        fn build_slice(
            &mut self,
            rel: &Relation,
            keys: std::ops::RangeInclusive<u64>,
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
            _: &Relation,
            _: &IoContext,
            sink: &mut dyn MatchSink,
        ) -> Result<ProbeIo, ProbeError> {
            let mut io = ProbeIo::default();
            for &(_, (pid, slot)) in self.entries.iter().filter(|(k, _)| *k == key) {
                io.pages_read += 1;
                if sink.push(pid, slot).is_break() {
                    break;
                }
            }
            Ok(io)
        }

        fn range_cursor<'c>(
            &'c self,
            lo: u64,
            hi: u64,
            _: &'c Relation,
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
            _: &Relation,
        ) -> Result<(), ProbeError> {
            self.entries.push((key, loc));
            Ok(())
        }

        fn delete(&mut self, key: u64, _: &Relation) -> Result<u64, ProbeError> {
            let before = self.entries.len();
            self.entries.retain(|(k, _)| *k != key);
            Ok((before - self.entries.len()) as u64)
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

    fn relation() -> Relation {
        let mut heap = HeapFile::new(TupleLayout::new(16));
        for pk in 0..500u64 {
            heap.append_record(pk, pk);
        }
        Relation::new(heap, PK_OFFSET, Duplicates::Unique).unwrap()
    }

    #[test]
    fn adapter_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ConcurrentIndex<VecIndex>>();
        assert_send_sync::<ConcurrentIndex<Box<dyn AccessMethod>>>();
    }

    #[test]
    fn readers_and_writer_interleave_safely() {
        let rel = relation();
        let io = IoContext::unmetered();
        let shared = ConcurrentIndex::new(VecIndex::default());
        shared.build(&rel).unwrap();
        std::thread::scope(|s| {
            for t in 0..4 {
                let (shared, rel, io) = (&shared, &rel, &io);
                s.spawn(move || {
                    for key in (t * 100)..(t * 100 + 100) {
                        assert!(shared.probe(key, rel, io).unwrap().found());
                    }
                });
            }
            let (shared, rel) = (&shared, &rel);
            s.spawn(move || {
                for key in 10_000..10_050u64 {
                    shared.insert(key, (0, 0), rel).unwrap();
                }
            });
        });
        let io = IoContext::unmetered();
        for key in 10_000..10_050u64 {
            assert!(shared.probe(key, &rel, &io).unwrap().found());
        }
        assert_eq!(shared.stats().entries, 550);
    }

    #[test]
    fn into_inner_returns_the_index() {
        let rel = relation();
        let shared = ConcurrentIndex::new(VecIndex::default());
        shared.build(&rel).unwrap();
        assert_eq!(shared.into_inner().entries.len(), 500);
    }

    #[test]
    fn cursor_holds_the_read_lock_without_blocking_readers() {
        let rel = relation();
        let io = IoContext::unmetered();
        let shared = ConcurrentIndex::new(VecIndex::default());
        shared.build(&rel).unwrap();

        let mut cursor = shared.range_cursor(0, 49, &rel, &io).unwrap();
        // Readers share the lock while the cursor pins it.
        std::thread::scope(|s| {
            let (shared, rel, io) = (&shared, &rel, &io);
            s.spawn(move || assert!(shared.probe(7, rel, io).unwrap().found()));
        });
        let mut got = Vec::new();
        while let Some(page) = cursor.next_page_matches() {
            got.extend_from_slice(page);
            cursor.advance();
        }
        assert_eq!(got.len(), 50);
        assert!(cursor.continuation().is_none(), "drained");
        // Writers proceed once the cursor (and its guard) is gone.
        drop(cursor);
        shared.insert(10_000, (0, 0), &rel).unwrap();
        assert!(shared.probe(10_000, &rel, &io).unwrap().found());
    }

    #[test]
    fn concurrent_cursor_resumes_from_a_continuation() {
        let rel = relation();
        let io = IoContext::unmetered();
        let shared = ConcurrentIndex::new(VecIndex::default());
        shared.build(&rel).unwrap();

        let mut head = Vec::new();
        let token = {
            let mut cursor =
                crate::RangeCursorExt::limit(shared.range_cursor(0, 99, &rel, &io).unwrap(), 30);
            while let Some(page) = cursor.next_page_matches() {
                head.extend_from_slice(page);
                cursor.advance();
            }
            cursor.continuation().expect("70 matches pending")
        };
        let mut rest_cursor = shared.resume_range_cursor(&token, &rel, &io).unwrap();
        while let Some(page) = rest_cursor.next_page_matches() {
            head.extend_from_slice(page);
            rest_cursor.advance();
        }
        assert_eq!(head.len(), 100, "prefix + resume covers the range");
    }

    #[test]
    fn works_over_boxed_trait_objects() {
        let rel = relation();
        let io = IoContext::unmetered();
        let boxed: Box<dyn AccessMethod> = Box::new(VecIndex::default());
        let shared = ConcurrentIndex::new(boxed);
        shared.build(&rel).unwrap();
        assert_eq!(shared.name(), "vec");
        assert!(shared.probe(7, &rel, &io).unwrap().found());
        assert_eq!(shared.delete(7, &rel).unwrap(), 1);
        assert!(!shared.probe(7, &rel, &io).unwrap().found());
    }
}
