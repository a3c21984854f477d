//! [`AccessMethod`] implementation: the FD-Tree baseline behind the
//! unified index interface.

use std::ops::RangeInclusive;

use bftree_access::{
    check_relation, mark_dead, stream_sorted_matches, AccessMethod, BuildError, Continuation,
    IndexStats, MatchSink, PageBatchCursor, Probe, ProbeError, ProbeIo, RangeCursor,
};
use bftree_btree::{relation_entries, DuplicateMode, TupleRef};
use bftree_storage::{IoContext, PageId, Relation};

use crate::FdTree;

impl AccessMethod for FdTree {
    fn name(&self) -> &'static str {
        "fd-tree"
    }

    fn build_slice(&mut self, rel: &Relation, keys: RangeInclusive<u64>) -> Result<(), BuildError> {
        // `bulk_build` requires key order (`relation_entries` sorts);
        // the FD-Tree stores every tuple reference, i.e. per-tuple
        // duplicate mode.
        *self = FdTree::bulk_build(relation_entries(rel, DuplicateMode::PerTuple, keys));
        Ok(())
    }

    fn probe_into(
        &self,
        key: u64,
        rel: &Relation,
        io: &IoContext,
        sink: &mut dyn MatchSink,
    ) -> Result<ProbeIo, ProbeError> {
        check_relation(rel)?;
        let trefs = self.search_all(key, Some(&io.index));
        Ok(stream_sorted_matches(
            trefs.iter().map(|t| (t.pid(), t.slot())).collect(),
            &io.data,
            sink,
        ))
    }

    /// Override: a first-match probe walks one fence path
    /// ([`FdTree::search`], exactly one page per level) instead of the
    /// duplicate-spill walk of [`FdTree::search_all`].
    fn probe_first(&self, key: u64, rel: &Relation, io: &IoContext) -> Result<Probe, ProbeError> {
        let _span = bftree_obs::span(bftree_obs::SpanKind::Probe);
        check_relation(rel)?;
        let mut result = Probe::default();
        if let Some(tref) = self.search(key, Some(&io.index)) {
            io.data.read_random(tref.pid());
            result.pages_read = 1;
            result.matches.push((tref.pid(), tref.slot()));
        }
        Ok(result)
    }

    fn range_cursor<'c>(
        &'c self,
        lo: u64,
        hi: u64,
        rel: &'c Relation,
        io: &'c IoContext,
    ) -> Result<Box<dyn RangeCursor + 'c>, ProbeError> {
        check_relation(rel)?;
        if lo > hi {
            return Err(ProbeError::InvertedRange { lo, hi });
        }
        let entries = self.range_entries(lo, hi, Some(&io.index));
        Ok(Box::new(PageBatchCursor::new(
            entries.iter().map(|&(_, t)| (t.pid(), t.slot())).collect(),
            &io.data,
            (lo, hi, lo),
            None,
        )))
    }

    fn resume_range_cursor<'c>(
        &'c self,
        cont: &Continuation,
        rel: &'c Relation,
        io: &'c IoContext,
    ) -> Result<Box<dyn RangeCursor + 'c>, ProbeError> {
        check_relation(rel)?;
        // Matches interleave levels in page order, so a key bound
        // cannot prune the re-entry (a small key may sit on a late
        // page of another level): re-run the index query — per-level
        // binary searches plus the span reads — and let the page
        // frontier drop everything the prefix already delivered.
        let entries = self.range_entries(cont.lo(), cont.hi(), Some(&io.index));
        Ok(Box::new(PageBatchCursor::new(
            entries.iter().map(|&(_, t)| (t.pid(), t.slot())).collect(),
            &io.data,
            (cont.lo(), cont.hi(), cont.key()),
            Some((cont.page(), cont.slot())),
        )))
    }

    fn insert(&mut self, key: u64, loc: (PageId, usize), rel: &Relation) -> Result<(), ProbeError> {
        check_relation(rel)?;
        FdTree::insert(self, key, TupleRef::new(loc.0, loc.1));
        Ok(())
    }

    fn delete(&mut self, key: u64, rel: &Relation) -> Result<u64, ProbeError> {
        let marked = mark_dead(self, key, rel)?;
        self.delete_all(key);
        Ok(marked)
    }

    fn size_bytes(&self) -> u64 {
        FdTree::size_bytes(self)
    }

    fn stats(&self) -> IndexStats {
        IndexStats {
            pages: self.total_pages(),
            bytes: FdTree::size_bytes(self),
            height: self.n_levels() + 1,
            entries: self.n_entries(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bftree_storage::tuple::PK_OFFSET;
    use bftree_storage::{Duplicates, HeapFile, TupleLayout};

    fn relation() -> Relation {
        let mut heap = HeapFile::new(TupleLayout::new(256));
        for pk in 0..10_000u64 {
            heap.append_record(pk, pk / 11);
        }
        Relation::new(heap, PK_OFFSET, Duplicates::Unique).unwrap()
    }

    #[test]
    fn probe_and_range_agree_with_heap() {
        let rel = relation();
        let mut tree = FdTree::new();
        AccessMethod::build(&mut tree, &rel).unwrap();
        let io = IoContext::unmetered();
        let p = AccessMethod::probe(&tree, 7_777, &rel, &io).unwrap();
        assert_eq!(p.matches.len(), 1);
        let r = AccessMethod::range_scan(&tree, 100, 199, &rel, &io).unwrap();
        assert_eq!(r.matches.len(), 100);
        assert!(
            io.index.snapshot().device_reads() > 0,
            "levels charge the index device"
        );
    }

    #[test]
    fn delete_all_removes_across_levels() {
        let rel = relation();
        let mut tree = FdTree::new();
        AccessMethod::build(&mut tree, &rel).unwrap();
        // Put a duplicate of an on-flash key into the head too.
        FdTree::insert(&mut tree, 42, TupleRef::new(9_999, 0));
        assert_eq!(tree.delete_all(42), 2);
        assert!(tree.search(42, None).is_none());
    }
}
