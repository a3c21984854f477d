//! [`AccessMethod`] implementation: the BF-Tree behind the unified
//! index interface.
//!
//! `probe_into` plans one key and executes it; `probe_batch` plans a
//! group of keys before it executes any, so the group's heap-page
//! misses overlap (`BfTree::probe_batch_impl`). Both run the same plan
//! and execute steps, so a batch charges, finds and counts exactly
//! what a loop of scalar probes does.

use std::cell::RefCell;
use std::ops::RangeInclusive;

use bftree_access::{
    check_relation, mark_dead, AccessMethod, BuildError, Continuation, IndexStats, MatchSink,
    Probe, ProbeError, ProbeIo, RangeCursor,
};
use bftree_storage::{IoContext, PageId, Relation};

use crate::builder::BfTreeBuilder;
use crate::scan::BfRangeCursor;
use crate::tree::{BfTree, ProbeScratch};

std::thread_local! {
    /// One probe scratch per thread: the trait's probe signatures take
    /// `&self`, so reuse lives here — every probe and every batch's
    /// plans on this thread run allocation-free once the buffers are
    /// warm.
    static SCRATCH: RefCell<ProbeScratch> = RefCell::new(ProbeScratch::default());
}

impl AccessMethod for BfTree {
    fn name(&self) -> &'static str {
        "bf-tree"
    }

    fn build_slice(&mut self, rel: &Relation, keys: RangeInclusive<u64>) -> Result<(), BuildError> {
        // Re-derive duplicate handling from the relation: it is a
        // property of the data, not of the old tree.
        let rebuilt = BfTreeBuilder::default()
            .config(*self.config())
            .duplicates_from_relation()
            .build_slice(rel, keys)?;
        *self = rebuilt;
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
        Ok(SCRATCH
            .with(|scratch| self.probe_sink_impl(key, rel, io, &mut scratch.borrow_mut(), sink)))
    }

    fn probe_batch(
        &self,
        keys: &[u64],
        rel: &Relation,
        io: &IoContext,
    ) -> Result<Vec<Probe>, ProbeError> {
        let mut span = bftree_obs::span(bftree_obs::SpanKind::BatchProbe);
        span.set_detail(keys.len() as u64);
        check_relation(rel)?;
        Ok(SCRATCH.with(|scratch| self.probe_batch_impl(keys, rel, io, &mut scratch.borrow_mut())))
    }

    fn range_cursor<'c>(
        &'c self,
        lo: u64,
        hi: u64,
        rel: &'c Relation,
        io: &'c IoContext,
    ) -> Result<Box<dyn RangeCursor + 'c>, ProbeError> {
        Ok(Box::new(BfRangeCursor::open(self, lo, hi, rel, io, false)?))
    }

    fn resume_range_cursor<'c>(
        &'c self,
        cont: &Continuation,
        rel: &'c Relation,
        io: &'c IoContext,
    ) -> Result<Box<dyn RangeCursor + 'c>, ProbeError> {
        check_relation(rel)?;
        Ok(Box::new(BfRangeCursor::resume(self, cont, rel, io)))
    }

    fn insert(&mut self, key: u64, loc: (PageId, usize), rel: &Relation) -> Result<(), ProbeError> {
        AccessMethod::insert_batch(self, &[(key, loc)], rel)
    }

    fn insert_batch(
        &mut self,
        entries: &[(u64, (PageId, usize))],
        rel: &Relation,
    ) -> Result<(), ProbeError> {
        check_relation(rel)?;
        let batch: Vec<(u64, PageId)> = entries.iter().map(|&(key, (pid, _))| (key, pid)).collect();
        BfTree::insert_batch(self, &batch, Some(rel.heap()), rel.attr());
        Ok(())
    }

    /// Marks the key's live tuples dead (an uncharged probe finds
    /// them), then counts the delete in the leaves whose filters name
    /// them (the inherent `BfTree::delete` counter step).
    fn delete(&mut self, key: u64, rel: &Relation) -> Result<u64, ProbeError> {
        let marked = mark_dead(self, key, rel)?;
        if marked > 0 {
            BfTree::delete(self, key);
        }
        Ok(marked)
    }

    fn size_bytes(&self) -> u64 {
        BfTree::size_bytes(self)
    }

    fn stats(&self) -> IndexStats {
        IndexStats {
            pages: self.total_pages(),
            bytes: BfTree::size_bytes(self),
            height: self.height(),
            entries: self.n_keys(),
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
        for pk in 0..5_000u64 {
            heap.append_record(pk, pk / 11);
        }
        Relation::new(heap, PK_OFFSET, Duplicates::Unique).unwrap()
    }

    #[test]
    fn trait_probe_matches_inherent() {
        let rel = relation();
        let tree = BfTree::builder().fpp(1e-4).build(&rel).unwrap();
        let io = IoContext::unmetered();
        let am: &dyn AccessMethod = &tree;
        let hit = am.probe(4_242, &rel, &io).unwrap();
        assert_eq!(hit.matches.len(), 1);
        let miss = am.probe(99_999_999, &rel, &io).unwrap();
        assert!(!miss.found());
    }

    #[test]
    fn trait_build_rebuilds_in_place() {
        let rel = relation();
        let mut tree = BfTree::builder().fpp(1e-3).empty(&rel).unwrap();
        let am: &mut dyn AccessMethod = &mut tree;
        am.build(&rel).unwrap();
        assert!(am.stats().entries == 5_000);
    }

    #[test]
    fn trait_range_scan_rejects_inverted_ranges() {
        let rel = relation();
        let tree = BfTree::builder().build(&rel).unwrap();
        let io = IoContext::unmetered();
        let err = AccessMethod::range_scan(&tree, 10, 5, &rel, &io).unwrap_err();
        assert_eq!(err, ProbeError::InvertedRange { lo: 10, hi: 5 });
    }
}
