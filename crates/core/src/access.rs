//! [`AccessMethod`] implementation: the BF-Tree behind the unified
//! index interface.

use std::cell::RefCell;

use bftree_access::{
    check_relation, AccessMethod, BuildError, Continuation, IndexStats, MatchSink, ProbeError,
    ProbeIo, RangeCursor,
};
use bftree_storage::{IoContext, PageId, Relation};

use crate::builder::BfTreeBuilder;
use crate::scan::BfRangeCursor;
use crate::tree::{BfTree, ProbeScratch};

std::thread_local! {
    /// One probe scratch per thread: the trait's probe signatures take
    /// `&self`, so reuse lives here — every probe on this thread runs
    /// allocation-free once the buffers are warm.
    static SCRATCH: RefCell<ProbeScratch> = RefCell::new(ProbeScratch::default());
}

impl AccessMethod for BfTree {
    fn name(&self) -> &'static str {
        "bf-tree"
    }

    fn build(&mut self, rel: &Relation) -> Result<(), BuildError> {
        // Re-derive duplicate handling from the relation: it is a
        // property of the data, not of the old tree.
        let rebuilt = BfTreeBuilder::default()
            .config(*self.config())
            .duplicates_from_relation()
            .build(rel)?;
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
        let r = SCRATCH.with(|scratch| {
            self.probe_sink_impl(
                key,
                rel.heap(),
                rel.attr(),
                Some(&io.index),
                Some(&io.data),
                &mut scratch.borrow_mut(),
                sink,
            )
        });
        Ok(ProbeIo {
            pages_read: r.pages_read,
            false_reads: r.false_reads,
        })
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
        Ok(Box::new(BfRangeCursor::open(self, lo, hi, rel, io)))
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
        check_relation(rel)?;
        BfTree::insert(self, key, loc.0, Some(rel.heap()), rel.attr());
        Ok(())
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

    fn delete(&mut self, key: u64, rel: &Relation) -> Result<u64, ProbeError> {
        check_relation(rel)?;
        Ok(BfTree::delete(self, key) as u64)
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
