//! [`AccessMethod`] implementation: the in-memory hash index behind
//! the unified index interface.
//!
//! The index itself always resides in memory (as in the paper's
//! Figures 5(b)/8(b)), so probes charge nothing to `io.index`; only
//! the data-page fetches they trigger hit `io.data`.

use std::ops::RangeInclusive;

use bftree_access::{
    check_relation, mark_dead, stream_sorted_matches, AccessMethod, BuildError, Continuation,
    IndexStats, MatchSink, PageBatchCursor, Probe, ProbeError, ProbeIo, RangeCursor,
};
use bftree_btree::TupleRef;
use bftree_storage::{IoContext, PageId, Relation};

use crate::HashIndex;

/// Largest `hi - lo` span a hash range scan will enumerate: hashing
/// destroys order, so ranges are answered by probing every key in the
/// interval — only sensible for small, dense domains.
const RANGE_ENUMERATION_CAP: u64 = 1 << 20;

impl HashIndex {
    /// Enumerate `[lo, hi]` (the hash index's only range strategy)
    /// into a match list, or fail for non-enumerable spans.
    fn enumerate_range(&self, lo: u64, hi: u64) -> Result<Vec<(PageId, usize)>, ProbeError> {
        if lo > hi {
            return Err(ProbeError::InvertedRange { lo, hi });
        }
        if hi - lo >= RANGE_ENUMERATION_CAP {
            return Err(ProbeError::Unsupported {
                what: "hash-index range scan over a non-enumerable interval",
            });
        }
        let mut matches: Vec<(PageId, usize)> = Vec::new();
        for key in lo..=hi {
            matches.extend(self.get_all(key).iter().map(|t| (t.pid(), t.slot())));
        }
        Ok(matches)
    }
}

impl AccessMethod for HashIndex {
    fn name(&self) -> &'static str {
        "hash"
    }

    fn build_slice(&mut self, rel: &Relation, keys: RangeInclusive<u64>) -> Result<(), BuildError> {
        let heap = rel.heap();
        *self = HashIndex::build(
            heap.iter_attr(rel.attr())
                .filter(|&(pid, slot, key)| keys.contains(&key) && heap.is_live(pid, slot))
                .map(|(pid, slot, key)| (key, TupleRef::new(pid, slot))),
            self.seed(),
        );
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
        Ok(stream_sorted_matches(
            self.get_all(key)
                .iter()
                .map(|t| (t.pid(), t.slot()))
                .collect(),
            &io.data,
            sink,
        ))
    }

    /// Override: one bucket lookup, one data page — no need to sort
    /// the full duplicate set the streaming core would.
    fn probe_first(&self, key: u64, rel: &Relation, io: &IoContext) -> Result<Probe, ProbeError> {
        let _span = bftree_obs::span(bftree_obs::SpanKind::Probe);
        check_relation(rel)?;
        let mut result = Probe::default();
        if let Some(tref) = self.get(key) {
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
        let matches = self.enumerate_range(lo, hi)?;
        Ok(Box::new(PageBatchCursor::new(
            matches,
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
        // Hashing scatters keys across pages, so the whole interval
        // is re-enumerated (pure in-memory work) and the data-page
        // frontier drops everything already delivered.
        let matches = self.enumerate_range(cont.lo(), cont.hi())?;
        Ok(Box::new(PageBatchCursor::new(
            matches,
            &io.data,
            (cont.lo(), cont.hi(), cont.key()),
            Some((cont.page(), cont.slot())),
        )))
    }

    fn insert(&mut self, key: u64, loc: (PageId, usize), rel: &Relation) -> Result<(), ProbeError> {
        check_relation(rel)?;
        HashIndex::insert(self, key, TupleRef::new(loc.0, loc.1));
        Ok(())
    }

    fn delete(&mut self, key: u64, rel: &Relation) -> Result<u64, ProbeError> {
        let marked = mark_dead(self, key, rel)?;
        for tref in self.get_all(key) {
            self.remove(key, tref);
        }
        Ok(marked)
    }

    fn size_bytes(&self) -> u64 {
        HashIndex::size_bytes(self)
    }

    fn stats(&self) -> IndexStats {
        IndexStats {
            pages: HashIndex::size_bytes(self).div_ceil(4096),
            bytes: HashIndex::size_bytes(self),
            height: 1,
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
        for pk in 0..2_000u64 {
            heap.append_record(pk, pk / 11);
        }
        Relation::new(heap, PK_OFFSET, Duplicates::Unique).unwrap()
    }

    #[test]
    fn probes_are_memory_resident() {
        let rel = relation();
        let mut idx = HashIndex::with_capacity(16, 0xCAB1E);
        AccessMethod::build(&mut idx, &rel).unwrap();
        let io = IoContext::unmetered();
        let p = AccessMethod::probe(&idx, 1_234, &rel, &io).unwrap();
        assert_eq!(p.matches.len(), 1);
        assert_eq!(
            io.index.snapshot().device_reads(),
            0,
            "hash probes are free"
        );
        assert_eq!(io.data.snapshot().device_reads(), 1);
    }

    #[test]
    fn range_scan_enumerates_small_intervals_only() {
        let rel = relation();
        let mut idx = HashIndex::with_capacity(16, 0);
        AccessMethod::build(&mut idx, &rel).unwrap();
        let io = IoContext::unmetered();
        let r = AccessMethod::range_scan(&idx, 10, 20, &rel, &io).unwrap();
        assert_eq!(r.matches.len(), 11);
        let err = AccessMethod::range_scan(&idx, 0, u64::MAX - 1, &rel, &io).unwrap_err();
        assert!(matches!(err, ProbeError::Unsupported { .. }));
    }
}
