//! [`AccessMethod`] implementation: the B+-Tree baseline behind the
//! unified index interface.
//!
//! The probe logic that used to live in the bench harness's
//! `run_btree` — the §6.3 duplicate-run walk under
//! [`DuplicateMode::FirstRef`], the sorted-batch page fetches under
//! [`DuplicateMode::PerTuple`] — lives here, rethreaded onto the
//! streaming read API: probes drive a [`MatchSink`] (and stop
//! fetching the moment it breaks), range scans are pull-based
//! cursors. The materializing `probe`/`range_scan` forms are the
//! trait's default wrappers over these cores.

use bftree_access::{
    check_relation, scan_page_in_range, stream_sorted_matches, AccessMethod, BuildError,
    Continuation, IndexStats, MatchSink, PageBatchCursor, Probe, ProbeError, ProbeIo, RangeCursor,
    ScanIo,
};
use bftree_storage::tuple::AttrOffset;
use bftree_storage::{Duplicates, HeapFile, IoContext, PageDevice, PageId, Relation};

use crate::node::{BTreeConfig, DuplicateMode};
use crate::tree::BPlusTree;
use crate::tupleref::TupleRef;

/// The duplicate mode a relation's layout calls for: one entry per
/// distinct key when duplicates are contiguous (the paper's Table-2
/// ATT1 sizing), one entry per tuple otherwise.
fn mode_for(rel: &Relation) -> DuplicateMode {
    match rel.duplicates() {
        Duplicates::Contiguous => DuplicateMode::FirstRef,
        Duplicates::Unique | Duplicates::Scattered => DuplicateMode::PerTuple,
    }
}

/// Collect `rel`'s `(key, TupleRef)` entries in `(key, pid, slot)`
/// order, deduped to first references under
/// [`DuplicateMode::FirstRef`] — the one home of the bulk-load entry
/// semantics, shared by the trait build, the bench harness's
/// explicit-mode builder, and the FD-Tree's build.
pub fn relation_entries(rel: &Relation, mode: DuplicateMode) -> Vec<(u64, TupleRef)> {
    let mut entries: Vec<(u64, TupleRef)> = rel
        .heap()
        .iter_attr(rel.attr())
        .map(|(pid, slot, key)| (key, TupleRef::new(pid, slot)))
        .collect();
    entries.sort_by_key(|&(k, r)| (k, r.pid(), r.slot()));
    if mode == DuplicateMode::FirstRef {
        entries.dedup_by_key(|&mut (k, _)| k);
    }
    entries
}

/// Stream `pid`'s slots matching `key` into `sink`.
fn push_page_matches(
    heap: &HeapFile,
    pid: PageId,
    attr: AttrOffset,
    key: u64,
    sink: &mut dyn MatchSink,
) -> std::ops::ControlFlow<()> {
    let mut slots = Vec::new();
    heap.scan_page_for(pid, attr, key, &mut slots);
    for slot in slots {
        sink.push(pid, slot)?;
    }
    std::ops::ControlFlow::Continue(())
}

/// The FirstRef-mode range cursor: duplicates are contiguous in the
/// heap, so after the index names the first page the scan is a pure
/// page walk guided by each page's attribute range — which is what
/// makes **resume index-free**: the continuation's page frontier is
/// all the state there is.
#[must_use]
struct RunCursor<'c> {
    /// Consulted per distinct key: a deleted key's tuples stay in the
    /// heap, and only the index knows it is gone.
    tree: &'c BPlusTree,
    /// The last key looked up, and whether the index still names it.
    live: Option<(u64, bool)>,
    heap: &'c HeapFile,
    attr: AttrOffset,
    data: &'c PageDevice,
    lo: u64,
    hi: u64,
    /// Next page to fetch (`None` once exhausted).
    pid: Option<PageId>,
    prev: Option<PageId>,
    /// Sub-page resume point.
    resume: Option<(PageId, usize)>,
    buf: Vec<(PageId, usize)>,
    loaded: bool,
    /// The loaded page ends past `hi` (the run stops after it).
    last_of_run: bool,
    counters: ScanIo,
}

impl<'c> RunCursor<'c> {
    fn new(
        tree: &'c BPlusTree,
        start: Option<PageId>,
        lo: u64,
        hi: u64,
        rel: &'c Relation,
        io: &'c IoContext,
        resume: Option<(PageId, usize)>,
    ) -> Self {
        Self {
            tree,
            live: None,
            heap: rel.heap(),
            attr: rel.attr(),
            data: &io.data,
            lo,
            hi,
            pid: start,
            prev: None,
            resume,
            buf: Vec::new(),
            loaded: false,
            last_of_run: false,
            counters: ScanIo::default(),
        }
    }
}

impl RangeCursor for RunCursor<'_> {
    fn next_page_matches(&mut self) -> Option<&[(PageId, usize)]> {
        if self.loaded {
            return Some(&self.buf);
        }
        let pid = self.pid?;
        if pid >= self.heap.page_count() {
            self.pid = None;
            return None;
        }
        let Some((page_lo, page_hi)) = self.heap.page_attr_range(pid, self.attr) else {
            self.pid = None;
            return None;
        };
        if page_lo > self.hi {
            self.pid = None;
            return None;
        }
        match self.prev {
            Some(q) if pid == q + 1 => self.data.read_seq(pid),
            _ => self.data.read_random(pid),
        }
        self.counters.pages_read += 1;
        self.buf.clear();
        let (heap, attr, tree) = (self.heap, self.attr, self.tree);
        scan_page_in_range(
            heap,
            attr,
            pid,
            self.lo,
            self.hi,
            self.resume,
            &mut self.buf,
        );
        let mut live = self.live;
        self.buf.retain(|&(p, slot)| {
            let key = heap.attr(p, slot, attr);
            match live {
                Some((k, named)) if k == key => named,
                _ => {
                    let named = tree.search(key, None).is_some();
                    live = Some((key, named));
                    named
                }
            }
        });
        self.live = live;
        if self.buf.is_empty() {
            self.counters.overhead_pages += 1;
        }
        self.last_of_run = page_hi > self.hi;
        self.loaded = true;
        Some(&self.buf)
    }

    fn advance(&mut self) {
        if !self.loaded {
            return;
        }
        self.loaded = false;
        self.buf.clear();
        let pid = self.pid.expect("loaded implies a frontier page");
        self.prev = Some(pid);
        self.pid = (!self.last_of_run).then(|| pid + 1);
    }

    fn continuation(&self) -> Option<Continuation> {
        let page = self.pid?;
        let slot = match self.resume {
            Some((p, s)) if p == page => s,
            _ => 0,
        };
        // FirstRef resume never re-descends; `key` is informational.
        Some(Continuation::from_parts(
            self.lo, self.hi, self.lo, page, slot,
        ))
    }

    fn io(&self) -> ScanIo {
        self.counters
    }
}

impl BPlusTree {
    /// The per-tuple match list of `[lo, hi]` as a page-sorted
    /// `(page, slot)` vector (index I/O charged here).
    fn per_tuple_range_matches(&self, lo: u64, hi: u64, io: &IoContext) -> Vec<(PageId, usize)> {
        self.range(lo, hi, Some(&io.index))
            .into_iter()
            .map(|(_, t)| (t.pid(), t.slot()))
            .collect()
    }
}

impl AccessMethod for BPlusTree {
    fn name(&self) -> &'static str {
        "b+tree"
    }

    fn build(&mut self, rel: &Relation) -> Result<(), BuildError> {
        let mode = mode_for(rel);
        let config = BTreeConfig {
            page_size: rel.heap().page_size(),
            duplicates: mode,
            ..*self.config()
        };
        *self = BPlusTree::bulk_build(config, relation_entries(rel, mode));
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
        let heap = rel.heap();
        let attr = rel.attr();
        let mut stats = ProbeIo::default();
        if self.config().duplicates == DuplicateMode::FirstRef {
            // Duplicates are contiguous: read forward from the first
            // reference's page while pages still contain the key
            // (§6.3: the probe "will read all the consecutive tuples
            // that have the same value as the search key"), stopping
            // early if the sink does.
            if let Some(tref) = self.search(key, Some(&io.index)) {
                let mut pid = tref.pid();
                io.data.read_random(pid);
                stats.pages_read += 1;
                if push_page_matches(heap, pid, attr, key, sink).is_break() {
                    return Ok(stats);
                }
                while pid + 1 < heap.page_count() {
                    match heap.page_attr_range(pid + 1, attr) {
                        Some((lo, _)) if lo <= key => {
                            pid += 1;
                            io.data.read_seq(pid);
                            stats.pages_read += 1;
                            if push_page_matches(heap, pid, attr, key, sink).is_break() {
                                return Ok(stats);
                            }
                        }
                        _ => break,
                    }
                }
            }
        } else {
            // Per-tuple mode: the index names every match; the heap
            // fetch is a sorted page batch, charged page by page so an
            // early-breaking sink never pays for the tail.
            stats = stream_sorted_matches(
                self.search_all(key, Some(&io.index))
                    .into_iter()
                    .map(|t| (t.pid(), t.slot()))
                    .collect(),
                &io.data,
                sink,
            );
        }
        Ok(stats)
    }

    /// Override: a first-match probe needs only [`BPlusTree::search`]
    /// (one descent, one data page), not the duplicate-run machinery
    /// of the streaming core.
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
        if self.config().duplicates == DuplicateMode::FirstRef {
            // The tree stores first references only; duplicates are
            // contiguous in the heap, so the scan is a page walk from
            // the first in-range reference until a page starts past
            // `hi`. `seek_ge` charges one descent, not the whole
            // range's leaf walk — cursor creation stays O(height)
            // however wide the range is.
            let start = self.seek_ge(lo, hi, Some(&io.index)).map(|(_, t)| t.pid());
            Ok(Box::new(RunCursor::new(self, start, lo, hi, rel, io, None)))
        } else {
            let matches = self.per_tuple_range_matches(lo, hi, io);
            Ok(Box::new(PageBatchCursor::new(
                matches,
                &io.data,
                (lo, hi, lo),
                None,
            )))
        }
    }

    fn resume_range_cursor<'c>(
        &'c self,
        cont: &Continuation,
        rel: &'c Relation,
        io: &'c IoContext,
    ) -> Result<Box<dyn RangeCursor + 'c>, ProbeError> {
        check_relation(rel)?;
        let (lo, hi) = (cont.lo(), cont.hi());
        let frontier = Some((cont.page(), cont.slot()));
        if self.config().duplicates == DuplicateMode::FirstRef {
            // Contiguity makes resume index-free: re-enter the page
            // walk at the frontier page, no descent, no prefix pages.
            Ok(Box::new(RunCursor::new(
                self,
                Some(cont.page()),
                lo,
                hi,
                rel,
                io,
                frontier,
            )))
        } else {
            let matches = self.per_tuple_range_matches(lo, hi, io);
            Ok(Box::new(PageBatchCursor::new(
                matches,
                &io.data,
                (lo, hi, cont.key()),
                frontier,
            )))
        }
    }

    fn insert(&mut self, key: u64, loc: (PageId, usize), rel: &Relation) -> Result<(), ProbeError> {
        check_relation(rel)?;
        BPlusTree::insert(self, key, TupleRef::new(loc.0, loc.1), None);
        Ok(())
    }

    fn delete(&mut self, key: u64, rel: &Relation) -> Result<u64, ProbeError> {
        check_relation(rel)?;
        let trefs = self.search_all(key, None);
        let mut n = 0u64;
        for tref in trefs {
            if BPlusTree::delete(self, key, tref, None) {
                n += 1;
            }
        }
        Ok(n)
    }

    fn size_bytes(&self) -> u64 {
        BPlusTree::size_bytes(self)
    }

    fn stats(&self) -> IndexStats {
        IndexStats {
            pages: self.total_pages(),
            bytes: BPlusTree::size_bytes(self),
            height: self.height(),
            entries: self.n_entries(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bftree_access::RangeCursorExt;
    use bftree_storage::tuple::{ATT1_OFFSET, PK_OFFSET};
    use bftree_storage::TupleLayout;

    fn relation(duplicates: Duplicates) -> Relation {
        let mut heap = HeapFile::new(TupleLayout::new(256));
        for pk in 0..3_000u64 {
            heap.append_record(pk, pk / 7);
        }
        let attr = if duplicates == Duplicates::Unique {
            PK_OFFSET
        } else {
            ATT1_OFFSET
        };
        Relation::new(heap, attr, duplicates).unwrap()
    }

    fn built(rel: &Relation) -> BPlusTree {
        let mut tree = BPlusTree::new(BTreeConfig::paper_default());
        AccessMethod::build(&mut tree, rel).unwrap();
        tree
    }

    #[test]
    fn firstref_probe_returns_every_duplicate() {
        let rel = relation(Duplicates::Contiguous);
        let tree = built(&rel);
        assert_eq!(tree.config().duplicates, DuplicateMode::FirstRef);
        let io = IoContext::unmetered();
        let p = AccessMethod::probe(&tree, 100, &rel, &io).unwrap();
        assert_eq!(p.matches.len(), 7, "ATT1 cardinality is 7");
    }

    #[test]
    fn pertuple_probe_first_reads_one_page() {
        let rel = relation(Duplicates::Unique);
        let tree = built(&rel);
        let io = IoContext::unmetered();
        let p = tree.probe_first(1_234, &rel, &io).unwrap();
        assert_eq!(p.matches.len(), 1);
        assert_eq!(p.pages_read, 1);
        assert_eq!(io.data.snapshot().device_reads(), 1);
    }

    #[test]
    fn range_scan_agrees_across_modes() {
        let io = IoContext::unmetered();
        let rel_u = relation(Duplicates::Unique);
        let rel_c = relation(Duplicates::Contiguous);
        let per_tuple = built(&rel_u);
        let first_ref = built(&rel_c);
        // Keys 10..=20 of ATT1 cover pks 70..=146 — 77 tuples.
        let r = AccessMethod::range_scan(&first_ref, 10, 20, &rel_c, &io).unwrap();
        assert_eq!(r.matches.len(), 77);
        // The same tuples through the unique PK index.
        let r = AccessMethod::range_scan(&per_tuple, 70, 146, &rel_u, &io).unwrap();
        assert_eq!(r.matches.len(), 77);
    }

    #[test]
    fn firstref_cursor_resumes_without_index_io() {
        let rel = relation(Duplicates::Contiguous);
        let tree = built(&rel);
        let io = IoContext::unmetered();
        let full = AccessMethod::range_scan(&tree, 50, 120, &rel, &io).unwrap();

        let mut cursor = tree.range_cursor(50, 120, &rel, &io).unwrap().limit(40);
        let mut head = Vec::new();
        while let Some(page) = cursor.next_page_matches() {
            head.extend_from_slice(page);
            cursor.advance();
        }
        assert_eq!(head.len(), 40);
        let token = cursor.continuation().expect("remainder pending");

        let mut rest_cursor = tree.resume_range_cursor(&token, &rel, &io).unwrap();
        let mut rest = Vec::new();
        while let Some(page) = rest_cursor.next_page_matches() {
            rest.extend_from_slice(page);
            rest_cursor.advance();
        }
        head.extend(rest);
        assert_eq!(head, full.matches, "prefix + resume == full scan");
    }
}
