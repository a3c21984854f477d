//! Range scans over BF-Tree partitions (§7, Figure 13).
//!
//! A BF-leaf corresponds to one partition of the main data. A range
//! scan touches *middle* partitions entirely and *boundary* partitions
//! partially; reading boundary partitions whole is the overhead §7
//! sets out to cut.
//!
//! The scan core is the pull-based [`BfRangeCursor`]: the partition
//! walk paused between data pages, with a resumable continuation
//! frontier. `AccessMethod::range_scan` is its full drain. On an
//! ordered relation (a `FirstPageOnly` tree) the cursor reads only
//! pages that can hold a key of the range: it finds `lo`'s first page
//! by probing the first leaf's filters and stops at the first page
//! whose last key is above `hi`. On a partitioned relation
//! (`AllCoveringPages`) it reads the boundary partitions whole.
//!
//! [`BfTree::scan_range_probing`] is §7's optimization as published —
//! enumerate every boundary value, probe the BFs, fetch the union of
//! candidate pages — and is what Figure 13 measures.

use bftree_access::{scan_page_in_range, Continuation, RangeCursor, ScanIo};
use bftree_bloom::hash::KeyFingerprint;
use bftree_storage::tuple::AttrOffset;
use bftree_storage::{HeapFile, IoContext, PageDevice, PageId, Relation};

use crate::config::DuplicateHandling;
use crate::leaf::BfLeaf;
use crate::tree::BfTree;

/// Outcome of a range scan.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RangeScanResult {
    /// Matching tuples as `(page id, slot)`, in page order.
    pub matches: Vec<(PageId, usize)>,
    /// Data pages read.
    pub pages_read: u64,
    /// Data pages read that contained no tuple in range (the boundary
    /// overhead).
    pub overhead_pages: u64,
    /// Leaves (partitions) visited.
    pub leaves_visited: u64,
}

/// The BF-Tree's native [`RangeCursor`]: the partition walk, paused
/// between data pages.
///
/// Creation charges the index descent to the first overlapping leaf;
/// each [`RangeCursor::next_page_matches`] charges one data page (plus
/// the leaf read whenever the walk enters the next partition), so
/// early termination — a `limit(k)` pagination pull — stops the
/// scan's I/O at a bounded prefix of the range. A full drain performs,
/// charge for charge in the same order, what the materializing
/// `AccessMethod::range_scan` wrapper reports.
///
/// On a `FirstPageOnly` tree (an ordered relation) the walk reads only
/// pages that can hold a key of `[lo, hi]`:
/// - **head**: a fresh cursor enumerates `v = lo, lo + 1, …` in the
///   first leaf, sweeps its filters for each, and reads the candidate
///   pages in ascending order until one holds `v`. Only a run's first
///   page is in the filters, so that page is where the range starts;
///   the walk begins there. Candidates that do not hold `v` are false
///   positives, charged as random reads and counted as overhead. The
///   enumeration stops after as many values as there are pages it
///   could skip (past that, the walk starts at the leaf's first page),
///   and a leaf with no hit for any value of the range is skipped
///   without a data read;
/// - **tail**: the walk ends after the first page whose last key is
///   above `hi`.
///
/// An `AllCoveringPages` tree (a partitioned relation) walks every
/// overlapping partition whole. Either way, a tuple whose key the
/// leaf has tombstoned is dropped, the rule a probe applies.
///
/// The continuation frontier is `(leaf min key, next data page)`;
/// resuming re-descends to that leaf and re-enters the page walk at
/// exactly the frontier page (no head seek), so the consumed prefix of
/// the range is never re-read from the data device.
#[must_use]
pub struct BfRangeCursor<'c> {
    tree: &'c BfTree,
    rel: &'c Relation,
    io: &'c IoContext,
    lo: u64,
    hi: u64,
    /// Next leaf to enter (not yet charged).
    pending: Option<u32>,
    /// Entered leaf: `(arena idx, next page, last page)`.
    current: Option<(u32, PageId, PageId)>,
    /// Cross-leaf page dedup frontier (overlapping leaf ranges), also
    /// the resume frontier: pages below it are never read.
    frontier: Option<PageId>,
    /// Sub-page resume point: skip slots below it on that one page.
    resume: Option<(PageId, usize)>,
    /// The relation is ordered on the key (a `FirstPageOnly` tree).
    ordered: bool,
    /// The head seek is still due (fresh ordered cursors only).
    seek: bool,
    /// The loaded page's last key is above `hi`: consuming it ends an
    /// ordered walk.
    past_hi: bool,
    buf: Vec<(PageId, usize)>,
    loaded: bool,
    done: bool,
    counters: ScanIo,
}

impl<'c> BfRangeCursor<'c> {
    pub(crate) fn open(
        tree: &'c BfTree,
        lo: u64,
        hi: u64,
        rel: &'c Relation,
        io: &'c IoContext,
    ) -> Self {
        let mut cursor = Self::with_frontier(tree, lo, lo, hi, rel, io, None);
        cursor.seek = cursor.ordered;
        cursor
    }

    pub(crate) fn resume(
        tree: &'c BfTree,
        cont: &Continuation,
        rel: &'c Relation,
        io: &'c IoContext,
    ) -> Self {
        Self::with_frontier(
            tree,
            cont.key(),
            cont.lo(),
            cont.hi(),
            rel,
            io,
            Some((cont.page(), cont.slot())),
        )
    }

    fn with_frontier(
        tree: &'c BfTree,
        entry_key: u64,
        lo: u64,
        hi: u64,
        rel: &'c Relation,
        io: &'c IoContext,
        resume: Option<(PageId, usize)>,
    ) -> Self {
        let pending = tree.first_overlapping_leaf(entry_key, Some(&io.index));
        Self {
            tree,
            rel,
            io,
            lo,
            hi,
            pending,
            current: None,
            frontier: resume.map(|(page, _)| page),
            resume,
            ordered: tree.config().duplicates == DuplicateHandling::FirstPageOnly,
            seek: false,
            past_hi: false,
            buf: Vec::new(),
            loaded: false,
            done: pending.is_none(),
            counters: ScanIo::default(),
        }
    }

    /// Fetch page `pid` of leaf `leaf_idx`'s walk: one sequential read
    /// (the partition walk is a sequential sweep).
    ///
    /// An ordered page whose first and last keys both lie in `[lo, hi]`
    /// holds nothing but matches: unless a tombstone could drop one, it
    /// is taken whole from its two end keys, without reading the tuples
    /// between them.
    fn read_page(&mut self, leaf_idx: u32, pid: PageId) {
        self.io.data.read_seq(pid);
        self.counters.pages_read += 1;
        self.buf.clear();
        let (heap, attr) = (self.rel.heap(), self.rel.attr());
        // A key above this leaf's range sits on the page it shares with
        // its right sibling (a split boundary); that sibling owns the
        // key's tombstone.
        let leaf = self.tree.leaf(leaf_idx);
        let sibling = leaf.next.map(|n| self.tree.leaf(n));
        let tombstones = !leaf.deleted.is_empty() || sibling.is_some_and(|s| !s.deleted.is_empty());
        let n = heap.tuples_in_page(pid);
        let ends =
            (self.ordered && n > 0).then(|| (heap.attr(pid, 0, attr), heap.attr(pid, n - 1, attr)));
        match ends {
            Some((first, last)) if !tombstones && first >= self.lo && last <= self.hi => {
                let skip = match self.resume {
                    Some((p, slot)) if p == pid => slot,
                    _ => 0,
                };
                self.buf.extend((skip..n).map(|slot| (pid, slot)));
            }
            _ => {
                scan_page_in_range(
                    heap,
                    attr,
                    pid,
                    self.lo,
                    self.hi,
                    self.resume,
                    &mut self.buf,
                );
                if tombstones {
                    self.buf.retain(|&(p, slot)| {
                        let key = heap.attr(p, slot, attr);
                        let owner = match sibling {
                            Some(s) if key > leaf.max_key => s,
                            _ => leaf,
                        };
                        !owner.is_deleted(key)
                    });
                }
            }
        }
        if self.buf.is_empty() {
            self.counters.overhead_pages += 1;
        }
        self.past_hi = ends.is_some_and(|(_, last)| last > self.hi);
    }

    /// The head seek in `leaf`, whose walk would read `[from, last]`:
    /// the page the walk starts on, or `None` when the leaf holds no
    /// key of the range.
    fn seek(&mut self, leaf: &BfLeaf, from: PageId, last: PageId) -> Option<PageId> {
        let (heap, attr) = (self.rel.heap(), self.rel.attr());
        let end = self.hi.min(leaf.max_key);
        // One sweep costs less than the page read it can save.
        let mut budget = (last + 1).saturating_sub(from);
        let (mut pages, mut buckets) = (Vec::new(), Vec::new());
        for v in self.lo.max(leaf.min_key)..=end {
            if budget == 0 {
                return Some(from);
            }
            budget -= 1;
            pages.clear();
            let fp = KeyFingerprint::new(&v, self.tree.config().seed);
            leaf.matching_pages_fp(&fp, &mut pages, &mut buckets);
            for &pid in pages.iter().filter(|&&p| (from..=last).contains(&p)) {
                if (0..heap.tuples_in_page(pid)).any(|slot| heap.attr(pid, slot, attr) == v) {
                    return Some(pid);
                }
                self.io.data.read_random(pid);
                self.counters.pages_read += 1;
                self.counters.overhead_pages += 1;
            }
        }
        None
    }
}

impl RangeCursor for BfRangeCursor<'_> {
    fn next_page_matches(&mut self) -> Option<&[(PageId, usize)]> {
        if self.done {
            return None;
        }
        if self.loaded {
            return Some(&self.buf);
        }
        loop {
            if let Some((leaf_idx, next, last)) = self.current {
                if next <= last {
                    self.read_page(leaf_idx, next);
                    self.loaded = true;
                    return Some(&self.buf);
                }
                // Partition exhausted: move to the right sibling. The
                // frontier only ever advances — on a resume whose
                // descent landed left of the token's partition (a
                // duplicate run spanning a leaf boundary), the token's
                // page frontier is AHEAD of this leaf's range and must
                // survive the skip, or already-delivered pages would
                // be re-read and re-delivered.
                let leaf = self.tree.leaf(leaf_idx);
                self.frontier = Some(
                    self.frontier
                        .map_or(leaf.max_pid + 1, |f| f.max(leaf.max_pid + 1)),
                );
                self.pending = leaf.next;
                self.current = None;
            }
            let Some(i) = self.pending.take() else {
                self.done = true;
                return None;
            };
            let leaf = self.tree.leaf(i);
            if leaf.n_keys > 0 && leaf.min_key > self.hi {
                self.done = true;
                return None;
            }
            self.io.index.read_random(BfTree::leaf_page_id(i));
            let mut from = self.frontier.map_or(leaf.min_pid, |n| n.max(leaf.min_pid));
            let last = leaf
                .max_pid
                .min(self.rel.heap().page_count().saturating_sub(1));
            if std::mem::take(&mut self.seek) {
                match self.seek(leaf, from, last) {
                    Some(start) => from = start,
                    // Nothing of the range here. The frontier stays put:
                    // the sibling may share this leaf's last page.
                    None => {
                        self.pending = leaf.next;
                        continue;
                    }
                }
            }
            self.current = Some((i, from, last));
        }
    }

    fn advance(&mut self) {
        if !self.loaded {
            return;
        }
        self.loaded = false;
        self.buf.clear();
        if let Some((_, next, _)) = &mut self.current {
            *next += 1;
        }
        self.done = self.past_hi;
    }

    fn continuation(&self) -> Option<Continuation> {
        if self.done {
            return None;
        }
        let (leaf_idx, page) = match (self.current, self.pending) {
            // Mid-partition: resume at the next unconsumed page.
            (Some((i, next, last)), _) if next <= last => (i, next),
            // Partition drained: resume past its page range (never
            // behind the standing frontier — see the monotone update
            // in `next_page_matches`).
            (Some((i, _, _)), _) => (
                i,
                self.frontier.map_or(self.tree.leaf(i).max_pid + 1, |f| {
                    f.max(self.tree.leaf(i).max_pid + 1)
                }),
            ),
            // Not yet entered (fresh or between leaves).
            (None, Some(i)) => (
                i,
                self.frontier.map_or(self.tree.leaf(i).min_pid, |n| {
                    n.max(self.tree.leaf(i).min_pid)
                }),
            ),
            (None, None) => return None,
        };
        let leaf = self.tree.leaf(leaf_idx);
        let key = leaf.min_key.max(self.lo).min(self.hi);
        let slot = match self.resume {
            Some((p, s)) if p == page => s,
            _ => 0,
        };
        Some(Continuation::from_parts(self.lo, self.hi, key, page, slot))
    }

    fn io(&self) -> ScanIo {
        self.counters
    }
}

impl BfTree {
    /// The §7 boundary-probing range scan as published (Figure 13):
    /// every value of a boundary partition's share of the range is
    /// probed (capped at `max_enumeration` enumerated keys per
    /// boundary leaf) and the union of candidate pages fetched, false
    /// positives included; middle partitions are read whole.
    pub fn scan_range_probing(
        &self,
        lo: u64,
        hi: u64,
        rel: &Relation,
        io: &IoContext,
        max_enumeration: u64,
    ) -> RangeScanResult {
        self.range_scan_probing_impl(
            lo,
            hi,
            rel.heap(),
            rel.attr(),
            Some(&io.index),
            Some(&io.data),
            max_enumeration,
        )
    }

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn range_scan_probing_impl(
        &self,
        lo: u64,
        hi: u64,
        heap: &HeapFile,
        attr: AttrOffset,
        idx_dev: Option<&PageDevice>,
        data_dev: Option<&PageDevice>,
        max_enumeration: u64,
    ) -> RangeScanResult {
        assert!(lo <= hi);
        let mut result = RangeScanResult::default();
        let Some(start) = self.first_overlapping_leaf(lo, idx_dev) else {
            return result;
        };
        let mut next_pid: Option<PageId> = None;
        let mut idx = Some(start);
        while let Some(i) = idx {
            let leaf = self.leaf(i);
            if leaf.n_keys > 0 && leaf.min_key > hi {
                break;
            }
            if let Some(d) = idx_dev {
                d.read_random(Self::leaf_page_id(i));
            }
            result.leaves_visited += 1;

            let is_boundary = leaf.min_key < lo || leaf.max_key > hi;
            let enum_lo = lo.max(leaf.min_key);
            let enum_hi = hi.min(leaf.max_key);
            let enumerable = enum_hi.saturating_sub(enum_lo) < max_enumeration;

            let last_pid = leaf.max_pid.min(heap.page_count().saturating_sub(1));
            let from = next_pid.map_or(leaf.min_pid, |n| n.max(leaf.min_pid));
            if is_boundary && enumerable {
                // Probe the filters per value; union the candidate pages.
                let (mut pages, mut buckets) = (Vec::new(), Vec::new());
                for key in enum_lo..=enum_hi {
                    let fp = KeyFingerprint::new(&key, self.config().seed);
                    leaf.matching_pages_fp(&fp, &mut pages, &mut buckets);
                }
                pages.sort_unstable();
                pages.dedup();
                pages.retain(|&pid| pid >= from && pid <= last_pid);
                // Under FirstPageOnly only a run's first page is in the
                // filters; a page ending with an in-range key implies
                // the run may spill into its successor, so pull that
                // page in too.
                let follow_runs = self.config().duplicates == DuplicateHandling::FirstPageOnly;
                let mut i = 0;
                while i < pages.len() {
                    let pid = pages[i];
                    self.scan_data_page(pid, lo, hi, heap, attr, data_dev, &mut result);
                    if follow_runs && pid < last_pid && pages.get(i + 1) != Some(&(pid + 1)) {
                        let n = heap.tuples_in_page(pid);
                        if n > 0 {
                            let last = heap.attr(pid, n - 1, attr);
                            if last >= lo && last <= hi {
                                pages.insert(i + 1, pid + 1);
                            }
                        }
                    }
                    i += 1;
                }
            } else {
                for pid in from..=last_pid {
                    self.scan_data_page(pid, lo, hi, heap, attr, data_dev, &mut result);
                }
            }
            next_pid = Some(leaf.max_pid + 1);
            idx = leaf.next;
        }
        result
    }

    fn first_overlapping_leaf(&self, lo: u64, idx_dev: Option<&PageDevice>) -> Option<u32> {
        let candidates = self.candidate_leaves(lo, idx_dev);
        match candidates.first() {
            Some(&first) => Some(first),
            // lo precedes every leaf's min key: start at the leftmost.
            None => {
                let mut idx = 0u32;
                while self.leaf(idx).prev.is_some() {
                    idx = self.leaf(idx).prev.expect("checked");
                }
                Some(idx)
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn scan_data_page(
        &self,
        pid: PageId,
        lo: u64,
        hi: u64,
        heap: &HeapFile,
        attr: AttrOffset,
        data_dev: Option<&PageDevice>,
        result: &mut RangeScanResult,
    ) {
        if let Some(d) = data_dev {
            d.read_seq(pid);
        }
        result.pages_read += 1;
        let mut any = false;
        for slot in 0..heap.tuples_in_page(pid) {
            let v = heap.attr(pid, slot, attr);
            if v >= lo && v <= hi {
                result.matches.push((pid, slot));
                any = true;
            }
        }
        if !any {
            result.overhead_pages += 1;
        }
    }
}

/// The exact number of data pages containing at least one tuple in
/// `[lo, hi]` — the I/O a B+-Tree range scan performs, Figure 13's
/// denominator.
pub fn exact_range_pages(heap: &HeapFile, attr: AttrOffset, lo: u64, hi: u64) -> u64 {
    let mut n = 0;
    for pid in 0..heap.page_count() {
        let has = (0..heap.tuples_in_page(pid)).any(|slot| {
            let v = heap.attr(pid, slot, attr);
            v >= lo && v <= hi
        });
        n += u64::from(has);
    }
    n
}
