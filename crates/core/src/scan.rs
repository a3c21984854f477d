//! Range scans over BF-Tree partitions (§7, Figure 13).
//!
//! A BF-leaf corresponds to one partition of the main data. A range
//! scan touches *middle* partitions entirely and *boundary* partitions
//! partially; reading boundary partitions whole is the overhead §7
//! sets out to cut.
//!
//! There is one partition walk, the pull-based [`BfRangeCursor`], and
//! it reads each leaf by one of two page plans (see its docs): the
//! ordered plan of a `FirstPageOnly` tree, and §7's probed plan.
//! `AccessMethod::range_scan` is its full drain, and so is
//! [`BfTree::scan_range_probing`], the probed plan on any tree, which
//! Figure 13 measures.
//!
//! The walk trusts heap order only where the relation records it
//! (`Relation::page_facts`: each heap page's smallest and largest key,
//! and whether it is in order). A page's matches are collected with
//! `bftree_access::scan_page_in_range`, which skips the heap's dead
//! slots, or, when the page's recorded key range lies inside the range
//! and none of its slots is dead, taken whole. So a walk delivers no
//! key outside the range and no deleted key, whichever leaf's walk
//! reads the page.

use bftree_access::{
    check_relation, scan_page_in_range, Continuation, ProbeError, RangeCursor, RangeScan, ScanIo,
};
use bftree_bloom::hash::KeyFingerprint;
use bftree_storage::tuple::AttrOffset;
use bftree_storage::{Duplicates, HeapFile, IoContext, PageId, Relation};

use crate::config::DuplicateHandling;
use crate::leaf::BfLeaf;
use crate::tree::BfTree;

/// Most values of one boundary leaf's share of a range that the probed
/// plan enumerates; a wider share is read whole.
const PROBING_ENUMERATION_CAP: u64 = 1 << 22;

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
/// Entering a leaf chooses its page plan (`BfRangeCursor::plan`). On a
/// `FirstPageOnly` tree (an ordered relation) the walk is contiguous
/// and reads only pages that can hold a key of `[lo, hi]`:
/// - **head**: a fresh cursor enumerates `v = lo, lo + 1, …` in the
///   first leaf and reads the candidate pages its filters name for `v`
///   until one holds `v`: only a run's first page is in the filters, so
///   the walk begins there. Other candidates are false positives,
///   charged as random reads and counted as overhead. The enumeration
///   stops after as many values as there are pages it could skip, and
///   a leaf with no hit for any value is skipped without a data read;
/// - **tail**: the walk ends after the first page whose last key is
///   above `hi`.
///
/// That walk is exact while every page holding a key of `[lo, hi]` is
/// in order (`Relation::disordered_in`): such a page starts at or above
/// every earlier page's keys, so the range's keys ascend in heap order.
/// When a page out of order holds one (a tuple appended behind larger
/// keys), on an `AllCoveringPages` tree (a partitioned relation), and
/// under [`BfTree::scan_range_probing`] on any tree, the walk follows
/// §7's probed plan instead: a boundary leaf whose share of `[lo, hi]`
/// spans fewer than 2^22 values reads the ascending union of the pages
/// its filters name for them; every other leaf is read whole. On a
/// `FirstPageOnly` tree a probed page ending with a key in range pulls
/// in its successor. Under either plan, a duplicate run ending one
/// leaf's last page read is followed into the next leaf.
///
/// A leaf the walk may enter (from `lo`'s leaf up to the first leaf
/// above `hi`) can reach past its next sibling's first page: an insert
/// behind larger keys stretches its host leaf's page range over the
/// heap's tail (ROADMAP 2(a)). A leaf-by-leaf walk, whose frontier only
/// moves forward, would skip the pages in between, so such a walk
/// charges every overlapping leaf on entry and merges their probed
/// plans into one ascending page list (`plan_merged`). The choice
/// depends on `(lo, hi)` alone, so a resume makes it again.
///
/// The continuation frontier is `(leaf min key, next data page)`;
/// resuming re-descends to that leaf and re-enters its page walk at
/// exactly the frontier page (no head seek; a probed leaf re-derives
/// its candidate list, without I/O, and keeps the pages from the
/// frontier on), so the consumed prefix of the range is never re-read
/// from the data device.
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
    /// One past the last page read: the cross-leaf dedup frontier
    /// (split siblings share a page), also the resume frontier. Pages
    /// below it are never read.
    frontier: Option<PageId>,
    /// Sub-page resume point: skip slots below it on that one page.
    resume: Option<(PageId, usize)>,
    /// The relation is ordered on the key (a `FirstPageOnly` tree).
    ordered: bool,
    /// Leaves follow §7's probed plan rather than the ordered one.
    probing: bool,
    /// A leaf the walk may enter is stretched past its sibling's
    /// pages: the leaves' probed plans are merged into one ascending
    /// page list (`plan_merged`).
    merged: bool,
    /// The head seek is still due (fresh ordered-plan cursors only).
    seek: bool,
    /// The entered leaf's probed candidate pages, ascending; empty when
    /// its walk reads every page from `next` to `last`.
    candidates: Vec<PageId>,
    /// Filter-sweep scratch: one value's matching buckets.
    buckets: Vec<usize>,
    /// The last page read's last key (ordered relations only).
    tail: Option<u64>,
    buf: Vec<(PageId, usize)>,
    loaded: bool,
    done: bool,
    counters: ScanIo,
}

impl<'c> BfRangeCursor<'c> {
    /// A fresh cursor over `[lo, hi]`; `published` takes §7's probed
    /// plan on any tree, as Figure 13 measures it.
    pub(crate) fn open(
        tree: &'c BfTree,
        lo: u64,
        hi: u64,
        rel: &'c Relation,
        io: &'c IoContext,
        published: bool,
    ) -> Result<Self, ProbeError> {
        check_relation(rel)?;
        if lo > hi {
            return Err(ProbeError::InvertedRange { lo, hi });
        }
        Ok(Self::new(tree, lo, (lo, hi), rel, io, None, published))
    }

    pub(crate) fn resume(
        tree: &'c BfTree,
        cont: &Continuation,
        rel: &'c Relation,
        io: &'c IoContext,
    ) -> Self {
        let at = Some((cont.page(), cont.slot()));
        Self::new(tree, cont.key(), (cont.lo(), cont.hi()), rel, io, at, false)
    }

    fn new(
        tree: &'c BfTree,
        entry_key: u64,
        (lo, hi): (u64, u64),
        rel: &'c Relation,
        io: &'c IoContext,
        resume: Option<(PageId, usize)>,
        published: bool,
    ) -> Self {
        let ordered = tree.config().duplicates == DuplicateHandling::FirstPageOnly;
        let mut descent = Vec::new();
        let (mut first, _) = tree.route(lo, &mut descent);
        let merged = stretched(tree, first, hi);
        // A merged walk re-plans from `lo`'s leaf on a resume too: a
        // leaf left of the frontier key's may hold a page past the
        // frontier (a key inserted behind larger ones), and the
        // frontier page skips what the prefix delivered.
        if !merged && entry_key != lo {
            descent.clear();
            first = tree.route(entry_key, &mut descent).0;
        }
        for &node in &descent {
            io.index.read_random(node);
        }
        let probing = published || !ordered || merged || rel.disordered_in(lo, hi);
        // A resumed walk knows the last key of the page the producing
        // cursor read before the frontier (CPU only, no I/O).
        let (heap, before) = (rel.heap(), resume.map_or(0, |(page, _)| page));
        let n = if ordered && before > 0 {
            heap.tuples_in_page(before - 1)
        } else {
            0
        };
        let tail = (n > 0).then(|| heap.attr(before - 1, n - 1, rel.attr()));
        Self {
            tree,
            rel,
            io,
            lo,
            hi,
            pending: Some(first),
            current: None,
            frontier: resume.map(|(page, _)| page),
            resume,
            ordered,
            probing,
            merged,
            seek: !probing && resume.is_none(),
            candidates: Vec::new(),
            buckets: Vec::new(),
            tail,
            buf: Vec::new(),
            loaded: false,
            done: false,
            counters: ScanIo::default(),
        }
    }

    /// Fetch page `pid` of the walk: one sequential read (the
    /// partition walk is a sequential sweep).
    ///
    /// A page whose recorded key range lies inside `[lo, hi]` holds
    /// nothing but matches: unless one of its tuples is dead, it is
    /// taken whole, without reading a tuple.
    fn read_page(&mut self, pid: PageId) {
        self.io.data.read_seq(pid);
        self.counters.pages_read += 1;
        self.frontier = Some(pid + 1);
        self.buf.clear();
        let (heap, attr) = (self.rel.heap(), self.rel.attr());
        let n = heap.tuples_in_page(pid);
        let page = self.rel.page_facts(pid).expect("the walk reads heap pages");
        if self.lo <= page.min && page.max <= self.hi && heap.dead_in_page(pid) == 0 {
            let skip = match self.resume {
                Some((p, slot)) if p == pid => slot,
                _ => 0,
            };
            self.buf.extend((skip..n).map(|slot| (pid, slot)));
        } else {
            scan_page_in_range(
                heap,
                attr,
                pid,
                self.lo,
                self.hi,
                self.resume,
                &mut self.buf,
            );
        }
        if self.buf.is_empty() {
            self.counters.overhead_pages += 1;
        }
        self.tail = self.ordered.then(|| heap.attr(pid, n - 1, attr));
    }

    /// Choose the page plan of `leaf`, whose walk may read `[from,
    /// last]`: the first page it reads, or `None` when it holds no key
    /// of the range. A probed leaf's pages are left in `candidates`.
    fn plan(&mut self, leaf: &BfLeaf, from: PageId, last: PageId, carry: bool) -> Option<PageId> {
        if !self.probing {
            let seek = std::mem::take(&mut self.seek);
            let start = if seek {
                self.seek(leaf, from, last)
            } else {
                Some(from)
            };
            self.candidates.clear(); // read from `start` on
            return start;
        }
        self.candidates.clear();
        let (lo, hi) = (self.lo.max(leaf.min_key), self.hi.min(leaf.max_key));
        let boundary = leaf.min_key < self.lo || leaf.max_key > self.hi;
        if !boundary || hi.saturating_sub(lo) >= PROBING_ENUMERATION_CAP {
            return Some(from);
        }
        for v in lo..=hi {
            let fp = KeyFingerprint::new(&v, self.tree.config().seed);
            leaf.matching_pages_fp(&fp, &mut self.candidates, &mut self.buckets);
        }
        self.candidates.sort_unstable();
        self.candidates.dedup();
        self.candidates.retain(|&pid| (from..=last).contains(&pid));
        if carry && self.candidates.first() != Some(&from) {
            self.candidates.insert(0, from);
        }
        self.candidates.first().copied()
    }

    /// The merged plan of a walk that meets a stretched leaf
    /// (`stretched`): leaf `first` and every later leaf the range
    /// overlaps are charged now, and their probed plans merged into one
    /// ascending page list. Their page ranges overlap (an insert behind
    /// larger keys stretched its leaf's range to the heap's end), so a
    /// leaf-by-leaf walk, whose frontier only moves forward, would skip
    /// pages. Returns the first page to read; the walk may run to the
    /// heap's last page, so that a duplicate run can spill on.
    fn plan_merged(&mut self, first: u32, carry: bool) -> Option<PageId> {
        let last = self.rel.heap().page_count().saturating_sub(1);
        let mut pages = Vec::new();
        let mut at = Some(first);
        while let Some(i) = at {
            let leaf = self.tree.leaf(i);
            if i != first {
                if leaf.n_keys > 0 && leaf.min_key > self.hi {
                    break;
                }
                self.io.index.read_random(BfTree::leaf_page_id(i));
            }
            let from = self.frontier.map_or(leaf.min_pid, |f| f.max(leaf.min_pid));
            let to = leaf.max_pid.min(last);
            if from <= to && self.plan(leaf, from, to, false).is_some() {
                if self.candidates.is_empty() {
                    pages.extend(from..=to);
                } else {
                    pages.extend_from_slice(&self.candidates);
                }
            }
            at = leaf.next;
        }
        pages.sort_unstable();
        pages.dedup();
        let from = self.frontier.unwrap_or(0);
        if carry && from <= last && pages.first() != Some(&from) {
            pages.insert(0, from);
        }
        self.candidates = pages;
        self.candidates.first().copied()
    }

    /// The last page read ends with a key in range: its run may go on
    /// into the next page, which the filters name only where a run
    /// starts.
    fn spills(&self) -> bool {
        self.tail.is_some_and(|k| (self.lo..=self.hi).contains(&k))
    }

    /// The ordered plan's head seek in `leaf`, whose walk would read
    /// `[from, last]`: the page the walk starts on, or `None` when the
    /// leaf holds no key of the range.
    fn seek(&mut self, leaf: &BfLeaf, from: PageId, last: PageId) -> Option<PageId> {
        let (heap, attr) = (self.rel.heap(), self.rel.attr());
        let end = self.hi.min(leaf.max_key);
        // One sweep costs less than the page read it can save.
        let mut budget = (last + 1).saturating_sub(from);
        for v in self.lo.max(leaf.min_key)..=end {
            if budget == 0 {
                return Some(from);
            }
            budget -= 1;
            self.candidates.clear();
            let fp = KeyFingerprint::new(&v, self.tree.config().seed);
            leaf.matching_pages_fp(&fp, &mut self.candidates, &mut self.buckets);
            for &pid in self
                .candidates
                .iter()
                .filter(|&&p| (from..=last).contains(&p))
            {
                if heap.page_attrs(pid, attr).any(|k| k == v) {
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

/// Whether a leaf a walk from leaf `first` may enter, every leaf up to
/// the first whose keys lie above `hi`, has a page range reaching past
/// its next sibling's first page.
fn stretched(tree: &BfTree, first: u32, hi: u64) -> bool {
    let mut at = Some(first);
    while let Some(i) = at {
        let leaf = tree.leaf(i);
        if leaf
            .next
            .is_some_and(|next| leaf.max_pid > tree.leaf(next).min_pid)
        {
            return true;
        }
        if leaf.n_keys > 0 && leaf.min_key > hi {
            return false;
        }
        at = leaf.next;
    }
    false
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
                    self.read_page(next);
                    self.loaded = true;
                    return Some(&self.buf);
                }
                // Partition exhausted: move to the right sibling (a
                // merged plan has taken them all).
                self.pending = (!self.merged)
                    .then(|| self.tree.leaf(leaf_idx).next)
                    .flatten();
                self.current = None;
            }
            let Some(i) = self.pending.take() else {
                self.done = true;
                return None;
            };
            let leaf = self.tree.leaf(i);
            // On a resume whose descent landed left of the token's
            // partition (a duplicate run spanning a leaf boundary), the
            // frontier is past this leaf's pages, and the leaf reads
            // nothing.
            let from = self.frontier.map_or(leaf.min_pid, |f| f.max(leaf.min_pid));
            let last = leaf
                .max_pid
                .min(self.rel.heap().page_count().saturating_sub(1));
            // A duplicate run ending the last page read may go on into
            // this leaf's first page, whatever the leaf's key range.
            let carry = self.spills()
                && self.frontier == Some(from)
                && from <= last
                && self.rel.duplicates() != Duplicates::Unique;
            if leaf.n_keys > 0 && leaf.min_key > self.hi && !carry {
                self.done = true;
                return None;
            }
            self.io.index.read_random(BfTree::leaf_page_id(i));
            if self.merged {
                let last = self.rel.heap().page_count().saturating_sub(1);
                self.current = self.plan_merged(i, carry).map(|first| (i, first, last));
                continue;
            }
            match self.plan(leaf, from, last, carry) {
                Some(first) => self.current = Some((i, first, last)),
                // Nothing of the range here. The frontier stays put:
                // the sibling may share this leaf's last page.
                None => self.pending = leaf.next,
            }
        }
    }

    fn advance(&mut self) {
        if !self.loaded {
            return;
        }
        self.loaded = false;
        self.buf.clear();
        let spills = self.spills();
        if let Some((_, next, last)) = &mut self.current {
            *next = if self.candidates.is_empty() || spills {
                *next + 1
            } else {
                let at = self.candidates.partition_point(|&p| p <= *next);
                self.candidates.get(at).copied().unwrap_or(*last + 1)
            };
        }
        self.done = !self.probing && self.tail.is_some_and(|k| k > self.hi);
    }

    fn continuation(&self) -> Option<Continuation> {
        if self.done {
            return None;
        }
        let (leaf_idx, page) = match (self.current, self.pending) {
            // Mid-partition: resume at the next unconsumed page.
            (Some((i, next, last)), _) if next <= last => (i, next),
            // Partition drained, or not yet entered (fresh or between
            // leaves): resume at the frontier.
            (Some((i, ..)), _) | (None, Some(i)) => {
                let min_pid = self.tree.leaf(i).min_pid;
                (i, self.frontier.map_or(min_pid, |f| f.max(min_pid)))
            }
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
    /// The §7 boundary-probing range scan as published (Figure 13): a
    /// drain of the range cursor on the probed plan, whatever the tree's
    /// duplicate handling. Every value of a boundary partition's share
    /// of the range is probed (up to 2^22 values per boundary leaf) and
    /// the union of candidate pages fetched, false positives included;
    /// middle partitions are read whole.
    ///
    /// # Errors
    /// [`ProbeError::InvertedRange`] when `lo > hi`, and the relation
    /// errors of `AccessMethod::range_scan`.
    pub fn scan_range_probing(
        &self,
        lo: u64,
        hi: u64,
        rel: &Relation,
        io: &IoContext,
    ) -> Result<RangeScan, ProbeError> {
        let mut cursor = BfRangeCursor::open(self, lo, hi, rel, io, true)?;
        let mut matches = Vec::new();
        while let Some(page) = cursor.next_page_matches() {
            matches.extend_from_slice(page);
            cursor.advance();
        }
        let io = cursor.io();
        Ok(RangeScan {
            matches,
            pages_read: io.pages_read,
            overhead_pages: io.overhead_pages,
        })
    }
}

/// The exact number of data pages containing at least one tuple in
/// `[lo, hi]` — the I/O a B+-Tree range scan performs, Figure 13's
/// denominator.
pub fn exact_range_pages(heap: &HeapFile, attr: AttrOffset, lo: u64, hi: u64) -> u64 {
    (0..heap.page_count())
        .filter(|&pid| heap.page_attrs(pid, attr).any(|v| (lo..=hi).contains(&v)))
        .count() as u64
}
