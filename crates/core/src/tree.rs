//! The BF-Tree: bulk load, search (Algorithm 1), insert (Algorithm 3),
//! split (Algorithm 2), delete.
//!
//! [`BfTree::rebuild_leaf`] (§7: "recalculate the BF from the
//! beginning" once the deleted-keys list has grown) has no caller in
//! the write path yet; `examples/cold_storage.rs` drives it.

use std::collections::HashSet;
use std::ops::ControlFlow;

use bftree_access::MatchSink;
use bftree_bloom::hash::KeyFingerprint;
use bftree_btree::{BPlusTree, BTreeConfig, DuplicateMode, TupleRef};
use bftree_storage::tuple::AttrOffset;
use bftree_storage::{HeapFile, PageDevice, PageId};

use crate::config::{BfTreeConfig, DuplicateHandling, SplitStrategy};
use crate::leaf::BfLeaf;
use crate::stats::ProbeResult;

/// Reusable buffers for one probe.
///
/// Every BF-Tree probe needs a handful of small vectors (matching
/// buckets, candidate pages, matching slots, candidate leaves); at
/// millions of probes per second, allocating them per probe dominates
/// the data path. The `AccessMethod` entry points keep one per thread,
/// so a probe allocates nothing once the buffers have grown to the
/// workload's high-water mark.
#[derive(Debug, Default)]
pub(crate) struct ProbeScratch {
    /// Matching bucket indices of one leaf sweep.
    buckets: Vec<usize>,
    /// Candidate data pages of one `(key, leaf)` pair.
    pages: Vec<PageId>,
    /// Matching slots within one fetched heap page.
    slots: Vec<usize>,
    /// Candidate leaves of the key under probe.
    candidates: Vec<u32>,
}

/// Index-device page-id base for BF-leaves (upper-structure nodes use
/// their arena ids directly, so the two spaces never collide).
const LEAF_PAGE_BASE: u64 = 1 << 40;

/// Largest key-domain span `ProbeDomain` splits will enumerate.
const PROBE_DOMAIN_SPAN_CAP: u64 = 1 << 22;

/// Per-page distinct-key lists for the two sides of a leaf split.
type SplitSides = (Vec<(PageId, Vec<u64>)>, Vec<(PageId, Vec<u64>)>);

/// The BF-Tree (§4).
///
/// Internal routing reuses the B+-Tree machinery ("the code-base of the
/// B+-Tree ... serves as the part of the BF-Tree above the leaves",
/// §6): a [`BPlusTree`] maps each BF-leaf's `min_key` to the leaf's
/// arena index. Probes land on the *floor* entry — the rightmost leaf
/// whose key range can contain the key — then walk left siblings while
/// a duplicate run spans leaves.
#[derive(Debug, Clone)]
pub struct BfTree {
    config: BfTreeConfig,
    leaves: Vec<BfLeaf>,
    upper: BPlusTree,
    first_leaf: u32,
}

impl BfTree {
    /// Bulk-load a BF-Tree over `heap`, indexing attribute `attr`, on
    /// which the heap must be ordered or partitioned.
    ///
    /// One pass over the data packs BF-leaves up to
    /// [`BfTreeConfig::max_keys_per_leaf`] distinct keys each (leaf
    /// boundaries align to page boundaries); a second pass over the
    /// leaf level builds the internal structure — exactly the paper's
    /// two-pass bulk load (§4.2).
    pub fn bulk_build(config: BfTreeConfig, heap: &HeapFile, attr: AttrOffset) -> Self {
        config.validate();
        let max_keys = config.max_keys_per_leaf();

        let mut leaves: Vec<BfLeaf> = Vec::new();
        let mut pending: Vec<(PageId, Vec<u64>)> = Vec::new();
        let mut pending_distinct: HashSet<u64> = HashSet::new();

        let close_leaf = |pending: &mut Vec<(PageId, Vec<u64>)>,
                          pending_distinct: &mut HashSet<u64>,
                          leaves: &mut Vec<BfLeaf>| {
            if pending.is_empty() {
                return;
            }
            let leaf = BfLeaf::from_pages(&config, pending, pending_distinct.len() as u64);
            leaves.push(leaf);
            pending.clear();
            pending_distinct.clear();
        };

        for pid in 0..heap.page_count() {
            let mut keys: Vec<u64> = (0..heap.tuples_in_page(pid))
                .map(|slot| heap.attr(pid, slot, attr))
                .collect();
            keys.sort_unstable();
            keys.dedup();
            let new_keys = keys
                .iter()
                .filter(|k| !pending_distinct.contains(k))
                .count() as u64;
            if !pending.is_empty() && pending_distinct.len() as u64 + new_keys > max_keys {
                close_leaf(&mut pending, &mut pending_distinct, &mut leaves);
            }
            if config.duplicates == DuplicateHandling::FirstPageOnly {
                // Only a key's first covering page enters the filters;
                // probes scan the contiguous run forward from there.
                keys.retain(|k| !pending_distinct.contains(k));
            }
            pending_distinct.extend(keys.iter().copied());
            pending.push((pid, keys));
        }
        close_leaf(&mut pending, &mut pending_distinct, &mut leaves);

        if leaves.is_empty() {
            leaves.push(BfLeaf::empty(&config, 0));
        }

        // Chain siblings.
        for i in 0..leaves.len() {
            if i + 1 < leaves.len() {
                leaves[i].next = Some((i + 1) as u32);
            }
            if i > 0 {
                leaves[i].prev = Some((i - 1) as u32);
            }
        }

        let upper = Self::build_upper(&config, &leaves);
        Self {
            config,
            leaves,
            upper,
            first_leaf: 0,
        }
    }

    /// An empty BF-Tree ready for inserts (§4.2: "The initial node of
    /// the BF-Tree is a BF node").
    pub fn new(config: BfTreeConfig) -> Self {
        config.validate();
        let leaves = vec![BfLeaf::empty(&config, 0)];
        let upper = Self::build_upper(&config, &leaves);
        Self {
            config,
            leaves,
            upper,
            first_leaf: 0,
        }
    }

    fn build_upper(config: &BfTreeConfig, leaves: &[BfLeaf]) -> BPlusTree {
        let btcfg = BTreeConfig {
            page_size: config.page_size,
            key_size: config.key_size,
            ptr_size: config.ptr_size,
            fill_factor: 1.0,
            duplicates: DuplicateMode::PerTuple,
        };
        // Routing keys must be non-decreasing; bulk leaves are built in
        // page order and the heap is ordered/partitioned on the key, so
        // min_keys ascend. Empty leaves route at key 0.
        let entries = leaves.iter().enumerate().map(|(i, l)| {
            let key = if l.n_keys == 0 { 0 } else { l.min_key };
            (key, TupleRef::new(i as u64, 0))
        });
        BPlusTree::bulk_build(btcfg, entries)
    }

    /// Tree configuration.
    pub fn config(&self) -> &BfTreeConfig {
        &self.config
    }

    /// Number of BF-leaves (the paper's `BFleaves`).
    pub fn leaf_pages(&self) -> u64 {
        self.leaves.len() as u64
    }

    /// Pages of the internal structure above the leaves.
    pub fn internal_pages(&self) -> u64 {
        self.upper.total_pages()
    }

    /// Total index pages (Equation 10's `BFsize / pagesize`).
    pub fn total_pages(&self) -> u64 {
        self.leaf_pages() + self.internal_pages()
    }

    /// Index size in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.total_pages() * self.config.page_size as u64
    }

    /// Height including the BF-leaf level (Equation 7's `BFh`).
    pub fn height(&self) -> usize {
        self.upper.height() + 1
    }

    /// Total distinct keys indexed across leaves.
    pub fn n_keys(&self) -> u64 {
        self.leaves.iter().map(|l| l.n_keys).sum()
    }

    /// Access a leaf by arena index (tests, harness introspection).
    pub fn leaf(&self, idx: u32) -> &BfLeaf {
        &self.leaves[idx as usize]
    }

    /// Index-device page id of leaf `idx`.
    pub fn leaf_page_id(idx: u32) -> u64 {
        LEAF_PAGE_BASE | idx as u64
    }

    /// Index-device page ids of the structure above the leaves (for
    /// warm-cache prewarming).
    pub fn upper_page_ids(&self) -> Vec<u64> {
        self.upper.all_node_ids()
    }

    /// Index-device page ids of every node including leaves.
    pub fn all_page_ids(&self) -> Vec<u64> {
        let mut ids = self.upper.all_node_ids();
        ids.extend((0..self.leaves.len() as u32).map(Self::leaf_page_id));
        ids
    }

    /// The leaves (left-to-right arena order).
    pub fn leaves(&self) -> &[BfLeaf] {
        &self.leaves
    }

    /// Candidate leaves for `key`: the floor leaf plus left siblings
    /// while a duplicate run spans leaves, in left-to-right order.
    pub(crate) fn candidate_leaves(&self, key: u64, idx_dev: Option<&PageDevice>) -> Vec<u32> {
        let mut out = Vec::new();
        self.candidate_leaves_into(key, idx_dev, &mut out);
        out
    }

    /// [`Self::candidate_leaves`] into a reused buffer: descend to the
    /// floor leaf, then add left siblings while a duplicate run spans
    /// leaves.
    fn candidate_leaves_into(&self, key: u64, idx_dev: Option<&PageDevice>, out: &mut Vec<u32>) {
        out.clear();
        let Some((_, tref)) = self.upper.search_le(key, idx_dev) else {
            return;
        };
        let mut idx = tref.pid() as u32;
        out.push(idx);
        while let Some(prev) = self.leaves[idx as usize].prev {
            let pl = &self.leaves[prev as usize];
            if pl.n_keys == 0 || pl.max_key < key {
                break;
            }
            out.push(prev);
            idx = prev;
        }
        out.reverse();
    }

    /// Algorithm 1 as a streaming core: every match is pushed into
    /// `sink` the moment its page has been scanned, and the probe
    /// stops charging I/O the moment the sink breaks.
    ///
    /// Charges index reads (internal descent + one read per BF-leaf
    /// visited) to `idx_dev` and data-page fetches to `data_dev`
    /// (sorted batch: adjacent pages at sequential cost, as the
    /// paper's Equation 13 models). `scratch` supplies the working
    /// buffers, so the path allocates nothing once they are warm. The
    /// public entry points are `AccessMethod::probe_into` and the
    /// trait's `probe` / `probe_first` / `probe_batch` over it.
    /// The returned [`ProbeResult`] carries the counters; its
    /// `matches` vector stays empty (the sink received them).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn probe_sink_impl(
        &self,
        key: u64,
        heap: &HeapFile,
        attr: AttrOffset,
        idx_dev: Option<&PageDevice>,
        data_dev: Option<&PageDevice>,
        scratch: &mut ProbeScratch,
        sink: &mut dyn MatchSink,
    ) -> ProbeResult {
        let mut result = ProbeResult::default();
        let fp = KeyFingerprint::new(&key, self.config.seed);
        let mut candidates = std::mem::take(&mut scratch.candidates);
        self.candidate_leaves_into(key, idx_dev, &mut candidates);
        for &leaf_idx in &candidates {
            let flow = self.probe_leaf(
                key,
                &fp,
                leaf_idx,
                heap,
                attr,
                idx_dev,
                data_dev,
                scratch,
                sink,
                &mut result,
            );
            if flow.is_break() {
                break;
            }
        }
        scratch.candidates = candidates;
        result
    }

    /// Probe one candidate leaf: filter sweep, candidate-page fetch
    /// (ascending runs at sequential cost), page scan — pushing each
    /// match into `sink` — and duplicate-run following. Breaks (and
    /// stops fetching) the moment the sink does; the caller must then
    /// stop visiting leaves.
    #[allow(clippy::too_many_arguments)]
    fn probe_leaf(
        &self,
        key: u64,
        fp: &KeyFingerprint,
        leaf_idx: u32,
        heap: &HeapFile,
        attr: AttrOffset,
        idx_dev: Option<&PageDevice>,
        data_dev: Option<&PageDevice>,
        scratch: &mut ProbeScratch,
        sink: &mut dyn MatchSink,
        result: &mut ProbeResult,
    ) -> ControlFlow<()> {
        let leaf = &self.leaves[leaf_idx as usize];
        if let Some(d) = idx_dev {
            d.read_random(Self::leaf_page_id(leaf_idx));
        }
        result.leaves_visited += 1;
        if !leaf.covers_key(key) {
            return ControlFlow::Continue(());
        }
        let ProbeScratch {
            buckets,
            pages,
            slots,
            ..
        } = scratch;
        pages.clear();
        result.bfs_probed += leaf.matching_pages_fp(fp, pages, buckets);
        pages.dedup();

        let deleted = leaf.is_deleted(key);
        let mut prev_fetched: Option<PageId> = None;
        // Highest page consumed while following a duplicate run. Runs
        // are contiguous and the candidate list is ascending, so one
        // frontier comparison skips every candidate a run already read.
        let mut run_frontier: Option<PageId> = None;
        for &pid in pages.iter() {
            if pid >= heap.page_count() {
                continue; // filters may cover not-yet-written pages
            }
            if run_frontier.is_some_and(|f| pid <= f) {
                continue; // already read while following a run
            }
            if let Some(d) = data_dev {
                match prev_fetched {
                    Some(q) if pid == q + 1 => d.read_seq(pid),
                    Some(q) if pid == q => {}
                    _ => d.read_random(pid),
                }
            }
            prev_fetched = Some(pid);
            result.pages_read += 1;

            slots.clear();
            result.tuples_scanned += heap.scan_page_for(pid, attr, key, slots) as u64;
            if slots.is_empty() || deleted {
                result.false_reads += 1;
                continue;
            }
            for &slot in slots.iter() {
                sink.push(pid, slot)?;
            }
            if self.config.duplicates == DuplicateHandling::FirstPageOnly {
                // Only the first covering page is in the filters:
                // follow the contiguous duplicate run forward. The run
                // spills into the next page exactly when this page's
                // last tuple still carries the key (data is ordered).
                let mut cur = pid;
                while cur + 1 < heap.page_count()
                    && heap.tuples_in_page(cur) > 0
                    && heap.attr(cur, heap.tuples_in_page(cur) - 1, attr) == key
                {
                    cur += 1;
                    if let Some(d) = data_dev {
                        d.read_seq(cur);
                    }
                    run_frontier = Some(cur);
                    prev_fetched = Some(cur);
                    result.pages_read += 1;
                    slots.clear();
                    result.tuples_scanned += heap.scan_page_for(cur, attr, key, slots) as u64;
                    for &slot in slots.iter() {
                        sink.push(cur, slot)?;
                    }
                }
            }
        }
        ControlFlow::Continue(())
    }

    /// Algorithm 3: insert `key` residing on data page `pid`.
    ///
    /// Routes by key (floor leaf, else the first leaf), walks left if
    /// `pid` precedes the target leaf's page range, splits when the
    /// leaf is at its Equation-5 capacity, and finally updates the
    /// leaf's ranges and filter bits. `heap` is required when the
    /// configured split strategy is [`SplitStrategy::RebuildFromData`]
    /// and a split fires.
    pub fn insert(&mut self, key: u64, pid: PageId, heap: Option<&HeapFile>, attr: AttrOffset) {
        let mut idx = match self.upper.search_le(key, None) {
            Some((_, tref)) => tref.pid() as u32,
            None => self.first_leaf,
        };
        // The leaf chosen by key may start after `pid`; data being
        // ordered/partitioned on the key, walking left finds the leaf
        // whose page range can host it.
        while pid < self.leaves[idx as usize].min_pid {
            match self.leaves[idx as usize].prev {
                Some(p) => idx = p,
                None => break,
            }
        }

        if self.leaves[idx as usize].n_keys + 1 > self.config.max_keys_per_leaf()
            && self.split_leaf(idx, heap, attr)
        {
            // Re-route: the split moved half the key range into a new
            // right sibling.
            idx = match self.upper.search_le(key, None) {
                Some((_, tref)) => tref.pid() as u32,
                None => self.first_leaf,
            };
            while pid < self.leaves[idx as usize].min_pid {
                match self.leaves[idx as usize].prev {
                    Some(p) => idx = p,
                    None => break,
                }
            }
        }
        self.leaves[idx as usize].insert(key, pid);
    }

    /// Bulk form of [`BfTree::insert`]: sorts the batch and caches the
    /// routed floor leaf across consecutive keys, so a run of keys
    /// landing between the same two upper-structure separators pays
    /// one descent (plus one successor lookup to learn the run's
    /// bound) instead of one descent per key — the amortization that
    /// makes a memtable flush cheaper than the per-record inserts it
    /// absorbed. Routing is bit-identical to inserting the sorted
    /// batch one by one: the cache is only trusted while the key stays
    /// below the next separator, and any split invalidates it (splits
    /// are the one operation that adds separators).
    pub fn insert_batch(
        &mut self,
        entries: &[(u64, PageId)],
        heap: Option<&HeapFile>,
        attr: AttrOffset,
    ) {
        let mut sorted = entries.to_vec();
        sorted.sort_unstable();
        // (floor leaf, exclusive key bound of its separator interval).
        let mut cached: Option<(u32, Option<u64>)> = None;
        for (key, pid) in sorted {
            let mut idx = match cached {
                Some((leaf, bound)) if bound.is_none_or(|b| key < b) => leaf,
                _ => {
                    let leaf = match self.upper.search_le(key, None) {
                        Some((_, tref)) => tref.pid() as u32,
                        None => self.first_leaf,
                    };
                    let bound = key
                        .checked_add(1)
                        .and_then(|next| self.upper.seek_ge(next, u64::MAX, None))
                        .map(|(sep, _)| sep);
                    cached = Some((leaf, bound));
                    leaf
                }
            };
            while pid < self.leaves[idx as usize].min_pid {
                match self.leaves[idx as usize].prev {
                    Some(p) => idx = p,
                    None => break,
                }
            }
            if self.leaves[idx as usize].n_keys + 1 > self.config.max_keys_per_leaf()
                && self.split_leaf(idx, heap, attr)
            {
                cached = None; // the split added a separator
                idx = match self.upper.search_le(key, None) {
                    Some((_, tref)) => tref.pid() as u32,
                    None => self.first_leaf,
                };
                while pid < self.leaves[idx as usize].min_pid {
                    match self.leaves[idx as usize].prev {
                        Some(p) => idx = p,
                        None => break,
                    }
                }
            }
            self.leaves[idx as usize].insert(key, pid);
        }
    }

    /// Algorithm 2: split leaf `idx` at the midpoint of its key range.
    /// Returns `false` when the leaf cannot split (single-key range).
    fn split_leaf(&mut self, idx: u32, heap: Option<&HeapFile>, attr: AttrOffset) -> bool {
        let (min_key, max_key) = {
            let l = &self.leaves[idx as usize];
            (l.min_key, l.max_key)
        };
        if min_key >= max_key {
            return false; // a single-key leaf can only grow
        }
        let mid = min_key + (max_key - min_key) / 2;

        let (n1_pages, n2_pages) = match self.config.split {
            SplitStrategy::RebuildFromData => {
                let heap =
                    heap.expect("SplitStrategy::RebuildFromData needs heap access at split time");
                self.partition_pages_from_data(idx, mid, heap, attr)
            }
            SplitStrategy::ProbeDomain => self.partition_pages_by_probing(idx, mid),
        };
        if n1_pages.is_empty() || n2_pages.is_empty() {
            return false; // all keys landed on one side; keep growing
        }

        let distinct = |pages: &[(PageId, Vec<u64>)]| {
            pages
                .iter()
                .flat_map(|(_, ks)| ks.iter().copied())
                .collect::<HashSet<u64>>()
                .len() as u64
        };
        let mut n1 = BfLeaf::from_pages(&self.config, &n1_pages, distinct(&n1_pages));
        let mut n2 = BfLeaf::from_pages(&self.config, &n2_pages, distinct(&n2_pages));

        let old = &self.leaves[idx as usize];
        let new_idx = self.leaves.len() as u32;
        n1.prev = old.prev;
        n1.next = Some(new_idx);
        n2.prev = Some(idx);
        n2.next = old.next;
        n1.deleted = old.deleted.iter().copied().filter(|&k| k <= mid).collect();
        n2.deleted = old.deleted.iter().copied().filter(|&k| k > mid).collect();
        let old_next = old.next;

        let n2_min = n2.min_key;
        self.leaves[idx as usize] = n1;
        self.leaves.push(n2);
        if let Some(nn) = old_next {
            self.leaves[nn as usize].prev = Some(new_idx);
        }
        self.upper
            .insert(n2_min, TupleRef::new(new_idx as u64, 0), None);
        true
    }

    /// Split support: re-read the covered data pages and partition
    /// their distinct keys around `mid`.
    fn partition_pages_from_data(
        &self,
        idx: u32,
        mid: u64,
        heap: &HeapFile,
        attr: AttrOffset,
    ) -> SplitSides {
        let l = &self.leaves[idx as usize];
        let mut per_page: Vec<(PageId, Vec<u64>, Vec<u64>)> = Vec::new();
        let mut seen: HashSet<u64> = HashSet::new();
        for pid in l.min_pid..=l.max_pid.min(heap.page_count().saturating_sub(1)) {
            let mut keys: Vec<u64> = (0..heap.tuples_in_page(pid))
                .map(|slot| heap.attr(pid, slot, attr))
                .filter(|k| (l.min_key..=l.max_key).contains(k))
                .collect();
            keys.sort_unstable();
            keys.dedup();
            if self.config.duplicates == DuplicateHandling::FirstPageOnly {
                keys.retain(|k| !seen.contains(k));
                seen.extend(keys.iter().copied());
            }
            let (le, gt): (Vec<u64>, Vec<u64>) = keys.into_iter().partition(|&k| k <= mid);
            per_page.push((pid, le, gt));
        }
        Self::assemble_sides(per_page)
    }

    /// Paper-faithful Algorithm 2: enumerate the (integer) key domain
    /// of the old leaf and probe its filters. Inherits the old filters'
    /// false positives into the new leaves (lossy-exact).
    fn partition_pages_by_probing(&self, idx: u32, mid: u64) -> SplitSides {
        let l = &self.leaves[idx as usize];
        assert!(
            l.max_key - l.min_key <= PROBE_DOMAIN_SPAN_CAP,
            "ProbeDomain split over a span of {} keys; use RebuildFromData",
            l.max_key - l.min_key
        );
        let mut per_page: Vec<(PageId, Vec<u64>, Vec<u64>)> = (l.min_pid..=l.max_pid)
            .map(|pid| (pid, Vec::new(), Vec::new()))
            .collect();
        let (mut pages, mut buckets) = (Vec::new(), Vec::new());
        for key in l.min_key..=l.max_key {
            pages.clear();
            let fp = KeyFingerprint::new(&key, self.config.seed);
            l.matching_pages_fp(&fp, &mut pages, &mut buckets);
            for &pid in &pages {
                let entry = &mut per_page[(pid - l.min_pid) as usize];
                if key <= mid {
                    entry.1.push(key);
                } else {
                    entry.2.push(key);
                }
            }
        }
        Self::assemble_sides(per_page)
    }

    /// Build the two sides' contiguous `(pid, keys)` lists per
    /// Algorithm 2 lines 3–6: N1 spans `[min_pid ..= last pid holding a
    /// ≤mid key]`, N2 spans `[first pid holding a >mid key ..= max_pid]`
    /// (the ranges may overlap on one shared boundary page).
    fn assemble_sides(per_page: Vec<(PageId, Vec<u64>, Vec<u64>)>) -> SplitSides {
        let n1_end = per_page.iter().rposition(|(_, le, _)| !le.is_empty());
        let n2_start = per_page.iter().position(|(_, _, gt)| !gt.is_empty());
        let n1 = match n1_end {
            Some(end) => per_page[..=end]
                .iter()
                .map(|(pid, le, _)| (*pid, le.clone()))
                .collect(),
            None => Vec::new(),
        };
        let n2 = match n2_start {
            Some(start) => per_page[start..]
                .iter()
                .map(|(pid, _, gt)| (*pid, gt.clone()))
                .collect(),
            None => Vec::new(),
        };
        (n1, n2)
    }

    /// Logical delete: tombstone `key` in every candidate leaf (§7).
    /// Subsequent probes treat its pages as false reads. Returns the
    /// number of leaves tombstoned.
    pub fn delete(&mut self, key: u64) -> usize {
        let candidates = self.candidate_leaves(key, None);
        let mut n = 0;
        for idx in candidates {
            let leaf = &mut self.leaves[idx as usize];
            if leaf.covers_key(key) && !leaf.is_deleted(key) {
                leaf.deleted.push(key);
                n += 1;
            }
        }
        n
    }

    /// Rebuild leaf `idx`'s filters from the heap ("recalculate the BF
    /// from the beginning when [the deleted-keys] list has reached the
    /// maximum size", §7). Tombstoned keys are dropped from the
    /// filters; the tombstone list is cleared.
    pub fn rebuild_leaf(&mut self, idx: u32, heap: &HeapFile, attr: AttrOffset) {
        let (min_pid, max_pid, deleted) = {
            let l = &self.leaves[idx as usize];
            (l.min_pid, l.max_pid, l.deleted.clone())
        };
        let mut pages: Vec<(PageId, Vec<u64>)> = Vec::new();
        let mut distinct: HashSet<u64> = HashSet::new();
        for pid in min_pid..=max_pid.min(heap.page_count().saturating_sub(1)) {
            let mut keys: Vec<u64> = (0..heap.tuples_in_page(pid))
                .map(|slot| heap.attr(pid, slot, attr))
                .filter(|k| !deleted.contains(k))
                .collect();
            keys.sort_unstable();
            keys.dedup();
            if self.config.duplicates == DuplicateHandling::FirstPageOnly {
                keys.retain(|k| !distinct.contains(k));
            }
            distinct.extend(keys.iter().copied());
            pages.push((pid, keys));
        }
        let old = &self.leaves[idx as usize];
        let mut fresh = BfLeaf::from_pages(&self.config, &pages, distinct.len() as u64);
        fresh.prev = old.prev;
        fresh.next = old.next;
        self.leaves[idx as usize] = fresh;
    }

    /// Validate structural invariants (tests): sibling links form one
    /// chain over all leaves, key ranges are sane, and the upper
    /// structure's own invariants hold.
    pub fn check_invariants(&self) {
        self.upper.check_invariants();
        let mut seen = 0usize;
        let mut idx = Some(self.first_leaf);
        let mut prev: Option<u32> = None;
        while let Some(i) = idx {
            let l = &self.leaves[i as usize];
            assert_eq!(l.prev, prev, "prev link broken at leaf {i}");
            if l.n_keys > 0 {
                assert!(l.min_key <= l.max_key, "key range inverted at leaf {i}");
            }
            assert!(l.min_pid <= l.max_pid, "page range inverted at leaf {i}");
            seen += 1;
            prev = Some(i);
            idx = l.next;
        }
        assert_eq!(seen, self.leaves.len(), "sibling chain misses leaves");
    }
}
