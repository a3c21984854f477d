//! The BF-Tree: bulk load, search (Algorithm 1), insert (Algorithm 3),
//! split (Algorithm 2), delete.
//!
//! Each is written once, and each finds a key's leaves by one route,
//! `BfTree::route`, so a key is read where it was written.
//! [`BfTree::insert`] is a batch of one through
//! [`BfTree::insert_batch`] (route, walk left, split then re-route).
//! Bulk load, the [`SplitStrategy::RebuildFromData`]
//! split and [`BfTree::rebuild_leaf`] read a data page's distinct live
//! keys through one collector, which applies the
//! [`DuplicateHandling::FirstPageOnly`] rule in one place, into one
//! kind of distinct-key set (`KeySet`).
//!
//! A delete lives in the heap ([`HeapFile::delete_tuple`]), whose dead
//! slots a probe's page scan skips: a deleted key's pages are false
//! reads. Filters cannot forget a key, so a leaf counts the deletes it
//! absorbed (§7's deleted-keys list, kept as its length), and
//! [`BfTree::rebuild_leaf`] (§7: "recalculate the BF from the
//! beginning") rebuilds its filters over live tuples and resets the
//! count. Nothing triggers a rebuild in the write path yet;
//! `examples/cold_storage.rs` drives it.

use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::{Range, RangeInclusive};

use bftree_access::{MatchSink, Probe, ProbeIo};
use bftree_bloom::hash::{mix64, KeyFingerprint};
use bftree_btree::{BPlusTree, BTreeConfig, DuplicateMode, TupleRef};
use bftree_storage::tuple::AttrOffset;
use bftree_storage::{HeapFile, IoContext, PageId, Relation};

use crate::config::{BfTreeConfig, DuplicateHandling, SplitStrategy};
use crate::leaf::BfLeaf;

/// Keys [`BfTree::probe_batch_impl`] plans and scans before it executes
/// any: enough candidate pages to keep many cache misses in flight,
/// few enough that the group's plans stay in L1.
const PLAN_GROUP: usize = 16;

/// Reusable buffers for the plans of one probe or one group of probes.
///
/// Every BF-Tree probe needs a few small vectors (matching buckets,
/// candidate pages, matching slots); at millions of probes per second,
/// allocating them per probe dominates the data path. The
/// `AccessMethod` entry points keep one per thread, so a probe
/// allocates nothing once the buffers have grown to the workload's
/// high-water mark. The planned keys' descents, candidates and slots
/// share one flat vector each; a [`KeyPlan`] holds one key's ranges
/// into them.
#[derive(Debug, Default)]
pub(crate) struct ProbeScratch {
    /// Matching bucket indices of one leaf sweep.
    buckets: Vec<usize>,
    /// Candidate data pages of one `(key, leaf)` pair.
    pages: Vec<PageId>,
    /// The group's plans, in input order.
    plans: Vec<KeyPlan>,
    /// Upper-structure node ids each planned descent reads.
    descent: Vec<u64>,
    /// Each planned key's candidate leaves and their candidate pages.
    cands: Vec<Candidate>,
    /// Matching slots of every scanned page.
    slots: Vec<usize>,
    /// The planned `(page, key)` scans, in candidate order.
    queries: Vec<(PageId, u64)>,
    /// Their match masks (see [`HeapFile::match_masks`]).
    masks: Vec<u64>,
}

impl ProbeScratch {
    fn clear(&mut self) {
        self.plans.clear();
        self.descent.clear();
        self.cands.clear();
        self.slots.clear();
    }
}

/// One key's plan: its ranges into the [`ProbeScratch`] vectors.
#[derive(Debug)]
struct KeyPlan {
    key: u64,
    descent: Range<usize>,
    cands: Range<usize>,
}

/// A candidate of a planned key, in the order the probe visits them:
/// a leaf its span reaches, then the leaf's candidate pages (filter
/// matches below `page_count`).
#[derive(Debug)]
enum Candidate {
    /// The leaf of this arena index.
    Leaf(u32),
    /// Data page `pid`; once a group scan has read it, the key's
    /// matches on it are `slots` of [`ProbeScratch::slots`].
    Page {
        pid: PageId,
        slots: Option<Range<usize>>,
    },
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
/// §6): a [`BPlusTree`] maps each BF-leaf's routing key to the leaf's
/// arena index, the first leaf's 0 and every other's the `min_key` it
/// was created with. Reads and writes alike land on the *floor* entry
/// — the rightmost leaf whose key range can contain the key — then
/// walk left siblings while a duplicate run spans leaves. A split keeps
/// its left half in place, so the first leaf stays arena index 0.
#[derive(Debug, Clone)]
pub struct BfTree {
    config: BfTreeConfig,
    leaves: Vec<BfLeaf>,
    upper: BPlusTree,
}

impl BfTree {
    /// Bulk-load a BF-Tree over the tuples of `heap` whose attribute
    /// `attr` lies in `slice`; the heap must be ordered or partitioned
    /// on `attr`.
    ///
    /// One pass over the data packs BF-leaves up to
    /// [`BfTreeConfig::max_keys_per_leaf`] distinct keys each (leaf
    /// boundaries align to page boundaries); a second pass over the
    /// leaf level builds the internal structure — exactly the paper's
    /// two-pass bulk load (§4.2). The leaves span the pages from the
    /// first to the last that holds a key of `slice`; the pages outside
    /// belong to no leaf and are read without allocating. When no page
    /// holds one, the one empty leaf is anchored at the page the next
    /// append lands on, so the first insert does not stretch it over
    /// the pages before. `0..=u64::MAX` indexes the whole heap.
    pub fn bulk_build(
        config: BfTreeConfig,
        heap: &HeapFile,
        attr: AttrOffset,
        slice: RangeInclusive<u64>,
    ) -> Self {
        config.validate();
        let max_keys = config.max_keys_per_leaf();
        let in_slice = |k: u64| slice.contains(&k);
        let holds_slice_key = |pid: PageId| heap.page_attrs(pid, attr).any(in_slice);

        // The pages from the first to the last holding a key of the
        // slice; a full-range build takes every page.
        let mut pids = 0..heap.page_count();
        let span = pids.find(|&pid| holds_slice_key(pid)).map(|first| {
            let last = pids.rev().find(|&pid| holds_slice_key(pid));
            first..=last.unwrap_or(first)
        });

        let mut leaves: Vec<BfLeaf> = Vec::new();
        let mut pending: Vec<(PageId, Vec<u64>)> = Vec::new();
        let mut distinct = KeySet::default();
        for pid in span.into_iter().flatten() {
            let mut keys = page_keys(heap, pid, attr, in_slice);
            let before = distinct.len() as u64;
            admit_keys(config.duplicates, &mut keys, &mut distinct);
            if !pending.is_empty() && distinct.len() as u64 > max_keys {
                // The page's new keys overflow the leaf: close it with
                // the keys it held before, and re-admit the whole page
                // into the next leaf's fresh set (once per leaf).
                leaves.push(BfLeaf::from_pages(&config, &pending, before));
                pending.clear();
                distinct.clear();
                keys = page_keys(heap, pid, attr, in_slice);
                admit_keys(config.duplicates, &mut keys, &mut distinct);
            }
            pending.push((pid, keys));
        }
        if pending.is_empty() {
            leaves.push(BfLeaf::empty(&config, heap.next_append_page()));
        } else {
            leaves.push(BfLeaf::from_pages(&config, &pending, distinct.len() as u64));
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
        // min_keys ascend. The first leaf routes at key 0, the leftmost
        // child's key: it owns every key below the second leaf's.
        let entries = leaves.iter().enumerate().map(|(i, l)| {
            let key = if i == 0 { 0 } else { l.min_key };
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

    /// The one route of `key`, which search (Algorithm 1), insert
    /// (Algorithm 3), delete and the range seek all take: its candidate
    /// leaves, a run of siblings given as `(first, floor)`. The floor
    /// leaf is the rightmost whose routing key is at or below `key`; the
    /// first is the leftmost sibling a duplicate run reaches from it.
    /// The first leaf routes at key 0, so every key has a floor leaf.
    /// Appends the upper descent's node ids to `descent`, which the
    /// caller charges (one random index read each) or drops.
    pub(crate) fn route(&self, key: u64, descent: &mut Vec<u64>) -> (u32, u32) {
        let (_, tref) = self
            .upper
            .search_le_path(key, descent)
            .expect("the first leaf routes every key");
        let floor = tref.pid() as u32;
        let mut first = floor;
        while let Some(prev) = self.leaves[first as usize].prev {
            let pl = &self.leaves[prev as usize];
            if pl.n_keys == 0 || pl.max_key < key {
                break;
            }
            first = prev;
        }
        (first, floor)
    }

    /// The leaves of the span `(first, floor)`, left to right.
    fn span_leaves(&self, (first, floor): (u32, u32)) -> impl Iterator<Item = u32> + '_ {
        std::iter::successors(Some(first), move |&idx| {
            let next = self.leaves[idx as usize].next;
            (idx != floor).then(|| next.expect("the sibling chain reaches the floor leaf"))
        })
    }

    /// The leaves whose filters a probe for `key` sweeps: its candidate
    /// leaves that cover it.
    fn covering_leaves(&self, key: u64) -> impl Iterator<Item = u32> + '_ {
        self.span_leaves(self.route(key, &mut Vec::new()))
            .filter(move |&idx| self.leaves[idx as usize].covers_key(key))
    }

    /// Algorithm 1 for one key: [`Self::plan`] it, then
    /// [`Self::execute`] the plan into `sink`, which scans each page as
    /// it charges it. The public entry point is
    /// `AccessMethod::probe_into`, and the trait's `probe` /
    /// `probe_first` over it; `scratch` supplies the working buffers, so
    /// the path allocates nothing once they are warm.
    pub(crate) fn probe_sink_impl(
        &self,
        key: u64,
        rel: &Relation,
        io: &IoContext,
        scratch: &mut ProbeScratch,
        sink: &mut dyn MatchSink,
    ) -> ProbeIo {
        scratch.clear();
        self.plan(key, rel, scratch);
        self.execute(0, rel, io, scratch, sink)
    }

    /// Algorithm 1 over a batch, one [`Probe`] per key in input order:
    /// `AccessMethod::probe_batch`'s body. Each group of
    /// [`PLAN_GROUP`] keys is planned, then its candidate pages are
    /// scanned together ([`Self::scan_planned`]), and only then is each
    /// key executed in input order, inside its own `Probe` span.
    /// Charges, matches and counts equal a loop of
    /// [`Self::probe_sink_impl`], to the device access; what differs is
    /// that the group's page misses overlap instead of each ending one
    /// key's dependent chain.
    pub(crate) fn probe_batch_impl(
        &self,
        keys: &[u64],
        rel: &Relation,
        io: &IoContext,
        scratch: &mut ProbeScratch,
    ) -> Vec<Probe> {
        let mut probes = Vec::with_capacity(keys.len());
        for group in keys.chunks(PLAN_GROUP) {
            scratch.clear();
            for &key in group {
                self.plan(key, rel, scratch);
            }
            if group.len() > 1 {
                // A lone key scans as it executes, as a scalar probe.
                self.scan_planned(rel, scratch);
            }
            for at in 0..group.len() {
                let _span = bftree_obs::span(bftree_obs::SpanKind::Probe);
                let mut matches = Vec::new();
                let got = self.execute(at, rel, io, scratch, &mut matches);
                probes.push(Probe {
                    matches,
                    pages_read: got.pages_read,
                    false_reads: got.false_reads,
                });
            }
        }
        probes
    }

    /// Plan `key`, charging nothing: [`Self::route`] it and sweep its
    /// candidate leaves. Appends the key's [`KeyPlan`]: the upper
    /// descent's node ids and, per candidate leaf, the leaf and its
    /// filter matches, which ascend without repeats (a sweep's buckets
    /// ascend, each over its own run of pages). Filters may name pages
    /// the heap has not written yet; those are left out.
    fn plan(&self, key: u64, rel: &Relation, scratch: &mut ProbeScratch) {
        let page_count = rel.heap().page_count();
        let ProbeScratch {
            buckets,
            pages,
            plans,
            descent,
            cands,
            ..
        } = scratch;
        let (descent_at, cands_at) = (descent.len(), cands.len());
        let fp = KeyFingerprint::new(&key, self.config.seed);
        for idx in self.span_leaves(self.route(key, descent)) {
            let leaf = &self.leaves[idx as usize];
            cands.push(Candidate::Leaf(idx));
            if leaf.covers_key(key) {
                pages.clear();
                leaf.matching_pages_fp(&fp, pages, buckets);
                cands.extend(
                    pages
                        .iter()
                        .filter(|&&pid| pid < page_count)
                        .map(|&pid| Candidate::Page { pid, slots: None }),
                );
            }
        }
        plans.push(KeyPlan {
            key,
            descent: descent_at..descent.len(),
            cands: cands_at..cands.len(),
        });
    }

    /// Scan every candidate page of the planned group for its key, in
    /// one [`HeapFile::match_masks`], and list each page's matching
    /// live slots for the execute step.
    fn scan_planned(&self, rel: &Relation, scratch: &mut ProbeScratch) {
        let ProbeScratch {
            plans,
            cands,
            slots,
            queries,
            masks,
            ..
        } = scratch;
        queries.clear();
        for plan in plans.iter() {
            queries.extend(
                cands[plan.cands.clone()]
                    .iter()
                    .filter_map(|cand| match cand {
                        Candidate::Page { pid, .. } => Some((*pid, plan.key)),
                        Candidate::Leaf(_) => None,
                    }),
            );
        }
        let words = rel.heap().match_masks(queries, rel.attr(), masks);
        let mut page_masks = masks.chunks_exact(words);
        for cand in cands.iter_mut() {
            if let Candidate::Page { slots: found, .. } = cand {
                let from = slots.len();
                let page_mask = page_masks.next().expect("one mask per candidate page");
                for (w, &word) in page_mask.iter().enumerate() {
                    let mut bits = word;
                    while bits != 0 {
                        slots.push(64 * w + bits.trailing_zeros() as usize);
                        bits &= bits - 1;
                    }
                }
                *found = Some(from..slots.len());
            }
        }
    }

    /// Execute plan `at`, the one page loop of a probe: charge its
    /// reads, scan each page a group scan has not, push each match into
    /// `sink` the moment its page is charged, and stop charging the
    /// moment the sink breaks. A page with no live match of the key —
    /// a filter false positive, or a deleted key's page — is a false
    /// read.
    ///
    /// Charges the upper descent and one read per BF-leaf visited to
    /// `io.index`, and data-page fetches to `io.data`, ascending within
    /// a leaf: a page right after the previous page read of the leaf (a
    /// duplicate run's next page included) at sequential cost, every
    /// other page at random cost. Equation 13 charges every
    /// false-positive page sequentially instead; ROADMAP 18 holds the
    /// open decision between the two.
    ///
    /// Under [`DuplicateHandling::FirstPageOnly`] a matching page's
    /// duplicate run is followed forward here: only a run's first page
    /// is in the filters, and the run spills into the next page exactly
    /// when this page's last tuple still carries the key (data is
    /// ordered). Runs cross into the next candidate leaf, whose filters
    /// name that page too: a page at or below the highest page a run
    /// reached is not read again.
    fn execute(
        &self,
        at: usize,
        rel: &Relation,
        io: &IoContext,
        scratch: &mut ProbeScratch,
        sink: &mut dyn MatchSink,
    ) -> ProbeIo {
        let (heap, attr) = (rel.heap(), rel.attr());
        let ProbeScratch {
            plans,
            descent,
            cands,
            slots,
            ..
        } = scratch;
        let plan = &plans[at];
        let key = plan.key;
        let mut out = ProbeIo::default();
        for &node in &descent[plan.descent.clone()] {
            io.index.read_random(node);
        }
        let mut run_frontier: Option<PageId> = None;
        let mut prev_fetched: Option<PageId> = None;
        for cand in &cands[plan.cands.clone()] {
            let (pid, scanned) = match cand {
                Candidate::Leaf(idx) => {
                    io.index.read_random(Self::leaf_page_id(*idx));
                    prev_fetched = None;
                    continue;
                }
                Candidate::Page { pid, slots } => (*pid, slots.clone()),
            };
            if run_frontier.is_some_and(|f| pid <= f) {
                continue; // already read while following a run
            }
            match prev_fetched {
                Some(q) if pid == q + 1 => io.data.read_seq(pid),
                Some(q) if pid == q => {}
                _ => io.data.read_random(pid),
            }
            prev_fetched = Some(pid);
            out.pages_read += 1;
            let found = scanned.unwrap_or_else(|| {
                let from = slots.len();
                heap.scan_page_for(pid, attr, key, slots);
                from..slots.len()
            });
            if found.is_empty() {
                out.false_reads += 1;
                continue;
            }
            for &slot in &slots[found] {
                if sink.push(pid, slot).is_break() {
                    return out;
                }
            }
            if self.config.duplicates != DuplicateHandling::FirstPageOnly {
                continue;
            }
            let mut cur = pid;
            while cur + 1 < heap.page_count()
                && heap.tuples_in_page(cur) > 0
                && heap.attr(cur, heap.tuples_in_page(cur) - 1, attr) == key
            {
                cur += 1;
                io.data.read_seq(cur);
                run_frontier = Some(cur);
                prev_fetched = Some(cur);
                out.pages_read += 1;
                let from = slots.len();
                heap.scan_page_for(cur, attr, key, slots);
                for &slot in &slots[from..] {
                    if sink.push(cur, slot).is_break() {
                        return out;
                    }
                }
            }
        }
        out
    }

    /// Algorithm 3: index `key`, residing on data page `pid`, as a
    /// batch of one (see [`BfTree::insert_batch`]).
    pub fn insert(&mut self, key: u64, pid: PageId, heap: Option<&HeapFile>, attr: AttrOffset) {
        self.insert_batch(&[(key, pid)], heap, attr);
    }

    /// Algorithm 3 over a batch: index each `(key, pid)` — `key`
    /// residing on data page `pid` — in key order.
    ///
    /// A key takes a probe's route (`BfTree::route`) to its floor leaf
    /// and walks left while `pid` precedes the leaf's page range; the
    /// leaf splits when it is at its Equation-5 capacity, and finally
    /// takes the key into its ranges and filter bits. The floor leaf is
    /// cached across consecutive keys, so a run of keys landing between the
    /// same two upper-structure separators pays one descent (plus one
    /// successor lookup to learn the run's bound) instead of one per
    /// key — the amortization that makes a memtable flush cheaper than
    /// the per-record inserts it absorbed. The cache is only trusted
    /// while the key stays below the next separator, and any split
    /// invalidates it (splits are the one operation that adds
    /// separators), so the batch routes exactly as its keys inserted
    /// one at a time in sorted order would.
    ///
    /// `heap` is required when the configured split strategy is
    /// [`SplitStrategy::RebuildFromData`] and a split fires.
    pub fn insert_batch(
        &mut self,
        entries: &[(u64, PageId)],
        heap: Option<&HeapFile>,
        attr: AttrOffset,
    ) {
        let mut owned = Vec::new();
        let sorted: &[(u64, PageId)] = if entries.is_sorted() {
            entries
        } else {
            owned.extend_from_slice(entries);
            owned.sort_unstable();
            &owned
        };
        // (floor leaf, exclusive key bound of its separator interval).
        let mut cached: Option<(u32, Option<u64>)> = None;
        for (i, &(key, pid)) in sorted.iter().enumerate() {
            let floor = match cached {
                Some((leaf, bound)) if bound.is_none_or(|b| key < b) => leaf,
                _ => {
                    let (_, leaf) = self.route(key, &mut Vec::new());
                    // Only a later key of the batch can reuse the leaf.
                    if i + 1 < sorted.len() {
                        let bound = key
                            .checked_add(1)
                            .and_then(|next| self.upper.seek_ge(next, u64::MAX, None))
                            .map(|(sep, _)| sep);
                        cached = Some((leaf, bound));
                    }
                    leaf
                }
            };
            let mut idx = self.host_leaf(floor, pid);
            if self.leaves[idx as usize].n_keys + 1 > self.config.max_keys_per_leaf()
                && self.split_leaf(idx, heap, attr)
            {
                cached = None; // the split added a separator
                idx = self.host_leaf(self.route(key, &mut Vec::new()).1, pid);
            }
            self.leaves[idx as usize].insert(key, pid);
        }
    }

    /// Walk left from leaf `idx` while data page `pid` precedes its page
    /// range: the data being ordered or partitioned on the key, the
    /// leaf whose page range can host `pid` lies to the left.
    fn host_leaf(&self, mut idx: u32, pid: PageId) -> u32 {
        while pid < self.leaves[idx as usize].min_pid {
            match self.leaves[idx as usize].prev {
                Some(p) => idx = p,
                None => break,
            }
        }
        idx
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
                .collect::<KeySet>()
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
        let mut seen = KeySet::default();
        for pid in l.min_pid..=l.max_pid.min(heap.page_count().saturating_sub(1)) {
            let mut keys = page_keys(heap, pid, attr, |k| (l.min_key..=l.max_key).contains(&k));
            admit_keys(self.config.duplicates, &mut keys, &mut seen);
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

    /// Count a delete of `key` (§7's deleted-keys list, kept as its
    /// length) in every candidate leaf covering it, whose filters still
    /// name its pages; returns the leaves counted. A counter step, not a
    /// delete: it hides nothing. `AccessMethod::delete(&mut tree, key,
    /// &rel)` marks the tuples dead in the heap, then calls this.
    #[doc(hidden)]
    pub fn delete(&mut self, key: u64) -> usize {
        let covering: Vec<u32> = self.covering_leaves(key).collect();
        for &idx in &covering {
            let leaf = &mut self.leaves[idx as usize];
            leaf.deletes = leaf.deletes.saturating_add(1);
        }
        covering.len()
    }

    /// Rebuild leaf `idx`'s filters from the heap's live tuples
    /// ("recalculate the BF from the beginning when [the deleted-keys]
    /// list has reached the maximum size", §7): the filters and the key
    /// count change, and the delete count restarts at 0. Keys outside
    /// the leaf's range (a sibling's, on a page the two share) are left
    /// out of the filters. The key range stands: the heap still holds
    /// the dead tuples, which order its pages.
    pub fn rebuild_leaf(&mut self, idx: u32, heap: &HeapFile, attr: AttrOffset) {
        let old = &self.leaves[idx as usize];
        let in_range = |k: u64| (old.min_key..=old.max_key).contains(&k);
        let mut pages: Vec<(PageId, Vec<u64>)> = Vec::new();
        let mut distinct = KeySet::default();
        for pid in old.min_pid..=old.max_pid.min(heap.page_count().saturating_sub(1)) {
            let mut keys = page_keys(heap, pid, attr, in_range);
            admit_keys(self.config.duplicates, &mut keys, &mut distinct);
            pages.push((pid, keys));
        }
        let mut fresh = BfLeaf::from_pages(&self.config, &pages, distinct.len() as u64);
        (fresh.min_key, fresh.max_key) = (old.min_key, old.max_key);
        (fresh.prev, fresh.next) = (old.prev, old.next);
        self.leaves[idx as usize] = fresh;
    }

    /// Validate structural invariants (tests): sibling links form one
    /// chain over all leaves, key ranges are sane, the upper
    /// structure's own invariants hold, and so does the routing
    /// `BfTree::route` reads: one routing key per leaf, the first 0 and
    /// naming the first leaf, and no non-empty leaf holding a key below
    /// its routing key (the structural form of "no false negative": a
    /// leaf's keys route to it or to a sibling right of it).
    pub fn check_invariants(&self) {
        self.upper.check_invariants();
        let routes = self.upper.range(0, u64::MAX, None);
        let first = routes.first().map(|&(key, tref)| (key, tref.pid()));
        assert_eq!(first, Some((0, 0)), "the first leaf routes at key 0");
        let mut routed: Vec<u64> = routes.iter().map(|(_, tref)| tref.pid()).collect();
        routed.sort_unstable();
        let n = self.leaves.len() as u64;
        assert!(routed.into_iter().eq(0..n), "one routing key per leaf");
        for &(key, tref) in &routes {
            let l = &self.leaves[tref.pid() as usize];
            assert!(
                l.n_keys == 0 || l.min_key >= key,
                "leaf {} holds a key below its routing key {key}",
                tref.pid()
            );
        }
        let mut seen = 0usize;
        let mut idx = Some(0);
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

    /// [`Self::check_invariants`], plus the heap-aware one (tests): no
    /// false negatives over `rel`, every live tuple of which the tree
    /// indexes. The leaves a probe for a live tuple's key sweeps name
    /// the tuple's page or, under [`DuplicateHandling::FirstPageOnly`],
    /// a page of the key's run before it that holds the key live: the
    /// probe follows a run forward from a page where it finds the key.
    pub fn check_heap_invariants(&self, rel: &Relation) {
        self.check_invariants();
        let (heap, attr) = (rel.heap(), rel.attr());
        let (mut pages, mut slots) = (Vec::new(), Vec::new());
        for (pid, slot, key) in heap.iter_attr(attr).filter(|&(p, s, _)| heap.is_live(p, s)) {
            let mut first = pid;
            while self.config.duplicates == DuplicateHandling::FirstPageOnly
                && first > 0
                && heap.attr(first - 1, heap.tuples_per_page() - 1, attr) == key
            {
                first -= 1;
            }
            pages.clear();
            for idx in self.covering_leaves(key) {
                self.leaves[idx as usize].matching_pages(key, &mut pages);
            }
            let mut reaches = |p: PageId| {
                slots.clear();
                heap.scan_page_for(p, attr, key, &mut slots);
                p == pid || (first..pid).contains(&p) && !slots.is_empty()
            };
            assert!(
                pages.iter().any(|&p| reaches(p)),
                "false negative: no leaf a probe for {key} sweeps names ({pid}, {slot})"
            );
        }
    }
}

/// The distinct values of `attr` on data page `pid`'s live tuples that
/// `keep` admits, ascending: the one page-key scan behind bulk load,
/// data-driven splits and leaf rebuilds.
fn page_keys(
    heap: &HeapFile,
    pid: PageId,
    attr: AttrOffset,
    keep: impl Fn(u64) -> bool,
) -> Vec<u64> {
    let mut keys = Vec::with_capacity(heap.tuples_in_page(pid));
    let attrs = heap.page_attrs(pid, attr);
    if heap.dead_in_page(pid) == 0 {
        keys.extend(attrs.filter(|&k| keep(k)));
    } else {
        let live = attrs
            .enumerate()
            .filter(|&(slot, _)| heap.is_live(pid, slot));
        keys.extend(live.map(|(_, k)| k).filter(|&k| keep(k)));
    }
    keys.sort_unstable();
    keys.dedup();
    keys
}

/// Take one page's distinct `keys` into a leaf whose earlier pages
/// hold the keys in `seen`, and add them to `seen`: one set insert per
/// key. Under [`DuplicateHandling::FirstPageOnly`] only a key's first
/// covering page enters the filters (probes follow the run forward
/// from there), so the keys `seen` already held — those whose insert
/// finds them — are dropped from `keys`.
fn admit_keys(duplicates: DuplicateHandling, keys: &mut Vec<u64>, seen: &mut KeySet) {
    if duplicates == DuplicateHandling::FirstPageOnly {
        keys.retain(|&k| seen.insert(k));
    } else {
        seen.extend(keys.iter().copied());
    }
}

/// A set of distinct key values: the bookkeeping of bulk load (a
/// leaf's distinct-key count), data-driven splits and leaf rebuilds.
pub(crate) type KeySet = HashSet<u64, BuildHasherDefault<KeyHasher>>;

/// [`KeySet`]'s hasher: the key, finished through [`mix64`] (the
/// splitmix64 finalizer). Unkeyed, because the keys are the relation's
/// own attribute values and SipHash's resistance to crafted collisions
/// buys nothing there. Not a bare multiply `n·K` like the buffer
/// manager's frame hasher: attribute values are often strided (scaled
/// timestamps, multiples of 2^k), a product keeps their shared zero
/// low bits, and the set's bucket index is the hash's low bits, so
/// keys strided by 2^k would crowd into 1/2^k of the buckets. The
/// finalizer's avalanche spreads any stride
/// (`key_set_hash_spreads_strided_keys` pins it).
#[derive(Debug, Default)]
pub(crate) struct KeyHasher(u64);

impl Hasher for KeyHasher {
    #[inline]
    fn finish(&self) -> u64 {
        mix64(self.0)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = self.0.rotate_left(8) ^ n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    /// Strided keys `i << s` share their low `s` bits; the set's
    /// bucket index is its hash's low bits. Over 4 096 keys, the low 12
    /// bits of the hash must take at least 2 400 distinct values (a
    /// uniform hash: about 2 589) at every stride. A bare `n·K` takes
    /// one value from `s = 12` on.
    #[test]
    fn key_set_hash_spreads_strided_keys() {
        let hasher = BuildHasherDefault::<KeyHasher>::default();
        for s in [0, 12, 20, 32, 48] {
            let low: HashSet<u64> = (0..4_096u64)
                .map(|i| hasher.hash_one(i << s) & 0xFFF)
                .collect();
            assert!(low.len() >= 2_400, "stride 2^{s}: {} buckets", low.len());
        }
    }
}
