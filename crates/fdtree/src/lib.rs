//! FD-Tree (Li, He, Yang, Luo, Yi — PVLDB 2010), the paper's
//! flash-aware tree baseline (§5 model, §6.5 measurements).
//!
//! An FD-Tree is the *logarithmic method* applied to a B+-Tree: a small
//! in-memory **head tree** absorbing inserts, above `L` sorted runs on
//! flash whose sizes grow geometrically by a factor `k`. Searches walk
//! one page per level, guided by **fences** (fractional cascading): a
//! level's pages embed pointer entries that name the page of the next
//! level where the search continues, so each level costs exactly one
//! random page read.
//!
//! This implementation reproduces the structure and its probe I/O
//! pattern:
//!
//! * bulk build produces fence-only upper levels over a data-only
//!   bottom run, so the tree's size matches a packed B+-Tree (the
//!   paper's Figure 4 finds FD-Tree and B+-Tree the same size);
//! * point searches read one page per level (head tree is free);
//! * inserts fill the head tree and trigger cascading merges downward
//!   when a level overflows its geometric budget.
//!
//! Merges are executed eagerly (no de-amortization), which the paper's
//! read-only probe experiments never exercise.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod access;

use bftree_btree::TupleRef;
use bftree_storage::PageDevice;

/// An entry within an FD-Tree page: a data record or a fence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Entry {
    /// A real index record.
    Data(u64, TupleRef),
    /// A fence: continue the search in page `page` of the next level
    /// for keys ≥ the fence key.
    Fence(u64, u32),
}

impl Entry {
    #[inline]
    fn key(&self) -> u64 {
        match self {
            Entry::Data(k, _) | Entry::Fence(k, _) => *k,
        }
    }
}

/// One on-flash level: a sorted run split into pages.
#[derive(Debug, Clone, Default)]
struct Level {
    /// Data records of this level (sorted by key).
    data: Vec<(u64, TupleRef)>,
    /// Materialized pages (data + fences interleaved, sorted).
    pages: Vec<Vec<Entry>>,
}

/// The FD-Tree.
#[derive(Debug, Clone)]
pub struct FdTree {
    /// In-memory head tree: sorted data entries awaiting merge.
    head: Vec<(u64, TupleRef)>,
    /// Fences from the head into L1 (rebuilt after merges).
    head_fences: Vec<(u64, u32)>,
    levels: Vec<Level>,
    head_capacity: usize,
    k_ratio: usize,
    entries_per_page: usize,
    page_size: usize,
}

impl FdTree {
    /// Paper-style defaults: 4 KB pages of 256 entries, size ratio 8,
    /// one-page head tree.
    pub fn new() -> Self {
        Self::with_parameters(4096, 256, 8, 256)
    }

    /// Fully parameterized construction.
    pub fn with_parameters(
        page_size: usize,
        entries_per_page: usize,
        k_ratio: usize,
        head_capacity: usize,
    ) -> Self {
        assert!(entries_per_page >= 2 && k_ratio >= 2 && head_capacity >= 1);
        Self {
            head: Vec::new(),
            head_fences: Vec::new(),
            levels: Vec::new(),
            head_capacity,
            k_ratio,
            entries_per_page,
            page_size,
        }
    }

    /// Bulk-load from entries sorted by key: the bottom level takes all
    /// the data; every level above holds only fences.
    pub fn bulk_build<I: IntoIterator<Item = (u64, TupleRef)>>(entries: I) -> Self {
        let mut tree = Self::new();
        let mut data: Vec<(u64, TupleRef)> = entries.into_iter().collect();
        assert!(
            data.windows(2).all(|w| w[0].0 <= w[1].0),
            "bulk_build input must be sorted"
        );
        if data.is_empty() {
            return tree;
        }
        // Number of levels: bottom level must fit within the geometric
        // budget; extra fence-only levels on top until the top level's
        // page count fits the head.
        data.shrink_to_fit();
        let bottom = Level {
            data,
            pages: Vec::new(),
        };
        tree.levels.push(bottom);
        tree.repaginate_from(0);
        // Add fence-only levels until the head fences fit in memory
        // comfortably (≤ head_capacity * k_ratio — the head tree is an
        // in-memory B+-tree in the original, so a generous bound).
        while tree.levels[0].pages.len() > tree.head_capacity * tree.k_ratio {
            tree.levels.insert(0, Level::default());
            tree.repaginate_from(0);
        }
        tree.rebuild_head_fences();
        tree
    }

    /// Number of on-flash levels.
    pub fn n_levels(&self) -> usize {
        self.levels.len()
    }

    /// Entries currently buffered in the head tree.
    pub fn head_len(&self) -> usize {
        self.head.len()
    }

    /// Total index pages across all levels (the paper's size metric).
    pub fn total_pages(&self) -> u64 {
        self.levels.iter().map(|l| l.pages.len() as u64).sum()
    }

    /// Index size in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.total_pages() * self.page_size as u64
    }

    /// Total data records stored (head + levels).
    pub fn n_entries(&self) -> u64 {
        self.head.len() as u64 + self.levels.iter().map(|l| l.data.len() as u64).sum::<u64>()
    }

    /// Page ids for prewarming: `(level, page)` flattened into one id
    /// space.
    pub fn all_page_ids(&self) -> Vec<u64> {
        let mut out = Vec::new();
        for (li, level) in self.levels.iter().enumerate() {
            for pi in 0..level.pages.len() {
                out.push(Self::page_id(li, pi));
            }
        }
        out
    }

    #[inline]
    fn page_id(level: usize, page: usize) -> u64 {
        ((level as u64) << 40) | page as u64
    }

    /// Point search: first match for `key`, charging one random read
    /// per level to `dev`.
    pub fn search(&self, key: u64, dev: Option<&PageDevice>) -> Option<TupleRef> {
        // Head tree: in-memory data entries first.
        if let Ok(at) = self.head.binary_search_by_key(&key, |e| e.0) {
            return Some(self.head[at].1);
        }
        // Follow fences downward.
        let mut page_idx = self.head_fence_target(key)?;
        for (li, level) in self.levels.iter().enumerate() {
            if level.pages.is_empty() {
                return None;
            }
            let page = &level.pages[page_idx.min(level.pages.len() - 1)];
            if let Some(d) = dev {
                d.read_random(Self::page_id(li, page_idx));
            }
            let mut next_fence: Option<u32> = None;
            // Scan for a data match and the governing fence (largest
            // fence key ≤ key). Pages hold ≤ 256 entries, so a linear
            // scan is the realistic in-page cost.
            for e in page {
                match e {
                    Entry::Data(k, r) if *k == key => return Some(*r),
                    Entry::Fence(k, p) if *k <= key => next_fence = Some(*p),
                    _ => {}
                }
            }
            // No governing fence means the key precedes every fence of
            // this level: it can only live in page 0 below.
            page_idx = next_fence.unwrap_or(0) as usize;
        }
        None
    }

    /// All matches for `key` (duplicates may sit at multiple levels and
    /// in adjacent pages of a level).
    pub fn search_all(&self, key: u64, dev: Option<&PageDevice>) -> Vec<TupleRef> {
        let mut out: Vec<TupleRef> = self
            .head
            .iter()
            .filter(|(k, _)| *k == key)
            .map(|(_, r)| *r)
            .collect();
        let mut page_idx = match self.head_fence_target(key) {
            Some(p) => p,
            None => return out,
        };
        for (li, level) in self.levels.iter().enumerate() {
            if level.pages.is_empty() {
                break;
            }
            let mut pi = page_idx.min(level.pages.len() - 1);
            let mut next_fence: Option<u32> = None;
            // Scan pages rightward while the duplicate run continues.
            loop {
                let page = &level.pages[pi];
                if let Some(d) = dev {
                    d.read_random(Self::page_id(li, pi));
                }
                let mut last_key_le = None;
                for e in page {
                    match e {
                        Entry::Data(k, r) if *k == key => out.push(*r),
                        Entry::Fence(k, p) if *k <= key => next_fence = Some(*p),
                        _ => {}
                    }
                    if e.key() <= key {
                        last_key_le = Some(e.key());
                    }
                }
                // Continue into the next page only if this page ended
                // on ≤ key (run may spill over).
                let spills = page.last().map(|e| e.key() <= key).unwrap_or(false)
                    && last_key_le.is_some()
                    && pi + 1 < level.pages.len();
                if spills {
                    pi += 1;
                } else {
                    break;
                }
            }
            page_idx = next_fence.unwrap_or(0) as usize;
        }
        out
    }

    /// All entries with key in `[lo, hi]`, in key order. Each level is
    /// a sorted run, so the touched span costs one random read plus
    /// sequential reads for the following pages of the run.
    pub fn range_entries(
        &self,
        lo: u64,
        hi: u64,
        dev: Option<&PageDevice>,
    ) -> Vec<(u64, TupleRef)> {
        assert!(lo <= hi);
        let mut out: Vec<(u64, TupleRef)> = self
            .head
            .iter()
            .filter(|(k, _)| (lo..=hi).contains(k))
            .copied()
            .collect();
        for (li, level) in self.levels.iter().enumerate() {
            let from = level.data.partition_point(|e| e.0 < lo);
            let to = level.data.partition_point(|e| e.0 <= hi);
            if from == to {
                continue;
            }
            if let Some(d) = dev {
                let first_page = from / self.entries_per_page;
                let last_page = (to - 1) / self.entries_per_page;
                d.read_random(Self::page_id(li, first_page));
                for pi in first_page + 1..=last_page {
                    d.read_seq(Self::page_id(li, pi));
                }
            }
            out.extend_from_slice(&level.data[from..to]);
        }
        out.sort_by_key(|&(k, r)| (k, r.pid(), r.slot()));
        out
    }

    /// Remove every entry for `key` from the head and all levels,
    /// repaginating the affected runs. Returns how many entries were
    /// removed. (The original FD-Tree deletes via *filter* tombstone
    /// entries merged lazily; eager removal has the same observable
    /// probe behaviour, which is what the read-only harness measures.)
    pub fn delete_all(&mut self, key: u64) -> u64 {
        let before = self.n_entries();
        self.head.retain(|e| e.0 != key);
        let mut dirtied = false;
        for level in &mut self.levels {
            let n = level.data.len();
            level.data.retain(|e| e.0 != key);
            dirtied |= level.data.len() != n;
        }
        if dirtied {
            self.repaginate_from(0);
            self.rebuild_head_fences();
        }
        before - self.n_entries()
    }

    /// Insert `(key, tref)` into the head tree, merging into the levels
    /// when it fills (the logarithmic method).
    pub fn insert(&mut self, key: u64, tref: TupleRef) {
        let at = self.head.partition_point(|e| e.0 <= key);
        self.head.insert(at, (key, tref));
        if self.head.len() > self.head_capacity {
            let spill = std::mem::take(&mut self.head);
            self.merge_into(0, spill.into_iter().collect());
            self.rebuild_head_fences();
        }
    }

    /// Geometric data budget of level `i` (in entries).
    fn level_budget(&self, i: usize) -> usize {
        self.head_capacity * self.k_ratio.pow(i as u32 + 1)
    }

    fn merge_into(&mut self, i: usize, incoming: Vec<(u64, TupleRef)>) {
        if i == self.levels.len() {
            self.levels.push(Level::default());
        }
        let existing = std::mem::take(&mut self.levels[i].data);
        let merged = merge_sorted(existing, incoming);
        if merged.len() > self.level_budget(i) && i < self.levels.len() {
            // Overflow: push everything down (levels above bottom keep
            // no data after a cascading merge, as in the original).
            self.merge_into(i + 1, merged);
        } else {
            self.levels[i].data = merged;
        }
        self.repaginate_from(i.min(self.levels.len() - 1));
    }

    /// Rebuild the materialized pages of all levels, bottom-up (pages
    /// of level `l` embed fences to level `l+1`'s pages, so any
    /// repagination invalidates everything above). `_from` is the
    /// lowest dirty level; rebuilding everything above it is required
    /// and rebuilding below it is a no-op, so we simply do all levels.
    ///
    /// As in the original FD-Tree, every page that is preceded by some
    /// fence starts with a fence (an *internal fence* copy), so an
    /// in-page search always finds its governing fence.
    fn repaginate_from(&mut self, _from: usize) {
        for li in (0..self.levels.len()).rev() {
            let fences: Vec<(u64, u32)> = if li + 1 < self.levels.len() {
                self.levels[li + 1]
                    .pages
                    .iter()
                    .enumerate()
                    .map(|(pi, page)| (page.first().map(|e| e.key()).unwrap_or(0), pi as u32))
                    .collect()
            } else {
                Vec::new()
            };
            let level = &mut self.levels[li];
            let mut pages: Vec<Vec<Entry>> = Vec::new();
            let mut page: Vec<Entry> = Vec::with_capacity(self.entries_per_page);
            let mut last_fence: Option<(u64, u32)> = None;
            let mut di = 0;
            let mut fi = 0;
            while di < level.data.len() || fi < fences.len() {
                let take_data = match (level.data.get(di), fences.get(fi)) {
                    (Some(d), Some(f)) => d.0 <= f.0,
                    (Some(_), None) => true,
                    (None, Some(_)) => false,
                    (None, None) => break,
                };
                let entry = if take_data {
                    let (k, r) = level.data[di];
                    di += 1;
                    Entry::Data(k, r)
                } else {
                    let (k, p) = fences[fi];
                    fi += 1;
                    last_fence = Some((k, p));
                    Entry::Fence(k, p)
                };
                if page.len() == self.entries_per_page {
                    pages.push(std::mem::replace(
                        &mut page,
                        Vec::with_capacity(self.entries_per_page),
                    ));
                }
                // Internal fence: a fresh page whose first entry would
                // be data gets a copy of the governing fence first. The
                // copy carries the data entry's key so that upper-level
                // routing (largest fence ≤ key) stays exact.
                if page.is_empty() && !pages.is_empty() {
                    if let (Some((_, fp)), Entry::Data(dk, _)) = (last_fence, entry) {
                        page.push(Entry::Fence(dk, fp));
                    }
                }
                page.push(entry);
            }
            if !page.is_empty() {
                pages.push(page);
            }
            level.pages = pages;
        }
    }

    fn rebuild_head_fences(&mut self) {
        self.head_fences = match self.levels.first() {
            Some(l1) => l1
                .pages
                .iter()
                .enumerate()
                .map(|(pi, page)| (page.first().map(|e| e.key()).unwrap_or(0), pi as u32))
                .collect(),
            None => Vec::new(),
        };
    }

    /// Page of L1 governing `key` per the head fences.
    fn head_fence_target(&self, key: u64) -> Option<usize> {
        if self.head_fences.is_empty() {
            return None;
        }
        let at = self.head_fences.partition_point(|f| f.0 <= key);
        // Keys below the first fence still live in page 0.
        Some(self.head_fences[at.saturating_sub(1)].1 as usize)
    }
}

impl Default for FdTree {
    fn default() -> Self {
        Self::new()
    }
}

fn merge_sorted(a: Vec<(u64, TupleRef)>, b: Vec<(u64, TupleRef)>) -> Vec<(u64, TupleRef)> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() || j < b.len() {
        let from_a = match (a.get(i), b.get(j)) {
            (Some(x), Some(y)) => x.0 <= y.0,
            (Some(_), None) => true,
            _ => false,
        };
        if from_a {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bftree_storage::DeviceKind;

    fn entries(n: u64) -> impl Iterator<Item = (u64, TupleRef)> {
        (0..n).map(|k| (k, TupleRef::new(k / 16, (k % 16) as usize)))
    }

    #[test]
    fn bulk_build_and_search() {
        let t = FdTree::bulk_build(entries(100_000));
        for k in (0..100_000).step_by(97) {
            let r = t.search(k, None).unwrap_or_else(|| panic!("missing {k}"));
            assert_eq!(r.pid(), k / 16);
        }
        assert!(t.search(100_000, None).is_none());
        assert!(t.search(u64::MAX, None).is_none());
    }

    #[test]
    fn empty_tree() {
        let t = FdTree::bulk_build(std::iter::empty());
        assert!(t.search(1, None).is_none());
        assert_eq!(t.total_pages(), 0);
    }

    #[test]
    fn search_charges_one_read_per_level() {
        let t = FdTree::bulk_build(entries(1_000_000));
        let dev = PageDevice::cold(DeviceKind::Ssd);
        t.search(123_456, Some(&dev));
        assert_eq!(
            dev.snapshot().random_reads,
            t.n_levels() as u64,
            "one page per level"
        );
    }

    #[test]
    fn size_comparable_to_packed_btree() {
        // Fence-only upper levels add a geometric tail over the data
        // pages, like a B+-Tree's internal levels.
        let n = 500_000u64;
        let t = FdTree::bulk_build(entries(n));
        let data_pages = n.div_ceil(256);
        assert!(t.total_pages() >= data_pages);
        assert!(
            t.total_pages() <= data_pages + data_pages / 64 + 10,
            "{} vs {}",
            t.total_pages(),
            data_pages
        );
    }

    #[test]
    fn inserts_go_to_head_then_merge() {
        let mut t = FdTree::new();
        for k in 0..256u64 {
            t.insert(k * 2, TupleRef::new(k, 0));
        }
        assert!(t.head_len() <= 256);
        // Overflow the head.
        for k in 0..512u64 {
            t.insert(k * 2 + 1, TupleRef::new(k, 1));
        }
        assert_eq!(t.n_entries(), 768);
        for k in 0..256u64 {
            assert!(t.search(k * 2, None).is_some(), "missing bulk key {k}");
        }
        for k in 0..512u64 {
            assert!(
                t.search(k * 2 + 1, None).is_some(),
                "missing inserted key {k}"
            );
        }
    }

    #[test]
    fn cascading_merges_preserve_everything() {
        let mut t = FdTree::with_parameters(4096, 64, 4, 32);
        let mut expected = Vec::new();
        let mut state = 7u64;
        for i in 0..5_000u64 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let key = state >> 40;
            t.insert(key, TupleRef::new(i, 0));
            expected.push(key);
        }
        assert!(t.n_levels() >= 2, "should have cascaded");
        for &k in &expected {
            assert!(t.search(k, None).is_some(), "lost key {k}");
        }
    }

    #[test]
    fn search_all_collects_across_levels() {
        let mut t = FdTree::with_parameters(4096, 64, 4, 16);
        // Bulk some dups of key 42 at the bottom, then insert more.
        let mut base: Vec<(u64, TupleRef)> =
            (0..500u64).map(|k| (k, TupleRef::new(k, 0))).collect();
        base.push((42, TupleRef::new(9_000, 0)));
        base.sort_by_key(|e| e.0);
        let mut t2 = FdTree::bulk_build(base);
        t2.insert(42, TupleRef::new(9_001, 0));
        let got = t2.search_all(42, None);
        assert!(got.len() >= 3, "got {got:?}");
        let _ = &mut t;
    }

    #[test]
    fn bulk_build_large_has_multiple_levels() {
        let t = FdTree::bulk_build(entries(4_000_000));
        assert!(t.n_levels() >= 2);
        // Spot-check correctness at scale.
        for k in (0..4_000_000u64).step_by(500_003) {
            assert!(t.search(k, None).is_some());
        }
    }
}
