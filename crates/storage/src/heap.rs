//! Heap files: page-packed runs of fixed-size tuples.
//!
//! All the paper's datasets are stored as heap files whose tuples are
//! *ordered or partitioned* on the indexed attribute (the implicit
//! clustering of §1.1). The heap file does not enforce order — it packs
//! tuples in append order, exactly like loading a file ordered by
//! creation time.
//!
//! A delete lives here, with the tuple: one liveness bit per slot, in
//! atomic words, so a `&HeapFile` marks ([`HeapFile::delete_tuple`])
//! and reads it without a lock. The readers that deliver matches skip
//! dead slots; structural readers ([`HeapFile::attr`],
//! [`HeapFile::page_attrs`], [`HeapFile::iter_attr`]) see every slot:
//! a dead tuple still orders the page it sits on.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::page::{Page, PageId, PAGE_SIZE};
use crate::tuple::{AttrOffset, TupleLayout};

/// A heap file of fixed-size tuples packed into fixed-size pages.
#[derive(Debug, Clone)]
pub struct HeapFile {
    layout: TupleLayout,
    page_size: usize,
    /// `page_size / tuple size`, divided once.
    per_page: usize,
    pages: Vec<Page>,
    n_tuples: u64,
    /// The dead slots: `⌈per_page / 64⌉` words per page, bit `s % 64`
    /// of a page's word `s / 64` set once slot `s` is deleted.
    dead: DeadBits,
}

/// A heap file's deleted-slot bits. A clone copies them. Relaxed
/// ordering throughout: a mark publishes no other data.
#[derive(Debug, Default)]
struct DeadBits(Vec<AtomicU64>);

impl Clone for DeadBits {
    fn clone(&self) -> Self {
        let copy = |w: &AtomicU64| AtomicU64::new(w.load(Ordering::Relaxed));
        Self(self.0.iter().map(copy).collect())
    }
}

impl HeapFile {
    /// Empty heap file with the default 4 KB pages.
    pub fn new(layout: TupleLayout) -> Self {
        Self::with_page_size(layout, PAGE_SIZE)
    }

    /// Empty heap file with a custom page size.
    pub fn with_page_size(layout: TupleLayout, page_size: usize) -> Self {
        assert!(page_size >= layout.tuple_size());
        Self {
            layout,
            page_size,
            per_page: layout.tuples_per_page(page_size),
            pages: Vec::new(),
            n_tuples: 0,
            dead: DeadBits::default(),
        }
    }

    /// The tuple layout.
    pub fn layout(&self) -> TupleLayout {
        self.layout
    }

    /// Page size in bytes.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Tuples that fit one page.
    pub fn tuples_per_page(&self) -> usize {
        self.per_page
    }

    /// Number of pages.
    pub fn page_count(&self) -> u64 {
        self.pages.len() as u64
    }

    /// Number of tuples.
    pub fn tuple_count(&self) -> u64 {
        self.n_tuples
    }

    /// The page the next append lands on: the last page while it has
    /// a free slot, else the page after it (page 0 for an empty file).
    pub fn next_append_page(&self) -> PageId {
        self.n_tuples / self.tuples_per_page() as u64
    }

    /// Total bytes across pages.
    pub fn byte_size(&self) -> u64 {
        self.page_count() * self.page_size as u64
    }

    /// Append a tuple; returns its (page, slot) location.
    pub fn append(&mut self, tuple: &[u8]) -> (PageId, usize) {
        assert_eq!(tuple.len(), self.layout.tuple_size(), "tuple size mismatch");
        self.append_with(|slot| slot.copy_from_slice(tuple))
    }

    /// Append a (pk, att1) record using the conventional layout,
    /// written straight into its page slot.
    pub fn append_record(&mut self, pk: u64, att1: u64) -> (PageId, usize) {
        let layout = self.layout;
        self.append_with(|slot| layout.write_record(slot, pk, att1))
    }

    /// Open the next tuple slot (a fresh zeroed page at slot 0), let
    /// `write` fill its bytes in place, and return its (page, slot)
    /// location: the one append behind [`Self::append`],
    /// [`Self::append_record`] and `Relation::append_tuple`.
    pub(crate) fn append_with(&mut self, write: impl FnOnce(&mut [u8])) -> (PageId, usize) {
        // The last page's fill: tuples past the full pages before it.
        let full_before = self.pages.len().saturating_sub(1) as u64 * self.per_page as u64;
        let mut slot = (self.n_tuples - full_before) as usize;
        if self.pages.is_empty() || slot == self.per_page {
            self.pages.push(Page::zeroed(self.page_size));
            let words = 0..self.per_page.div_ceil(64);
            self.dead.0.extend(words.map(|_| AtomicU64::new(0)));
            slot = 0;
        }
        let pid = (self.pages.len() - 1) as PageId;
        let size = self.layout.tuple_size();
        let off = slot * size;
        write(&mut self.pages[pid as usize].bytes_mut()[off..off + size]);
        self.n_tuples += 1;
        (pid, slot)
    }

    /// A copy of this heap file cut back to its first `n_tuples`
    /// tuples — the file as it stood before later appends, with the
    /// kept tuples' delete marks. Crash recovery uses this to rebuild
    /// an index over the heap frontier a WAL checkpoint recorded, then
    /// replay logged operations on top. `n_tuples` beyond the current
    /// count clamps to a full copy.
    pub fn truncated(&self, n_tuples: u64) -> HeapFile {
        let n = n_tuples.min(self.n_tuples);
        let per = self.tuples_per_page() as u64;
        let n_pages = n.div_ceil(per) as usize;
        let mut pages: Vec<Page> = self.pages[..n_pages].to_vec();
        let words = self.per_page.div_ceil(64);
        let mut dead = self.dead.clone();
        dead.0.truncate(n_pages * words);
        // Zero the dropped tail of the last kept page so the copy is
        // byte-identical to the heap before the extra appends.
        if let Some(last) = pages.last_mut() {
            let kept = (n - (n_pages as u64 - 1) * per) as usize;
            let from = kept * self.layout.tuple_size();
            for b in &mut last.bytes_mut()[from..] {
                *b = 0;
            }
            for (w, word) in dead.0[(n_pages - 1) * words..].iter_mut().enumerate() {
                let keep = kept.saturating_sub(64 * w).min(64) as u32;
                *word.get_mut() &= u64::MAX.checked_shr(64 - keep).unwrap_or(0);
            }
        }
        HeapFile {
            layout: self.layout,
            page_size: self.page_size,
            per_page: self.per_page,
            pages,
            n_tuples: n,
            dead,
        }
    }

    /// Number of tuples stored in `pid` (full pages except possibly the
    /// last; 0 for a page past the last).
    pub fn tuples_in_page(&self, pid: PageId) -> usize {
        let per = self.tuples_per_page() as u64;
        let full_before = pid.saturating_mul(per);
        (self.n_tuples.saturating_sub(full_before).min(per)) as usize
    }

    /// Word `w` of page `pid`'s dead-slot bits.
    fn dead_word(&self, pid: PageId, w: usize) -> &AtomicU64 {
        &self.dead.0[pid as usize * self.per_page.div_ceil(64) + w]
    }

    /// Delete tuple `(pid, slot)`: mark its slot dead, through a shared
    /// reference. Returns whether it was live. The bytes stay, so
    /// structural readers still see the tuple; the readers that deliver
    /// matches skip it from now on.
    pub fn delete_tuple(&self, pid: PageId, slot: usize) -> bool {
        debug_assert!(slot < self.tuples_in_page(pid), "slot out of range");
        let (word, bit) = (self.dead_word(pid, slot / 64), 1u64 << (slot % 64));
        word.fetch_or(bit, Ordering::Relaxed) & bit == 0
    }

    /// Whether tuple `(pid, slot)` has not been deleted.
    pub fn is_live(&self, pid: PageId, slot: usize) -> bool {
        self.dead_word(pid, slot / 64).load(Ordering::Relaxed) >> (slot % 64) & 1 == 0
    }

    /// Deleted tuples on page `pid`.
    pub fn dead_in_page(&self, pid: PageId) -> usize {
        (0..self.per_page.div_ceil(64))
            .map(|w| self.dead_word(pid, w).load(Ordering::Relaxed).count_ones() as usize)
            .sum()
    }

    /// Raw bytes of tuple `(pid, slot)`.
    pub fn tuple(&self, pid: PageId, slot: usize) -> &[u8] {
        debug_assert!(slot < self.tuples_in_page(pid), "slot out of range");
        let off = slot * self.layout.tuple_size();
        &self.pages[pid as usize].bytes()[off..off + self.layout.tuple_size()]
    }

    /// Read attribute `attr` of tuple `(pid, slot)`.
    pub fn attr(&self, pid: PageId, slot: usize, attr: AttrOffset) -> u64 {
        self.layout.read_attr(self.tuple(pid, slot), attr)
    }

    /// Attribute `attr` of every tuple on page `pid`, in slot order —
    /// the one linear page scan behind [`Self::scan_page_for`] and the
    /// range cursors' per-page filter. One page lookup, then one
    /// bounds-checked sub-slice per tuple (`chunks_exact`) instead of
    /// [`Self::attr`]'s lookup and two checked slicings per tuple.
    pub fn page_attrs(&self, pid: PageId, attr: AttrOffset) -> impl Iterator<Item = u64> + '_ {
        let n = self.tuples_in_page(pid);
        self.pages[pid as usize]
            .bytes()
            .chunks_exact(self.layout.tuple_size())
            .take(n)
            .map(move |tuple| {
                u64::from_le_bytes(
                    tuple[attr.0..attr.0 + 8]
                        .try_into()
                        .expect("attr within tuple"),
                )
            })
    }

    /// Scan page `pid` for live tuples whose `attr` equals `key`,
    /// appending matching slots to `out`. Returns the number of tuples
    /// examined (the CPU cost the paper's §6.3 mentions: "every tuple
    /// of that page has to be read and checked").
    pub fn scan_page_for(
        &self,
        pid: PageId,
        attr: AttrOffset,
        key: u64,
        out: &mut Vec<usize>,
    ) -> usize {
        for (slot, v) in self.page_attrs(pid, attr).enumerate() {
            if v == key && self.is_live(pid, slot) {
                out.push(slot);
            }
        }
        self.tuples_in_page(pid)
    }

    /// [`Self::scan_page_for`] over a group of `(page, key)` queries,
    /// as bit masks. `masks` receives `words` = ⌈tuples per page / 64⌉
    /// words per query, in query order; bit `b` of a query's word `w`
    /// is set when slot `64·w + b` of its page carries its key and is
    /// live. Returns `words`. Every page must exist.
    ///
    /// Several pages are compared slot-major, sixteen at a time: slot 0
    /// of each page, then slot 1 of each, and so on, into a local array
    /// of masks and with no branch on the data. So the group's cache
    /// and TLB misses are in flight together, where a page-by-page scan
    /// waits out one page's misses before it reaches the next page. For
    /// a lone page [`Self::scan_page_for`] is the cheaper form.
    pub fn match_masks(
        &self,
        queries: &[(PageId, u64)],
        attr: AttrOffset,
        masks: &mut Vec<u64>,
    ) -> usize {
        const BLOCK: usize = 16;
        let per = self.tuples_per_page();
        let words = per.div_ceil(64);
        masks.clear();
        masks.resize(queries.len() * words, 0);
        let tuple_size = self.layout.tuple_size();
        for (block, out) in queries.chunks(BLOCK).zip(masks.chunks_mut(BLOCK * words)) {
            let mut pages: [&[u8]; BLOCK] = [&[]; BLOCK];
            let mut keys = [0u64; BLOCK];
            for (q, &(pid, key)) in block.iter().enumerate() {
                let used = self.tuples_in_page(pid) * tuple_size;
                pages[q] = &self.pages[pid as usize].bytes()[..used];
                keys[q] = key;
            }
            for w in 0..words {
                let mut hits = [0u64; BLOCK];
                for slot in 64 * w..per.min(64 * w + 64) {
                    let at = slot * tuple_size + attr.0;
                    for q in 0..BLOCK {
                        // Past its page's last tuple (or past the
                        // block's last query) a page has no such slot.
                        if let Some(v) = pages[q].get(at..at + 8) {
                            let v = u64::from_le_bytes(v.try_into().expect("8 bytes"));
                            hits[q] |= u64::from(v == keys[q]) << (slot % 64);
                        }
                    }
                }
                for (q, (&hit, &(pid, _))) in hits.iter().zip(block).enumerate() {
                    out[q * words + w] = hit & !self.dead_word(pid, w).load(Ordering::Relaxed);
                }
            }
        }
        words
    }

    /// Read tuple `slot`'s `attr` from `bytes` (the sorted scan's
    /// probe).
    #[inline]
    fn attr_at(bytes: &[u8], tuple_size: usize, attr: AttrOffset, slot: usize) -> u64 {
        let at = slot * tuple_size + attr.0;
        u64::from_le_bytes(bytes[at..at + 8].try_into().expect("attr within tuple"))
    }

    /// [`Self::scan_page_for`] for pages whose tuples are **ordered**
    /// on `attr` (heaps ordered on the indexed attribute): binary
    /// search down to a ≤ 4-tuple window whose slots below it all hold
    /// attrs `< key`, then walk forward collecting the run of `key`
    /// (which may extend past the window). Touches a handful of cache
    /// lines instead of every tuple's, but the binary probes are a
    /// serial chain of misses on a cold page, where the linear scan's
    /// independent line fills win. Returns the number of tuples
    /// examined (probes + walk).
    ///
    /// Results are identical to [`Self::scan_page_for`] when the page
    /// really is ordered; unordered pages must use the linear scan.
    pub fn scan_sorted_page_for(
        &self,
        pid: PageId,
        attr: AttrOffset,
        key: u64,
        out: &mut Vec<usize>,
    ) -> usize {
        let n = self.tuples_in_page(pid);
        let tuple_size = self.layout.tuple_size();
        let bytes = self.pages[pid as usize].bytes();
        let (mut lo, mut hi) = (0usize, n);
        let mut examined = 0usize;
        while hi - lo > 4 {
            let mid = lo + (hi - lo) / 2;
            examined += 1;
            if Self::attr_at(bytes, tuple_size, attr, mid) < key {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        for slot in lo..n {
            examined += 1;
            let v = Self::attr_at(bytes, tuple_size, attr, slot);
            if v > key {
                break;
            }
            if v == key && self.is_live(pid, slot) {
                out.push(slot);
            }
        }
        examined
    }

    /// Iterate all tuples as `(pid, slot, attr_value)` for one attribute.
    pub fn iter_attr(&self, attr: AttrOffset) -> impl Iterator<Item = (PageId, usize, u64)> + '_ {
        (0..self.page_count()).flat_map(move |pid| {
            self.page_attrs(pid, attr)
                .enumerate()
                .map(move |(slot, v)| (pid, slot, v))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::{Duplicates, Relation};
    use crate::tuple::{ATT1_OFFSET, PK_OFFSET};

    fn small_heap(n: u64) -> HeapFile {
        let mut h = HeapFile::with_page_size(TupleLayout::new(64), 256); // 4 tuples/page
        for pk in 0..n {
            h.append_record(pk, pk / 3);
        }
        h
    }

    /// A cut heap keeps packing where the cut left off: into the last
    /// kept page, or a fresh one after a full page or no page at all.
    #[test]
    fn appends_after_a_cut_continue_the_packing() {
        let h = small_heap(10);
        for (cut, next) in [(0, (0, 0)), (3, (0, 3)), (4, (1, 0)), (9, (2, 1))] {
            let mut t = h.truncated(cut);
            assert_eq!(t.tuples_per_page(), 4);
            assert_eq!(t.append_record(99, 99), next, "cut at {cut}");
            assert_eq!(t.tuple_count(), cut + 1);
        }
    }

    #[test]
    fn append_packs_pages() {
        let h = small_heap(10);
        assert_eq!(h.tuples_per_page(), 4);
        assert_eq!(h.page_count(), 3);
        assert_eq!(h.tuple_count(), 10);
        assert_eq!(h.tuples_in_page(0), 4);
        assert_eq!(h.tuples_in_page(1), 4);
        assert_eq!(h.tuples_in_page(2), 2);
    }

    #[test]
    fn the_next_append_lands_on_the_last_page_until_it_is_full() {
        assert_eq!(small_heap(0).next_append_page(), 0);
        for n in 1..=12 {
            let mut h = small_heap(n);
            let expected = h.next_append_page();
            assert_eq!(h.append_record(n, n).0, expected, "after {n} tuples");
        }
    }

    #[test]
    fn attrs_roundtrip() {
        let h = small_heap(10);
        assert_eq!(h.attr(1, 2, PK_OFFSET), 6);
        assert_eq!(h.attr(1, 2, ATT1_OFFSET), 2);
    }

    #[test]
    fn scan_page_finds_all_matches() {
        let h = small_heap(12);
        // ATT1 = pk/3: page 1 holds pks 4..8 -> att1 {1,1,2,2}.
        let mut out = Vec::new();
        let examined = h.scan_page_for(1, ATT1_OFFSET, 2, &mut out);
        assert_eq!(examined, 4);
        assert_eq!(out, vec![2, 3]);
    }

    #[test]
    fn scan_page_no_match_examines_all() {
        let h = small_heap(12);
        let mut out = Vec::new();
        let examined = h.scan_page_for(0, ATT1_OFFSET, 99, &mut out);
        assert_eq!(examined, 4);
        assert!(out.is_empty());
    }

    /// The sorted scan finds exactly the linear scan's slots on ordered
    /// pages whose duplicate runs (1–20 tuples) straddle the ≤ 4-tuple
    /// window and the page ends, for keys present, absent between runs
    /// and outside the page's range.
    #[test]
    fn sorted_scan_matches_linear_scan_on_ordered_pages() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        for (seed, (tuple_size, page_size)) in
            [(64, 256), (256, 4096), (64, 4096)].into_iter().enumerate()
        {
            let mut rng = StdRng::seed_from_u64(0x5C4A + seed as u64);
            let mut h = HeapFile::with_page_size(TupleLayout::new(tuple_size), page_size);
            let mut key = 10u64;
            while h.tuple_count() < 2_000 {
                key += rng.random_range(1..=3u64);
                for _ in 0..rng.random_range(1..=20u64) {
                    h.append_record(h.tuple_count(), key);
                }
            }
            let mut straddles = 0;
            let (mut sorted, mut linear) = (Vec::new(), Vec::new());
            for pid in 0..h.page_count() {
                let per = h.tuples_per_page();
                if pid > 0 && h.attr(pid, 0, ATT1_OFFSET) == h.attr(pid - 1, per - 1, ATT1_OFFSET) {
                    straddles += 1;
                }
                let lo = h.page_attrs(pid, ATT1_OFFSET).min().unwrap();
                let hi = h.page_attrs(pid, ATT1_OFFSET).max().unwrap();
                for probe in (lo.saturating_sub(3)..=hi + 3).chain([0, u64::MAX]) {
                    sorted.clear();
                    linear.clear();
                    h.scan_sorted_page_for(pid, ATT1_OFFSET, probe, &mut sorted);
                    h.scan_page_for(pid, ATT1_OFFSET, probe, &mut linear);
                    assert_eq!(
                        sorted, linear,
                        "{tuple_size} B tuples: page {pid}, key {probe}"
                    );
                }
            }
            assert!(straddles > 0, "some run crosses a page end");
        }
    }

    /// The relation over a heap records each page's tight key range.
    #[test]
    fn page_attr_range_is_tight() {
        let rel = Relation::new(small_heap(12), PK_OFFSET, Duplicates::Unique).unwrap();
        let range = |pid| rel.page_facts(pid).map(|f| (f.min, f.max));
        assert_eq!(range(0), Some((0, 3)));
        assert_eq!(range(2), Some((8, 11)));
        assert_eq!(range(3), None);
    }

    #[test]
    fn iter_attr_visits_every_tuple_in_order() {
        let h = small_heap(9);
        let pks: Vec<u64> = h.iter_attr(PK_OFFSET).map(|(_, _, v)| v).collect();
        assert_eq!(pks, (0..9).collect::<Vec<_>>());
    }

    #[test]
    fn paper_sized_heap() {
        // 1 GB relation of 256 B tuples = 4M tuples, 16/page, 262144 pages.
        // Scaled down 64x here to keep the test fast: 65536 tuples.
        let mut h = HeapFile::new(TupleLayout::new(256));
        for pk in 0..65_536u64 {
            h.append_record(pk, pk / 11);
        }
        assert_eq!(h.tuples_per_page(), 16);
        assert_eq!(h.page_count(), 4096);
    }

    /// `match_masks` marks exactly the slots `scan_page_for` lists, for
    /// groups smaller than, equal to and larger than its block of 16
    /// pages, with a partial last page, with keys on several slots of a
    /// page and on none, and with 4, 16 and 256 tuples a page (one mask
    /// word, and four).
    #[test]
    fn match_masks_mark_the_slots_scan_page_for_lists() {
        for (tuple_size, page_size) in [(64, 256), (256, 4096), (16, 4096)] {
            let mut h = HeapFile::with_page_size(TupleLayout::new(tuple_size), page_size);
            let n = 3 * h.tuples_per_page() as u64 * 17 + 5; // partial last page
            for pk in 0..n {
                h.append_record(pk, pk / 3);
            }
            let pages = h.page_count();
            let mut masks = Vec::new();
            for group in [1usize, 2, 15, 16, 17, 40] {
                for attr in [PK_OFFSET, ATT1_OFFSET] {
                    let queries: Vec<(PageId, u64)> = (0..group as u64)
                        .map(|i| {
                            let pid = (i * 7 + pages - 1) % pages; // the last page first
                            let first = h.attr(pid, 0, attr);
                            // Present, present on several slots (att1),
                            // or absent.
                            (pid, first + i % 3 * (1 + n))
                        })
                        .collect();
                    let words = h.match_masks(&queries, attr, &mut masks);
                    assert_eq!(words, h.tuples_per_page().div_ceil(64));
                    assert_eq!(masks.len(), group * words);
                    for (q, &(pid, key)) in queries.iter().enumerate() {
                        let mut expect = Vec::new();
                        h.scan_page_for(pid, attr, key, &mut expect);
                        let got: Vec<usize> = (0..64 * words)
                            .filter(|&s| masks[q * words + s / 64] >> (s % 64) & 1 == 1)
                            .collect();
                        assert_eq!(
                            got, expect,
                            "{tuple_size} B tuples, group {group}, query {q}"
                        );
                    }
                }
            }
        }
    }

    /// A deleted slot stays in place for structural readers and is
    /// skipped by every reader that delivers matches, on 4 and on 256
    /// tuples a page (one dead-bit word, and four).
    #[test]
    fn deleted_slots_are_skipped_by_match_readers_only() {
        for (tuple_size, page_size) in [(64, 256), (16, 4096)] {
            let mut h = HeapFile::with_page_size(TupleLayout::new(tuple_size), page_size);
            let n = 2 * h.tuples_per_page() as u64 + 3;
            for pk in 0..n {
                h.append_record(pk, pk / 3);
            }
            let dead = |pk: u64| pk % 5 == 1;
            let per = h.tuples_per_page() as u64;
            for pk in (0..n).filter(|&pk| dead(pk)) {
                assert!(h.delete_tuple(pk / per, (pk % per) as usize));
                assert!(!h.delete_tuple(pk / per, (pk % per) as usize), "once");
            }
            assert_eq!(h.iter_attr(PK_OFFSET).count() as u64, n, "structural");
            let mut masks = Vec::new();
            for pk in 0..n {
                let (pid, slot) = (pk / per, (pk % per) as usize);
                assert_eq!(h.is_live(pid, slot), !dead(pk));
                let mut out = Vec::new();
                h.scan_page_for(pid, PK_OFFSET, pk, &mut out);
                assert_eq!(out.is_empty(), dead(pk), "scan_page_for, pk {pk}");
                let words = h.match_masks(&[(pid, pk)], PK_OFFSET, &mut masks);
                let bit = masks[slot / 64] >> (slot % 64) & 1;
                assert_eq!(words, h.tuples_per_page().div_ceil(64));
                assert_eq!(bit == 0, dead(pk), "match_masks, pk {pk}");
            }
            for pid in 0..h.page_count() {
                let want = (pid * per..(pid * per + per).min(n)).filter(|&pk| dead(pk));
                assert_eq!(h.dead_in_page(pid), want.count());
            }
        }
    }

    /// Clones and cuts keep the kept tuples' marks; a cut forgets the
    /// marks of the tuples it drops, so appends after it start live.
    #[test]
    fn clones_and_cuts_copy_the_delete_marks() {
        let mut h = HeapFile::with_page_size(TupleLayout::new(64), 256); // 4 tuples/page
        for pk in 0..10 {
            h.append_record(pk, pk);
        }
        for (pid, slot) in [(0, 1), (1, 2), (1, 3), (2, 0)] {
            h.delete_tuple(pid, slot);
        }
        let copy = h.clone();
        assert!(!copy.is_live(1, 3) && copy.is_live(1, 1));
        h.delete_tuple(0, 0);
        assert!(copy.is_live(0, 0), "a clone is a copy, not a view");
        let mut cut = h.truncated(6);
        assert_eq!((cut.dead_in_page(0), cut.dead_in_page(1)), (2, 0));
        assert_eq!(cut.append_record(6, 6), (1, 2));
        assert_eq!(cut.append_record(7, 7), (1, 3));
        assert!(cut.is_live(1, 2) && cut.is_live(1, 3));
        assert_eq!(h.truncated(8).dead_in_page(1), 2);
    }

    #[test]
    fn tuples_in_page_is_zero_past_the_last_page() {
        let h = small_heap(10); // 3 pages, the last holding 2 of 4
        assert_eq!(h.tuples_in_page(h.page_count() - 1), 2);
        assert_eq!(h.tuples_in_page(h.page_count()), 0);
        assert_eq!(h.tuples_in_page(h.page_count() + 3), 0);
    }

    fn page_crcs(heap: &HeapFile) -> Vec<u32> {
        heap.pages
            .iter()
            .map(|p| crate::codec::crc32(p.bytes()))
            .collect()
    }

    /// Every appending path writes the bytes its parent commit wrote,
    /// page for page: `append_record` on full 4 KB pages and on small
    /// pages whose last one is partial, and `Relation::append_tuple`
    /// with the key on the pk, on att1 and on an unconventional offset.
    /// The values are the parent's `crc32` of each page; re-record
    /// them only in a change that means to move a tuple's bytes.
    #[test]
    fn appended_pages_are_byte_identical_to_the_recorded_parent() {
        let mut h = HeapFile::new(TupleLayout::new(256));
        for i in 0..1_000u64 {
            h.append_record(i * 7 + 3, i / 5);
        }
        assert_eq!(
            page_crcs(&h),
            [
                0x6af532cc, 0x044a694f, 0xeeb6e828, 0xe1e8d75c, 0x242077c6, 0x4e241095, 0x3fa4053f,
                0xeb998f2a, 0x5c7d43a0, 0x6b0988f3, 0x3b04c219, 0xdc7c9715, 0x2194e538, 0x6c2cb01d,
                0x91e970da, 0x091fe2ee, 0x31b0dbdb, 0x30af0d0d, 0xea8a6877, 0x716bc62c, 0xf14da20f,
                0x83557bd9, 0xb26ca8bd, 0x1f614846, 0xec50bc34, 0x578b1ad6, 0x8466289c, 0x80ee9357,
                0xcaf67808, 0x877975e3, 0xe8799f7a, 0xc46e89a2, 0x481d5328, 0xc457ca61, 0xe72b3c61,
                0xbe614533, 0x3d174a4a, 0xb70075db, 0x2475a2bb, 0x39c85fc9, 0x86ff52f1, 0x4acf83e5,
                0xeef4a10a, 0xeb7936cc, 0xdf113386, 0x4d79e0e9, 0xf2d1c1e5, 0xb1665a68, 0x6b3ca197,
                0xa3a30026, 0x389033a4, 0xbb5341f0, 0xc09ac28e, 0x5077d992, 0x4a99c4cb, 0xe54db7f3,
                0xb05cb9b3, 0xd0c616e8, 0xe1dee668, 0xdb4997d8, 0x7dfdb2cc, 0x96524515, 0x733a354d
            ]
        );

        let mut h = HeapFile::with_page_size(TupleLayout::new(64), 256);
        for i in 0..102u64 {
            h.append_record(i.wrapping_mul(0x9E37_79B9_7F4A_7C15), !i);
        }
        assert_eq!(
            h.tuples_in_page(h.page_count() - 1),
            2,
            "a partial last page"
        );
        assert_eq!(
            page_crcs(&h),
            [
                0x57e45244, 0x3dd021f1, 0x65140c4e, 0x2571d10a, 0xf5ae1a4b, 0x26cc51a5, 0x4c748323,
                0x70d3e7a8, 0xca2a7249, 0x2fbe6e90, 0x042af7c4, 0xe563bd07, 0x0dbf2256, 0xd26ed13a,
                0xaf21bb44, 0xe0461089, 0x299afa83, 0x0e710977, 0x9f906ecd, 0x18e24cec, 0x0f6c9fd9,
                0x0f2dbc95, 0x5abd7492, 0x2cf85db3, 0x9c8fbe1e, 0x1158c724
            ]
        );

        let io = crate::context::IoContext::unmetered();
        for (attr, crcs) in [
            (PK_OFFSET, [0x1b6b0d1b, 0xb4f8965d, 0xd4d4ef3f]),
            (ATT1_OFFSET, [0x43057d21, 0xc035356e, 0x47d26406]),
            (AttrOffset(24), [0xcf44ca3d, 0xbb58f057, 0x5b107534]),
        ] {
            let heap = HeapFile::new(TupleLayout::new(256));
            let mut rel = Relation::new(heap, attr, Duplicates::Unique).unwrap();
            for i in 0..40u64 {
                rel.append_tuple(1_000 + i, i * 3, &io);
            }
            assert_eq!(page_crcs(rel.heap()), crcs, "indexed at byte {}", attr.0);
        }
    }

    #[test]
    #[should_panic(expected = "tuple size mismatch")]
    fn append_rejects_wrong_size() {
        let mut h = HeapFile::new(TupleLayout::new(256));
        h.append(&[0u8; 100]);
    }
}
