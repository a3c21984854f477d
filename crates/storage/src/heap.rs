//! Heap files: page-packed runs of fixed-size tuples.
//!
//! All the paper's datasets are stored as heap files whose tuples are
//! *ordered or partitioned* on the indexed attribute (the implicit
//! clustering of §1.1). The heap file does not enforce order — it packs
//! tuples in append order, exactly like loading a file ordered by
//! creation time.

use crate::page::{Page, PageId, PAGE_SIZE};
use crate::tuple::{AttrOffset, TupleLayout};

/// A heap file of fixed-size tuples packed into fixed-size pages.
#[derive(Debug, Clone)]
pub struct HeapFile {
    layout: TupleLayout,
    page_size: usize,
    pages: Vec<Page>,
    n_tuples: u64,
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
            pages: Vec::new(),
            n_tuples: 0,
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
        self.layout.tuples_per_page(self.page_size)
    }

    /// Number of pages.
    pub fn page_count(&self) -> u64 {
        self.pages.len() as u64
    }

    /// Number of tuples.
    pub fn tuple_count(&self) -> u64 {
        self.n_tuples
    }

    /// Total bytes across pages.
    pub fn byte_size(&self) -> u64 {
        self.page_count() * self.page_size as u64
    }

    /// Append a tuple; returns its (page, slot) location.
    pub fn append(&mut self, tuple: &[u8]) -> (PageId, usize) {
        assert_eq!(tuple.len(), self.layout.tuple_size(), "tuple size mismatch");
        let per = self.tuples_per_page();
        let slot = (self.n_tuples % per as u64) as usize;
        if slot == 0 {
            self.pages.push(Page::zeroed(self.page_size));
        }
        let pid = (self.pages.len() - 1) as PageId;
        let off = slot * self.layout.tuple_size();
        self.pages[pid as usize].bytes_mut()[off..off + tuple.len()].copy_from_slice(tuple);
        self.n_tuples += 1;
        (pid, slot)
    }

    /// Append a (pk, att1) record using the conventional layout.
    pub fn append_record(&mut self, pk: u64, att1: u64) -> (PageId, usize) {
        let t = self.layout.make_tuple(pk, att1);
        self.append(&t)
    }

    /// A copy of this heap file cut back to its first `n_tuples`
    /// tuples — the file as it stood before later appends. Crash
    /// recovery uses this to rebuild an index over the heap frontier a
    /// WAL checkpoint recorded, then replay logged inserts on top.
    /// `n_tuples` beyond the current count clamps to a full copy.
    pub fn truncated(&self, n_tuples: u64) -> HeapFile {
        let n = n_tuples.min(self.n_tuples);
        let per = self.tuples_per_page() as u64;
        let n_pages = n.div_ceil(per) as usize;
        let mut pages: Vec<Page> = self.pages[..n_pages].to_vec();
        // Zero the dropped tail of the last kept page so the copy is
        // byte-identical to the heap before the extra appends.
        if let Some(last) = pages.last_mut() {
            let kept = (n - (n_pages as u64 - 1) * per) as usize;
            let from = kept * self.layout.tuple_size();
            for b in &mut last.bytes_mut()[from..] {
                *b = 0;
            }
        }
        HeapFile {
            layout: self.layout,
            page_size: self.page_size,
            pages,
            n_tuples: n,
        }
    }

    /// Number of tuples stored in `pid` (full pages except possibly the
    /// last).
    pub fn tuples_in_page(&self, pid: PageId) -> usize {
        let per = self.tuples_per_page() as u64;
        let full_before = pid * per;
        ((self.n_tuples - full_before).min(per)) as usize
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

    /// Scan page `pid` for tuples whose `attr` equals `key`, appending
    /// matching slots to `out`. Returns the number of tuples examined
    /// (the CPU cost the paper's §6.3 mentions: "every tuple of that
    /// page has to be read and checked").
    pub fn scan_page_for(
        &self,
        pid: PageId,
        attr: AttrOffset,
        key: u64,
        out: &mut Vec<usize>,
    ) -> usize {
        for (slot, v) in self.page_attrs(pid, attr).enumerate() {
            if v == key {
                out.push(slot);
            }
        }
        self.tuples_in_page(pid)
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
            if v == key {
                out.push(slot);
            }
        }
        examined
    }

    /// Minimum and maximum of `attr` within page `pid`; `None` for an
    /// empty page.
    pub fn page_attr_range(&self, pid: PageId, attr: AttrOffset) -> Option<(u64, u64)> {
        self.page_attrs(pid, attr)
            .fold(None, |range, v| match range {
                None => Some((v, v)),
                Some((lo, hi)) => Some((v.min(lo), v.max(hi))),
            })
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
    use crate::tuple::{ATT1_OFFSET, PK_OFFSET};

    fn small_heap(n: u64) -> HeapFile {
        let mut h = HeapFile::with_page_size(TupleLayout::new(64), 256); // 4 tuples/page
        for pk in 0..n {
            h.append_record(pk, pk / 3);
        }
        h
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
                let (lo, hi) = h.page_attr_range(pid, ATT1_OFFSET).unwrap();
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

    #[test]
    fn page_attr_range_is_tight() {
        let h = small_heap(12);
        assert_eq!(h.page_attr_range(0, PK_OFFSET), Some((0, 3)));
        assert_eq!(h.page_attr_range(2, PK_OFFSET), Some((8, 11)));
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

    #[test]
    #[should_panic(expected = "tuple size mismatch")]
    fn append_rejects_wrong_size() {
        let mut h = HeapFile::new(TupleLayout::new(256));
        h.append(&[0u8; 100]);
    }
}
