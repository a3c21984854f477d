//! Index-free search over a heap file *ordered* on an attribute —
//! the paper's §7 comparators: binary search (`log₂ N` page reads) and
//! interpolation search (`log log N` expected page reads on uniform
//! data [Perl, Itai & Avni 1978]).
//!
//! Both operate at page granularity, as an access method would: each
//! step reads one page (charged to the optional device) and compares
//! against the page's key range.
//!
//! Driver: `figures sec7_access_methods` (the index-free rows of the
//! §7 comparison).

use crate::backend::PageDevice;
use crate::heap::HeapFile;
use crate::tuple::AttrOffset;
use crate::PageId;

/// Outcome of an index-free search.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SearchResult {
    /// Matching tuples as `(page id, slot)` (all duplicates, which are
    /// contiguous in an ordered heap).
    pub matches: Vec<(PageId, usize)>,
    /// Pages read while searching (the probe's entire I/O).
    pub pages_read: u64,
}

/// Binary search for `key` over a heap ordered on `attr`.
pub fn binary_search(
    heap: &HeapFile,
    attr: AttrOffset,
    key: u64,
    dev: Option<&PageDevice>,
) -> SearchResult {
    let mut result = SearchResult::default();
    if heap.page_count() == 0 {
        return result;
    }
    let (mut lo, mut hi) = (0u64, heap.page_count() - 1);
    while lo <= hi {
        let mid = lo + (hi - lo) / 2;
        let Some((pmin, pmax)) = read_range(heap, attr, mid, dev, &mut result) else {
            break;
        };
        if key < pmin {
            if mid == 0 {
                break;
            }
            hi = mid - 1;
        } else if key > pmax {
            lo = mid + 1;
        } else {
            collect_run(heap, attr, key, mid, dev, &mut result);
            return result;
        }
    }
    result
}

/// Interpolation search for `key` over a heap ordered on `attr`:
/// guesses the page from the key's position within the remaining
/// `[lo, hi]` key range. `log log N` expected page reads for uniform
/// keys; degrades toward linear on skew (the reason the paper calls
/// the BF-Tree "a more general access method").
pub fn interpolation_search(
    heap: &HeapFile,
    attr: AttrOffset,
    key: u64,
    dev: Option<&PageDevice>,
) -> SearchResult {
    let mut result = SearchResult::default();
    if heap.page_count() == 0 {
        return result;
    }
    let (mut lo, mut hi) = (0u64, heap.page_count() - 1);
    // Key bounds of the remaining window, refined as pages are read.
    let Some((mut kmin, _)) = read_range(heap, attr, lo, dev, &mut result) else {
        return result;
    };
    let Some((_, mut kmax)) = read_range(heap, attr, hi, dev, &mut result) else {
        return result;
    };
    if key < kmin || key > kmax {
        return result;
    }
    // The boundary pages may already hold the key.
    for edge in [lo, hi] {
        let (pmin, pmax) = heap.page_attr_range(edge, attr).expect("non-empty page");
        if key >= pmin && key <= pmax {
            collect_run(heap, attr, key, edge, dev, &mut result);
            return result;
        }
    }
    while lo < hi {
        let frac = if kmax > kmin {
            (key - kmin) as f64 / (kmax - kmin) as f64
        } else {
            0.5
        };
        let guess = (lo + 1)
            .max(lo + ((hi - lo) as f64 * frac) as u64)
            .min(hi.saturating_sub(1).max(lo + 1));
        let Some((pmin, pmax)) = read_range(heap, attr, guess, dev, &mut result) else {
            break;
        };
        if key < pmin {
            hi = guess;
            kmax = pmin;
        } else if key > pmax {
            lo = guess;
            kmin = pmax;
        } else {
            collect_run(heap, attr, key, guess, dev, &mut result);
            return result;
        }
        if hi - lo <= 1 {
            break;
        }
    }
    result
}

/// Read page `pid` (charged) and return its attribute range.
fn read_range(
    heap: &HeapFile,
    attr: AttrOffset,
    pid: PageId,
    dev: Option<&PageDevice>,
    result: &mut SearchResult,
) -> Option<(u64, u64)> {
    if let Some(d) = dev {
        d.read_random(pid);
    }
    result.pages_read += 1;
    heap.page_attr_range(pid, attr)
}

/// Collect every duplicate of `key` around anchor page `pid`
/// (duplicates are contiguous in an ordered heap): walk left while
/// pages still start at or below the key, then sweep right.
fn collect_run(
    heap: &HeapFile,
    attr: AttrOffset,
    key: u64,
    pid: PageId,
    dev: Option<&PageDevice>,
    result: &mut SearchResult,
) {
    let mut first = pid;
    while first > 0 {
        match heap.page_attr_range(first - 1, attr) {
            Some((_, pmax)) if pmax >= key => {
                first -= 1;
                if let Some(d) = dev {
                    d.read_random(first);
                }
                result.pages_read += 1;
            }
            _ => break,
        }
    }
    let mut cur = first;
    loop {
        let mut slots = Vec::new();
        heap.scan_page_for(cur, attr, key, &mut slots);
        for slot in slots {
            result.matches.push((cur, slot));
        }
        // Continue while the run spills right.
        let n = heap.tuples_in_page(cur);
        if n == 0 || heap.attr(cur, n - 1, attr) != key || cur + 1 >= heap.page_count() {
            break;
        }
        cur += 1;
        if let Some(d) = dev {
            d.read_seq(cur);
        }
        result.pages_read += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::{TupleLayout, PK_OFFSET};

    fn heap(n: u64) -> HeapFile {
        let mut h = HeapFile::new(TupleLayout::new(256));
        for pk in 0..n {
            h.append_record(pk * 3, pk); // sparse keys 0, 3, 6, ...
        }
        h
    }

    #[test]
    fn both_find_every_present_key() {
        let h = heap(10_000);
        for pk in (0..10_000u64).step_by(331) {
            let key = pk * 3;
            for r in [
                binary_search(&h, PK_OFFSET, key, None),
                interpolation_search(&h, PK_OFFSET, key, None),
            ] {
                assert_eq!(r.matches.len(), 1, "key {key}");
                let (pid, slot) = r.matches[0];
                assert_eq!(h.attr(pid, slot, PK_OFFSET), key);
            }
        }
    }

    #[test]
    fn both_reject_absent_keys() {
        let h = heap(10_000);
        for key in [1u64, 29_998, 50_000_000] {
            assert!(binary_search(&h, PK_OFFSET, key, None).matches.is_empty());
            assert!(interpolation_search(&h, PK_OFFSET, key, None)
                .matches
                .is_empty());
        }
    }

    #[test]
    fn interpolation_beats_binary_on_uniform_data() {
        let h = heap(100_000);
        let (mut bin, mut interp) = (0u64, 0u64);
        for pk in (0..100_000u64).step_by(997) {
            bin += binary_search(&h, PK_OFFSET, pk * 3, None).pages_read;
            interp += interpolation_search(&h, PK_OFFSET, pk * 3, None).pages_read;
        }
        assert!(
            interp * 2 < bin,
            "interpolation {interp} pages vs binary {bin} pages"
        );
    }

    #[test]
    fn binary_is_logarithmic() {
        let h = heap(100_000); // 6250 pages -> <= 13 + run reads
        for pk in (0..100_000u64).step_by(1_777) {
            let r = binary_search(&h, PK_OFFSET, pk * 3, None);
            assert!(r.pages_read <= 14, "{} pages", r.pages_read);
        }
    }

    #[test]
    fn duplicates_are_fully_collected() {
        let mut h = HeapFile::new(TupleLayout::new(256));
        for pk in 0..2_000u64 {
            // key 900 repeated 40 times, spanning pages.
            let key = if (900..940).contains(&pk) { 900 } else { pk };
            h.append_record(key, pk);
        }
        let r = binary_search(&h, PK_OFFSET, 900, None);
        assert_eq!(r.matches.len(), 40);
        let r = interpolation_search(&h, PK_OFFSET, 900, None);
        assert_eq!(r.matches.len(), 40);
    }

    #[test]
    fn empty_heap_is_safe() {
        let h = HeapFile::new(TupleLayout::new(256));
        assert!(binary_search(&h, PK_OFFSET, 1, None).matches.is_empty());
        assert!(interpolation_search(&h, PK_OFFSET, 1, None)
            .matches
            .is_empty());
    }
}
