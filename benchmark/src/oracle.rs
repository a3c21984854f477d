//! Ground truth and answer checking.
//!
//! The benchmark keeps the location of every key it built or
//! appended. Base key `2·i` is heap tuple `i`, which the relation
//! builder asserts lands at `(i / tuples_per_page, i % tuples_per_page)`;
//! appended keys keep the location `append_tuple` (or the INSERT
//! reply) returned. Inside the timed window each reply gets the cheap
//! check (found / not found and match count) and every
//! [`FULL_CHECK_EVERY`]-th request full location equality; the untimed
//! verification pass re-probes every acked insert and delete plus
//! [`VERIFY_BASE_KEYS`] base keys with full equality.

use bftree_storage::tuple::PK_OFFSET;
use bftree_storage::{Duplicates, HeapFile, PageId, Relation, TupleLayout};

use crate::gen::mix64;

/// Every n-th request of the timed window gets full location equality.
pub const FULL_CHECK_EVERY: u64 = 64;
/// Base keys the verification pass re-probes.
pub const VERIFY_BASE_KEYS: u64 = 4_096;
/// Tuple size of relation R (the paper's synthetic tuples).
pub const TUPLE_BYTES: usize = 256;

/// Relation R: `n_keys` tuples of 256 bytes with the even primary keys
/// `0, 2, 4, …` in heap order.
pub fn build_relation(n_keys: u64) -> Relation {
    let mut heap = HeapFile::new(TupleLayout::new(TUPLE_BYTES));
    let tpp = heap.tuples_per_page() as u64;
    for i in 0..n_keys {
        let loc = heap.append_record(2 * i, i);
        assert_eq!(loc, (i / tpp, (i % tpp) as usize), "in-order append");
    }
    assert_eq!(heap.tuple_count(), n_keys);
    Relation::new(heap, PK_OFFSET, Duplicates::Unique).expect("conventional layout")
}

/// Where every key lives (or that it does not).
#[derive(Debug, Clone)]
pub struct Oracle {
    tuples_per_page: u64,
    n_base: u64,
    /// One bit per base tuple: deleted.
    deleted: Vec<u64>,
    n_deleted: u64,
    /// Location of appended tuple `j` (key `2·(n_base + j)`).
    appended: Vec<(PageId, usize)>,
}

impl Oracle {
    pub fn new(rel: &Relation) -> Self {
        let n_base = rel.heap().tuple_count();
        Self {
            tuples_per_page: rel.heap().tuples_per_page() as u64,
            n_base,
            deleted: vec![0; n_base.div_ceil(64) as usize],
            n_deleted: 0,
            appended: Vec::new(),
        }
    }

    pub fn n_base(&self) -> u64 {
        self.n_base
    }

    /// Keys currently live (base − deleted + appended).
    pub fn live_keys(&self) -> u64 {
        self.n_base - self.n_deleted + self.appended.len() as u64
    }

    pub fn appended(&self) -> &[(PageId, usize)] {
        &self.appended
    }

    /// Key of appended tuple `j`.
    pub fn appended_key(&self, j: usize) -> u64 {
        2 * (self.n_base + j as u64)
    }

    /// The next key in order (`max key so far + 2`).
    pub fn next_key(&self) -> u64 {
        self.appended_key(self.appended.len())
    }

    /// Location of heap tuple `idx` under in-order appends.
    pub fn tuple_loc(&self, idx: u64) -> (PageId, usize) {
        (
            idx / self.tuples_per_page,
            (idx % self.tuples_per_page) as usize,
        )
    }

    /// Heap pages the tuples `[start, start + count)` span.
    pub fn pages_spanned(&self, start: u64, count: u64) -> u64 {
        (start + count - 1) / self.tuples_per_page - start / self.tuples_per_page + 1
    }

    /// Record an acked append of the next key in order; returns whether
    /// it landed where an in-order append must.
    pub fn record_append(&mut self, key: u64, loc: (PageId, usize)) -> bool {
        let ok = key == self.next_key()
            && loc == self.tuple_loc(self.n_base + self.appended.len() as u64);
        self.appended.push(loc);
        ok
    }

    /// Record an acked delete of a base key.
    pub fn record_delete(&mut self, key: u64) {
        let idx = key / 2;
        assert!(
            key.is_multiple_of(2) && idx < self.n_base,
            "deletes hit base keys"
        );
        let (word, bit) = ((idx / 64) as usize, idx % 64);
        if self.deleted[word] & (1 << bit) == 0 {
            self.deleted[word] |= 1 << bit;
            self.n_deleted += 1;
        }
    }

    /// Base keys deleted so far, ascending.
    pub fn deleted_keys(&self) -> Vec<u64> {
        (0..self.n_base)
            .filter(|idx| self.deleted[(idx / 64) as usize] & (1 << (idx % 64)) != 0)
            .map(|idx| 2 * idx)
            .collect()
    }

    /// The one location of `key`, or `None` when it was never stored
    /// (odd), not yet appended, or deleted.
    #[inline]
    pub fn expect(&self, key: u64) -> Option<(PageId, usize)> {
        if key % 2 == 1 {
            return None;
        }
        let idx = key / 2;
        if idx < self.n_base {
            let live = self.deleted[(idx / 64) as usize] & (1 << (idx % 64)) == 0;
            live.then(|| self.tuple_loc(idx))
        } else {
            self.appended.get((idx - self.n_base) as usize).copied()
        }
    }

    /// Check one probe answer. Cheap form: found / not found and match
    /// count; `full` adds location equality.
    #[inline]
    pub fn probe_ok<S: SlotLike>(&self, key: u64, matches: &[(PageId, S)], full: bool) -> bool {
        match self.expect(key) {
            None => matches.is_empty(),
            Some((pid, slot)) => {
                matches.len() == 1
                    && (!full || (matches[0].0 == pid && matches[0].1.as_u64() == slot as u64))
            }
        }
    }

    /// Check the answer to a range read that must return exactly base
    /// tuples `[start, start + count)` in key order (none deleted, no
    /// appended key in range — the workloads that scan never delete
    /// and keep their spans below the first appended key).
    pub fn range_ok<S: SlotLike>(
        &self,
        start: u64,
        count: u64,
        matches: &[(PageId, S)],
        full: bool,
    ) -> bool {
        if matches.len() as u64 != count {
            return false;
        }
        !full
            || matches.iter().enumerate().all(|(i, m)| {
                let (pid, slot) = self.tuple_loc(start + i as u64);
                m.0 == pid && m.1.as_u64() == slot as u64
            })
    }

    /// The base keys the verification pass re-probes: a seeded sample
    /// spread over the whole domain (deleted ones included — they must
    /// answer not-found).
    pub fn verify_sample(&self, seed: u64) -> Vec<u64> {
        (0..VERIFY_BASE_KEYS.min(self.n_base))
            .map(|i| 2 * (mix64(seed ^ i.wrapping_mul(0x9E37)) % self.n_base))
            .collect()
    }
}

/// A match's slot: `usize` in in-process answers, `u64` on the wire.
pub trait SlotLike: Copy {
    fn as_u64(self) -> u64;
}

impl SlotLike for usize {
    fn as_u64(self) -> u64 {
        self as u64
    }
}

impl SlotLike for u64 {
    fn as_u64(self) -> u64 {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relation_places_even_keys_in_heap_order() {
        let rel = build_relation(1_000);
        let oracle = Oracle::new(&rel);
        for idx in [0u64, 1, 15, 16, 17, 999] {
            let (pid, slot) = oracle.tuple_loc(idx);
            assert_eq!(rel.heap().attr(pid, slot, rel.attr()), 2 * idx);
        }
        assert_eq!(oracle.expect(2 * 999), Some(oracle.tuple_loc(999)));
        assert_eq!(oracle.expect(2 * 1_000), None, "not appended yet");
        assert_eq!(oracle.expect(7), None, "odd keys are never stored");
    }

    #[test]
    fn appends_deletes_and_checks() {
        let rel = build_relation(100);
        let mut o = Oracle::new(&rel);
        assert_eq!(o.next_key(), 200);
        assert!(o.record_append(200, o.tuple_loc(100)));
        assert!(!o.record_append(204, o.tuple_loc(101)), "skipped a key");
        o.record_delete(10);
        o.record_delete(10);
        assert_eq!(o.live_keys(), 100 - 1 + 2);
        assert_eq!(o.deleted_keys(), vec![10]);
        assert_eq!(o.expect(10), None);

        let loc = o.tuple_loc(6);
        assert!(o.probe_ok(12, &[(loc.0, loc.1 as u64)], true));
        assert!(
            o.probe_ok(12, &[(loc.0 + 1, loc.1 as u64)], false),
            "cheap check"
        );
        assert!(!o.probe_ok(12, &[(loc.0 + 1, loc.1 as u64)], true));
        assert!(!o.probe_ok(12, &[] as &[(u64, u64)], false));
        assert!(o.probe_ok(10, &[] as &[(u64, u64)], true), "deleted");
        assert!(!o.probe_ok(13, &[(0u64, 0u64)], false), "phantom match");

        let want: Vec<(u64, u64)> = (20..28)
            .map(|i| {
                let l = o.tuple_loc(i);
                (l.0, l.1 as u64)
            })
            .collect();
        assert!(o.range_ok(20, 8, &want, true));
        assert!(!o.range_ok(20, 7, &want, false));
        assert!(!o.range_ok(21, 8, &want, true));
        assert_eq!(o.pages_spanned(0, 16), 1);
        assert_eq!(o.pages_spanned(15, 2), 2);
        assert_eq!(o.pages_spanned(8, 512), 33);
    }
}
