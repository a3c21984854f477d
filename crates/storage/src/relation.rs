//! [`Relation`]: the handle every access method builds over and
//! probes against.
//!
//! The old API threaded `(heap, attr, …)` positionally through every
//! call; a `Relation` bundles the heap file, the indexed attribute,
//! and how duplicate key occurrences lie in the file — the three
//! things an index needs to know about its data.
//!
//! It also records how the heap's pages actually lie on the indexed
//! attribute ([`PageFacts`]: each page's smallest and largest key, and
//! whether the page is in order), so a reader checks order instead of
//! trusting §1.1's implicit clustering. [`Relation::new`] computes the
//! facts in one pass, and [`Relation::append_tuple`], the one way to
//! grow a relation's heap, keeps them in O(1). A clone copies them.

use crate::context::IoContext;
use crate::heap::HeapFile;
use crate::page::PageId;
use crate::tuple::{AttrOffset, ATT1_OFFSET, PK_OFFSET};

/// How occurrences of equal keys are laid out in the heap file.
///
/// This is a property of the *data* (the paper's §1.1 "implicit
/// clustering" assumption); each access method derives its internal
/// duplicate handling from it — e.g. the BF-Tree picks its
/// first-page-only filter loading exactly when duplicates are
/// contiguous, and a B+-Tree stores one entry per distinct key
/// (`FirstRef`) in the same case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Duplicates {
    /// Keys are unique and the file is ordered on them (a primary
    /// key). Probes may stop at the first match.
    Unique,
    /// Duplicates exist and every run of equal keys is contiguous
    /// (the file is *ordered* on the attribute).
    Contiguous,
    /// Duplicates exist and may scatter within a bounded key
    /// partition (the file is merely *partitioned* on the attribute).
    Scattered,
}

/// Error constructing a [`Relation`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RelationError {
    /// The attribute offset does not fit the heap's tuple layout.
    AttrOutOfBounds {
        /// Byte offset of the requested attribute.
        attr: usize,
        /// Tuple size of the heap's layout.
        tuple_size: usize,
    },
}

impl std::fmt::Display for RelationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RelationError::AttrOutOfBounds { attr, tuple_size } => write!(
                f,
                "attribute at byte {attr} does not fit a {tuple_size}-byte tuple"
            ),
        }
    }
}

impl std::error::Error for RelationError {}

/// What a [`Relation`] records of one heap page's keys on the indexed
/// attribute. Every slot counts, dead ones included: a deleted tuple
/// still orders the page it sits on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageFacts {
    /// The page's smallest key.
    pub min: u64,
    /// The page's largest key.
    pub max: u64,
    /// The page's slots ascend, and its first key is at or above the
    /// largest key of every earlier page.
    pub in_order: bool,
}

/// A heap file plus the attribute an index is built on and the
/// layout of duplicate keys — everything an access method needs to
/// build and probe.
///
/// ```
/// use bftree_storage::{Duplicates, HeapFile, Relation, TupleLayout};
/// use bftree_storage::tuple::PK_OFFSET;
///
/// let mut heap = HeapFile::new(TupleLayout::new(256));
/// for pk in 0..1_000u64 {
///     heap.append_record(pk, pk / 11);
/// }
/// let relation = Relation::new(heap, PK_OFFSET, Duplicates::Unique).unwrap();
/// assert!(relation.is_unique());
/// ```
#[derive(Debug, Clone)]
pub struct Relation {
    heap: HeapFile,
    attr: AttrOffset,
    duplicates: Duplicates,
    order: Order,
}

/// The heap's [`PageFacts`], kept as tuples are appended.
#[derive(Debug, Clone, Default)]
struct Order {
    /// One entry per heap page.
    facts: Vec<PageFacts>,
    /// The pages whose `in_order` bit is clear, ascending.
    disordered: Vec<PageId>,
    /// The largest key of every page before the last.
    max_before_last: Option<u64>,
}

impl Order {
    /// The facts of every page of `heap`, one page at a time.
    fn of(heap: &HeapFile, attr: AttrOffset) -> Self {
        let mut order = Self {
            facts: Vec::with_capacity(heap.page_count() as usize),
            ..Self::default()
        };
        for pid in 0..heap.page_count() {
            let mut keys = heap.page_attrs(pid, attr);
            let first = keys.next().expect("a heap page holds a tuple");
            let (mut range, mut prev, mut ascending) = ((first, first), first, true);
            for key in keys {
                ascending &= key >= prev;
                prev = key;
                range = (range.0.min(key), range.1.max(key));
            }
            order.push(pid, first, range, ascending);
        }
        order
    }

    /// Record page `pid`, the page after the last recorded one: its
    /// first key, its key range and whether its slots ascend.
    fn push(&mut self, pid: PageId, first: u64, (min, max): (u64, u64), ascending: bool) {
        if let Some(last) = self.facts.last() {
            self.max_before_last = Some(self.max_before_last.map_or(last.max, |m| m.max(last.max)));
        }
        let in_order = ascending && self.max_before_last.is_none_or(|m| first >= m);
        self.facts.push(PageFacts { min, max, in_order });
        if !in_order {
            self.disordered.push(pid);
        }
    }

    /// Fold the tuple just appended at `(pid, slot)`, carrying `key`.
    /// Only the last page changes.
    fn note(&mut self, (pid, slot): (PageId, usize), key: u64) {
        if slot == 0 {
            return self.push(pid, key, (key, key), true);
        }
        let page = self
            .facts
            .last_mut()
            .expect("a later slot's page is recorded");
        // An ordered page's largest key is its last slot's.
        if page.in_order && key < page.max {
            page.in_order = false;
            self.disordered.push(pid);
        }
        page.min = page.min.min(key);
        page.max = page.max.max(key);
    }
}

impl Relation {
    /// Bundle `heap` with the indexed attribute `attr`, declaring how
    /// duplicates lie in the file. Fails if `attr` does not fit the
    /// heap's tuple layout — the check that used to be a slice panic
    /// deep inside a probe. Records the heap's [`PageFacts`] in one
    /// pass.
    pub fn new(
        heap: HeapFile,
        attr: AttrOffset,
        duplicates: Duplicates,
    ) -> Result<Self, RelationError> {
        let mut rel = Self {
            heap,
            attr,
            duplicates,
            order: Order::default(),
        };
        rel.check_attr()?;
        rel.order = Order::of(&rel.heap, attr);
        Ok(rel)
    }

    /// The attr-fits-layout rule, stated once: `attr.0 + 8` bytes must
    /// lie inside a tuple. [`Relation::new`] enforces it at
    /// construction; probe paths re-assert it as defense in depth.
    pub fn check_attr(&self) -> Result<(), RelationError> {
        let tuple_size = self.heap.layout().tuple_size();
        if self.attr.0 + 8 > tuple_size {
            return Err(RelationError::AttrOutOfBounds {
                attr: self.attr.0,
                tuple_size,
            });
        }
        Ok(())
    }

    /// The underlying heap file.
    pub fn heap(&self) -> &HeapFile {
        &self.heap
    }

    /// What is recorded of page `pid`'s keys; `None` past the last
    /// page.
    pub fn page_facts(&self, pid: PageId) -> Option<PageFacts> {
        self.order.facts.get(pid as usize).copied()
    }

    /// Whether a page out of order holds a key of `[lo, hi]` (dead
    /// slots included): a reader that trusts heap order within the
    /// range would miss or misplace it.
    pub fn disordered_in(&self, lo: u64, hi: u64) -> bool {
        self.order.disordered.iter().any(|&pid| {
            let f = self.order.facts[pid as usize];
            f.min <= hi
                && f.max >= lo
                && self
                    .heap
                    .page_attrs(pid, self.attr)
                    .any(|k| (lo..=hi).contains(&k))
        })
    }

    /// The indexed attribute.
    pub fn attr(&self) -> AttrOffset {
        self.attr
    }

    /// Append one tuple carrying `key` on the **indexed** attribute
    /// (and `attr` on the other conventional attribute), written
    /// straight into its page slot, extending the heap file and
    /// charging write I/O to `io`'s data device, and updating the last
    /// page's [`PageFacts`]. Returns
    /// the new tuple's `(page, slot)` location — exactly what
    /// `AccessMethod::insert` wants next.
    ///
    /// Cost model: tuples pack into pages, and the data device is
    /// charged one page write each time the append opens a fresh page
    /// (slot 0) — bulk-load charging, the same the heap was built
    /// under. The heap page is durable from this call on; crash
    /// recovery only has to recover *index* visibility of the tuple
    /// (see `bftree-wal`), never its bytes.
    ///
    /// The caller keeps the ordering/partitioning contract of
    /// [`Relation::duplicates`]; appends at the tail satisfy it for
    /// monotone keys (the paper's implicit clustering by creation
    /// time, §1.1).
    pub fn append_tuple(&mut self, key: u64, attr: u64, io: &IoContext) -> (PageId, usize) {
        let layout = self.heap.layout();
        let (pk, att1) = if self.attr == ATT1_OFFSET {
            (attr, key)
        } else {
            (key, attr)
        };
        let attr_at = self.attr;
        let loc = self.heap.append_with(|tuple| {
            layout.write_record(tuple, pk, att1);
            if attr_at != PK_OFFSET && attr_at != ATT1_OFFSET {
                // Unconventional offset: the indexed value must still
                // land on the attribute the index reads.
                layout.write_attr(tuple, attr_at, key);
            }
        });
        if loc.1 == 0 {
            io.data.write(loc.0);
        }
        self.order.note(loc, key);
        loc
    }

    /// How duplicate keys are laid out.
    pub fn duplicates(&self) -> Duplicates {
        self.duplicates
    }

    /// Whether the indexed attribute is unique (enables the paper's
    /// primary-key early-out: "as soon as the tuple is found the
    /// search ends").
    pub fn is_unique(&self) -> bool {
        self.duplicates == Duplicates::Unique
    }
}

// The concurrent serving path shares `&Relation`/`Arc<Relation>`
// across probe threads; keep that possible by construction.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Relation>();
    assert_send_sync::<HeapFile>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::{TupleLayout, ATT1_OFFSET, PK_OFFSET};

    #[test]
    fn bundles_and_exposes_parts() {
        let mut heap = HeapFile::new(TupleLayout::new(64));
        heap.append_record(1, 2);
        let rel = Relation::new(heap, ATT1_OFFSET, Duplicates::Contiguous).unwrap();
        assert_eq!(rel.attr(), ATT1_OFFSET);
        assert_eq!(rel.duplicates(), Duplicates::Contiguous);
        assert!(!rel.is_unique());
        assert_eq!(rel.heap().tuple_count(), 1);
    }

    #[test]
    fn rejects_attr_beyond_tuple() {
        let heap = HeapFile::new(TupleLayout::new(16));
        let err = Relation::new(heap, AttrOffset(12), Duplicates::Unique).unwrap_err();
        assert_eq!(
            err,
            RelationError::AttrOutOfBounds {
                attr: 12,
                tuple_size: 16
            }
        );
        assert!(err.to_string().contains("byte 12"));
    }

    #[test]
    fn shared_relation_serves_many_threads() {
        let mut heap = HeapFile::new(TupleLayout::new(16));
        for pk in 0..100u64 {
            heap.append_record(pk, pk);
        }
        let rel = std::sync::Arc::new(Relation::new(heap, PK_OFFSET, Duplicates::Unique).unwrap());
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let rel = rel.clone();
                s.spawn(move || {
                    assert_eq!(rel.heap().attr(0, t as usize, rel.attr()), t);
                });
            }
        });
    }

    #[test]
    fn append_tuple_places_key_on_indexed_attr_and_charges_page_writes() {
        let io = IoContext::unmetered();
        // PK-indexed: key lands at PK_OFFSET.
        let heap = HeapFile::new(TupleLayout::new(2048)); // 2 tuples/page
        let mut rel = Relation::new(heap, PK_OFFSET, Duplicates::Unique).unwrap();
        let a = rel.append_tuple(10, 1, &io);
        let b = rel.append_tuple(11, 1, &io);
        let c = rel.append_tuple(12, 1, &io);
        assert_eq!((a, b, c), ((0, 0), (0, 1), (1, 0)));
        assert_eq!(rel.heap().attr(0, 1, rel.attr()), 11);
        // Slot-0 appends opened pages 0 and 1: two page writes.
        assert_eq!(io.data.snapshot().writes, 2);

        // ATT1-indexed: key lands at ATT1_OFFSET, attr on the PK.
        let heap = HeapFile::new(TupleLayout::new(256));
        let mut rel = Relation::new(heap, ATT1_OFFSET, Duplicates::Contiguous).unwrap();
        let loc = rel.append_tuple(77, 5, &io);
        assert_eq!(rel.heap().attr(loc.0, loc.1, ATT1_OFFSET), 77);
        assert_eq!(rel.heap().attr(loc.0, loc.1, PK_OFFSET), 5);

        // Unconventional offset: the indexed value still lands there.
        let heap = HeapFile::new(TupleLayout::new(256));
        let mut rel = Relation::new(heap, AttrOffset(24), Duplicates::Unique).unwrap();
        let loc = rel.append_tuple(99, 3, &io);
        assert_eq!(rel.heap().attr(loc.0, loc.1, AttrOffset(24)), 99);
    }

    /// `rel`'s page facts recomputed from its tuples.
    fn recomputed(rel: &Relation) -> Vec<PageFacts> {
        let heap = rel.heap();
        let mut before: Option<u64> = None;
        (0..heap.page_count())
            .map(|pid| {
                let keys: Vec<u64> = heap.page_attrs(pid, rel.attr()).collect();
                let (min, max) = (*keys.iter().min().unwrap(), *keys.iter().max().unwrap());
                let in_order = keys.is_sorted() && before.is_none_or(|b| keys[0] >= b);
                before = Some(before.map_or(max, |b| b.max(max)));
                PageFacts { min, max, in_order }
            })
            .collect()
    }

    fn assert_recorded(rel: &Relation, label: &str) {
        let want = recomputed(rel);
        let pages = rel.heap().page_count();
        let got: Vec<PageFacts> = (0..pages).map(|p| rel.page_facts(p).unwrap()).collect();
        assert_eq!(got, want, "{label}");
        assert_eq!(rel.page_facts(pages), None, "{label}: past the last page");
        let clear: Vec<PageId> = (0..pages).filter(|&p| !want[p as usize].in_order).collect();
        assert_eq!(rel.order.disordered, clear, "{label}: pages out of order");
    }

    /// Seeded appends in order, behind a larger key and of equal keys,
    /// starting in a partly filled page: the facts `append_tuple` keeps
    /// equal a recomputation from the tuples, and so do a clone's and
    /// those of a relation over a cut of the heap.
    #[test]
    fn recorded_page_facts_equal_a_recomputation() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let io = IoContext::unmetered();
        for seed in 0..8u64 {
            let mut rng = StdRng::seed_from_u64(0xFAC7 + seed);
            let mut heap = HeapFile::with_page_size(TupleLayout::new(64), 256); // 4 a page
            for key in 10..16 {
                heap.append_record(key, 0);
            }
            let mut rel = Relation::new(heap, PK_OFFSET, Duplicates::Unique).unwrap();
            assert_recorded(&rel, "base");
            let mut top = 15u64;
            for i in 0..400 {
                let key = match rng.random_range(0..10u32) {
                    0..=4 => top + rng.random_range(1..4u64),
                    5..=6 => rng.random_range(0..top),
                    _ => top,
                };
                rel.append_tuple(key, i, &io);
                top = top.max(key);
            }
            let label = format!("seed {seed}");
            assert_recorded(&rel, &label);
            assert!(!rel.order.disordered.is_empty(), "{label}");
            assert_recorded(&rel.clone(), &format!("{label}, clone"));
            let n = rel.heap().tuple_count();
            for cut in [0, 1, 5, 8, 97, n / 2, n] {
                let heap = rel.heap().truncated(cut);
                let cut_rel = Relation::new(heap, PK_OFFSET, Duplicates::Unique).unwrap();
                assert_recorded(&cut_rel, &format!("{label}, cut at {cut}"));
            }
        }
    }

    #[test]
    fn accepts_attr_on_boundary() {
        let heap = HeapFile::new(TupleLayout::new(16));
        assert!(Relation::new(heap, PK_OFFSET, Duplicates::Unique).is_ok());
    }
}
