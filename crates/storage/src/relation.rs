//! [`Relation`]: the handle every access method builds over and
//! probes against.
//!
//! The old API threaded `(heap, attr, …)` positionally through every
//! call; a `Relation` bundles the heap file, the indexed attribute,
//! and how duplicate key occurrences lie in the file — the three
//! things an index needs to know about its data.

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
}

impl Relation {
    /// Bundle `heap` with the indexed attribute `attr`, declaring how
    /// duplicates lie in the file. Fails if `attr` does not fit the
    /// heap's tuple layout — the check that used to be a slice panic
    /// deep inside a probe.
    pub fn new(
        heap: HeapFile,
        attr: AttrOffset,
        duplicates: Duplicates,
    ) -> Result<Self, RelationError> {
        let rel = Self {
            heap,
            attr,
            duplicates,
        };
        rel.check_attr()?;
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

    /// Mutable access to the heap file (append-then-insert workloads).
    pub fn heap_mut(&mut self) -> &mut HeapFile {
        &mut self.heap
    }

    /// The indexed attribute.
    pub fn attr(&self) -> AttrOffset {
        self.attr
    }

    /// Append one tuple carrying `key` on the **indexed** attribute
    /// (and `attr` on the other conventional attribute), written
    /// straight into its page slot, extending the heap file and
    /// charging write I/O to `io`'s data device. Returns
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

    #[test]
    fn accepts_attr_on_boundary() {
        let heap = HeapFile::new(TupleLayout::new(16));
        assert!(Relation::new(heap, PK_OFFSET, Duplicates::Unique).is_ok());
    }
}
