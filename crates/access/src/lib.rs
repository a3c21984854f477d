//! The unified access-method interface of the BF-Tree reproduction.
//!
//! The paper evaluates the BF-Tree head-to-head against a B+-Tree, an
//! in-memory hash index, and an FD-Tree. This crate defines the one
//! abstraction they all program against: an object-safe
//! [`AccessMethod`] trait over a [`Relation`] (heap file + indexed
//! attribute + duplicate layout) and an [`IoContext`] (simulated
//! index/data devices), so harnesses, examples, and future backends
//! write `&dyn AccessMethod` instead of one code path per index.
//!
//! The read path is **streaming-first**: the required cores are
//! [`AccessMethod::probe_into`] (pushes matches into a [`MatchSink`],
//! stopping all I/O the moment the sink breaks) and
//! [`AccessMethod::range_cursor`] (a pull-based [`RangeCursor`]
//! fetching one data page per pull, with [`RangeCursorExt::limit`]
//! and resumable [`Continuation`] tokens for pagination). The
//! familiar materializing forms — `probe`, `probe_first`,
//! `range_scan`, `probe_batch` — are provided wrappers over those
//! cores with identical I/O.
//!
//! ```
//! use bftree_access::{AccessMethod, Probe};
//! use bftree_storage::{Duplicates, HeapFile, IoContext, Relation, TupleLayout};
//! use bftree_storage::tuple::PK_OFFSET;
//!
//! fn hit_rate(index: &dyn AccessMethod, rel: &Relation, probes: &[u64]) -> f64 {
//!     let io = IoContext::unmetered();
//!     let hits = probes
//!         .iter()
//!         .filter(|&&key| index.probe(key, rel, &io).unwrap().found())
//!         .count();
//!     hits as f64 / probes.len().max(1) as f64
//! }
//! ```

#![warn(missing_docs)]

pub mod concurrent;
pub mod cursor;
pub mod durable;
pub mod sink;

pub use concurrent::{ConcurrentIndex, ConcurrentRangeCursor};
pub use cursor::{
    scan_page_in_range, Continuation, Limited, PageBatchCursor, ProbeIo, RangeCursor,
    RangeCursorExt, ScanIo,
};
pub use durable::{
    DegradedProbe, DurableConfig, DurableIndex, RecoverError, RecoveryReport, RepairReport,
};
pub use sink::{stream_sorted_matches, FirstMatch, FnSink, MatchSink};

use std::ops::RangeInclusive;

use bftree_storage::{IoContext, PageId, Relation, RelationError};

/// Error raised while building (bulk-loading) an index.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum BuildError {
    /// A tuning parameter is outside its valid domain.
    InvalidConfig {
        /// Which parameter.
        what: &'static str,
        /// Human-readable constraint violation.
        detail: String,
    },
    /// The relation cannot back this index (bad attribute, layout the
    /// index cannot exploit, …).
    IncompatibleRelation {
        /// Human-readable reason.
        detail: String,
    },
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::InvalidConfig { what, detail } => {
                write!(f, "invalid configuration ({what}): {detail}")
            }
            BuildError::IncompatibleRelation { detail } => {
                write!(f, "relation incompatible with this access method: {detail}")
            }
        }
    }
}

impl std::error::Error for BuildError {}

impl From<RelationError> for BuildError {
    fn from(e: RelationError) -> Self {
        BuildError::IncompatibleRelation {
            detail: e.to_string(),
        }
    }
}

/// Error raised by a probe, scan, insert, or delete.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ProbeError {
    /// The relation's attribute does not fit its tuple layout.
    /// `Relation::new` already rejects this, so through the safe
    /// constructors the variant is unreachable today — probe paths
    /// re-assert the invariant as defense in depth.
    AttrOutOfBounds {
        /// Byte offset of the requested attribute.
        attr: usize,
        /// Tuple size of the heap's layout.
        tuple_size: usize,
    },
    /// The operation's key range is inverted (`lo > hi`).
    InvertedRange {
        /// Requested lower bound.
        lo: u64,
        /// Requested upper bound.
        hi: u64,
    },
    /// The operation is not supported by this access method.
    Unsupported {
        /// Which operation.
        what: &'static str,
    },
}

impl std::fmt::Display for ProbeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProbeError::AttrOutOfBounds { attr, tuple_size } => write!(
                f,
                "attribute at byte {attr} does not fit a {tuple_size}-byte tuple"
            ),
            ProbeError::InvertedRange { lo, hi } => {
                write!(f, "inverted key range [{lo}, {hi}]")
            }
            ProbeError::Unsupported { what } => write!(f, "operation not supported: {what}"),
        }
    }
}

impl std::error::Error for ProbeError {}

/// Validate a relation's attribute against its layout — the shared
/// guard every probe-path entry point uses instead of panicking.
/// Delegates to [`Relation::check_attr`], the single home of the
/// rule.
pub fn check_relation(rel: &Relation) -> Result<(), ProbeError> {
    rel.check_attr().map_err(|e| match e {
        RelationError::AttrOutOfBounds { attr, tuple_size } => {
            ProbeError::AttrOutOfBounds { attr, tuple_size }
        }
        // `RelationError` is non-exhaustive; treat future invariants
        // as unsupported operations rather than panicking.
        _ => ProbeError::Unsupported {
            what: "relation invariant violated",
        },
    })
}

/// The first half of [`AccessMethod::delete`]: probe `key` on `index`
/// without charging a device, and mark every live tuple the probe
/// finds dead in `rel`'s heap. Returns how many were live.
pub fn mark_dead(index: &dyn AccessMethod, key: u64, rel: &Relation) -> Result<u64, ProbeError> {
    let mut found: Vec<(PageId, usize)> = Vec::new();
    let _ = index.probe_into(key, rel, &IoContext::unmetered(), &mut found)?;
    let marked = found
        .iter()
        .filter(|&&(pid, slot)| rel.heap().delete_tuple(pid, slot));
    Ok(marked.count() as u64)
}

/// Outcome of a point probe, uniform across access methods.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
#[must_use]
pub struct Probe {
    /// Matching tuples as `(page id, slot)` pairs.
    pub matches: Vec<(PageId, usize)>,
    /// Data pages fetched.
    pub pages_read: u64,
    /// Data pages fetched that held no match (false positives —
    /// always 0 for exact indexes).
    pub false_reads: u64,
}

impl Probe {
    /// Whether at least one tuple matched.
    pub fn found(&self) -> bool {
        !self.matches.is_empty()
    }
}

/// Outcome of a range scan, uniform across access methods.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
#[must_use]
pub struct RangeScan {
    /// Matching tuples as `(page id, slot)` pairs, in page order.
    pub matches: Vec<(PageId, usize)>,
    /// Data pages read.
    pub pages_read: u64,
    /// Data pages read that contained no tuple in range.
    pub overhead_pages: u64,
}

/// Structural statistics of a built index (the quantities behind the
/// paper's Table 2 and Figure 4).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexStats {
    /// Index size in pages (0 for purely in-memory structures that
    /// are not paged).
    pub pages: u64,
    /// Index size in bytes.
    pub bytes: u64,
    /// Height in node levels along a root-to-data path (1 for flat
    /// structures).
    pub height: usize,
    /// Entries (distinct keys or key references, per the index's own
    /// granularity).
    pub entries: u64,
}

/// An index over one [`Relation`]: the object-safe interface every
/// backend implements and every harness programs against.
///
/// All I/O is charged to the [`IoContext`]: descents and filter reads
/// to `io.index`, heap-page fetches to `io.data`. Pass
/// [`IoContext::unmetered`] when only correctness matters.
///
/// # Concurrency
///
/// The trait requires `Send + Sync`: every built index can be probed
/// from many threads at once behind `Arc<dyn AccessMethod>` or a
/// shared `&dyn AccessMethod` — the read path (`probe`, `probe_first`,
/// `range_scan`, `stats`, `size_bytes`) takes `&self` and
/// implementations hold no interior mutability. Mutation (`build`,
/// `insert`, `delete`) takes `&mut self`, so Rust's aliasing rules
/// already serialize writers; for mixed read/write service from
/// several threads wrap the index in a [`ConcurrentIndex`].
pub trait AccessMethod: Send + Sync {
    /// Short human-readable name ("bf-tree", "b+tree", …) for reports.
    fn name(&self) -> &'static str;

    /// (Re)build the index from the tuples of `rel` whose indexed
    /// attribute lies in `keys`, replacing whatever the index held: a
    /// bulk load of exactly that key slice, so that one shard indexes
    /// its own keys and nothing else. Implementations derive their
    /// duplicate handling from [`Relation::duplicates`].
    fn build_slice(&mut self, rel: &Relation, keys: RangeInclusive<u64>) -> Result<(), BuildError>;

    /// (Re)build the index from all of `rel`'s current contents:
    /// [`AccessMethod::build_slice`] over the whole key domain.
    fn build(&mut self, rel: &Relation) -> Result<(), BuildError> {
        self.build_slice(rel, 0..=u64::MAX)
    }

    /// Stream every tuple whose indexed attribute equals `key` into
    /// `sink`, in ascending `(page, slot)` order per candidate page
    /// run. **This is the probe core**; [`AccessMethod::probe`] and
    /// [`AccessMethod::probe_first`] are materializing wrappers over
    /// it.
    ///
    /// **Early termination contract:** the moment the sink returns
    /// [`std::ops::ControlFlow::Break`], the implementation stops —
    /// no further data page is fetched and no further index I/O is
    /// charged. (The page that produced the breaking match has
    /// already been read.) A full consumption charges exactly what
    /// the materializing [`AccessMethod::probe`] charges.
    fn probe_into(
        &self,
        key: u64,
        rel: &Relation,
        io: &IoContext,
        sink: &mut dyn MatchSink,
    ) -> Result<ProbeIo, ProbeError>;

    /// Find every tuple whose indexed attribute equals `key`.
    ///
    /// Thin materializing wrapper over [`AccessMethod::probe_into`]
    /// with a collect-everything sink; identical I/O by construction.
    fn probe(&self, key: u64, rel: &Relation, io: &IoContext) -> Result<Probe, ProbeError> {
        let _span = bftree_obs::span(bftree_obs::SpanKind::Probe);
        let mut matches: Vec<(PageId, usize)> = Vec::new();
        let stats = self.probe_into(key, rel, io, &mut matches)?;
        Ok(Probe {
            matches,
            pages_read: stats.pages_read,
            false_reads: stats.false_reads,
        })
    }

    /// [`AccessMethod::probe`] with the paper's primary-key shortcut:
    /// stop at the first match ("as soon as the tuple is found the
    /// search ends"). Only meaningful for unique attributes.
    ///
    /// The default drives [`AccessMethod::probe_into`] with a
    /// [`FirstMatch`] sink, whose break stops all further I/O;
    /// implementations with a cheaper single-result index path
    /// override it.
    fn probe_first(&self, key: u64, rel: &Relation, io: &IoContext) -> Result<Probe, ProbeError> {
        let _span = bftree_obs::span(bftree_obs::SpanKind::Probe);
        let mut first = FirstMatch::default();
        let stats = self.probe_into(key, rel, io, &mut first)?;
        Ok(Probe {
            matches: first.found.into_iter().collect(),
            pages_read: stats.pages_read,
            false_reads: stats.false_reads,
        })
    }

    /// Probe a whole batch of keys, returning one [`Probe`] per key in
    /// input order.
    ///
    /// **Contract:** the result of `probe_batch(keys)` is element-wise
    /// identical to calling [`AccessMethod::probe`] per key, and each
    /// key is charged the same accesses as if probed alone — batching
    /// never changes the simulated cost model. On **cold** devices (no
    /// buffer pool — the default of every paper experiment) the
    /// `IoStats` totals are bit-identical to a scalar loop; the batch
    /// conformance suite holds every implementation to this.
    ///
    /// The default is that loop in input order, so on cached devices
    /// hits and evictions match it access for access too; the B+-Tree,
    /// the hash index and the FD-Tree use it. The BF-Tree overrides it
    /// to plan a group of keys and scan their pages together before it
    /// executes each key in input order: the same accesses in the same
    /// order, so cached devices match the loop too. `bftree-shard`'s
    /// `ShardedIndex` visits each shard once, grouping the batch by
    /// shard.
    fn probe_batch(
        &self,
        keys: &[u64],
        rel: &Relation,
        io: &IoContext,
    ) -> Result<Vec<Probe>, ProbeError> {
        let mut span = bftree_obs::span(bftree_obs::SpanKind::BatchProbe);
        span.set_detail(keys.len() as u64);
        keys.iter().map(|&key| self.probe(key, rel, io)).collect()
    }

    /// Open a pull-based cursor over every tuple whose indexed
    /// attribute lies in `[lo, hi]`, delivered one data page per pull
    /// in ascending page order. **This is the range-scan core**;
    /// [`AccessMethod::range_scan`] drains it, [`RangeCursorExt::limit`]
    /// caps it, and [`RangeCursor::continuation`] +
    /// [`AccessMethod::resume_range_cursor`] paginate it.
    ///
    /// Creation may charge the index descent; data pages are charged
    /// strictly on demand, one per [`RangeCursor::next_page_matches`],
    /// so a caller that stops early never pays for the rest of the
    /// range. A full drain on cold devices charges bit-identical
    /// `IoStats` to [`AccessMethod::range_scan`] (which is defined as
    /// that drain).
    fn range_cursor<'c>(
        &'c self,
        lo: u64,
        hi: u64,
        rel: &'c Relation,
        io: &'c IoContext,
    ) -> Result<Box<dyn RangeCursor + 'c>, ProbeError>;

    /// Re-open a range cursor at the exact `(key, page, slot)`
    /// frontier captured in `cont`, yielding precisely the matches the
    /// producing cursor had not delivered — the previously consumed
    /// prefix is neither rescanned on the data device nor re-delivered.
    fn resume_range_cursor<'c>(
        &'c self,
        cont: &Continuation,
        rel: &'c Relation,
        io: &'c IoContext,
    ) -> Result<Box<dyn RangeCursor + 'c>, ProbeError>;

    /// Find every tuple whose indexed attribute lies in `[lo, hi]`.
    ///
    /// Thin materializing wrapper draining
    /// [`AccessMethod::range_cursor`]; identical I/O by construction.
    fn range_scan(
        &self,
        lo: u64,
        hi: u64,
        rel: &Relation,
        io: &IoContext,
    ) -> Result<RangeScan, ProbeError> {
        // The positioning descent reads overhead pages too; span it
        // as the zeroth pull so every read lands in the span tree.
        let mut cursor = {
            let _pull = bftree_obs::span(bftree_obs::SpanKind::RangePagePull);
            self.range_cursor(lo, hi, rel, io)?
        };
        let mut matches: Vec<(PageId, usize)> = Vec::new();
        loop {
            // One span per pull: the final (empty) pull is spanned too,
            // because it may still read an overhead page.
            let mut pull = bftree_obs::span(bftree_obs::SpanKind::RangePagePull);
            let Some(page) = cursor.next_page_matches() else {
                break;
            };
            pull.set_detail(page.len() as u64);
            matches.extend_from_slice(page);
            cursor.advance();
        }
        let io_totals = cursor.io();
        Ok(RangeScan {
            matches,
            pages_read: io_totals.pages_read,
            overhead_pages: io_totals.overhead_pages,
        })
    }

    /// Stream `[lo, hi]` matches into `sink`, page by page, stopping
    /// all I/O the moment the sink breaks. Returns the pages charged.
    fn range_scan_into(
        &self,
        lo: u64,
        hi: u64,
        rel: &Relation,
        io: &IoContext,
        sink: &mut dyn MatchSink,
    ) -> Result<ScanIo, ProbeError> {
        let mut cursor = {
            let _pull = bftree_obs::span(bftree_obs::SpanKind::RangePagePull);
            self.range_cursor(lo, hi, rel, io)?
        };
        'pages: loop {
            let mut pull = bftree_obs::span(bftree_obs::SpanKind::RangePagePull);
            let Some(page) = cursor.next_page_matches() else {
                break;
            };
            pull.set_detail(page.len() as u64);
            for &(pid, slot) in page {
                if sink.push(pid, slot).is_break() {
                    break 'pages;
                }
            }
            cursor.advance();
        }
        Ok(cursor.io())
    }

    /// Register a new tuple at heap location `(pid, slot)` carrying
    /// `key`. The tuple must already be in `rel`'s heap.
    fn insert(&mut self, key: u64, loc: (PageId, usize), rel: &Relation) -> Result<(), ProbeError>;

    /// Register a whole batch of new tuples at once. Semantically
    /// identical to calling [`AccessMethod::insert`] per entry (and
    /// the default does exactly that); indexes whose per-insert cost
    /// is dominated by structural maintenance override it — the
    /// BF-Tree sorts the batch and routes runs of keys to their leaf
    /// with one descent, which is what makes a memtable flush cheaper
    /// than the per-record inserts it absorbed (the partition-split /
    /// filter-rebuild amortization the paper's write path needs).
    fn insert_batch(
        &mut self,
        entries: &[(u64, (PageId, usize))],
        rel: &Relation,
    ) -> Result<(), ProbeError> {
        for &(key, loc) in entries {
            self.insert(key, loc, rel)?;
        }
        Ok(())
    }

    /// Delete `key`: mark its live tuples dead in `rel`'s heap, then
    /// unindex them; later probes and scans miss them, and a tuple
    /// appended with `key` afterwards is found alone. Finding the
    /// tuples charges no device (see [`mark_dead`]). Returns
    /// the number of tuples marked dead.
    fn delete(&mut self, key: u64, rel: &Relation) -> Result<u64, ProbeError>;

    /// Index size in bytes.
    fn size_bytes(&self) -> u64;

    /// Bytes of main memory this index occupies when held resident —
    /// what a buffer manager must carve out of its budget before
    /// caching data pages (see
    /// `IoContext::reserve_index_footprint`). The paper's trade-off in
    /// one number: a smaller footprint leaves more budget for data.
    ///
    /// Defaults to [`AccessMethod::size_bytes`]; override if the
    /// resident form differs from the on-device form.
    fn resident_bytes(&self) -> u64 {
        self.size_bytes()
    }

    /// Structural statistics.
    fn stats(&self) -> IndexStats;
}

/// Boxed indexes forward to their contents, so `Box<dyn AccessMethod>`
/// is itself an access method — harness factories can hand boxes to
/// anything written against the trait (e.g. [`ConcurrentIndex::new`]).
impl<A: AccessMethod + ?Sized> AccessMethod for Box<A> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn build_slice(&mut self, rel: &Relation, keys: RangeInclusive<u64>) -> Result<(), BuildError> {
        (**self).build_slice(rel, keys)
    }

    fn probe_into(
        &self,
        key: u64,
        rel: &Relation,
        io: &IoContext,
        sink: &mut dyn MatchSink,
    ) -> Result<ProbeIo, ProbeError> {
        (**self).probe_into(key, rel, io, sink)
    }

    fn probe(&self, key: u64, rel: &Relation, io: &IoContext) -> Result<Probe, ProbeError> {
        (**self).probe(key, rel, io)
    }

    fn probe_first(&self, key: u64, rel: &Relation, io: &IoContext) -> Result<Probe, ProbeError> {
        (**self).probe_first(key, rel, io)
    }

    fn probe_batch(
        &self,
        keys: &[u64],
        rel: &Relation,
        io: &IoContext,
    ) -> Result<Vec<Probe>, ProbeError> {
        (**self).probe_batch(keys, rel, io)
    }

    fn range_cursor<'c>(
        &'c self,
        lo: u64,
        hi: u64,
        rel: &'c Relation,
        io: &'c IoContext,
    ) -> Result<Box<dyn RangeCursor + 'c>, ProbeError> {
        (**self).range_cursor(lo, hi, rel, io)
    }

    fn resume_range_cursor<'c>(
        &'c self,
        cont: &Continuation,
        rel: &'c Relation,
        io: &'c IoContext,
    ) -> Result<Box<dyn RangeCursor + 'c>, ProbeError> {
        (**self).resume_range_cursor(cont, rel, io)
    }

    fn range_scan(
        &self,
        lo: u64,
        hi: u64,
        rel: &Relation,
        io: &IoContext,
    ) -> Result<RangeScan, ProbeError> {
        (**self).range_scan(lo, hi, rel, io)
    }

    fn range_scan_into(
        &self,
        lo: u64,
        hi: u64,
        rel: &Relation,
        io: &IoContext,
        sink: &mut dyn MatchSink,
    ) -> Result<ScanIo, ProbeError> {
        (**self).range_scan_into(lo, hi, rel, io, sink)
    }

    fn insert(&mut self, key: u64, loc: (PageId, usize), rel: &Relation) -> Result<(), ProbeError> {
        (**self).insert(key, loc, rel)
    }

    fn insert_batch(
        &mut self,
        entries: &[(u64, (PageId, usize))],
        rel: &Relation,
    ) -> Result<(), ProbeError> {
        (**self).insert_batch(entries, rel)
    }

    fn delete(&mut self, key: u64, rel: &Relation) -> Result<u64, ProbeError> {
        (**self).delete(key, rel)
    }

    fn size_bytes(&self) -> u64 {
        (**self).size_bytes()
    }

    fn resident_bytes(&self) -> u64 {
        (**self).resident_bytes()
    }

    fn stats(&self) -> IndexStats {
        (**self).stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bftree_storage::tuple::AttrOffset;
    use bftree_storage::{Duplicates, HeapFile, TupleLayout};

    #[test]
    fn errors_render_reasons() {
        let e = BuildError::InvalidConfig {
            what: "fpp",
            detail: "must be in (0,1)".into(),
        };
        assert!(e.to_string().contains("fpp"));
        let e = ProbeError::InvertedRange { lo: 9, hi: 3 };
        assert!(e.to_string().contains("[9, 3]"));
        let e: BuildError = RelationError::AttrOutOfBounds {
            attr: 99,
            tuple_size: 16,
        }
        .into();
        assert!(matches!(e, BuildError::IncompatibleRelation { .. }));
    }

    #[test]
    fn check_relation_accepts_valid_attrs() {
        let heap = HeapFile::new(TupleLayout::new(16));
        let rel = Relation::new(heap, AttrOffset(8), Duplicates::Contiguous).unwrap();
        assert!(check_relation(&rel).is_ok());
    }

    #[test]
    fn probe_found_tracks_matches() {
        let mut p = Probe::default();
        assert!(!p.found());
        p.matches.push((0, 3));
        assert!(p.found());
    }

    #[test]
    fn trait_is_object_safe() {
        fn _takes_dyn(_: &dyn AccessMethod) {}
    }

    #[test]
    fn trait_objects_are_shareable_across_threads() {
        fn assert_send_sync<T: Send + Sync + ?Sized>() {}
        assert_send_sync::<dyn AccessMethod>();
        assert_send_sync::<Box<dyn AccessMethod>>();
        assert_send_sync::<std::sync::Arc<dyn AccessMethod>>();
    }
}
