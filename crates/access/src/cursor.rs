//! [`RangeCursor`]: the pull half of the streaming read API.
//!
//! A range scan through the old API materialized every `(page, slot)`
//! of the result before the caller saw anything; a serving layer that
//! wants ten tuples out of a million-tuple range paid the whole scan.
//! A `RangeCursor` instead fetches **one data page per pull**: the
//! caller asks for the next page's matches, consumes them, advances,
//! and may stop at any point — at which moment no further I/O has been
//! charged. A [`Continuation`] token captures the exact `(key, page,
//! slot)` frontier so a later request (the next page of a paginated
//! result) re-enters the index there instead of rescanning the prefix.
//!
//! The materializing [`AccessMethod::range_scan`] is a thin wrapper
//! that drains a cursor, which is what pins the two APIs together: on
//! cold devices a full drain charges bit-identical `IoStats`.
//!
//! [`AccessMethod::range_scan`]: crate::AccessMethod::range_scan

use bftree_storage::codec::{DecodeError, Put, Reader};
use bftree_storage::{PageDevice, PageId};

/// I/O accounting of a cursor or sink-driven scan.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[must_use]
pub struct ScanIo {
    /// Data pages read so far.
    pub pages_read: u64,
    /// Data pages read that contained no tuple in range.
    pub overhead_pages: u64,
}

/// I/O accounting of a sink-driven probe.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[must_use]
pub struct ProbeIo {
    /// Data pages fetched.
    pub pages_read: u64,
    /// Fetched pages that held no match (false positives; always 0
    /// for exact indexes).
    pub false_reads: u64,
}

/// Opaque resumable position of a paginated range scan.
///
/// Produced by [`RangeCursor::continuation`], consumed by
/// [`AccessMethod::resume_range_cursor`]; callers must treat it as an
/// opaque token (ship it to a client, get it back, resume). The
/// internal frontier is `(key, page, slot)`: `key` re-enters the
/// index (the BF-Tree re-descends to the leaf covering the frontier
/// instead of rewalking from `lo`), `page` is the first data page not
/// fully delivered, and `slot` the first undelivered slot on it
/// (`0` = the whole page is still pending).
///
/// A continuation is valid against the index state it was produced
/// from, like any database cursor; inserts or rebuilds in between may
/// surface new tuples in the not-yet-delivered suffix but never lose
/// previously existing ones.
///
/// [`AccessMethod::resume_range_cursor`]: crate::AccessMethod::resume_range_cursor
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use]
pub struct Continuation {
    lo: u64,
    hi: u64,
    key: u64,
    page: PageId,
    slot: u64,
}

impl Continuation {
    /// Wire size of [`Continuation::encode`]'s output.
    pub const ENCODED_LEN: usize = 40;

    /// Assemble a token. For [`RangeCursor`] implementations; callers
    /// of the read API never need this.
    pub fn from_parts(lo: u64, hi: u64, key: u64, page: PageId, slot: usize) -> Self {
        Self {
            lo,
            hi,
            key,
            page,
            slot: slot as u64,
        }
    }

    /// Lower bound of the original range predicate.
    pub fn lo(&self) -> u64 {
        self.lo
    }

    /// Upper bound of the original range predicate.
    pub fn hi(&self) -> u64 {
        self.hi
    }

    /// Index re-entry key (≤ every key with an undelivered match).
    pub fn key(&self) -> u64 {
        self.key
    }

    /// First data page not fully delivered.
    pub fn page(&self) -> PageId {
        self.page
    }

    /// First undelivered slot on [`Continuation::page`].
    pub fn slot(&self) -> usize {
        self.slot as usize
    }

    /// Replace the slot frontier (used by [`Limited`] when it cuts a
    /// page mid-way).
    pub fn with_slot(self, slot: usize) -> Self {
        Self {
            slot: slot as u64,
            ..self
        }
    }

    /// Serialize to a fixed-width byte token (wire form for serving
    /// layers; little-endian, 40 bytes).
    pub fn encode(&self) -> [u8; Self::ENCODED_LEN] {
        let mut out = [0u8; Self::ENCODED_LEN];
        let mut w = &mut out[..];
        for v in [self.lo, self.hi, self.key, self.page, self.slot] {
            w.put_u64(v);
        }
        out
    }

    /// Deserialize an [`Continuation::encode`]d token, refusing a
    /// wrong length and a structurally invalid token (inverted range,
    /// frontier outside it).
    pub fn decode(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut r = Reader::new(bytes);
        let t = Self {
            lo: r.u64()?,
            hi: r.u64()?,
            key: r.u64()?,
            page: r.u64()?,
            slot: r.u64()?,
        };
        if !(t.lo <= t.hi && t.lo <= t.key && t.key <= t.hi) {
            return Err(r.err("frontier outside its range"));
        }
        r.finish()?;
        Ok(t)
    }
}

/// A pull-based range scan: one data page per pull.
///
/// Protocol: [`RangeCursor::next_page_matches`] fetches (and charges)
/// the frontier page and returns its in-range matches — possibly an
/// empty slice for an overhead page; repeated calls without an
/// [`RangeCursor::advance`] in between return the same page without
/// re-charging. `advance` consumes the page and moves the frontier.
/// [`RangeCursor::continuation`] tokenizes the frontier: everything
/// before the first un-`advance`d page has been delivered, the rest
/// has not.
pub trait RangeCursor {
    /// Matches of the frontier data page, fetching (and charging) it
    /// on first call. `None` once the range is exhausted.
    fn next_page_matches(&mut self) -> Option<&[(PageId, usize)]>;

    /// Consume the frontier page and move past it. No-op when no page
    /// is loaded.
    fn advance(&mut self);

    /// Resumable token at the current frontier; `None` once the
    /// cursor has **proven** exhaustion.
    ///
    /// Streaming cursors cannot see the future without reading it: a
    /// cursor abandoned mid-walk (e.g. behind a [`Limited`] cap) may
    /// return `Some` even though the unread suffix happens to hold no
    /// further match — the index-side cursors that pre-resolve their
    /// match list (see [`PageBatchCursor`]) do prove it and return
    /// `None`. Resuming such a tail token is always safe: it delivers
    /// exactly the (possibly empty) remainder after a bounded suffix
    /// walk.
    fn continuation(&self) -> Option<Continuation>;

    /// Pages read / overhead pages charged so far.
    fn io(&self) -> ScanIo;
}

/// Boxed cursors forward, so `Box<dyn RangeCursor + '_>` (what
/// [`AccessMethod::range_cursor`] hands out) composes with the
/// adapters below.
///
/// [`AccessMethod::range_cursor`]: crate::AccessMethod::range_cursor
impl<C: RangeCursor + ?Sized> RangeCursor for Box<C> {
    fn next_page_matches(&mut self) -> Option<&[(PageId, usize)]> {
        (**self).next_page_matches()
    }

    fn advance(&mut self) {
        (**self).advance()
    }

    fn continuation(&self) -> Option<Continuation> {
        (**self).continuation()
    }

    fn io(&self) -> ScanIo {
        (**self).io()
    }
}

/// Extension adapters available on every sized cursor.
pub trait RangeCursorExt: RangeCursor + Sized {
    /// Deliver at most `n` matches, then stop — without fetching any
    /// page beyond the one holding the `n`-th match. The adapter's
    /// [`RangeCursor::continuation`] carries the sub-page frontier, so
    /// resuming yields exactly the undelivered remainder.
    fn limit(self, n: u64) -> Limited<Self> {
        Limited {
            inner: self,
            remaining: n,
            pulled: false,
            partial: None,
        }
    }
}

impl<C: RangeCursor + Sized> RangeCursorExt for C {}

/// A cursor capped at `n` delivered matches (see
/// [`RangeCursorExt::limit`]).
#[derive(Debug)]
#[must_use]
pub struct Limited<C> {
    inner: C,
    remaining: u64,
    /// Whether the frontier page has been pulled since the last
    /// advance (keeps `advance` a no-op — charging nothing — when no
    /// page is loaded).
    pulled: bool,
    /// Set when the cap cut a page mid-way: the continuation frozen at
    /// the sub-page frontier. The inner cursor is intentionally left
    /// un-advanced so it charges nothing further.
    partial: Option<Continuation>,
}

impl<C: RangeCursor> Limited<C> {
    /// Matches still deliverable under the cap.
    pub fn remaining(&self) -> u64 {
        self.remaining
    }
}

impl<C: RangeCursor> RangeCursor for Limited<C> {
    fn next_page_matches(&mut self) -> Option<&[(PageId, usize)]> {
        if self.remaining == 0 {
            return None;
        }
        let cap = self.remaining as usize;
        let page = self.inner.next_page_matches()?;
        self.pulled = true;
        Some(&page[..page.len().min(cap)])
    }

    fn advance(&mut self) {
        if self.remaining == 0 || !self.pulled {
            return;
        }
        self.pulled = false;
        // Re-fetch the loaded page (idempotent, charges nothing) to
        // learn how much of it the cap lets through.
        let Some(page) = self.inner.next_page_matches() else {
            return;
        };
        let len = page.len() as u64;
        if len > self.remaining {
            // The cap cuts this page: freeze the continuation at the
            // first undelivered slot and stop for good. The inner
            // cursor stays un-advanced and is never pulled again.
            let cut = page[self.remaining as usize].1;
            self.partial = self
                .inner
                .continuation()
                .map(|c| c.with_slot(cut.max(c.slot())));
            self.remaining = 0;
        } else {
            self.remaining -= len;
            self.inner.advance();
        }
    }

    fn continuation(&self) -> Option<Continuation> {
        match self.partial {
            Some(c) => Some(c),
            None => self.inner.continuation(),
        }
    }

    fn io(&self) -> ScanIo {
        self.inner.io()
    }
}

/// Scan heap page `pid` for live tuples whose attribute lies in
/// `[lo, hi]`, appending the matching `(page, slot)` pairs to `buf` —
/// honoring a sub-page [`Continuation`] frontier (slots below
/// `resume`'s slot are skipped on exactly the frontier page, nowhere
/// else).
///
/// The one home of the page-walk cursors' scan-and-filter step (the
/// BF-Tree partition walk and the B+-Tree contiguous-run walk);
/// charging stays with the callers, whose cost models differ.
pub fn scan_page_in_range(
    heap: &bftree_storage::HeapFile,
    attr: bftree_storage::tuple::AttrOffset,
    pid: PageId,
    lo: u64,
    hi: u64,
    resume: Option<(PageId, usize)>,
    buf: &mut Vec<(PageId, usize)>,
) {
    let skip_below = match resume {
        Some((page, slot)) if page == pid => slot,
        _ => 0,
    };
    for (slot, v) in heap.page_attrs(pid, attr).enumerate().skip(skip_below) {
        if v >= lo && v <= hi && heap.is_live(pid, slot) {
            buf.push((pid, slot));
        }
    }
}

/// Shared cursor core for indexes that resolve the whole match set on
/// the index side before touching the heap (B+-Tree per-tuple mode,
/// hash, FD-Tree): the sorted `(page, slot)` list is delivered one
/// page group per pull, each page charged exactly as the old
/// `read_sorted_batch` materializer did — first page random, adjacent
/// successors sequential — so a full drain is bit-identical to the
/// old `range_scan`.
#[must_use]
pub struct PageBatchCursor<'c> {
    matches: Vec<(PageId, usize)>,
    data: &'c PageDevice,
    /// Start of the frontier page group.
    at: usize,
    /// End of the loaded page group (valid while `loaded`).
    group_end: usize,
    loaded: bool,
    prev: Option<PageId>,
    io: ScanIo,
    lo: u64,
    hi: u64,
    key_hint: u64,
}

impl<'c> PageBatchCursor<'c> {
    /// Build over `matches` (any order; sorted internally) charging
    /// data fetches to `data`. `(lo, hi, key_hint)` seed the
    /// continuation token; `frontier` — a `(page, slot)` pair from a
    /// [`Continuation`] — drops everything already delivered.
    pub fn new(
        mut matches: Vec<(PageId, usize)>,
        data: &'c PageDevice,
        (lo, hi, key_hint): (u64, u64, u64),
        frontier: Option<(PageId, usize)>,
    ) -> Self {
        matches.sort_unstable();
        if let Some((fpage, fslot)) = frontier {
            matches.retain(|&(pid, slot)| (pid, slot) >= (fpage, fslot));
        }
        Self {
            matches,
            data,
            at: 0,
            group_end: 0,
            loaded: false,
            prev: None,
            io: ScanIo::default(),
            lo,
            hi,
            key_hint,
        }
    }
}

impl RangeCursor for PageBatchCursor<'_> {
    fn next_page_matches(&mut self) -> Option<&[(PageId, usize)]> {
        if !self.loaded {
            if self.at >= self.matches.len() {
                return None;
            }
            let pid = self.matches[self.at].0;
            match self.prev {
                Some(q) if pid == q + 1 => self.data.read_seq(pid),
                Some(q) if pid == q => {}
                _ => self.data.read_random(pid),
            }
            self.io.pages_read += 1;
            self.group_end = self.at
                + self.matches[self.at..]
                    .iter()
                    .take_while(|&&(p, _)| p == pid)
                    .count();
            self.loaded = true;
        }
        Some(&self.matches[self.at..self.group_end])
    }

    fn advance(&mut self) {
        if !self.loaded {
            return;
        }
        self.prev = Some(self.matches[self.at].0);
        self.at = self.group_end;
        self.loaded = false;
    }

    fn continuation(&self) -> Option<Continuation> {
        let &(page, slot) = self.matches.get(self.at)?;
        Some(Continuation::from_parts(
            self.lo,
            self.hi,
            self.key_hint,
            page,
            slot,
        ))
    }

    fn io(&self) -> ScanIo {
        self.io
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bftree_storage::DeviceKind;

    #[test]
    fn continuation_round_trips_through_bytes() {
        let c = Continuation::from_parts(10, 500, 321, 42, 7);
        let back = Continuation::decode(&c.encode()).expect("valid token");
        assert_eq!(c, back);
        assert_eq!((back.lo(), back.hi()), (10, 500));
        assert_eq!((back.key(), back.page(), back.slot()), (321, 42, 7));
        // Structurally invalid tokens are rejected: inverted range,
        // and frontier key outside the range on either side.
        let bad = Continuation::from_parts(9, 3, 0, 0, 0).encode();
        assert!(Continuation::decode(&bad).is_err());
        let below = Continuation::from_parts(1_000, 2_000, 5, 0, 0).encode();
        assert!(Continuation::decode(&below).is_err());
        let above = Continuation::from_parts(1_000, 2_000, 9_999, 0, 0).encode();
        assert!(Continuation::decode(&above).is_err());
    }

    /// The 40-byte token as the parent of the shared byte codec
    /// encoded it.
    #[test]
    fn a_continuation_is_byte_identical_to_the_recorded_parent() {
        const PINNED: &str =
            "0a00000000000000f40100000000000041010000000000002a000000000000000700000000000000";
        let c = Continuation::from_parts(10, 500, 321, 42, 7);
        let hex: String = c.encode().iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, PINNED);
    }

    fn batch_cursor<'c>(dev: &'c PageDevice, ms: &[(PageId, usize)]) -> PageBatchCursor<'c> {
        PageBatchCursor::new(ms.to_vec(), dev, (0, 1000, 0), None)
    }

    #[test]
    fn page_batch_cursor_groups_pages_and_charges_like_a_sorted_batch() {
        let dev = PageDevice::cold(DeviceKind::Ssd);
        let ms = vec![(10u64, 0usize), (10, 2), (11, 1), (40, 0)];
        let mut c = batch_cursor(&dev, &ms);
        assert_eq!(c.next_page_matches().unwrap(), &[(10, 0), (10, 2)]);
        // Idempotent until advance: no double charge.
        assert_eq!(c.next_page_matches().unwrap().len(), 2);
        c.advance();
        assert_eq!(c.next_page_matches().unwrap(), &[(11, 1)]);
        c.advance();
        assert_eq!(c.next_page_matches().unwrap(), &[(40, 0)]);
        c.advance();
        assert!(c.next_page_matches().is_none());
        assert!(c.continuation().is_none());
        let s = dev.snapshot();
        assert_eq!(s.random_reads, 2, "pages 10 and 40");
        assert_eq!(s.seq_reads, 1, "page 11");
        assert_eq!(c.io().pages_read, 3);
    }

    #[test]
    fn limited_cursor_stops_fetching_and_tokenizes_the_cut() {
        let dev = PageDevice::cold(DeviceKind::Ssd);
        let ms = vec![(1u64, 0usize), (1, 1), (1, 2), (2, 0), (3, 0)];
        let mut c = batch_cursor(&dev, &ms).limit(2);
        assert_eq!(c.next_page_matches().unwrap(), &[(1, 0), (1, 1)]);
        c.advance();
        assert!(c.next_page_matches().is_none(), "cap reached");
        assert_eq!(dev.snapshot().device_reads(), 1, "only page 1 fetched");
        let token = c.continuation().expect("remainder exists");
        assert_eq!((token.page(), token.slot()), (1, 2), "sub-page frontier");

        // Resuming from the token yields exactly the remainder.
        let dev2 = PageDevice::cold(DeviceKind::Ssd);
        let mut r = PageBatchCursor::new(
            ms,
            &dev2,
            (token.lo(), token.hi(), token.key()),
            Some((token.page(), token.slot())),
        );
        let mut rest = Vec::new();
        while let Some(page) = r.next_page_matches() {
            rest.extend_from_slice(page);
            r.advance();
        }
        assert_eq!(rest, vec![(1, 2), (2, 0), (3, 0)]);
    }

    #[test]
    fn limit_on_a_page_boundary_advances_cleanly() {
        let dev = PageDevice::cold(DeviceKind::Ssd);
        let ms = vec![(1u64, 0usize), (1, 1), (2, 0)];
        let mut c = batch_cursor(&dev, &ms).limit(2);
        assert_eq!(c.next_page_matches().unwrap().len(), 2);
        c.advance();
        assert!(c.next_page_matches().is_none());
        let token = c.continuation().expect("page 2 pending");
        assert_eq!((token.page(), token.slot()), (2, 0));
        assert_eq!(dev.snapshot().device_reads(), 1);
    }

    #[test]
    fn limit_zero_reads_nothing() {
        let dev = PageDevice::cold(DeviceKind::Ssd);
        let mut c = batch_cursor(&dev, &[(1, 0), (2, 0)]).limit(0);
        assert!(c.next_page_matches().is_none());
        assert_eq!(dev.snapshot().device_reads(), 0);
    }
}
