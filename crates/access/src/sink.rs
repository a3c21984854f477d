//! [`MatchSink`]: the push half of the streaming read API.
//!
//! Every probe core in the workspace delivers its matches through an
//! object-safe sink instead of materializing a `Vec`. The sink's
//! return value is a [`ControlFlow`]: the moment it says
//! [`ControlFlow::Break`], the index stops — no further heap pages are
//! fetched, no further filters probed. That is what makes
//! `probe_first` and limit-k queries cost a bounded prefix of the full
//! probe's I/O instead of all of it.
//!
//! Sinks compose: a plain `Vec<(PageId, usize)>` collects everything
//! (the materializing [`AccessMethod::probe`] wrapper),
//! [`FirstMatch`] stops after one tuple, and any
//! `FnMut(PageId, usize) -> ControlFlow<()>` closure is a sink as well
//! ([`FnSink`]). Pagination caps a range with
//! [`RangeCursorExt::limit`].
//!
//! [`AccessMethod::probe`]: crate::AccessMethod::probe
//! [`RangeCursorExt::limit`]: crate::RangeCursorExt::limit

use std::ops::ControlFlow;

use bftree_storage::{PageDevice, PageId};

use crate::ProbeIo;

/// Streaming consumer of `(page, slot)` matches.
///
/// Returning [`ControlFlow::Break`] tells the producing index to stop
/// immediately: implementations guarantee that no further I/O is
/// charged once the sink breaks (the page that produced the breaking
/// match has, necessarily, already been read).
pub trait MatchSink {
    /// Deliver one matching tuple; decide whether the producer goes on.
    fn push(&mut self, pid: PageId, slot: usize) -> ControlFlow<()>;
}

/// A `Vec` is the collect-everything sink — the materializing
/// wrappers are literally `probe_into` with a `Vec`.
impl MatchSink for Vec<(PageId, usize)> {
    #[inline]
    fn push(&mut self, pid: PageId, slot: usize) -> ControlFlow<()> {
        self.push((pid, slot));
        ControlFlow::Continue(())
    }
}

/// Adapter making any `FnMut(PageId, usize) -> ControlFlow<()>`
/// closure a sink. (A blanket impl would collide with the `Vec` impl
/// under coherence, hence the explicit newtype.)
#[derive(Debug)]
pub struct FnSink<F>(pub F);

impl<F: FnMut(PageId, usize) -> ControlFlow<()>> MatchSink for FnSink<F> {
    #[inline]
    fn push(&mut self, pid: PageId, slot: usize) -> ControlFlow<()> {
        (self.0)(pid, slot)
    }
}

/// Sink that keeps the first match and stops the producer — the
/// paper's primary-key shortcut ("as soon as the tuple is found the
/// search ends") expressed as a sink.
#[derive(Debug, Clone, Default)]
pub struct FirstMatch {
    /// The first delivered match, if any.
    pub found: Option<(PageId, usize)>,
}

impl MatchSink for FirstMatch {
    #[inline]
    fn push(&mut self, pid: PageId, slot: usize) -> ControlFlow<()> {
        self.found = Some((pid, slot));
        ControlFlow::Break(())
    }
}

/// Stream `matches` (any order; sorted here) into `sink` as a sorted
/// page batch, charging `data` exactly like the old materializing
/// `read_sorted_batch` — first page random, adjacent successors
/// sequential, duplicate pages free — but **page by page**, the
/// instant each page's first match is about to be delivered, so a
/// breaking sink never pays for the pages behind the matches it
/// declined. This is the one home of the Equation-13 charging rule on
/// the push side (its pull-side twin is [`PageBatchCursor`]), shared
/// by every index that resolves its full match set index-side
/// (per-tuple B+-Tree, hash, FD-Tree).
///
/// [`PageBatchCursor`]: crate::PageBatchCursor
pub fn stream_sorted_matches(
    mut matches: Vec<(PageId, usize)>,
    data: &PageDevice,
    sink: &mut dyn MatchSink,
) -> ProbeIo {
    matches.sort_unstable();
    let mut stats = ProbeIo::default();
    let mut prev: Option<PageId> = None;
    for (pid, slot) in matches {
        match prev {
            Some(q) if pid == q => {}
            Some(q) if pid == q + 1 => {
                data.read_seq(pid);
                stats.pages_read += 1;
            }
            _ => {
                data.read_random(pid);
                stats.pages_read += 1;
            }
        }
        prev = Some(pid);
        if sink.push(pid, slot).is_break() {
            break;
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use bftree_storage::DeviceKind;

    #[test]
    fn stream_sorted_matches_charges_like_a_sorted_batch_until_the_break() {
        let dev = PageDevice::cold(DeviceKind::Ssd);
        let ms = vec![(40u64, 0usize), (10, 0), (10, 2), (11, 1), (90, 0)];
        let mut taken: Vec<(PageId, usize)> = Vec::new();
        let mut sink = FnSink(|pid: PageId, slot: usize| {
            taken.push((pid, slot));
            if taken.len() < 4 {
                ControlFlow::Continue(())
            } else {
                ControlFlow::Break(())
            }
        });
        let stats = stream_sorted_matches(ms, &dev, &mut sink);
        // Sorted order: pages 10 (random), 11 (seq), 40 (random); the
        // 4th match breaks the sink, so page 90 is never charged.
        assert_eq!(taken, vec![(10, 0), (10, 2), (11, 1), (40, 0)]);
        assert_eq!(stats.pages_read, 3);
        let s = dev.snapshot();
        assert_eq!((s.random_reads, s.seq_reads), (2, 1));
    }

    #[test]
    fn vec_sink_collects_everything() {
        let mut v: Vec<(PageId, usize)> = Vec::new();
        assert!(v.push_match_continue(3, 1));
        assert!(v.push_match_continue(4, 0));
        assert_eq!(v, vec![(3, 1), (4, 0)]);
    }

    trait PushExt {
        fn push_match_continue(&mut self, pid: PageId, slot: usize) -> bool;
    }
    impl<S: MatchSink> PushExt for S {
        fn push_match_continue(&mut self, pid: PageId, slot: usize) -> bool {
            self.push(pid, slot) == ControlFlow::Continue(())
        }
    }

    #[test]
    fn first_match_breaks_immediately() {
        let mut f = FirstMatch::default();
        assert!(!f.push_match_continue(7, 2));
        assert_eq!(f.found, Some((7, 2)));
    }

    #[test]
    fn closures_are_sinks() {
        let mut n = 0u64;
        let mut sink = FnSink(|_pid: PageId, _slot: usize| {
            n += 1;
            if n < 3 {
                ControlFlow::Continue(())
            } else {
                ControlFlow::Break(())
            }
        });
        let s: &mut dyn MatchSink = &mut sink;
        assert_eq!(s.push(0, 0), ControlFlow::Continue(()));
        assert_eq!(s.push(0, 1), ControlFlow::Continue(()));
        assert_eq!(s.push(0, 2), ControlFlow::Break(()));
        assert_eq!(n, 3);
    }
}
