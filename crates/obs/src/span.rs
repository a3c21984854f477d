//! Span recording: RAII guards, per-thread ring-buffer recorders, and
//! the per-thread operation counters spans and [`crate::QueryTrace`]s
//! attribute I/O with.
//!
//! ## Cost contract
//!
//! * Compiled out (`--no-default-features`): every entry point here is
//!   an empty inline function — the hot paths carry zero code.
//! * Compiled in, recording off (the default): every entry point is
//!   one relaxed atomic load and a branch.
//! * Recording on: spans touch only thread-local state; completed
//!   spans land in a per-thread ring that flushes to one global sink
//!   when full and at thread exit. Recording never writes to
//!   `IoStats`, so I/O counts are bit-identical with recording on or
//!   off (pinned by `tests/observability.rs`).

use std::sync::atomic::{AtomicBool, Ordering};

/// The span taxonomy — every phase a request can spend time in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// One point probe (single key, any access method).
    Probe,
    /// One batched probe call serving many keys.
    BatchProbe,
    /// One data-page pull of a range cursor / range scan.
    RangePagePull,
    /// A memtable flush into the inner index (durable write path).
    MemtableFlush,
    /// One WAL record append (sync included when the mode forces it).
    WalAppend,
    /// One durability barrier reaching a device.
    Fsync,
    /// Buffer-pool evictions (instantaneous event; `detail` = count).
    Eviction,
    /// WAL replay during crash recovery.
    RecoveryReplay,
    /// One retry wait after a transient device fault (`detail` =
    /// attempt number).
    FaultRetry,
    /// A page entered quarantine after a permanent verification
    /// failure (instantaneous event; `detail` = page id).
    Quarantine,
    /// One repair pass rewriting quarantined pages (`detail` = pages
    /// repaired).
    Repair,
    /// One scrubber sweep verifying live page checksums (`detail` =
    /// pages scanned).
    Scrub,
    /// One wire-protocol request handled by a server worker
    /// (`detail` = opcode).
    Rpc,
    /// One batched operation routed across shards (`detail` = shards
    /// touched).
    Scatter,
}

impl SpanKind {
    /// Stable display name (the Chrome-trace event name).
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Probe => "probe",
            SpanKind::BatchProbe => "batch-probe",
            SpanKind::RangePagePull => "range-page-pull",
            SpanKind::MemtableFlush => "memtable-flush",
            SpanKind::WalAppend => "wal-append",
            SpanKind::Fsync => "fsync",
            SpanKind::Eviction => "eviction",
            SpanKind::RecoveryReplay => "recovery-replay",
            SpanKind::FaultRetry => "fault-retry",
            SpanKind::Quarantine => "quarantine",
            SpanKind::Repair => "repair",
            SpanKind::Scrub => "scrub",
            SpanKind::Rpc => "rpc",
            SpanKind::Scatter => "scatter",
        }
    }
}

/// Per-thread operation counters, attributable to a span or a
/// [`crate::QueryTrace`] by taking deltas. Only bumped while recording
/// is on; never fed back into `IoStats`.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct OpCounters {
    /// Page reads that reached a device (random + sequential).
    pub device_reads: u64,
    /// Reads absorbed by a buffer pool.
    pub cache_hits: u64,
    /// Durability barriers issued.
    pub fsyncs: u64,
    /// Bloom-filter membership probes.
    pub filter_probes: u64,
}

impl OpCounters {
    /// Counter-wise difference `self - earlier`.
    pub fn since(&self, earlier: &OpCounters) -> OpCounters {
        OpCounters {
            device_reads: self.device_reads - earlier.device_reads,
            cache_hits: self.cache_hits - earlier.cache_hits,
            fsyncs: self.fsyncs - earlier.fsyncs,
            filter_probes: self.filter_probes - earlier.filter_probes,
        }
    }
}

/// One finished span, as drained from the recorder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompletedSpan {
    /// Process-unique span id (allocation order).
    pub id: u64,
    /// Enclosing span on the same thread, if any.
    pub parent: Option<u64>,
    /// Which phase of the taxonomy this span is.
    pub kind: SpanKind,
    /// Recording thread (process-unique, assigned on first span).
    pub thread: u64,
    /// Wall nanoseconds at entry, from the shared process epoch.
    pub start_wall_ns: u64,
    /// Wall nanoseconds at exit.
    pub end_wall_ns: u64,
    /// Simulated nanoseconds charged while the span was open
    /// (children included).
    pub sim_ns: u64,
    /// Operation counters accumulated while open (children included).
    pub counters: OpCounters,
    /// Kind-specific payload (batch size, pages pulled, eviction
    /// count, records replayed, …); 0 when unused.
    pub detail: u64,
}

impl CompletedSpan {
    /// Wall duration of the span.
    pub fn wall_ns(&self) -> u64 {
        self.end_wall_ns - self.start_wall_ns
    }
}

/// Sum the device reads of **root** spans (spans with no parent).
/// Every nested read is included in its root exactly once, so this is
/// the number the run's `IoSnapshot` must reconcile with.
pub fn root_device_reads(spans: &[CompletedSpan]) -> u64 {
    spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.counters.device_reads)
        .sum()
}

/// The runtime gate. Off by default: existing benches and tests run
/// with recording compiled in but disarmed, paying one relaxed load
/// per hook.
static RECORDING: AtomicBool = AtomicBool::new(false);

/// Turn span/counter recording on or off (process-wide).
pub fn set_recording(on: bool) {
    RECORDING.store(on, Ordering::Relaxed);
}

/// Whether recording is currently armed.
#[inline]
pub fn is_recording() -> bool {
    cfg!(feature = "obs") && RECORDING.load(Ordering::Relaxed)
}

#[cfg(feature = "obs")]
mod armed {
    use super::{CompletedSpan, OpCounters, SpanKind, RECORDING};
    use crate::clock;
    use std::cell::{Cell, RefCell};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Mutex;

    /// Completed spans a thread buffers before flushing to the sink.
    const RING: usize = 256;

    static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);
    static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);
    static SINK: Mutex<Vec<CompletedSpan>> = Mutex::new(Vec::new());

    /// The per-thread ring-buffer recorder: open-span stack for parent
    /// links plus a bounded buffer of completed spans. Flushes to the
    /// global sink when the ring fills and when the thread exits.
    pub(super) struct EventRecorder {
        thread: u64,
        stack: Vec<u64>,
        ring: Vec<CompletedSpan>,
    }

    impl EventRecorder {
        fn new() -> Self {
            Self {
                thread: NEXT_THREAD.fetch_add(1, Ordering::Relaxed),
                stack: Vec::new(),
                ring: Vec::with_capacity(RING),
            }
        }

        fn flush(&mut self) {
            if !self.ring.is_empty() {
                SINK.lock().expect("span sink").append(&mut self.ring);
            }
        }

        fn push_completed(&mut self, span: CompletedSpan) {
            self.ring.push(span);
            if self.ring.len() >= RING {
                self.flush();
            }
        }
    }

    impl Drop for EventRecorder {
        fn drop(&mut self) {
            self.flush();
        }
    }

    thread_local! {
        static RECORDER: RefCell<EventRecorder> = RefCell::new(EventRecorder::new());
        static COUNTERS: Cell<OpCounters> = const { Cell::new(OpCounters {
            device_reads: 0,
            cache_hits: 0,
            fsyncs: 0,
            filter_probes: 0,
        }) };
    }

    #[inline]
    pub(super) fn counters() -> OpCounters {
        COUNTERS.with(|c| c.get())
    }

    #[inline]
    pub(super) fn bump(f: impl FnOnce(&mut OpCounters)) {
        if RECORDING.load(Ordering::Relaxed) {
            COUNTERS.with(|c| {
                let mut v = c.get();
                f(&mut v);
                c.set(v);
            });
        }
    }

    pub(super) fn enter(kind: SpanKind) -> Option<super::Frame> {
        if !RECORDING.load(Ordering::Relaxed) {
            return None;
        }
        let id = NEXT_SPAN.fetch_add(1, Ordering::Relaxed);
        let parent = RECORDER.with(|r| {
            let mut r = r.borrow_mut();
            let parent = r.stack.last().copied();
            r.stack.push(id);
            parent
        });
        Some(super::Frame {
            id,
            parent,
            kind,
            start_wall_ns: clock::wall_now_ns(),
            start_sim_ns: clock::thread_sim_ns(),
            start_counters: counters(),
            detail: 0,
        })
    }

    pub(super) fn exit(frame: super::Frame) {
        let end_wall_ns = clock::wall_now_ns();
        let sim_ns = clock::thread_sim_ns() - frame.start_sim_ns;
        let delta = counters().since(&frame.start_counters);
        RECORDER.with(|r| {
            let mut r = r.borrow_mut();
            debug_assert_eq!(r.stack.last(), Some(&frame.id), "span guards drop LIFO");
            r.stack.pop();
            let thread = r.thread;
            r.push_completed(CompletedSpan {
                id: frame.id,
                parent: frame.parent,
                kind: frame.kind,
                thread,
                start_wall_ns: frame.start_wall_ns,
                end_wall_ns,
                sim_ns,
                counters: delta,
                detail: frame.detail,
            });
        });
    }

    pub(super) fn flush_thread() {
        RECORDER.with(|r| r.borrow_mut().flush());
    }

    pub(super) fn drain() -> Vec<CompletedSpan> {
        flush_thread();
        std::mem::take(&mut *SINK.lock().expect("span sink"))
    }
}

/// The internal open-span state carried by a [`Span`] guard.
#[cfg(feature = "obs")]
#[derive(Debug)]
#[doc(hidden)]
pub struct Frame {
    id: u64,
    parent: Option<u64>,
    kind: SpanKind,
    start_wall_ns: u64,
    start_sim_ns: u64,
    start_counters: OpCounters,
    detail: u64,
}

/// An RAII span guard: open at [`span`], completed (and recorded) on
/// drop. Inert — a single branch — when recording is off or compiled
/// out.
#[must_use = "a span measures the scope it lives in"]
#[derive(Debug)]
pub struct Span {
    #[cfg(feature = "obs")]
    frame: Option<Frame>,
}

/// Open a span of `kind` on the calling thread. Costs one relaxed
/// atomic load when recording is off.
#[inline]
pub fn span(kind: SpanKind) -> Span {
    #[cfg(feature = "obs")]
    {
        Span {
            frame: armed::enter(kind),
        }
    }
    #[cfg(not(feature = "obs"))]
    {
        let _ = kind;
        Span {}
    }
}

impl Span {
    /// Attach a kind-specific payload (batch size, pages pulled, …)
    /// to the span; recorded on drop.
    #[inline]
    pub fn set_detail(&mut self, detail: u64) {
        #[cfg(feature = "obs")]
        if let Some(f) = self.frame.as_mut() {
            f.detail = detail;
        }
        #[cfg(not(feature = "obs"))]
        let _ = detail;
    }
}

impl Drop for Span {
    #[inline]
    fn drop(&mut self) {
        #[cfg(feature = "obs")]
        if let Some(frame) = self.frame.take() {
            armed::exit(frame);
        }
    }
}

/// Record an instantaneous event of `kind` (zero-duration span) with a
/// `detail` payload — evictions use this.
#[inline]
pub fn event(kind: SpanKind, detail: u64) {
    let mut s = span(kind);
    s.set_detail(detail);
}

/// Note `n` device page reads on the calling thread.
#[inline]
pub fn note_device_reads(n: u64) {
    #[cfg(feature = "obs")]
    armed::bump(|c| c.device_reads += n);
    #[cfg(not(feature = "obs"))]
    let _ = n;
}

/// Note `n` buffer-pool hits on the calling thread.
#[inline]
pub fn note_cache_hits(n: u64) {
    #[cfg(feature = "obs")]
    armed::bump(|c| c.cache_hits += n);
    #[cfg(not(feature = "obs"))]
    let _ = n;
}

/// Note one durability barrier on the calling thread.
#[inline]
pub fn note_fsync() {
    #[cfg(feature = "obs")]
    armed::bump(|c| c.fsyncs += 1);
}

/// Note `n` Bloom-filter membership probes on the calling thread.
#[inline]
pub fn note_filter_probes(n: u64) {
    #[cfg(feature = "obs")]
    armed::bump(|c| c.filter_probes += n);
    #[cfg(not(feature = "obs"))]
    let _ = n;
}

/// This thread's cumulative operation counters (monotone; take
/// deltas). All-zero when recording is off or compiled out.
#[inline]
pub fn thread_op_counters() -> OpCounters {
    #[cfg(feature = "obs")]
    {
        armed::counters()
    }
    #[cfg(not(feature = "obs"))]
    {
        OpCounters::default()
    }
}

/// Flush the calling thread's ring into the global sink without
/// draining it. Worker threads also flush at exit via their TLS
/// destructor, but a joiner (e.g. `std::thread::scope`) may resume
/// before that destructor runs — a worker whose spans are drained
/// right after the join must call this before its closure returns.
pub fn flush_thread() {
    #[cfg(feature = "obs")]
    armed::flush_thread();
}

/// Drain every completed span recorded so far (flushing the calling
/// thread's ring first). Spans buffered on *other live* threads are
/// not included until those threads flush or exit.
pub fn drain_spans() -> Vec<CompletedSpan> {
    #[cfg(feature = "obs")]
    {
        armed::drain()
    }
    #[cfg(not(feature = "obs"))]
    {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::recording_test_gate as lock;

    #[test]
    fn disarmed_recording_emits_nothing() {
        let _g = lock();
        set_recording(false);
        drain_spans();
        {
            let _s = span(SpanKind::Probe);
            note_device_reads(3);
        }
        assert!(drain_spans().is_empty());
    }

    #[cfg(feature = "obs")]
    #[test]
    fn spans_nest_and_attribute_counters() {
        let _g = lock();
        set_recording(true);
        drain_spans();
        {
            let _outer = span(SpanKind::BatchProbe);
            note_device_reads(1);
            {
                let _inner = span(SpanKind::Probe);
                note_device_reads(2);
                note_cache_hits(1);
                crate::clock::add_thread_sim_ns(50);
            }
            note_filter_probes(4);
        }
        event(SpanKind::Eviction, 7);
        set_recording(false);
        let spans = drain_spans();
        assert_eq!(spans.len(), 3);
        let inner = spans.iter().find(|s| s.kind == SpanKind::Probe).unwrap();
        let outer = spans
            .iter()
            .find(|s| s.kind == SpanKind::BatchProbe)
            .unwrap();
        let evict = spans.iter().find(|s| s.kind == SpanKind::Eviction).unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(outer.parent, None);
        assert_eq!(inner.counters.device_reads, 2);
        assert_eq!(inner.counters.cache_hits, 1);
        assert_eq!(inner.sim_ns, 50);
        // The outer span includes its child's work.
        assert_eq!(outer.counters.device_reads, 3);
        assert_eq!(outer.counters.filter_probes, 4);
        assert!(outer.sim_ns >= 50);
        assert!(outer.end_wall_ns >= inner.end_wall_ns);
        assert_eq!(evict.detail, 7);
        assert_eq!(evict.parent, None);
        assert_eq!(root_device_reads(&spans), 3, "inner reads counted once");
    }

    #[cfg(feature = "obs")]
    #[test]
    fn worker_threads_flush_before_join() {
        let _g = lock();
        set_recording(true);
        drain_spans();
        // A test thread that just finished elsewhere in the harness can
        // flush its ring into the sink concurrently; tag this test's
        // spans so the count ignores such stragglers.
        const TAG: u64 = 0x0B5_F1A6;
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..10 {
                        let mut s = span(SpanKind::Probe);
                        s.set_detail(TAG);
                    }
                    // `scope` unblocks when the closure returns, which
                    // can be before this thread's TLS destructors (the
                    // ring's exit flush) have run — flush explicitly so
                    // the spans are sunk before the join.
                    flush_thread();
                });
            }
        });
        set_recording(false);
        let spans: Vec<_> = drain_spans()
            .into_iter()
            .filter(|s| s.detail == TAG)
            .collect();
        assert_eq!(spans.len(), 40);
        let threads: std::collections::HashSet<u64> = spans.iter().map(|s| s.thread).collect();
        assert_eq!(threads.len(), 4, "each worker got its own thread id");
    }
}
