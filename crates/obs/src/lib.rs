//! # Observability core for the BF-Tree reproduction
//!
//! Zero-dependency, lock-free telemetry threaded through every layer
//! of the workspace:
//!
//! * [`clock`] — the shared time vocabulary: the per-thread simulated
//!   clock every `IoStats` charge advances ([`thread_sim_ns`]), a
//!   process-epoch wall clock for trace timestamps, and the
//!   [`WallTimer`] stopwatch benches and recovery use.
//! * [`mod@span`] — RAII [`Span`] guards over a per-thread ring-buffer
//!   `EventRecorder`: probe / batch-probe / range-page-pull /
//!   memtable-flush / wal-append / fsync / eviction / recovery-replay,
//!   with parent links, sim-ns and wall-ns, and per-span I/O
//!   attribution. Compiled out without the `obs` feature; when
//!   compiled in but disarmed (the default) every hook costs one
//!   relaxed atomic load — and recording never touches `IoStats`, so
//!   I/O counts are bit-identical on or off.
//! * [`trace`] — serialize drained spans to Chrome `trace_event` JSON
//!   ([`chrome_trace_json`]); the file opens in `chrome://tracing` or
//!   Perfetto.
//! * [`metrics`] — the pull-model [`MetricsRegistry`]: layers
//!   implement [`MetricSource`], callers render
//!   [`MetricsRegistry::render_prometheus`] text or a JSON snapshot
//!   (`tests/observability.rs` checks the I/O, WAL, durable-index and
//!   recovery families in the Prometheus text).
//! * [`histogram`] — the log₂ [`LatencyHistogram`] (promoted from the
//!   bench crate): mergeable, p50/p95/p99/max.
//! * [`query`] — [`QueryTrace`]: per-query attribution of device
//!   reads, cache hits, filter probes, and fsyncs, recorded next to
//!   the analytical model's prediction as a regret stream.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod clock;
pub mod histogram;
pub mod metrics;
pub mod query;
pub mod span;
pub mod trace;

pub use clock::{add_thread_sim_ns, ns_to_ms, ns_to_secs, ns_to_us, thread_sim_ns, WallTimer};
pub use histogram::LatencyHistogram;
pub use metrics::{Counter, Gauge, Metric, MetricKind, MetricSource, MetricsRegistry};
pub use query::{QueryReport, QueryTrace};
pub use span::{
    drain_spans, event, flush_thread, is_recording, note_cache_hits, note_device_reads,
    note_filter_probes, note_fsync, root_device_reads, set_recording, span, thread_op_counters,
    CompletedSpan, OpCounters, Span, SpanKind,
};
pub use trace::{check_balanced, chrome_trace_json};

/// Tests that toggle the process-wide recording flag serialize on this
/// gate (the flag and sink are shared across the whole test binary).
#[cfg(test)]
pub(crate) fn recording_test_gate() -> std::sync::MutexGuard<'static, ()> {
    static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());
    GATE.lock().unwrap_or_else(|e| e.into_inner())
}
