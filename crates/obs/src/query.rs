//! Per-query attribution: what one probe/scan actually cost, next to
//! what the analytical model said it would cost.
//!
//! A [`QueryTrace`] brackets one operation on the calling thread and
//! yields a [`QueryReport`] of the pages read, cache hits, filter
//! probes, and fsyncs attributed to it (from the thread-local
//! [`crate::OpCounters`] — recording must be armed via
//! [`crate::set_recording`]) plus the model's predicted I/O, giving a
//! per-query regret stream: `measured − predicted` device reads.
//!
//! `tests/observability.rs` is the only caller today; ROADMAP item 4
//! wires the regret stream to a live per-index metric.

use crate::clock::{self, WallTimer};
use crate::span::{thread_op_counters, OpCounters};

/// An open per-query attribution window on the calling thread.
#[must_use = "finish() produces the report"]
#[derive(Debug)]
pub struct QueryTrace {
    predicted_reads: f64,
    start_counters: OpCounters,
    start_sim_ns: u64,
    timer: WallTimer,
}

impl QueryTrace {
    /// Start attributing the calling thread's I/O to one query.
    /// `predicted_reads` is the model's expected device I/O for it
    /// (e.g. `BfTreeModel::probe_cost` components).
    pub fn begin(predicted_reads: f64) -> Self {
        Self {
            predicted_reads,
            start_counters: thread_op_counters(),
            start_sim_ns: clock::thread_sim_ns(),
            timer: WallTimer::start(),
        }
    }

    /// Close the window and report what the query cost.
    pub fn finish(self) -> QueryReport {
        let counters = thread_op_counters().since(&self.start_counters);
        QueryReport {
            predicted_reads: self.predicted_reads,
            counters,
            sim_ns: clock::thread_sim_ns() - self.start_sim_ns,
            wall_ns: self.timer.elapsed_ns(),
        }
    }
}

/// What one query cost, measured next to the model's prediction.
#[derive(Debug, Clone, Copy)]
pub struct QueryReport {
    /// The model's predicted device reads for this query.
    pub predicted_reads: f64,
    /// Measured attribution (device reads, cache hits, fsyncs, filter
    /// probes).
    pub counters: OpCounters,
    /// Simulated nanoseconds charged by the query.
    pub sim_ns: u64,
    /// Host wall nanoseconds spent in the query.
    pub wall_ns: u64,
}

impl QueryReport {
    /// Signed prediction error in device reads:
    /// `measured − predicted`. Positive = the model was optimistic.
    pub fn regret(&self) -> f64 {
        self.counters.device_reads as f64 - self.predicted_reads
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(feature = "obs")]
    #[test]
    fn query_trace_attributes_thread_local_work() {
        let _gate = crate::recording_test_gate();
        crate::set_recording(true);
        let t = QueryTrace::begin(2.0);
        crate::note_device_reads(3);
        crate::note_cache_hits(1);
        crate::note_filter_probes(5);
        crate::clock::add_thread_sim_ns(70);
        let r = t.finish();
        crate::set_recording(false);
        assert_eq!(r.counters.device_reads, 3);
        assert_eq!(r.counters.cache_hits, 1);
        assert_eq!(r.counters.filter_probes, 5);
        assert!(r.sim_ns >= 70);
        assert_eq!(r.regret(), 1.0);
    }

    #[test]
    fn disarmed_trace_reports_zero_counters() {
        let _gate = crate::recording_test_gate();
        crate::set_recording(false);
        let t = QueryTrace::begin(1.5);
        crate::note_device_reads(3);
        let r = t.finish();
        assert_eq!(r.counters, OpCounters::default());
        assert_eq!(r.regret(), -1.5);
    }
}
