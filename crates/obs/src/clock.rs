//! The one clock vocabulary every crate shares.
//!
//! Two time axes run through the stack:
//!
//! * **Simulated nanoseconds** — the deterministic device clock
//!   `IoStats` charges. The per-thread accumulator lives *here*
//!   ([`thread_sim_ns`]/[`add_thread_sim_ns`]) and `bftree-storage`
//!   re-exports the reader, so storage accounting and span recording
//!   agree by construction.
//! * **Wall nanoseconds** — host time, measured from one process-wide
//!   epoch ([`wall_now_ns`]) so timestamps from different threads are
//!   directly comparable (Chrome traces need a shared origin), or as
//!   a plain stopwatch ([`WallTimer`]).

use std::cell::Cell;
use std::sync::OnceLock;
use std::time::Instant;

thread_local! {
    /// Simulated nanoseconds charged by this thread, across all
    /// devices, since thread start. Monotone; callers take deltas.
    static SIM_NS: Cell<u64> = const { Cell::new(0) };
}

/// Simulated nanoseconds charged *by the calling thread* across every
/// device since the thread started. Monotone — take a delta around an
/// operation to get that operation's simulated latency:
///
/// ```
/// use bftree_obs::{add_thread_sim_ns, thread_sim_ns};
///
/// let before = thread_sim_ns();
/// add_thread_sim_ns(125); // what IoStats does on every charge
/// assert_eq!(thread_sim_ns() - before, 125);
/// ```
pub fn thread_sim_ns() -> u64 {
    SIM_NS.with(|c| c.get())
}

/// Advance the calling thread's simulated clock by `ns`. Called by
/// every `IoStats::record_*` charge; nothing else should need it.
#[inline]
pub fn add_thread_sim_ns(ns: u64) {
    SIM_NS.with(|c| c.set(c.get() + ns));
}

/// The process-wide wall epoch: initialized on first use, shared by
/// every thread.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Wall nanoseconds since the process-wide epoch. All threads share
/// the origin, so values are comparable across threads (this is what
/// trace timestamps are built from).
pub fn wall_now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// A wall-clock stopwatch — the one way the workspace measures host
/// time (benches, recovery replay, file-store syscalls).
#[derive(Debug, Clone, Copy)]
pub struct WallTimer {
    start: Instant,
}

impl WallTimer {
    /// Start the stopwatch.
    pub fn start() -> Self {
        Self {
            start: Instant::now(),
        }
    }

    /// Wall nanoseconds elapsed since [`WallTimer::start`].
    pub fn elapsed_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }
}

/// Nanoseconds as microseconds.
pub fn ns_to_us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Nanoseconds as milliseconds.
pub fn ns_to_ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Nanoseconds as seconds.
pub fn ns_to_secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_clock_is_thread_local_and_monotone() {
        let t0 = thread_sim_ns();
        add_thread_sim_ns(100);
        assert_eq!(thread_sim_ns() - t0, 100);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let mine = thread_sim_ns();
                add_thread_sim_ns(40);
                assert_eq!(thread_sim_ns() - mine, 40);
            });
        });
        assert_eq!(thread_sim_ns() - t0, 100, "other threads don't move it");
    }

    #[test]
    fn wall_clock_advances_from_a_shared_epoch() {
        let a = wall_now_ns();
        let b = wall_now_ns();
        assert!(b >= a);
        let t = WallTimer::start();
        std::hint::black_box((0..1000).sum::<u64>());
        assert!(t.elapsed_ns() > 0);
    }

    #[test]
    fn unit_conversions() {
        assert_eq!(ns_to_us(1_500), 1.5);
        assert_eq!(ns_to_ms(2_000_000), 2.0);
        assert_eq!(ns_to_secs(3_000_000_000), 3.0);
    }
}
