//! Background scrubbing: sweep live pages verifying checksums so
//! silent bit rot is found (and quarantined) *before* a query trips
//! over it.
//!
//! The scrubber is deliberately dumb: one pass walks every live page
//! of a [`FileStore`] through the same verified read path queries use
//! — retries included — and hands checksum failures to the store's
//! quarantine. Repair is someone else's job (`DurableIndex` replays
//! the page from its WAL image); detection and containment is the
//! whole contract here, reported through the store's
//! [`FaultStats`](crate::fault::FaultStats) as the
//! `bftree_fault_scrub_*` counters and a `scrub` span per pass.
//!
//! [`Scrubber::spawn`] runs passes on a background thread at a fixed
//! interval; [`BackgroundScrubber::stop`] joins it and returns the
//! accumulated totals. Experiments that want deterministic timing
//! call [`Scrubber::scrub_pass`] synchronously instead.
//!
//! No figure, workload or example runs a scrubber; `tests/self_healing.rs`
//! does. It stays because detecting and containing faults is not code a
//! dead-weight audit removes.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::file::FileStore;

/// What one scrub pass saw.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Live pages whose checksum was verified this pass.
    pub pages_scanned: u64,
    /// Pages that failed verification and were quarantined by this
    /// pass.
    pub corrupt_found: u64,
    /// Pages skipped because they were already in quarantine (awaiting
    /// repair; rereading them teaches nothing).
    pub already_quarantined: u64,
    /// Pages whose read kept failing transiently even after retries —
    /// not corrupt, just unreachable this pass.
    pub unavailable: u64,
}

impl ScrubReport {
    /// True when the pass found every scanned page healthy.
    pub fn clean(&self) -> bool {
        self.corrupt_found == 0 && self.unavailable == 0
    }

    /// Accumulate another pass into this report.
    pub fn absorb(&mut self, other: &ScrubReport) {
        self.pages_scanned += other.pages_scanned;
        self.corrupt_found += other.corrupt_found;
        self.already_quarantined += other.already_quarantined;
        self.unavailable += other.unavailable;
    }
}

/// Sweeps a [`FileStore`]'s live pages verifying checksums (see the
/// [module docs](self)).
#[derive(Debug, Clone)]
pub struct Scrubber {
    store: Arc<FileStore>,
}

impl Scrubber {
    /// A scrubber over `store`.
    pub fn new(store: Arc<FileStore>) -> Self {
        Self { store }
    }

    /// One synchronous pass over every live page: verified read (the
    /// store's retry policy applies), quarantine on checksum failure.
    /// Pages already quarantined are skipped — they are known-bad and
    /// waiting on repair.
    pub fn scrub_pass(&self) -> ScrubReport {
        let mut span = bftree_obs::span(bftree_obs::SpanKind::Scrub);
        let mut report = ScrubReport::default();
        for page in self.store.live_page_ids() {
            if self.store.quarantine().contains(page) {
                report.already_quarantined += 1;
                continue;
            }
            report.pages_scanned += 1;
            match self.store.read_page_verified(page) {
                Ok(_) => {}
                Err(e) if e.is_transient() => report.unavailable += 1,
                Err(_) => {
                    self.store.quarantine_page(page);
                    report.corrupt_found += 1;
                }
            }
        }
        self.store
            .fault_stats()
            .note_scrub_pass(report.pages_scanned, report.corrupt_found);
        span.set_detail(report.pages_scanned);
        report
    }

    /// Run [`Scrubber::scrub_pass`] every `interval` on a background
    /// thread until [`BackgroundScrubber::stop`] is called. The first
    /// pass runs immediately.
    pub fn spawn(self, interval: Duration) -> BackgroundScrubber {
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut totals = ScrubReport::default();
            let mut passes = 0u64;
            loop {
                totals.absorb(&self.scrub_pass());
                passes += 1;
                if stop_flag.load(Ordering::Relaxed) {
                    return (totals, passes);
                }
                // Sleep in small slices so stop() is prompt even with
                // long intervals.
                let mut left = interval;
                let slice = Duration::from_millis(10);
                while left > Duration::ZERO {
                    if stop_flag.load(Ordering::Relaxed) {
                        return (totals, passes);
                    }
                    let step = left.min(slice);
                    std::thread::sleep(step);
                    left -= step;
                }
            }
        });
        BackgroundScrubber {
            stop,
            handle: Some(handle),
        }
    }
}

/// Handle to a running background scrubber (see [`Scrubber::spawn`]).
#[derive(Debug)]
pub struct BackgroundScrubber {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<(ScrubReport, u64)>>,
}

impl BackgroundScrubber {
    /// Signal the thread to stop, join it, and return the accumulated
    /// totals plus the number of passes completed.
    pub fn stop(mut self) -> (ScrubReport, u64) {
        self.stop.store(true, Ordering::Relaxed);
        self.handle
            .take()
            .expect("stop is the only taker")
            .join()
            .expect("scrubber thread never panics")
    }
}

impl Drop for BackgroundScrubber {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::file::{ScratchDir, SyncPolicy};

    fn store(name: &str) -> (ScratchDir, Arc<FileStore>) {
        let dir = ScratchDir::new(name).unwrap();
        let store = FileStore::create(dir.path().join("s.bfs"), SyncPolicy::Deferred).unwrap();
        (dir, Arc::new(store))
    }

    #[test]
    fn clean_store_scrubs_clean() {
        let (_dir, store) = store("scrub-clean");
        for page in 0..8 {
            store.write_page(page, b"healthy").unwrap();
        }
        let report = Scrubber::new(Arc::clone(&store)).scrub_pass();
        assert!(report.clean());
        assert_eq!(report.pages_scanned, 8);
        assert!(store.quarantine().is_empty());
        let snap = store.fault_stats().snapshot();
        assert_eq!(snap.scrub_passes, 1);
        assert_eq!(snap.scrub_pages, 8);
    }

    #[test]
    fn scrub_finds_planted_rot_and_quarantines_it() {
        let (_dir, store) = store("scrub-rot");
        for page in 0..6 {
            store.write_page(page, b"payload").unwrap();
        }
        store.corrupt_page(2).unwrap();
        store.corrupt_page(5).unwrap();
        let scrubber = Scrubber::new(Arc::clone(&store));
        let report = scrubber.scrub_pass();
        assert_eq!(report.corrupt_found, 2);
        assert!(store.quarantine().contains(2) && store.quarantine().contains(5));
        // A second pass skips the quarantined pages instead of
        // rediscovering them.
        let again = scrubber.scrub_pass();
        assert_eq!(again.corrupt_found, 0);
        assert_eq!(again.already_quarantined, 2);
        assert_eq!(again.pages_scanned, 4);
        // Repair heals; the next pass is clean and full-coverage.
        store.repair_page(2, Some(b"payload")).unwrap();
        store.repair_page(5, Some(b"payload")).unwrap();
        let healed = scrubber.scrub_pass();
        assert!(healed.clean());
        assert_eq!(healed.pages_scanned, 6);
    }

    #[test]
    fn background_scrubber_runs_and_stops() {
        let (_dir, store) = store("scrub-bg");
        for page in 0..4 {
            store.write_page(page, b"x").unwrap();
        }
        store.corrupt_page(1).unwrap();
        let bg = Scrubber::new(Arc::clone(&store)).spawn(Duration::from_millis(1));
        // The first pass runs before any sleep, so corruption is
        // already contained by the time stop() returns.
        let (totals, passes) = bg.stop();
        assert!(passes >= 1);
        assert_eq!(totals.corrupt_found, 1);
        assert!(store.quarantine().contains(1));
    }
}
