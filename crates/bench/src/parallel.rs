//! Multi-threaded probe serving: the concurrent counterpart of
//! [`crate::indexes::run_probes`].
//!
//! [`run_probes_parallel`] fans per-thread key streams out over
//! [`std::thread::scope`] against one shared `&dyn AccessMethod`; the
//! read path is lock-free end to end (the trait is `Send + Sync`, and
//! cold [`PageDevice`](bftree_storage::PageDevice)s record into sharded
//! counters). [`run_mixed_parallel`] serves YCSB-style mixed
//! read/insert streams through a [`ConcurrentIndex`] (readers share,
//! writers exclude).
//!
//! Drivers: `examples/concurrent_probes.rs` (both entry points) and
//! `tests/buffer_manager.rs` (parallel counters ≡ single-threaded).
//!
//! ## Timing model
//!
//! Each worker accumulates *simulated* nanoseconds — deltas of
//! [`thread_sim_ns`] around each operation — into a log₂-bucketed
//! [`LatencyHistogram`] and a per-thread total. The run's **makespan**
//! is the slowest thread's simulated time: the wall-clock a real
//! deployment would see if every worker drove its own device channel
//! (the multi-channel SSD/NVMe setting §8 of the paper points at).
//! Aggregate throughput is `total_ops / makespan`, which is exactly
//! reproducible on any host — including single-core CI.

use bftree_access::{AccessMethod, ConcurrentIndex, Probe, ProbeError};
use bftree_storage::{thread_sim_ns, IoContext, IoSnapshot, PageId, Relation};
use bftree_workloads::Op;

// The histogram lives in `bftree-obs` now (shared with the metrics
// registry); re-exported here so harness code keeps one import path.
pub use bftree_obs::LatencyHistogram;

/// What one worker thread did during a parallel run.
#[derive(Debug, Clone, Copy, Default)]
pub struct ThreadStats {
    /// Operations executed.
    pub ops: u64,
    /// Probes that found at least one tuple.
    pub hits: u64,
    /// Falsely-read data pages across the thread's probes.
    pub false_reads: u64,
    /// Inserts executed (mixed streams only).
    pub inserts: u64,
    /// Deletes executed (mixed streams only).
    pub deletes: u64,
    /// Simulated nanoseconds this thread charged.
    pub sim_ns: u64,
}

impl ThreadStats {
    fn tally(&mut self, probe: Result<Probe, ProbeError>) {
        let probe = probe.expect("relation validated at construction");
        self.hits += u64::from(probe.found());
        self.false_reads += probe.false_reads;
    }
}

/// Outcome of a parallel run.
#[derive(Debug, Clone)]
pub struct ParallelRunResult {
    /// Worker threads used (= number of input streams).
    pub threads: usize,
    /// Operations across all threads.
    pub total_ops: u64,
    /// Probes that found at least one tuple.
    pub hits: u64,
    /// Falsely-read data pages across all probes.
    pub false_reads: u64,
    /// Slowest thread's simulated time — the run's simulated
    /// wall-clock under one device channel per worker.
    pub makespan_sim_ns: u64,
    /// Sum of all threads' simulated time (device-time demand).
    pub total_sim_ns: u64,
    /// Merged per-operation latency histogram (simulated ns).
    pub latencies: LatencyHistogram,
    /// Per-thread breakdown, indexed by stream position.
    pub per_thread: Vec<ThreadStats>,
    /// Merged I/O counters of both devices at the end of the run
    /// (cache hits/evictions included).
    pub io_total: IoSnapshot,
}

impl ParallelRunResult {
    /// Fraction of probes that hit.
    pub fn hit_rate(&self) -> f64 {
        let probes = self.total_ops - self.per_thread.iter().map(|t| t.inserts).sum::<u64>();
        if probes == 0 {
            0.0
        } else {
            self.hits as f64 / probes as f64
        }
    }

    /// Aggregate simulated throughput, operations per simulated
    /// second (total ops / makespan). Deterministic on any host.
    pub fn throughput_ops_per_sec(&self) -> f64 {
        if self.makespan_sim_ns == 0 {
            return 0.0;
        }
        self.total_ops as f64 * 1e9 / self.makespan_sim_ns as f64
    }

    /// How close the run is to ideal scaling: total device-time demand
    /// divided by `threads × makespan` (1.0 = perfectly balanced).
    pub fn parallel_efficiency(&self) -> f64 {
        if self.makespan_sim_ns == 0 || self.threads == 0 {
            return 0.0;
        }
        self.total_sim_ns as f64 / (self.threads as f64 * self.makespan_sim_ns as f64)
    }
}

/// Run per-thread probe streams concurrently against one shared index:
/// `streams.len()` workers, each probing its own keys, all charging
/// the shared `io`. Lock-free on the default cold-device path.
///
/// Unique relations use the paper's primary-key shortcut
/// ([`AccessMethod::probe_first`]), matching
/// [`crate::indexes::run_probes`] so single- and multi-threaded runs
/// are directly comparable (and their I/O totals must agree exactly —
/// the conformance suite pins this).
pub fn run_probes_parallel(
    index: &dyn AccessMethod,
    rel: &Relation,
    streams: &[Vec<u64>],
    io: &IoContext,
) -> ParallelRunResult {
    run_workers(streams, io, |key, stats| {
        let probe = if rel.is_unique() {
            index.probe_first(key, rel, io)
        } else {
            index.probe(key, rel, io)
        };
        stats.tally(probe);
    })
}

/// Serve per-thread mixed read/insert streams concurrently through a
/// [`ConcurrentIndex`]: probes share the read lock, inserts take the
/// write lock. `locate` maps an insert key to its pre-loaded heap
/// location (the run phase registers tuples the load phase already
/// appended — see `bftree_workloads::mixed`).
pub fn run_mixed_parallel<A: AccessMethod>(
    index: &ConcurrentIndex<A>,
    rel: &Relation,
    streams: &[Vec<Op>],
    io: &IoContext,
    locate: &(dyn Fn(u64) -> (PageId, usize) + Sync),
) -> ParallelRunResult {
    run_workers(streams, io, |op, stats| match op {
        Op::Probe(key) => {
            let probe = if rel.is_unique() {
                index.probe_first(key, rel, io)
            } else {
                index.probe(key, rel, io)
            };
            stats.tally(probe);
        }
        Op::Insert(key) => {
            index
                .insert(key, locate(key), rel)
                .expect("insert of a pre-loaded tuple");
            stats.inserts += 1;
        }
        Op::Delete(key) => {
            index
                .delete(key, rel)
                .expect("delete under a validated relation");
            stats.deletes += 1;
        }
    })
}

/// One scoped worker per stream, each serving its elements through
/// `serve` and timing every one in simulated nanoseconds.
fn run_workers<T: Copy + Sync>(
    streams: &[Vec<T>],
    io: &IoContext,
    serve: impl Fn(T, &mut ThreadStats) + Sync,
) -> ParallelRunResult {
    io.reset();
    let worker_results: Vec<(ThreadStats, LatencyHistogram)> = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter()
            .map(|stream| {
                let serve = &serve;
                scope.spawn(move || {
                    let mut stats = ThreadStats::default();
                    let mut hist = LatencyHistogram::new();
                    let t_start = thread_sim_ns();
                    for &item in stream {
                        let op_start = thread_sim_ns();
                        serve(item, &mut stats);
                        hist.record(thread_sim_ns() - op_start);
                        stats.ops += 1;
                    }
                    stats.sim_ns = thread_sim_ns() - t_start;
                    (stats, hist)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    });
    assemble(worker_results, io.snapshot_total())
}

/// Merge per-worker results into one [`ParallelRunResult`].
fn assemble(
    worker_results: Vec<(ThreadStats, LatencyHistogram)>,
    io_total: IoSnapshot,
) -> ParallelRunResult {
    let mut latencies = LatencyHistogram::new();
    let mut per_thread = Vec::with_capacity(worker_results.len());
    let mut recorded = 0u64;
    for (stats, hist) in worker_results {
        recorded += hist.count();
        latencies.merge(&hist);
        per_thread.push(stats);
    }
    // The merge must lose nothing: the merged histogram holds exactly
    // the entries the workers recorded.
    assert_eq!(
        latencies.count(),
        recorded,
        "histogram merge lost or duplicated entries"
    );
    ParallelRunResult {
        threads: per_thread.len(),
        total_ops: per_thread.iter().map(|t| t.ops).sum(),
        hits: per_thread.iter().map(|t| t.hits).sum(),
        false_reads: per_thread.iter().map(|t| t.false_reads).sum(),
        makespan_sim_ns: per_thread.iter().map(|t| t.sim_ns).max().unwrap_or(0),
        total_sim_ns: per_thread.iter().map(|t| t.sim_ns).sum(),
        latencies,
        per_thread,
        io_total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::indexes::{build_index, run_probes, IndexKind};
    use bftree_storage::tuple::PK_OFFSET;
    use bftree_storage::{Duplicates, HeapFile, StorageConfig, TupleLayout};
    use bftree_workloads::{popular_probe_streams, KeyPopularity, OpMix};

    fn relation() -> Relation {
        let mut h = HeapFile::new(TupleLayout::new(256));
        for pk in 0..4_000u64 {
            h.append_record(pk, pk / 11);
        }
        Relation::new(h, PK_OFFSET, Duplicates::Unique).unwrap()
    }

    #[test]
    fn parallel_counters_match_single_threaded_exactly() {
        let rel = relation();
        let domain: Vec<u64> = (0..4_000).collect();
        let streams = popular_probe_streams(&domain, KeyPopularity::Uniform, 250, 4, 42);
        for kind in IndexKind::ALL {
            let index = build_index(kind, &rel, 1e-4);

            // Single-threaded baseline over the concatenated streams.
            let flat: Vec<u64> = streams.iter().flatten().copied().collect();
            let io_single = IoContext::cold(StorageConfig::SsdHdd);
            run_probes(index.as_ref(), &rel, &flat, &io_single);
            let expect = io_single.snapshot_total();

            let io_par = IoContext::cold(StorageConfig::SsdHdd);
            let r = run_probes_parallel(index.as_ref(), &rel, &streams, &io_par);
            let got = io_par.snapshot_total();

            assert_eq!(r.total_ops, 1_000);
            assert_eq!(r.hit_rate(), 1.0, "{}", index.name());
            assert_eq!(
                got.device_reads(),
                expect.device_reads(),
                "{}: lost or phantom reads",
                index.name()
            );
            assert_eq!(got.sim_ns, expect.sim_ns, "{}", index.name());
            // Per-thread sim time sums to the device totals.
            assert_eq!(
                r.total_sim_ns,
                got.sim_ns,
                "{}: thread-local clock drifted from device clock",
                index.name()
            );
        }
    }

    #[test]
    fn makespan_shrinks_with_more_threads() {
        let rel = relation();
        let domain: Vec<u64> = (0..4_000).collect();
        let index = build_index(IndexKind::BPlusTree, &rel, 1e-4);
        let total_ops = 1_024;
        let mut last = u64::MAX;
        for threads in [1usize, 2, 4] {
            let streams = popular_probe_streams(
                &domain,
                KeyPopularity::Uniform,
                total_ops / threads,
                threads,
                7,
            );
            let io = IoContext::cold(StorageConfig::SsdSsd);
            let r = run_probes_parallel(index.as_ref(), &rel, &streams, &io);
            assert!(
                r.makespan_sim_ns < last,
                "{threads} threads: makespan must shrink"
            );
            assert!(r.parallel_efficiency() > 0.9, "balanced uniform streams");
            last = r.makespan_sim_ns;
        }
    }

    #[test]
    fn mixed_streams_insert_and_probe_concurrently() {
        let mut rel = relation();
        let domain: Vec<u64> = (0..4_000).collect();
        // Load phase: pre-append the insert keys' tuples.
        let insert_keys: Vec<u64> = (100_000..100_200u64).collect();
        let locs: std::collections::HashMap<u64, (PageId, usize)> = insert_keys
            .iter()
            .map(|&k| (k, rel.append_tuple(k, k, &IoContext::unmetered())))
            .collect();
        let index = build_index(IndexKind::BfTree, &rel, 1e-4);
        let shared = ConcurrentIndex::new(index);
        let streams = bftree_workloads::mixed_streams(
            &domain,
            KeyPopularity::Zipfian { theta: 0.99 },
            OpMix::YCSB_A,
            &insert_keys,
            &[],
            200,
            4,
            11,
        );
        let io = IoContext::cold(StorageConfig::SsdSsd);
        let r = run_mixed_parallel(&shared, &rel, &streams, &io, &|k| locs[&k]);
        assert_eq!(r.total_ops, 800);
        let inserted: u64 = r.per_thread.iter().map(|t| t.inserts).sum();
        assert_eq!(inserted, insert_keys.len() as u64, "every key registered");
        assert_eq!(r.hit_rate(), 1.0);
        // Every inserted key is now visible.
        let io = IoContext::unmetered();
        for &k in &insert_keys {
            assert!(shared.probe(k, &rel, &io).unwrap().found(), "key {k}");
        }
    }

    #[test]
    fn write_heavy_mixed_run_matches_a_serial_replay_exactly() {
        let mut rel = relation();
        let domain: Vec<u64> = (0..4_000).collect();
        let insert_keys: Vec<u64> = (100_000..100_160u64).collect();
        let locs: std::collections::HashMap<u64, (PageId, usize)> = insert_keys
            .iter()
            .map(|&k| (k, rel.append_tuple(k, k, &IoContext::unmetered())))
            .collect();
        // Deletes target base keys, spread across the domain.
        let delete_keys: Vec<u64> = (0..40u64).map(|i| i * 97).collect();
        let index = build_index(IndexKind::BfTree, &rel, 1e-4);
        let shared = ConcurrentIndex::new(index);
        let streams = bftree_workloads::mixed_streams(
            &domain,
            KeyPopularity::Uniform,
            OpMix::WRITE_HEAVY,
            &insert_keys,
            &delete_keys,
            100,
            4,
            13,
        );
        let io = IoContext::cold(StorageConfig::SsdSsd);
        let r = run_mixed_parallel(&shared, &rel, &streams, &io, &|k| locs[&k]);
        let deleted: u64 = r.per_thread.iter().map(|t| t.deletes).sum();
        assert_eq!(deleted, delete_keys.len() as u64, "every delete executed");
        // Per-op results legitimately race, but each thread writes its
        // own keys, so the final state is interleaving-invariant: it
        // must match a serial replay of every write.
        let mut reference = build_index(IndexKind::BfTree, &rel, 1e-4);
        let mut written = Vec::new();
        for &op in streams.iter().flatten() {
            match op {
                Op::Probe(_) => continue,
                Op::Insert(key) => reference.insert(key, locs[&key], &rel).unwrap(),
                Op::Delete(key) => drop(reference.delete(key, &rel).unwrap()),
            }
            written.push(op);
        }
        let check = IoContext::unmetered();
        for op in written {
            let (Op::Insert(key) | Op::Delete(key) | Op::Probe(key)) = op;
            let mut got = shared.probe(key, &rel, &check).unwrap().matches;
            let mut want = reference.probe(key, &rel, &check).unwrap().matches;
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want, "key {key}: concurrent run vs serial replay");
        }
        // Deleted keys really miss now.
        let io = IoContext::unmetered();
        for &k in &delete_keys {
            assert!(!shared.probe(k, &rel, &io).unwrap().found(), "key {k}");
        }
    }
}
