//! Trait-conformance suite: one shared battery — build → probe
//! hit/miss → duplicates → range scan → insert → delete — run against
//! every [`AccessMethod`] implementation, plus the streaming-read
//! contracts: draining a range cursor equals the materializing scan
//! with bit-identical cold-device I/O, and a breaking sink stops the
//! I/O. A new backend passes this suite or it isn't an access method.

use std::ops::ControlFlow;

use bftree::BfTree;
use bftree_access::{
    AccessMethod, ConcurrentIndex, DurableConfig, DurableIndex, FnSink, IndexStats, RangeCursor,
};
use bftree_btree::{BPlusTree, BTreeConfig};
use bftree_fdtree::FdTree;
use bftree_hashindex::HashIndex;
use bftree_shard::{ShardPlan, ShardedIndex};
use bftree_storage::tuple::{ATT1_OFFSET, PK_OFFSET};
use bftree_storage::{
    Backend, DeviceKind, Duplicates, HeapFile, IoContext, IoSnapshot, PageDevice, Relation,
    ScratchDir, StorageConfig, TupleLayout,
};
use bftree_wal::DurabilityMode;

const N: u64 = 5_000;
const CARD: u64 = 7;

/// Every implementation under test, freshly constructed (unbuilt).
/// The durable wrapper rides along as a fifth implementation: an
/// access method in its own right (WAL + memtable in front of a
/// BF-Tree), with a tiny flush batch so the battery's writes cross
/// flush boundaries mid-test.
fn all_indexes(rel: &Relation) -> Vec<Box<dyn AccessMethod>> {
    all_indexes_on(rel, &Backend::Sim).0
}

/// The same battery of implementations, with the durable wrapper's
/// log device taken from `backend` (sim or file-backed). Returns the
/// log device alongside so tests can compare its counters.
fn all_indexes_on(rel: &Relation, backend: &Backend) -> (Vec<Box<dyn AccessMethod>>, PageDevice) {
    let log = backend
        .device(DeviceKind::Ssd, "wal")
        .expect("log device materializes");
    let indexes: Vec<Box<dyn AccessMethod>> = vec![
        Box::new(
            BfTree::builder()
                .fpp(1e-4)
                .empty(rel)
                .expect("valid config"),
        ),
        Box::new(BPlusTree::new(BTreeConfig::paper_default())),
        Box::new(HashIndex::with_capacity(16, 0xC0FFEE)),
        Box::new(FdTree::new()),
        Box::new(DurableIndex::new(
            BfTree::builder()
                .fpp(1e-4)
                .empty(rel)
                .expect("valid config"),
            rel,
            log.clone(),
            DurableConfig {
                flush_batch: 3,
                durability: DurabilityMode::GroupCommit {
                    max_records: 4,
                    max_bytes: 4 * 1024,
                },
            },
        )),
        Box::new(sharded_index(rel, backend)),
    ];
    (indexes, log)
}

/// The sharded serving layer as the sixth implementation: three
/// range-partitioned shards (quantiles of the attribute domain), each
/// a durable BF-Tree stack with its own WAL device from `backend`,
/// behind the scatter-gather router. It is an `AccessMethod` like any
/// other and must pass the identical battery.
fn sharded_index(rel: &Relation, backend: &Backend) -> ShardedIndex {
    let domain = rel
        .heap()
        .iter_attr(rel.attr())
        .map(|(_, _, v)| v)
        .max()
        .unwrap_or(0)
        + 1;
    ShardedIndex::new(
        ShardPlan::uniform(domain.max(3), 3),
        rel,
        DurableConfig {
            flush_batch: 3,
            durability: DurabilityMode::GroupCommit {
                max_records: 4,
                max_bytes: 4 * 1024,
            },
        },
        |_| {
            Box::new(
                BfTree::builder()
                    .fpp(1e-4)
                    .empty(rel)
                    .expect("valid config"),
            )
        },
        |s| {
            backend
                .device(DeviceKind::Ssd, &format!("wal-shard{s}"))
                .expect("shard log device materializes")
        },
    )
}

/// A relation with a unique ordered PK and a contiguous-duplicate ATT1.
fn relation(duplicates: Duplicates) -> Relation {
    let mut heap = HeapFile::new(TupleLayout::new(256));
    for pk in 0..N {
        heap.append_record(pk, pk / CARD);
    }
    let attr = if duplicates == Duplicates::Unique {
        PK_OFFSET
    } else {
        ATT1_OFFSET
    };
    Relation::new(heap, attr, duplicates).expect("conventional layout")
}

fn brute_force(rel: &Relation, key: u64) -> Vec<(u64, usize)> {
    rel.heap()
        .iter_attr(rel.attr())
        .filter(|&(_, _, v)| v == key)
        .map(|(pid, slot, _)| (pid, slot))
        .collect()
}

/// The shared battery, applied to one built index over `rel`.
fn battery(index: &mut Box<dyn AccessMethod>, rel: &mut Relation) {
    let name = index.name();
    let io = IoContext::unmetered();
    index
        .build(rel)
        .unwrap_or_else(|e| panic!("{name}: build failed: {e}"));

    // Structure is populated.
    let IndexStats {
        bytes,
        height,
        entries,
        ..
    } = index.stats();
    assert!(entries > 0, "{name}: no entries after build");
    assert!(height >= 1, "{name}: implausible height");
    assert!(
        bytes > 0 && index.size_bytes() == bytes,
        "{name}: size accounting"
    );

    // Probe hit: exactly the brute-force matches (no false negatives,
    // no phantoms — false positives only cost reads).
    for key in [0u64, 1, N / CARD / 2, (N - 1) / CARD] {
        let mut got = index.probe(key, rel, &io).unwrap().matches;
        got.sort_unstable();
        assert_eq!(got, brute_force(rel, key), "{name}: probe({key})");
    }

    // probe_first stops at one match of the key.
    let first = index.probe_first(1, rel, &io).unwrap();
    assert_eq!(
        first.matches.len(),
        1,
        "{name}: probe_first must return one match"
    );
    let (pid, slot) = first.matches[0];
    assert_eq!(
        rel.heap().attr(pid, slot, rel.attr()),
        1,
        "{name}: wrong tuple"
    );

    // Probe miss: empty, and a found() of false.
    let miss = index.probe(N * 10, rel, &io).unwrap();
    assert!(!miss.found(), "{name}: phantom match");

    // Range scan agrees with brute force on a small range.
    let (lo, hi) = (10u64, 40u64);
    let mut got = index.range_scan(lo, hi, rel, &io).unwrap().matches;
    got.sort_unstable();
    let expect: Vec<(u64, usize)> = rel
        .heap()
        .iter_attr(rel.attr())
        .filter(|&(_, _, v)| v >= lo && v <= hi)
        .map(|(pid, slot, _)| (pid, slot))
        .collect();
    let mut expect_sorted = expect;
    expect_sorted.sort_unstable();
    assert_eq!(got, expect_sorted, "{name}: range [{lo}, {hi}]");

    // Insert: append a fresh tuple past the current domain, register
    // it, and find it again.
    let new_key = N * CARD + 1;
    let loc = rel.append_tuple(new_key, new_key, &IoContext::unmetered());
    index.insert(new_key, loc, rel).unwrap();
    let got = index.probe(new_key, rel, &io).unwrap();
    assert!(got.matches.contains(&loc), "{name}: inserted key not found");

    // Delete: the key disappears from probes.
    let affected = index.delete(new_key, rel).unwrap();
    assert!(affected > 0, "{name}: delete affected nothing");
    let gone = index.probe(new_key, rel, &io).unwrap();
    assert!(!gone.found(), "{name}: deleted key still found");
}

#[test]
fn conformance_on_unique_pk() {
    let rel = relation(Duplicates::Unique);
    for mut index in all_indexes(&rel) {
        // Fresh relation per index: the battery's insert leg appends
        // to the heap, and a leftover record would break the Unique
        // contract for the next index under test.
        let mut rel = rel.clone();
        battery(&mut index, &mut rel);
    }
}

#[test]
fn conformance_on_contiguous_duplicates() {
    let rel = relation(Duplicates::Contiguous);
    for mut index in all_indexes(&rel) {
        // probe_first needs a key with a deterministic single first
        // match per index semantics; the battery probes key 1, which
        // under ATT1 = pk/7 has 7 occurrences — probe_first may return
        // any one of them, so run the duplicate battery separately.
        let name = index.name();
        let io = IoContext::unmetered();
        index
            .build(&rel)
            .unwrap_or_else(|e| panic!("{name}: build failed: {e}"));
        for key in [0u64, 3, 100, (N - 1) / CARD] {
            let mut got = index.probe(key, &rel, &io).unwrap().matches;
            got.sort_unstable();
            assert_eq!(got, brute_force(&rel, key), "{name}: probe({key})");
            assert_eq!(
                got.len(),
                usize::try_from(if key == (N - 1) / CARD {
                    N - key * CARD
                } else {
                    CARD
                })
                .unwrap(),
                "{name}: duplicate count for key {key}"
            );
        }
        let miss = index.probe(N, &rel, &io).unwrap();
        assert!(!miss.found(), "{name}: phantom duplicate match");
    }
}

/// A build over a key slice indexes exactly that slice: every key of
/// the slice answers its brute-force matches, every key outside it
/// answers nothing, and a range scan of the slice returns its tuples.
/// The slice's ends fall inside heap pages, so its first and last pages
/// also hold keys it leaves out.
#[test]
fn a_slice_build_indexes_exactly_the_slice() {
    for duplicates in [Duplicates::Unique, Duplicates::Contiguous] {
        let rel = relation(duplicates);
        let max = rel
            .heap()
            .iter_attr(rel.attr())
            .map(|(_, _, v)| v)
            .max()
            .unwrap();
        let (lo, hi) = (max / 4 + 3, max / 4 * 3 - 5);
        let io = IoContext::unmetered();
        for mut index in all_indexes(&rel) {
            let name = index.name();
            index
                .build_slice(&rel, lo..=hi)
                .unwrap_or_else(|e| panic!("{name}: slice build failed: {e}"));
            let near = |k: u64| k.saturating_sub(40)..=k + 40;
            for key in near(lo).chain(near(hi)).chain([0, (lo + hi) / 2, max]) {
                let mut got = index.probe(key, &rel, &io).unwrap().matches;
                got.sort_unstable();
                let want = if (lo..=hi).contains(&key) {
                    brute_force(&rel, key)
                } else {
                    Vec::new()
                };
                assert_eq!(got, want, "{name} over {duplicates:?}: probe({key})");
            }
            let mut got = index.range_scan(lo, hi, &rel, &io).unwrap().matches;
            got.sort_unstable();
            let mut want: Vec<(u64, usize)> = rel
                .heap()
                .iter_attr(rel.attr())
                .filter(|&(_, _, v)| (lo..=hi).contains(&v))
                .map(|(pid, slot, _)| (pid, slot))
                .collect();
            want.sort_unstable();
            assert_eq!(got, want, "{name} over {duplicates:?}: range [{lo}, {hi}]");
        }
    }
}

/// Concurrency conformance: N threads probing one shared index see
/// exactly what a single thread sees, and the shared (sharded) I/O
/// counters equal the sum of per-thread work — no lost updates, no
/// phantom charges. This is the contract the `AccessMethod:
/// Send + Sync` supertrait and the sharded `IoStats` exist to uphold.
#[test]
fn concurrent_probes_match_single_threaded_baseline() {
    const THREADS: u64 = 16;
    let rel = relation(Duplicates::Unique);
    for mut index in all_indexes(&rel) {
        let name = index.name();
        index.build(&rel).unwrap();
        let index: &dyn AccessMethod = index.as_ref();

        // Disjoint per-thread key sets (hits and misses interleaved).
        let streams: Vec<Vec<u64>> = (0..THREADS)
            .map(|t| (0..2 * N).filter(|k| k % THREADS == t).collect())
            .collect();

        // Single-threaded baseline over all streams.
        let io_single = IoContext::cold(StorageConfig::SsdHdd);
        let mut expect_hits = 0u64;
        for keys in &streams {
            for &key in keys {
                expect_hits += u64::from(index.probe_first(key, &rel, &io_single).unwrap().found());
            }
        }
        let expect = io_single.snapshot_total();

        // Concurrent run: each thread probes its stream and checks
        // results against brute force as it goes.
        let io = IoContext::cold(StorageConfig::SsdHdd);
        let hits: u64 = std::thread::scope(|s| {
            let handles: Vec<_> = streams
                .iter()
                .map(|keys| {
                    let (io, rel) = (&io, &rel);
                    s.spawn(move || {
                        let mut hits = 0u64;
                        for &key in keys {
                            let p = index.probe_first(key, rel, io).unwrap();
                            assert_eq!(
                                p.found(),
                                !brute_force(rel, key).is_empty(),
                                "{name}: probe({key}) diverged under concurrency"
                            );
                            hits += u64::from(p.found());
                        }
                        hits
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });

        let got = io.snapshot_total();
        assert_eq!(hits, expect_hits, "{name}: hit totals diverged");
        assert_eq!(
            got.device_reads(),
            expect.device_reads(),
            "{name}: concurrent I/O totals must equal the sum of per-thread work"
        );
        assert_eq!(got.sim_ns, expect.sim_ns, "{name}: simulated time diverged");
    }
}

/// Mixed read/insert conformance through the `ConcurrentIndex`
/// adapter: concurrent inserts are never lost and become visible to
/// probes once the run drains.
#[test]
fn concurrent_mixed_inserts_are_linearizable() {
    const THREADS: u64 = 4;
    const PER_THREAD: u64 = 50;
    let base = relation(Duplicates::Unique);
    for mut index in all_indexes(&base) {
        let name = index.name();
        // Build over the base relation, then (load phase) append the
        // fresh keys' tuples to the heap; the concurrent run phase
        // registers them in the index while other threads probe.
        let mut rel = base.clone();
        index.build(&rel).unwrap();
        let fresh: Vec<(u64, (u64, usize))> = (0..THREADS * PER_THREAD)
            .map(|i| {
                let key = 10 * N + i;
                (key, rel.append_tuple(key, key, &IoContext::unmetered()))
            })
            .collect();
        let shared = ConcurrentIndex::new(index);
        let io = IoContext::unmetered();
        std::thread::scope(|s| {
            for t in 0..THREADS as usize {
                let chunk = &fresh[t * PER_THREAD as usize..(t + 1) * PER_THREAD as usize];
                let (shared, rel, io) = (&shared, &rel, &io);
                s.spawn(move || {
                    for &(key, loc) in chunk {
                        shared.insert(key, loc, rel).unwrap();
                        // Interleave reads of the stable domain.
                        assert!(shared.probe_first(key % N, rel, io).unwrap().found());
                    }
                });
            }
        });
        let io = IoContext::unmetered();
        for &(key, loc) in &fresh {
            let p = shared.probe(key, &rel, &io).unwrap();
            assert!(
                p.matches.contains(&loc),
                "{name}: concurrently inserted key {key} lost"
            );
        }
    }
}

/// Streaming conformance, materializing side: for every index and
/// both duplicate layouts, fully draining a [`RangeCursor`] yields
/// `range_scan`'s matches element for element and — on cold devices —
/// bit-identical `IoStats` on both the index and the data device.
/// (`range_scan` *is* the drain by default; this pins any override.)
#[test]
fn range_cursor_drain_equals_range_scan_bit_for_bit() {
    for duplicates in [Duplicates::Unique, Duplicates::Contiguous] {
        let rel = relation(duplicates);
        for mut index in all_indexes(&rel) {
            let name = index.name();
            index.build(&rel).unwrap();
            for (lo, hi) in [(0u64, 37u64), (100, 400), (N * 2, N * 3), (250, 250)] {
                let io_scan = IoContext::cold(StorageConfig::SsdHdd);
                let scan = index.range_scan(lo, hi, &rel, &io_scan).unwrap();

                let io_cursor = IoContext::cold(StorageConfig::SsdHdd);
                let mut cursor = index.range_cursor(lo, hi, &rel, &io_cursor).unwrap();
                let mut matches = Vec::new();
                while let Some(page) = cursor.next_page_matches() {
                    matches.extend_from_slice(page);
                    cursor.advance();
                }
                let cio = cursor.io();
                drop(cursor);

                assert_eq!(matches, scan.matches, "{name}: [{lo}, {hi}] matches");
                assert_eq!(cio.pages_read, scan.pages_read, "{name}: pages_read");
                assert_eq!(
                    cio.overhead_pages, scan.overhead_pages,
                    "{name}: overhead_pages"
                );
                for (cursor_dev, scan_dev, which) in [
                    (
                        io_cursor.index.snapshot(),
                        io_scan.index.snapshot(),
                        "index",
                    ),
                    (io_cursor.data.snapshot(), io_scan.data.snapshot(), "data"),
                ] {
                    assert_eq!(
                        cursor_dev.device_reads(),
                        scan_dev.device_reads(),
                        "{name}: {which} device reads, range [{lo}, {hi}]"
                    );
                    assert_eq!(
                        cursor_dev.sim_ns, scan_dev.sim_ns,
                        "{name}: {which} sim_ns, range [{lo}, {hi}]"
                    );
                }
            }
        }
    }
}

/// Streaming conformance, push side: a sink that breaks after the
/// first match stops the probe's data I/O at no more pages than the
/// full probe; a collect-everything sink equals `probe` exactly.
#[test]
fn probe_into_respects_sink_control_flow() {
    for duplicates in [Duplicates::Unique, Duplicates::Contiguous] {
        let rel = relation(duplicates);
        for mut index in all_indexes(&rel) {
            let name = index.name();
            index.build(&rel).unwrap();
            for key in [0u64, 1, 100, N / CARD / 2, N * 10] {
                // Full consumption == probe, matches and counters.
                let io_probe = IoContext::cold(StorageConfig::SsdHdd);
                let p = index.probe(key, &rel, &io_probe).unwrap();
                let io_sink = IoContext::cold(StorageConfig::SsdHdd);
                let mut collected = Vec::new();
                let s = index
                    .probe_into(key, &rel, &io_sink, &mut collected)
                    .unwrap();
                assert_eq!(collected, p.matches, "{name}: probe_into({key}) matches");
                assert_eq!(s.pages_read, p.pages_read, "{name}: pages_read({key})");
                assert_eq!(s.false_reads, p.false_reads, "{name}: false_reads({key})");
                assert_eq!(
                    io_sink.data.snapshot().sim_ns,
                    io_probe.data.snapshot().sim_ns,
                    "{name}: full-consumption data charges ({key})"
                );

                // Early break: no more data pages than the full probe.
                let io_first = IoContext::cold(StorageConfig::SsdHdd);
                let mut first = bftree_access::FirstMatch::default();
                let sf = index.probe_into(key, &rel, &io_first, &mut first).unwrap();
                assert!(
                    sf.pages_read <= s.pages_read,
                    "{name}: first-match probe read more pages ({key})"
                );
                assert_eq!(first.found.is_some(), p.found(), "{name}: found({key})");
            }
        }
    }
}

/// Streaming conformance, scan side: a sink breaking after `k`
/// matches makes `range_scan_into` read strictly fewer data pages
/// than the full scan on a range whose result spans many pages.
#[test]
fn range_scan_into_stops_reading_when_the_sink_breaks() {
    for duplicates in [Duplicates::Unique, Duplicates::Contiguous] {
        let rel = relation(duplicates);
        let (lo, hi) = (
            10u64,
            if duplicates == Duplicates::Unique {
                2_000
            } else {
                300
            },
        );
        for mut index in all_indexes(&rel) {
            let name = index.name();
            index.build(&rel).unwrap();
            let io_full = IoContext::cold(StorageConfig::SsdHdd);
            let full = index.range_scan(lo, hi, &rel, &io_full).unwrap();
            assert!(full.pages_read > 3, "{name}: range too small to test");

            let io_lim = IoContext::cold(StorageConfig::SsdHdd);
            let mut taken = 0u64;
            let mut sink = FnSink(|_pid, _slot| {
                taken += 1;
                if taken < 5 {
                    ControlFlow::Continue(())
                } else {
                    ControlFlow::Break(())
                }
            });
            let s = index
                .range_scan_into(lo, hi, &rel, &io_lim, &mut sink)
                .unwrap();
            assert!(
                s.pages_read < full.pages_read,
                "{name}: early break must stop the page walk ({} vs {})",
                s.pages_read,
                full.pages_read
            );
            assert_eq!(taken, 5, "{name}: sink saw exactly k matches");
        }
    }
}

/// Range scans after deletes, on both duplicate layouts: seeded
/// deletes, then every range equals brute force minus the deleted
/// keys, and `range_scan(k, k)` equals `probe(k)` for deleted and live
/// keys alike. Checked on every implementation (the durable and
/// sharded ones flush mid-battery), and on a durable BF-Tree whose
/// deletes are still in its memtable and again after it flushed them
/// into the tree's tombstones.
#[test]
fn range_scans_skip_deleted_keys() {
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn check(index: &dyn AccessMethod, rel: &Relation, deleted: &[u64], ranges: &[(u64, u64)]) {
        let name = index.name();
        let io = IoContext::unmetered();
        for &(lo, hi) in ranges {
            let mut got = index.range_scan(lo, hi, rel, &io).unwrap().matches;
            got.sort_unstable();
            let mut expect: Vec<(u64, usize)> = rel
                .heap()
                .iter_attr(rel.attr())
                .filter(|&(_, _, v)| v >= lo && v <= hi && !deleted.contains(&v))
                .map(|(pid, slot, _)| (pid, slot))
                .collect();
            expect.sort_unstable();
            assert_eq!(got, expect, "{name}: range [{lo}, {hi}] after deletes");
        }
        for &k in deleted.iter().chain(&[deleted[0] + 1, deleted[1] - 1]) {
            let mut scan = index.range_scan(k, k, rel, &io).unwrap().matches;
            let mut probe = index.probe(k, rel, &io).unwrap().matches;
            scan.sort_unstable();
            probe.sort_unstable();
            assert_eq!(scan, probe, "{name}: range_scan({k}, {k}) vs probe({k})");
        }
    }

    for duplicates in [Duplicates::Unique, Duplicates::Contiguous] {
        let rel = relation(duplicates);
        let domain = rel
            .heap()
            .iter_attr(rel.attr())
            .map(|(_, _, v)| v)
            .max()
            .unwrap()
            + 1;
        let mut rng = StdRng::seed_from_u64(0xDE1E_7E00 + domain);
        let mut deleted: Vec<u64> = (0..24).map(|_| rng.random_range(1..domain - 1)).collect();
        deleted.sort_unstable();
        deleted.dedup();
        let mut ranges: Vec<(u64, u64)> = deleted.iter().map(|&k| (k - 1, k + 1)).collect();
        for _ in 0..8 {
            let lo = rng.random_range(0..domain);
            ranges.push((lo, lo + rng.random_range(0..domain / 4)));
        }

        for mut index in all_indexes(&rel) {
            // A delete marks the heap: each index deletes from, and is
            // checked over, a relation of its own.
            let rel = rel.clone();
            index.build(&rel).unwrap();
            for &k in &deleted {
                index.delete(k, &rel).unwrap();
            }
            check(index.as_ref(), &rel, &deleted, &ranges);
        }

        let mut durable = DurableIndex::new(
            BfTree::builder().fpp(1e-4).build(&rel).unwrap(),
            &rel,
            PageDevice::cold(DeviceKind::Ssd),
            DurableConfig {
                flush_batch: 1 << 20,
                durability: DurabilityMode::GroupCommit {
                    max_records: 4,
                    max_bytes: 4 * 1024,
                },
            },
        );
        for &k in &deleted {
            durable.delete(k, &rel).unwrap();
        }
        check(&durable, &rel, &deleted, &ranges);
        assert_eq!(durable.flush(&rel).unwrap(), deleted.len());
        check(&durable, &rel, &deleted, &ranges);
    }
}

/// All four implementations agree pairwise on every probe of a mixed
/// hit/miss workload — the cross-check the paper's head-to-head
/// comparisons rest on.
#[test]
fn implementations_agree_pairwise() {
    let mut rel = relation(Duplicates::Unique);
    let io = IoContext::unmetered();
    let mut indexes = all_indexes(&rel);
    for index in &mut indexes {
        index.build(&rel).unwrap();
    }
    let _ = &mut rel;
    for probe in (0..2 * N).step_by(131) {
        let outcomes: Vec<(usize, bool)> = indexes
            .iter()
            .map(|i| {
                let p = i.probe(probe, &rel, &io).unwrap();
                (p.matches.len(), p.found())
            })
            .collect();
        assert!(
            outcomes.windows(2).all(|w| w[0] == w[1]),
            "probe({probe}): outcomes diverge: {outcomes:?}"
        );
    }
}

/// One storage backend under test: the pure simulator, or file-backed
/// page stores in a scratch directory. Each device-creating call gets
/// a fresh subdirectory so every context is cold on disk and no two
/// open stores alias one file.
struct BackendLab {
    scratch: Option<ScratchDir>,
    created: std::cell::Cell<u64>,
}

impl BackendLab {
    fn both() -> Vec<BackendLab> {
        vec![
            BackendLab {
                scratch: None,
                created: std::cell::Cell::new(0),
            },
            BackendLab {
                scratch: Some(ScratchDir::new("conformance").expect("scratch dir")),
                created: std::cell::Cell::new(0),
            },
        ]
    }

    fn label(&self) -> &'static str {
        if self.scratch.is_some() {
            "file"
        } else {
            "sim"
        }
    }

    fn backend(&self) -> Backend {
        match &self.scratch {
            None => Backend::Sim,
            Some(s) => {
                let n = self.created.get();
                self.created.set(n + 1);
                Backend::file(s.path().join(format!("c{n}")))
            }
        }
    }

    fn io_cold(&self) -> IoContext {
        IoContext::cold_on(&self.backend(), StorageConfig::SsdSsd).expect("backend devices")
    }
}

/// Backend conformance: the same probe/scan/insert/delete workload,
/// driven per index on cold devices, produces **identical** I/O
/// counters — reads, writes, fsyncs, simulated clock, snapshot for
/// snapshot — whether the devices are pure simulation or file-backed
/// page stores. This is the contract that makes the file backend a
/// calibration instrument rather than a second cost model.
#[test]
fn battery_io_counts_are_backend_invariant() {
    /// Per-backend evidence: (label, per-index named snapshots, file reads).
    type BackendRun = (&'static str, Vec<(String, IoSnapshot)>, u64);
    let base = relation(Duplicates::Unique);
    let mut per_backend: Vec<BackendRun> = Vec::new();
    for lab in BackendLab::both() {
        let (indexes, log) = all_indexes_on(&base, &lab.backend());
        let mut rows = Vec::new();
        let mut file_reads = 0u64;
        for mut index in indexes {
            let mut rel = base.clone();
            let name = index.name().to_string();
            index
                .build(&rel)
                .unwrap_or_else(|e| panic!("{name}: build failed: {e}"));
            let io = lab.io_cold();
            // Probes over hits and misses, point and first-match.
            for key in (0..2 * N).step_by(97) {
                let _ = index.probe(key, &rel, &io).unwrap();
            }
            let _ = index.probe_first(3, &rel, &io).unwrap();
            // The batch form over the same hits and misses.
            let batch: Vec<u64> = (0..2 * N).step_by(41).collect();
            let _ = index.probe_batch(&batch, &rel, &io).unwrap();
            // Range scans: small, large, and empty.
            for (lo, hi) in [(0u64, 80u64), (1_000, 1_500), (N * 3, N * 4)] {
                let _ = index.range_scan(lo, hi, &rel, &io).unwrap();
            }
            // Writes: appended tuples registered in the index (the
            // durable implementation logs and fsyncs these), then a
            // delete.
            for i in 0..20 {
                let key = N * CARD + 10 + i;
                let loc = rel.append_tuple(key, key, &io);
                index.insert(key, loc, &rel).unwrap();
            }
            index.delete(N * CARD + 10, &rel).unwrap();
            rows.push((name, io.snapshot_total()));
            for dev in [&io.index, &io.data] {
                if let Some(w) = dev.wall() {
                    file_reads += w.reads;
                }
            }
        }
        rows.push(("wal-log".to_string(), log.snapshot()));
        per_backend.push((lab.label(), rows, file_reads));
    }

    let (_, sim_rows, sim_file_reads) = &per_backend[0];
    let (_, file_rows, file_file_reads) = &per_backend[1];
    assert_eq!(sim_rows.len(), file_rows.len());
    for (s, f) in sim_rows.iter().zip(file_rows) {
        assert_eq!(s.0, f.0, "index order diverged between backends");
        assert_eq!(
            s.1, f.1,
            "{}: cold-device I/O counters must be identical on sim and file backends",
            s.0
        );
    }
    assert_eq!(
        *sim_file_reads, 0u64,
        "the sim backend must not touch files"
    );
    assert!(
        *file_file_reads > 0,
        "the file backend must actually read its page stores"
    );
}
