//! Batch-vs-scalar conformance: `AccessMethod::probe_batch` must be
//! observationally identical to a loop of scalar `probe` calls — the
//! same matches for every key, and the same simulated I/O totals to
//! the read and the nanosecond — for every index, every batch size,
//! both filter layouts, and under concurrent batch service. Batching
//! is a CPU/cache optimization, never a change of the cost model;
//! this suite is the contract's enforcement.

use bftree::{BfTree, FilterLayout};
use bftree_access::{AccessMethod, ConcurrentIndex, Probe};
use bftree_btree::{BPlusTree, BTreeConfig};
use bftree_fdtree::FdTree;
use bftree_hashindex::HashIndex;
use bftree_storage::tuple::{ATT1_OFFSET, PK_OFFSET};
use bftree_storage::{
    Duplicates, HeapFile, IoContext, IoSnapshot, PolicyKind, Relation, StorageConfig, TupleLayout,
};

const N: u64 = 5_000;
const CARD: u64 = 7;
/// The last size swallows the whole 3 000-key workload in one batch.
const BATCH_SIZES: [usize; 5] = [1, 7, 64, 1024, 4096];

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

/// Every implementation under test, built over `rel` — the four
/// competitors, with the BF-Tree in both filter layouts at a loose
/// fpp (members smaller than a cache-line block, so the layouts
/// coincide) and at a tight one (where blocking moves bits).
fn built_indexes(rel: &Relation) -> Vec<(String, Box<dyn AccessMethod>)> {
    let mut out: Vec<(String, Box<dyn AccessMethod>)> = Vec::new();
    for fpp in [1e-3, 1e-9] {
        for layout in [FilterLayout::Standard, FilterLayout::Blocked] {
            out.push((
                format!("bf-tree/{}/{fpp:.0e}", layout.label()),
                Box::new(
                    BfTree::builder()
                        .fpp(fpp)
                        .filter_layout(layout)
                        .build(rel)
                        .expect("valid config"),
                ),
            ));
        }
    }
    let mut btree = BPlusTree::new(BTreeConfig::paper_default());
    btree.build(rel).expect("b+tree build");
    out.push(("b+tree".into(), Box::new(btree)));
    let mut hash = HashIndex::with_capacity(16, 0xC0FFEE);
    hash.build(rel).expect("hash build");
    out.push(("hash".into(), Box::new(hash)));
    let mut fd = FdTree::new();
    fd.build(rel).expect("fd-tree build");
    out.push(("fd-tree".into(), Box::new(fd)));
    out
}

/// Hits, misses, duplicates-of-a-probe and out-of-domain keys in
/// decorrelated order.
fn workload(domain_max: u64, n: usize, seed: u64) -> Vec<u64> {
    (0..n as u64)
        .map(|i| (i.wrapping_mul(2654435761).wrapping_add(seed)) % (domain_max * 2))
        .collect()
}

fn scalar_baseline(
    index: &dyn AccessMethod,
    rel: &Relation,
    keys: &[u64],
) -> (Vec<Probe>, IoSnapshot) {
    let io = IoContext::cold(StorageConfig::SsdHdd);
    let probes = keys
        .iter()
        .map(|&key| index.probe(key, rel, &io).expect("valid relation"))
        .collect();
    (probes, io.snapshot_total())
}

/// The core contract: element-wise identical `Probe`s and identical
/// device totals for every batch size, on unique and duplicate-heavy
/// relations.
#[test]
fn probe_batch_matches_scalar_probes_and_iostats() {
    for duplicates in [Duplicates::Unique, Duplicates::Contiguous] {
        let rel = relation(duplicates);
        let domain_max = if duplicates == Duplicates::Unique {
            N
        } else {
            N / CARD
        };
        let keys = workload(domain_max, 3_000, 0xBA7C4);
        for (name, index) in built_indexes(&rel) {
            let (expect, expect_io) = scalar_baseline(index.as_ref(), &rel, &keys);
            for batch_size in BATCH_SIZES {
                let io = IoContext::cold(StorageConfig::SsdHdd);
                let mut got: Vec<Probe> = Vec::with_capacity(keys.len());
                for chunk in keys.chunks(batch_size) {
                    got.extend(index.probe_batch(chunk, &rel, &io).expect("valid relation"));
                }
                assert_eq!(
                    got.len(),
                    keys.len(),
                    "{name}: batch {batch_size} lost results"
                );
                for (i, (g, e)) in got.iter().zip(&expect).enumerate() {
                    assert_eq!(
                        g, e,
                        "{name}: batch {batch_size}, key #{i} ({}) diverged",
                        keys[i]
                    );
                }
                let got_io = io.snapshot_total();
                assert_eq!(
                    got_io.device_reads(),
                    expect_io.device_reads(),
                    "{name}: batch {batch_size} changed the number of device reads"
                );
                assert_eq!(
                    got_io.sim_ns, expect_io.sim_ns,
                    "{name}: batch {batch_size} changed simulated time"
                );
                assert_eq!(
                    got_io.bytes_read, expect_io.bytes_read,
                    "{name}: batch {batch_size} changed bytes read"
                );
            }
        }
    }
}

/// On cached devices the BF-Tree's batch is still the scalar loop,
/// access for access: one shared LRU pool sees the same hits, misses
/// and evictions, so every counter of both devices matches — not just
/// the cold totals.
#[test]
fn bf_tree_probe_batch_equals_scalar_loop_on_cached_devices() {
    const KEYS: u64 = 20_000;
    let mut heap = HeapFile::new(TupleLayout::new(256));
    for pk in 0..KEYS {
        heap.append_record(pk, pk / CARD);
    }
    let rel = Relation::new(heap, PK_OFFSET, Duplicates::Unique).expect("conventional layout");
    let tree = BfTree::builder()
        .fpp(1e-3)
        .build(&rel)
        .expect("valid config");
    let keys = workload(KEYS, 4_000, 0xCAC4E);
    let cached =
        || IoContext::with_shared_budget(StorageConfig::SsdSsd, 64 * 4096, PolicyKind::Lru);

    let scalar_io = cached();
    let expect: Vec<Probe> = keys
        .iter()
        .map(|&key| tree.probe(key, &rel, &scalar_io).expect("valid relation"))
        .collect();
    let batch_io = cached();
    let mut got: Vec<Probe> = Vec::with_capacity(keys.len());
    for chunk in keys.chunks(256) {
        got.extend(
            tree.probe_batch(chunk, &rel, &batch_io)
                .expect("valid relation"),
        );
    }
    assert_eq!(got, expect);
    assert_eq!(batch_io.index.snapshot(), scalar_io.index.snapshot());
    assert_eq!(batch_io.data.snapshot(), scalar_io.data.snapshot());
    assert!(
        scalar_io.snapshot_total().cache_hits > 0,
        "the pool absorbs some reads"
    );
}

/// Batched service through `ConcurrentIndex` from 8 threads: per-key
/// results still equal the scalar baseline, and the shared sharded
/// counters equal the single-threaded totals exactly.
#[test]
fn probe_batch_under_concurrent_index_from_8_threads() {
    const THREADS: usize = 8;
    const BATCH: usize = 64;
    let rel = relation(Duplicates::Unique);
    for (name, index) in built_indexes(&rel) {
        // Disjoint per-thread streams (hits and misses interleaved).
        let streams: Vec<Vec<u64>> = (0..THREADS as u64)
            .map(|t| (0..2 * N).filter(|k| k % THREADS as u64 == t).collect())
            .collect();

        // Single-threaded scalar baseline over all streams.
        let io_single = IoContext::cold(StorageConfig::SsdHdd);
        let mut expect_hits = 0u64;
        for keys in &streams {
            for &key in keys {
                expect_hits += u64::from(index.probe(key, &rel, &io_single).unwrap().found());
            }
        }
        let expect = io_single.snapshot_total();

        let shared = ConcurrentIndex::new(index);
        let io = IoContext::cold(StorageConfig::SsdHdd);
        let name = name.as_str();
        let hits: u64 = std::thread::scope(|s| {
            let handles: Vec<_> = streams
                .iter()
                .map(|keys| {
                    let (shared, rel, io) = (&shared, &rel, &io);
                    s.spawn(move || {
                        let mut hits = 0u64;
                        for chunk in keys.chunks(BATCH) {
                            for (i, probe) in shared
                                .probe_batch(chunk, rel, io)
                                .expect("valid relation")
                                .iter()
                                .enumerate()
                            {
                                assert_eq!(
                                    probe.found(),
                                    chunk[i] < N,
                                    "{name}: probe({}) diverged under concurrency",
                                    chunk[i]
                                );
                                hits += u64::from(probe.found());
                            }
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
            "{name}: concurrent batched I/O totals must equal the scalar baseline"
        );
        assert_eq!(got.sim_ns, expect.sim_ns, "{name}: simulated time diverged");
    }
}

/// The blocked layout changes *which* filter bits are set, never the
/// query contract: no false negatives, and batch results stay
/// identical between the layouts' own scalar baselines.
#[test]
fn blocked_layout_has_no_false_negatives_through_the_batch_path() {
    let rel = relation(Duplicates::Unique);
    let tree = BfTree::builder()
        .fpp(1e-3)
        .filter_layout(FilterLayout::Blocked)
        .build(&rel)
        .expect("valid config");
    let io = IoContext::unmetered();
    let keys: Vec<u64> = (0..N).collect();
    for chunk in keys.chunks(512) {
        for (i, probe) in tree
            .probe_batch(chunk, &rel, &io)
            .expect("valid relation")
            .iter()
            .enumerate()
        {
            assert!(probe.found(), "blocked filter lost key {}", chunk[i]);
        }
    }
}
